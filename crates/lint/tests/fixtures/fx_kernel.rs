//! Fixture: `cancel-coverage` — registered as a kernel hot-loop file
//! (`crates/core/src/fx_kernel.rs` in the fixture context).

pub fn good_ticked(xs: &[u32], cancel: &mut crate::CancelTicker) -> u32 {
    crate::faultpoint::fire(Point::FxKernel);
    let mut sum = 0;
    let mut i = 0;
    while i < xs.len() {
        cancel.tick(Point::FxKernel);
        sum += xs[i];
        i += 1;
    }
    sum
}

pub fn bad_unticked(xs: &[u32]) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while i < xs.len() {
        sum += xs[i];
        i += 1;
    }
    sum
}

pub fn bad_loop(mut n: u32) -> u32 {
    loop {
        if n == 0 {
            return n;
        }
        n /= 2;
    }
}

pub fn good_allowed(xs: &[u32]) -> u32 {
    let mut sum = 0;
    // rbq-lint: allow(cancel-coverage, "fixture: bounded by a tiny constant, not |G|")
    while sum < 8 {
        sum += xs.first().copied().unwrap_or(1);
    }
    sum
}

#[cfg(test)]
mod tests {
    #[test]
    fn loops_in_tests_need_no_tick() {
        let mut n = 4u32;
        while n > 0 {
            n -= 1;
        }
    }
}
