//! Fixture: dead-export — an export another file names passes; one named
//! only by its own file (tests included) or by a `pub use` fires.

pub fn used_elsewhere() -> u32 {
    1
}

pub fn dead_fn() -> u32 {
    2
}

pub(crate) fn dead_crate_fn() {}

pub const DEAD_CONST: u32 = 3;

pub static USED_STATIC: u32 = 4;

pub const unsafe fn dead_qualified_fn() {}

pub fn reexported_only() {}

// rbq-lint: allow(dead-export, "fixture: deliberate public API")
pub fn allowed_api() {}

/// Types are left out of the rule.
pub struct OnlyNamedHere;

#[cfg(test)]
mod tests {
    pub fn test_helper_is_not_an_export() {}

    #[test]
    fn own_file_use_does_not_count() {
        assert_eq!(super::dead_fn(), 2);
    }
}
