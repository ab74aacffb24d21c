//! Fixture: `hot-path-alloc` — checked as `crates/core/src/fx_hot.rs`.

// rbq-lint: hot
pub fn bad_hot(xs: &[u32]) -> u32 {
    let v: Vec<u32> = xs.to_vec();
    let mut out = Vec::new();
    out.extend_from_slice(&v);
    let s = format!("{}", out.len());
    s.len() as u32
}

// rbq-lint: hot
pub fn bad_hot_collections(xs: &[u32]) -> usize {
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut by: HashMap<u32, u32> = HashMap::with_capacity(xs.len());
    let ordered: BTreeSet<u32> = BTreeSet::new();
    seen.extend(xs);
    by.insert(0, 0);
    seen.len() + by.len() + ordered.len()
}

// rbq-lint: hot
pub fn good_hot_collection_in_scratch(xs: &[u32], seen: &mut FxHashSet<u32>) -> usize {
    seen.clear();
    seen.extend(xs);
    seen.len()
}

// rbq-lint: hot
pub fn good_hot(xs: &[u32], scratch: &mut Vec<u32>) -> u32 {
    scratch.clear();
    scratch.extend_from_slice(xs);
    scratch.iter().sum()
}

// rbq-lint: hot
pub fn good_arc_clone(a: &std::sync::Arc<u32>) -> std::sync::Arc<u32> {
    std::sync::Arc::clone(a)
}

// rbq-lint: hot
pub fn good_cold_branch_allowed(xs: &[u32], pool: &mut Vec<Vec<u32>>) {
    if pool.is_empty() {
        // rbq-lint: allow(hot-path-alloc, "fixture: cold first-use growth of the pool")
        pool.resize_with(4, Vec::new);
    }
    pool[0].extend_from_slice(xs);
}

pub fn cold_fn_may_allocate() -> Vec<u32> {
    vec![1, 2, 3]
}

// rbq-lint: hot
pub const DANGLING_ANNOTATION: u32 = 0;
