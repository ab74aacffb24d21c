//! Fixture: `wire-version` uses against the rows of `fx_codec.rs` —
//! checked as `crates/engine/src/fx_wire.rs`.

pub const QUERY_FILE_HEADER: &str = "#rbq-queries v2";
pub const ANSWER_FILE_HEADER: &str = "#rbq-answers v2";
pub const DELTA_FILE_HEADER: &str = "#rbq-deltas v2";

pub fn good_current() -> &'static str {
    "#rbq-queries v2"
}

pub fn bad_stale() -> &'static str {
    "#rbq-answers v1"
}

pub fn good_versionless_prefix(line: &str) -> bool {
    // A prefix check without a version is a dispatch, not a header.
    line.starts_with("#rbq-deltas")
}

#[cfg(test)]
mod tests {
    #[test]
    fn old_versions_are_legacy_read_coverage() {
        let _v1 = "#rbq-queries v1";
    }

    #[test]
    fn bad_future_version_without_allow() {
        let _v3 = "#rbq-answers v3";
    }

    #[test]
    fn good_future_version_with_allow() {
        // rbq-lint: allow(wire-version, "fixture: deliberate rejection test")
        let _v9 = "#rbq-deltas v9";
    }
}
