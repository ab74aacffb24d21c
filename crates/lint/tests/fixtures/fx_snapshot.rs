//! Fixture: snapshot-magic occurrences, one of them stale. The format
//! table (`fx_codec.rs`) declares v2; the helper still mentions the v1
//! magic, which `snapshot-version` must flag (comment and literal).

/// Matches the declared current snapshot file format.
pub const SNAPSHOT_FILE_MAGIC: &str = "#rbq-snapshot v2";

/// Returns the legacy `#rbq-snapshot v1` magic — stale, fires the rule.
pub fn stale_magic() -> &'static str {
    "#rbq-snapshot v1"
}

#[cfg(test)]
mod tests {
    // Older versions are fine in test scope (legacy-read coverage)…
    #[test]
    fn reads_legacy() {
        assert!("#rbq-snapshot v1".starts_with("#rbq-snapshot"));
    }

    // …but a future version marks a rejection test and needs an allow.
    #[test]
    fn rejects_future() {
        assert!(!"#rbq-snapshot v3".is_empty());
    }
}
