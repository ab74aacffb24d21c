//! Fixture: the format table — checked as `crates/core/src/fx_codec.rs`
//! (the fixture context's format module). The wire rows share v2; the
//! durable rows version on their own, so snapshot v2 beside WAL v1 is fine.

pub const QUERIES: Format = Format::wire("#rbq-queries v2", 1);
pub const ANSWERS: Format = Format::wire("#rbq-answers v2", 1);
pub const DELTAS: Format = Format::wire("#rbq-deltas v2", 1);
pub const SNAPSHOT: Format = Format::durable("#rbq-snapshot v2", 1);
pub const WAL: Format = Format::durable("#rbq-wal v1", 1);

/// Every mention of the `#rbq-wal v1` magic matches its row.
pub fn current_wal_magic() -> &'static str {
    "#rbq-wal v1"
}
