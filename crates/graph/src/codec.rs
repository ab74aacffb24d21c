//! The one framing codec under every `#rbq-*` file format.
//!
//! Every file rbq writes starts with a one-line ASCII magic
//! `#rbq-<kind> v<N>`. This module declares them all, one [`Format`] row
//! per kind with the version this build writes and the oldest it still
//! reads:
//!
//! | row          | family  | body                                            |
//! |--------------|---------|-------------------------------------------------|
//! | [`QUERIES`]  | wire    | one query line each (`rbq_engine::wire`)        |
//! | [`ANSWERS`]  | wire    | one answer line each                            |
//! | [`DELTAS`]   | wire    | one delta op line each                          |
//! | [`SNAPSHOT`] | durable | sections + CRC trailer ([`crate::snapshot`])    |
//! | [`WAL`]      | durable | `[len][crc][payload]` records ([`crate::wal`])  |
//!
//! Wire rows share one version and durable rows each version on their own.
//! `rbq-lint` reads the rows from this file's source and holds every
//! `#rbq-*` literal in the workspace to them: `wire-version` for the wire
//! family, `snapshot-version` for the durable one. A new layout, such as
//! snapshot v2, is a bumped row plus the sections its loader reads.
//!
//! The binary formats share the rest: [`Format::split`] checks a magic
//! line, [`Writer`] and [`Reader`] encode and decode little-endian fields
//! (lengths and counts as checked `u32`s), [`Writer::seal`] / [`unseal`]
//! add and check the CRC-32 trailer of a whole file, [`Writer::frame`] /
//! [`next_frame`] the `[u32 len][u32 crc][payload]` frame of one record,
//! and every failure is one typed [`FormatError`] — never a panic, whatever
//! the bytes on disk.

use std::fmt;
use std::io;

/// One `#rbq-<kind>` file format: the magic line this build writes and the
/// oldest version it still reads.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// `#rbq-<kind> v<N>`: the first line of every file this build writes.
    pub magic: &'static str,
    /// The oldest version this build still reads.
    pub min_read: u32,
}

/// Query files (`rbq batch` input).
pub const QUERIES: Format = Format::wire("#rbq-queries v2", 1);
/// Answer files (`rbq batch --answers`, the router ↔ shard payload).
pub const ANSWERS: Format = Format::wire("#rbq-answers v2", 1);
/// Delta files (`rbq ingest` input).
pub const DELTAS: Format = Format::wire("#rbq-deltas v2", 1);
/// Binary snapshots of the compacted CSR.
pub const SNAPSHOT: Format = Format::durable("#rbq-snapshot v1", 1);
/// The write-ahead log of delta batches.
pub const WAL: Format = Format::durable("#rbq-wal v1", 1);

impl Format {
    /// A text format of the wire family (the lint holds all of them to one
    /// version).
    const fn wire(magic: &'static str, min_read: u32) -> Format {
        Format { magic, min_read }
    }

    /// A binary format of the durable family (each versions on its own).
    const fn durable(magic: &'static str, min_read: u32) -> Format {
        Format { magic, min_read }
    }

    /// `#rbq-<kind>`: the magic line without its version token.
    pub fn prefix(&self) -> &'static str {
        self.magic.rsplit_once(' ').map_or(self.magic, |(p, _)| p)
    }

    /// Whether this build reads the version `token` (`v<N>`) names.
    pub fn reads(&self, token: &str) -> bool {
        let version = |t: &str| {
            t.strip_prefix('v')
                .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|d| d.parse::<u32>().ok())
        };
        let current = self.magic.rsplit_once(' ').and_then(|(_, t)| version(t));
        matches!((version(token), current), (Some(v), Some(c)) if (self.min_read..=c).contains(&v))
    }

    /// Check that `raw` opens with a magic line of this format in a version
    /// this build reads, and return the bytes after it.
    pub fn split<'a>(&self, raw: &'a [u8]) -> Result<&'a [u8], FormatError> {
        let end = raw.iter().position(|&b| b == b'\n');
        let line = &raw[..end.unwrap_or(raw.len())];
        let ok = std::str::from_utf8(line)
            .ok()
            .and_then(|l| l.strip_prefix(self.prefix())?.strip_prefix(' '))
            .is_some_and(|t| self.reads(t));
        match end {
            Some(end) if ok => Ok(&raw[end + 1..]),
            _ => Err(FormatError::BadMagic {
                expected: self.magic,
                found: String::from_utf8_lossy(&line[..line.len().min(32)]).into_owned(),
            }),
        }
    }
}

/// Typed failure of any durable read or write. Corrupt bytes always
/// surface here: no reader in this crate panics on untrusted input.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with a magic line this build reads.
    BadMagic {
        /// The magic line this build writes for the expected format.
        expected: &'static str,
        /// What the first line actually was (lossy, truncated).
        found: String,
    },
    /// The bytes end before a complete section.
    Truncated {
        /// Which section was being read.
        section: &'static str,
    },
    /// A stored CRC-32 does not match the bytes it covers.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the covered bytes.
        computed: u32,
    },
    /// A section is internally inconsistent (non-monotone offsets, an
    /// out-of-range node id, trailing bytes, …).
    Malformed {
        /// Which invariant the section violated.
        what: &'static str,
    },
    /// A length or count does not fit the `u32` the layouts store.
    TooLarge {
        /// Which count overflowed.
        what: &'static str,
    },
    /// A previous append on this WAL writer failed partway; the tail of
    /// the file is suspect and the writer refuses further appends until
    /// the log is replayed and re-opened.
    WriterPoisoned,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic { expected, found } => {
                write!(f, "bad magic {found:?} (expected {expected:?})")
            }
            FormatError::Truncated { section } => write!(f, "file truncated in section {section}"),
            FormatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FormatError::Malformed { what } => write!(f, "malformed file: {what}"),
            FormatError::TooLarge { what } => write!(f, "{what} exceeds the format's u32"),
            FormatError::WriterPoisoned => write!(
                f,
                "wal writer poisoned by an earlier failed append; replay and re-open the log"
            ),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][i]`
/// is the CRC of byte `i` followed by `k` zero bytes, so eight table reads
/// advance the checksum over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum of the
/// snapshot trailer and of every WAL record. Hand-rolled over compile-time
/// tables, with no dependency: eight bytes per step ("slice-by-8"), the
/// tail one byte per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |c: u32, shift: u32| ((c >> shift) & 0xFF) as usize;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    !c
}

/// Little-endian encoder of one whole file ([`Writer::file`]) or one
/// record ([`Writer::record`]).
pub struct Writer {
    buf: Vec<u8>,
    /// Where the checksummed bytes start: after the magic line of a file,
    /// after the 8-byte header of a record.
    start: usize,
}

impl Writer {
    /// A file of `format`: its magic line, then the body [`Writer::seal`]
    /// checksums. `capacity` is a hint for the body's size.
    pub fn file(format: &Format, capacity: usize) -> Writer {
        let mut buf = Vec::with_capacity(format.magic.len() + 1 + capacity + 4);
        buf.extend_from_slice(format.magic.as_bytes());
        buf.push(b'\n');
        Writer {
            start: buf.len(),
            buf,
        }
    }

    /// One `[len][crc][payload]` record; [`Writer::frame`] fills in the
    /// header. `capacity` is a hint for the payload's size.
    pub fn record(capacity: usize) -> Writer {
        let mut buf = Vec::with_capacity(8 + capacity);
        buf.resize(8, 0);
        Writer { buf, start: 8 }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length or count, which every layout stores as a `u32`.
    pub fn count(&mut self, n: usize, what: &'static str) -> Result<(), FormatError> {
        self.u32(u32::try_from(n).map_err(|_| FormatError::TooLarge { what })?);
        Ok(())
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str, what: &'static str) -> Result<(), FormatError> {
        self.count(s.len(), what)?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// The finished file: everything after the magic line, followed by its
    /// CRC-32 as a little-endian `u32` trailer.
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf[self.start..]);
        self.u32(crc);
        self.buf
    }

    /// The finished record: its header holds the payload's length and
    /// CRC-32.
    pub fn frame(mut self) -> Result<Vec<u8>, FormatError> {
        let payload = &self.buf[self.start..];
        let len = u32::try_from(payload.len()).map_err(|_| FormatError::TooLarge {
            what: "record payload length",
        })?;
        let crc = crc32(payload);
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(self.buf)
    }
}

/// Check the CRC-32 trailer of a file body written by [`Writer::seal`]
/// (`rest` is what [`Format::split`] returned) and return the body.
pub fn unseal(rest: &[u8]) -> Result<&[u8], FormatError> {
    let section = "checksum";
    let at = rest
        .len()
        .checked_sub(4)
        .ok_or(FormatError::Truncated { section })?;
    let (body, trailer) = rest.split_at(at);
    checked(Reader::new(trailer).u32(section)?, body)
}

/// Split the record written by [`Writer::frame`] off the front of `bytes`:
/// its CRC-checked payload, and the bytes after it. [`FormatError::Truncated`]
/// means `bytes` ends mid-record — the shape a crash mid-append leaves.
pub fn next_frame(bytes: &[u8]) -> Result<(&[u8], &[u8]), FormatError> {
    let mut r = Reader::new(bytes);
    let len = r.u32("record header")? as usize;
    let stored = r.u32("record header")?;
    let payload = checked(stored, r.take(len, "record payload")?)?;
    Ok((payload, &bytes[r.pos..]))
}

/// `bytes`, if their CRC-32 is `stored`.
fn checked(stored: u32, bytes: &[u8]) -> Result<&[u8], FormatError> {
    let computed = crc32(bytes);
    if stored != computed {
        return Err(FormatError::ChecksumMismatch { stored, computed });
    }
    Ok(bytes)
}

/// Bounds-checked little-endian decoder: every read past the end is a
/// [`FormatError::Truncated`] naming the section being read.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], FormatError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(FormatError::Truncated { section })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], FormatError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, section)?);
        Ok(a)
    }

    /// The next byte.
    pub fn u8(&mut self, section: &'static str) -> Result<u8, FormatError> {
        Ok(self.array::<1>(section)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self, section: &'static str) -> Result<u32, FormatError> {
        self.array(section).map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self, section: &'static str) -> Result<u64, FormatError> {
        self.array(section).map(u64::from_le_bytes)
    }

    /// The next `count` little-endian `u32`s.
    pub fn u32s(
        &mut self,
        count: usize,
        section: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, FormatError> {
        let len = count
            .checked_mul(4)
            .ok_or(FormatError::Truncated { section })?;
        let bytes = self.take(len, section)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }

    /// The next `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, section: &'static str) -> Result<&'a str, FormatError> {
        let len = self.u32(section)? as usize;
        std::str::from_utf8(self.take(len, section)?).map_err(|_| FormatError::Malformed {
            what: "string is not UTF-8",
        })
    }

    /// Check that every byte was read.
    pub fn finish(self) -> Result<(), FormatError> {
        if self.pos != self.bytes.len() {
            return Err(FormatError::Malformed {
                what: "trailing bytes after last section",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: [Format; 5] = [QUERIES, ANSWERS, DELTAS, SNAPSHOT, WAL];

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Slice-by-8 against a table-free bytewise CRC, on every length
    /// 0..=64 and on unaligned windows of a longer buffer.
    #[test]
    fn crc32_matches_the_bytewise_reference() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        for start in 0..16 {
            for end in (start..data.len()).step_by(7) {
                let w = &data[start..end];
                assert_eq!(crc32(w), bytewise(w), "window {start}..{end}");
            }
        }
    }

    #[test]
    fn every_row_reads_its_own_window_only() {
        for f in ROWS {
            let (prefix, current) = f.magic.rsplit_once(" v").unwrap();
            assert_eq!(f.prefix(), prefix);
            let current: u32 = current.parse().unwrap();
            assert!((1..=current).contains(&f.min_read), "{}", f.magic);
            for v in 0..current + 2 {
                let token = format!("v{v}");
                assert_eq!(f.reads(&token), (f.min_read..=current).contains(&v));
            }
            for bad in ["", "v", "2", "v+1", "v-1", "v1x", "V1"] {
                assert!(!f.reads(bad), "{} read {bad:?}", f.magic);
            }
        }
    }

    #[test]
    fn split_checks_the_whole_magic_line() {
        let file = format!("{}\nbody", WAL.magic);
        assert_eq!(WAL.split(file.as_bytes()).unwrap(), b"body");
        for bad in [
            "",
            "#rbq-wal v1",
            "#rbq-wal v1 \nbody",
            "#rbq-wal  v1\nbody",
            "#rbq-wal v0\nbody",
            "#rbq-snapshot v1\nbody",
        ] {
            assert!(
                matches!(
                    WAL.split(bad.as_bytes()),
                    Err(FormatError::BadMagic {
                        expected: "#rbq-wal v1",
                        ..
                    })
                ),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn sealed_file_and_framed_record_round_trip() {
        let mut w = Writer::file(&SNAPSHOT, 0);
        w.u64(7);
        w.str("label", "label").unwrap();
        let file = w.seal();
        let body = unseal(SNAPSHOT.split(&file).unwrap()).unwrap();
        let mut r = Reader::new(body);
        assert_eq!(r.u64("seq").unwrap(), 7);
        assert_eq!(r.str("label").unwrap(), "label");
        r.finish().unwrap();

        let mut w = Writer::record(0);
        w.u8(9);
        w.count(3, "count").unwrap();
        let mut log = w.frame().unwrap();
        log.extend_from_slice(b"tail");
        let (payload, rest) = next_frame(&log).unwrap();
        assert_eq!(payload, [9, 3, 0, 0, 0]);
        assert_eq!(rest, b"tail");
        assert!(matches!(
            next_frame(&log[..7]),
            Err(FormatError::Truncated { .. })
        ));
        log[9] ^= 1;
        assert!(matches!(
            next_frame(&log),
            Err(FormatError::ChecksumMismatch { .. })
        ));
    }
}
