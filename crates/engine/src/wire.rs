//! The versioned wire format: query files and answer lines.
//!
//! Queries and answers cross process boundaries — batch files on disk
//! today, router ↔ shard payloads tomorrow — so both directions are
//! versioned:
//!
//! * **Query files** start with the header `#rbq-queries v2`, followed by
//!   one [`Query::to_line`] per line (blank lines and `#` comments
//!   ignored). Headerless files are accepted as v1 for backward
//!   compatibility, with [`QueryFile::headerless`] set so front ends can
//!   warn; a header declaring a version this build does not speak is an
//!   error, not a silent misparse.
//! * **Answer files** start with `#rbq-answers v2`, followed by one
//!   [`answer_to_line`] per line. The answer line format is the
//!   router↔shard payload: every [`Answer`] variant round-trips exactly
//!   (pinned by proptests), except that newlines inside error messages are
//!   flattened to spaces (the format is line-oriented).
//!
//! **v2** adds the `timedout` and `failed` answer kinds (deadline expiry
//! and contained evaluation panics). This build reads v1 and v2 — v1 never
//! emitted either kind, so every v1 file is also a valid v2 file — and
//! writes v2.

use crate::error::QueryParseError;
use crate::{Answer, Query};
use rbq_graph::{DeltaBatch, DeltaOp, NodeId};
use std::io::Write;

/// The wire version this build writes (it reads both this and v1).
const WIRE_VERSION: u32 = 2;
/// The oldest wire version this build still reads.
const MIN_WIRE_VERSION: u32 = 1;
/// First line of a versioned query file.
pub const QUERY_FILE_HEADER: &str = "#rbq-queries v2";
/// First line of a versioned answer file.
const ANSWER_FILE_HEADER: &str = "#rbq-answers v2";
/// First line of a versioned delta file.
const DELTA_FILE_HEADER: &str = "#rbq-deltas v2";

/// A parsed query file.
#[derive(Debug, Clone)]
pub struct QueryFile {
    /// The queries, in file order.
    pub queries: Vec<Query>,
    /// Declared wire version (1 when headerless).
    pub version: u32,
    /// Whether the file lacked the `#rbq-queries` header (legacy format,
    /// treated as v1 — front ends should warn).
    pub headerless: bool,
}

/// Parse the version token that follows `#rbq-<kind>` on a header line.
fn parse_header_version(rest: &str) -> Result<u32, QueryParseError> {
    let rest = rest.trim();
    rest.strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .filter(|v| (MIN_WIRE_VERSION..=WIRE_VERSION).contains(v))
        .ok_or_else(|| QueryParseError::UnsupportedVersion(rest.to_owned()))
}

/// The loop every `#rbq-<kind>` file shares: skip blank lines and `#`
/// comments, read the header if it comes before the first payload line (a
/// header anywhere else is a stray comment), hand each payload line to
/// `item`, and tag any error with its 1-based line number. Returns the
/// declared version (1 when headerless) and whether payload arrived with
/// no header before it.
fn parse_lines(
    text: &str,
    kind: &str,
    mut item: impl FnMut(&str) -> Result<(), QueryParseError>,
) -> Result<(u32, bool), QueryParseError> {
    let header = format!("#rbq-{kind}");
    let mut version = None;
    let mut items = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = if !line.starts_with('#') {
            items += 1;
            item(line)
        } else {
            match line.strip_prefix(&header) {
                Some(rest) if version.is_none() && items == 0 => {
                    parse_header_version(rest).map(|v| version = Some(v))
                }
                _ => Ok(()),
            }
        };
        parsed.map_err(|e| QueryParseError::AtLine(i + 1, Box::new(e)))?;
    }
    Ok((
        version.unwrap_or(MIN_WIRE_VERSION),
        version.is_none() && items > 0,
    ))
}

/// Parse a whole query file (see [`QUERY_FILE_HEADER`]).
///
/// Errors carry their 1-based line number via
/// [`QueryParseError::AtLine`].
pub fn parse_query_file(text: &str) -> Result<QueryFile, QueryParseError> {
    let mut queries = Vec::new();
    let (version, headerless) = parse_lines(text, "queries", |line| {
        queries.push(Query::parse_line(line)?);
        Ok(())
    })?;
    Ok(QueryFile {
        queries,
        version,
        headerless,
    })
}

/// Write a versioned query file: header plus one line per query.
pub fn write_query_file<W: Write>(w: &mut W, queries: &[Query]) -> Result<(), WireWriteError> {
    writeln!(w, "{QUERY_FILE_HEADER}")?;
    for q in queries {
        writeln!(w, "{}", q.to_line()?)?;
    }
    Ok(())
}

/// Serialize one [`Answer`] to its versioned one-line form:
///
/// ```text
/// reach <0|1 reachable> <0|1 certified>
/// pattern <gq_size> <gq_nodes> <0|1 hit_budget> <m0,m1,...|->
/// denied <needed> <remaining>
/// error <message...>
/// timedout
/// failed <message...>
/// ```
///
/// (`timedout` and `failed` are v2 additions.) Infallible (unlike
/// queries, answers contain no free-form labels); newlines in error and
/// failure messages are flattened to spaces.
pub fn answer_to_line(a: &Answer) -> String {
    match a {
        Answer::Reach {
            reachable,
            certified,
        } => format!("reach {} {}", *reachable as u8, *certified as u8),
        Answer::Pattern {
            matches,
            gq_size,
            gq_nodes,
            hit_budget,
        } => {
            let ms = if matches.is_empty() {
                "-".to_owned()
            } else {
                matches
                    .iter()
                    .map(|v| v.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!("pattern {gq_size} {gq_nodes} {} {ms}", *hit_budget as u8)
        }
        Answer::Denied { needed, remaining } => format!("denied {needed} {remaining}"),
        Answer::Error(msg) => format!("error {}", msg.replace(['\n', '\r'], " ")),
        Answer::TimedOut => "timedout".to_owned(),
        Answer::Failed(msg) => format!("failed {}", msg.replace(['\n', '\r'], " ")),
    }
}

/// Parse one answer line written by [`answer_to_line`].
pub fn answer_from_line(line: &str) -> Result<Answer, QueryParseError> {
    let line = line.trim_end_matches(['\n', '\r']);
    let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
    let mut fields = rest.split_whitespace();
    let mut next = |what: &'static str| -> Result<&str, QueryParseError> {
        fields.next().ok_or(QueryParseError::MissingField(what))
    };
    let parse_bool = |what: &'static str, tok: &str| -> Result<bool, QueryParseError> {
        match tok {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(QueryParseError::BadField {
                what,
                token: tok.to_owned(),
            }),
        }
    };
    let parse_num = |what: &'static str, tok: &str| -> Result<usize, QueryParseError> {
        tok.parse().map_err(|_| QueryParseError::BadField {
            what,
            token: tok.to_owned(),
        })
    };
    match kind {
        "" => Err(QueryParseError::EmptyLine),
        "reach" => {
            let reachable = parse_bool("reachable flag", next("reachable flag")?)?;
            let certified = parse_bool("certified flag", next("certified flag")?)?;
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            Ok(Answer::Reach {
                reachable,
                certified,
            })
        }
        "pattern" => {
            let gq_size = parse_num("gq size", next("gq size")?)?;
            let gq_nodes = parse_num("gq nodes", next("gq nodes")?)?;
            let hit_budget = parse_bool("budget flag", next("budget flag")?)?;
            let ms = next("match list")?;
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            let mut matches = Vec::new();
            if ms != "-" {
                for tok in ms.split(',') {
                    let id: u32 = tok.parse().map_err(|_| QueryParseError::BadField {
                        what: "match id",
                        token: tok.to_owned(),
                    })?;
                    matches.push(NodeId(id));
                }
            }
            Ok(Answer::Pattern {
                matches,
                gq_size,
                gq_nodes,
                hit_budget,
            })
        }
        "denied" => {
            let needed = parse_num("needed visits", next("needed visits")?)?;
            let remaining = parse_num("remaining budget", next("remaining budget")?)?;
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            Ok(Answer::Denied { needed, remaining })
        }
        "error" => Ok(Answer::Error(rest.to_owned())),
        "timedout" => {
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            Ok(Answer::TimedOut)
        }
        "failed" => Ok(Answer::Failed(rest.to_owned())),
        other => Err(QueryParseError::UnknownAnswerKind(other.to_owned())),
    }
}

/// A parsed answer file.
#[derive(Debug, Clone)]
pub struct AnswerFile {
    /// The answers, in file order.
    pub answers: Vec<Answer>,
    /// Declared wire version (1 when headerless).
    pub version: u32,
    /// Whether the file lacked the `#rbq-answers` header.
    pub headerless: bool,
}

/// Parse a whole answer file, as [`write_answer_file`] writes it.
pub fn parse_answer_file(text: &str) -> Result<AnswerFile, QueryParseError> {
    let mut answers = Vec::new();
    let (version, headerless) = parse_lines(text, "answers", |line| {
        answers.push(answer_from_line(line)?);
        Ok(())
    })?;
    Ok(AnswerFile {
        answers,
        version,
        headerless,
    })
}

/// Write a versioned answer file: header plus one line per answer.
pub fn write_answer_file<W: Write>(w: &mut W, answers: &[Answer]) -> Result<(), WireWriteError> {
    writeln!(w, "{ANSWER_FILE_HEADER}")?;
    for a in answers {
        writeln!(w, "{}", answer_to_line(a))?;
    }
    Ok(())
}

/// A parsed delta file.
#[derive(Debug, Clone)]
pub struct DeltaFile {
    /// The recorded update batch, in file order.
    pub batch: DeltaBatch,
    /// Declared wire version (1 when headerless).
    pub version: u32,
    /// Whether the file lacked the `#rbq-deltas` header.
    pub headerless: bool,
}

/// Serialize one [`DeltaOp`] to its versioned one-line form:
///
/// ```text
/// an <label>
/// ae <u> <v>
/// re <u> <v>
/// ```
///
/// Node ids in `ae`/`re` lines may point past the current graph into the
/// batch's own `an` additions, exactly like the in-memory API. Labels are
/// single whitespace-free tokens (the format is line- and token-oriented);
/// a label that cannot round-trip is a typed error.
fn delta_op_to_line(op: &DeltaOp) -> Result<String, QueryParseError> {
    Ok(match op {
        DeltaOp::AddNode(label) => {
            if label.is_empty() || label.chars().any(char::is_whitespace) {
                return Err(QueryParseError::UnserializableLabel(label.clone()));
            }
            format!("an {label}")
        }
        DeltaOp::AddEdge(u, v) => format!("ae {} {}", u.0, v.0),
        DeltaOp::RemoveEdge(u, v) => format!("re {} {}", u.0, v.0),
    })
}

/// Parse one delta line written by [`delta_op_to_line`].
fn delta_op_from_line(line: &str) -> Result<DeltaOp, QueryParseError> {
    let line = line.trim();
    let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
    let mut fields = rest.split_whitespace();
    let mut next = |what: &'static str| -> Result<&str, QueryParseError> {
        fields.next().ok_or(QueryParseError::MissingField(what))
    };
    let parse_id = |what: &'static str, tok: &str| -> Result<NodeId, QueryParseError> {
        tok.parse::<u32>()
            .map(NodeId)
            .map_err(|_| QueryParseError::BadField {
                what,
                token: tok.to_owned(),
            })
    };
    match kind {
        "" => Err(QueryParseError::EmptyLine),
        "an" => {
            let label = next("node label")?.to_owned();
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            Ok(DeltaOp::AddNode(label))
        }
        "ae" | "re" => {
            let u = parse_id("source id", next("source id")?)?;
            let v = parse_id("target id", next("target id")?)?;
            if fields.next().is_some() {
                return Err(QueryParseError::TrailingTokens(line.to_owned()));
            }
            Ok(if kind == "ae" {
                DeltaOp::AddEdge(u, v)
            } else {
                DeltaOp::RemoveEdge(u, v)
            })
        }
        other => Err(QueryParseError::UnknownKind(other.to_owned())),
    }
}

/// Parse a whole delta file, as [`write_delta_file`] writes it.
///
/// Errors carry their 1-based line number via
/// [`QueryParseError::AtLine`].
pub fn parse_delta_file(text: &str) -> Result<DeltaFile, QueryParseError> {
    let mut batch = DeltaBatch::new();
    let (version, headerless) = parse_lines(text, "deltas", |line| {
        match delta_op_from_line(line)? {
            DeltaOp::AddNode(label) => {
                batch.add_node(&label);
            }
            DeltaOp::AddEdge(u, v) => batch.add_edge(u, v),
            DeltaOp::RemoveEdge(u, v) => batch.remove_edge(u, v),
        }
        Ok(())
    })?;
    Ok(DeltaFile {
        batch,
        version,
        headerless,
    })
}

/// Write a versioned delta file: header plus one line per operation.
pub fn write_delta_file<W: Write>(w: &mut W, batch: &DeltaBatch) -> Result<(), WireWriteError> {
    writeln!(w, "{DELTA_FILE_HEADER}")?;
    for op in batch.ops() {
        writeln!(w, "{}", delta_op_to_line(op)?)?;
    }
    Ok(())
}

/// Errors writing a wire file: a query that cannot round-trip, or I/O.
#[derive(Debug)]
pub enum WireWriteError {
    /// The payload cannot be serialized (see
    /// [`QueryParseError::UnserializableLabel`]).
    Format(QueryParseError),
    /// The underlying writer failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireWriteError::Format(e) => write!(f, "{e}"),
            WireWriteError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireWriteError::Format(e) => Some(e),
            WireWriteError::Io(e) => Some(e),
        }
    }
}

impl From<QueryParseError> for WireWriteError {
    fn from(e: QueryParseError) -> Self {
        WireWriteError::Format(e)
    }
}

impl From<std::io::Error> for WireWriteError {
    fn from(e: std::io::Error) -> Self {
        WireWriteError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_pattern::pattern::fig1_pattern;

    fn answers() -> Vec<Answer> {
        vec![
            Answer::Reach {
                reachable: true,
                certified: true,
            },
            Answer::Reach {
                reachable: false,
                certified: false,
            },
            Answer::Pattern {
                matches: vec![NodeId(3), NodeId(9)],
                gq_size: 14,
                gq_nodes: 6,
                hit_budget: true,
            },
            Answer::Pattern {
                matches: vec![],
                gq_size: 0,
                gq_nodes: 0,
                hit_budget: false,
            },
            Answer::Denied {
                needed: 120,
                remaining: 7,
            },
            Answer::Error("node id out of range (9 or 10 >= 4)".into()),
            Answer::TimedOut,
            Answer::Failed("kernel panicked: index out of bounds".into()),
        ]
    }

    #[test]
    fn answer_lines_round_trip() {
        for a in answers() {
            let line = answer_to_line(&a);
            let back = answer_from_line(&line).expect(&line);
            assert_eq!(a, back, "line {line:?}");
        }
    }

    #[test]
    fn answer_file_round_trips() {
        let aa = answers();
        let mut buf = Vec::new();
        write_answer_file(&mut buf, &aa).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(ANSWER_FILE_HEADER));
        let parsed = parse_answer_file(&text).unwrap();
        assert_eq!(parsed.answers, aa);
        assert_eq!(parsed.version, WIRE_VERSION);
        assert!(!parsed.headerless);
    }

    #[test]
    fn query_file_round_trips_with_header() {
        let qs = vec![
            Query::Reach {
                source: NodeId(7),
                target: NodeId(42),
            },
            Query::PatternSim {
                pattern: fig1_pattern(),
            },
        ];
        let mut buf = Vec::new();
        write_query_file(&mut buf, &qs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(QUERY_FILE_HEADER));
        let parsed = parse_query_file(&text).unwrap();
        assert_eq!(parsed.queries.len(), 2);
        assert!(!parsed.headerless);
        assert_eq!(
            parsed.queries[0].to_line().unwrap(),
            qs[0].to_line().unwrap()
        );
        assert_eq!(
            parsed.queries[1].to_line().unwrap(),
            qs[1].to_line().unwrap()
        );
    }

    #[test]
    fn headerless_query_file_accepted_as_v1() {
        let parsed = parse_query_file("# legacy comment\nr 0 1\n").unwrap();
        assert_eq!(parsed.queries.len(), 1);
        assert_eq!(parsed.version, MIN_WIRE_VERSION);
        assert!(parsed.headerless);
    }

    #[test]
    fn v1_header_still_accepted() {
        let parsed = parse_query_file("#rbq-queries v1\nr 0 1\n").unwrap();
        assert_eq!(parsed.queries.len(), 1);
        assert_eq!(parsed.version, 1);
        assert!(!parsed.headerless);
        let parsed = parse_answer_file("#rbq-answers v1\nreach 1 0\n").unwrap();
        assert_eq!(parsed.version, 1);
    }

    #[test]
    fn future_version_rejected() {
        // rbq-lint: allow(wire-version, "rejection test: a future v3 header must error")
        let err = parse_query_file("#rbq-queries v3\nr 0 1\n").unwrap_err();
        assert!(
            matches!(&err, QueryParseError::AtLine(1, e)
                if matches!(**e, QueryParseError::UnsupportedVersion(_))),
            "{err}"
        );
        // rbq-lint: allow(wire-version, "rejection test: a future v9 header must error")
        assert!(parse_answer_file("#rbq-answers v9\n").is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_query_file("#rbq-queries v1\nr 0 1\nx bogus\n").unwrap_err();
        assert!(matches!(err, QueryParseError::AtLine(3, _)), "{err}");
    }

    #[test]
    fn error_message_newlines_flattened() {
        let a = Answer::Error("two\nlines".into());
        let line = answer_to_line(&a);
        assert_eq!(
            answer_from_line(&line).unwrap(),
            Answer::Error("two lines".into())
        );
    }

    #[test]
    fn delta_file_round_trips() {
        let mut batch = DeltaBatch::new();
        let rank = batch.add_node("Newcomer");
        batch.add_edge(NodeId(0), NodeId(4 + rank as u32));
        batch.remove_edge(NodeId(1), NodeId(3));
        let mut buf = Vec::new();
        write_delta_file(&mut buf, &batch).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with(DELTA_FILE_HEADER));
        let parsed = parse_delta_file(&text).unwrap();
        assert_eq!(parsed.batch, batch);
        assert_eq!(parsed.version, WIRE_VERSION);
        assert!(!parsed.headerless);
    }

    #[test]
    fn headerless_delta_file_accepted_as_v1() {
        let parsed = parse_delta_file("ae 0 1\nre 2 3\n").unwrap();
        assert_eq!(parsed.batch.len(), 2);
        assert!(parsed.headerless);
        // rbq-lint: allow(wire-version, "rejection test: a future v9 header must error")
        assert!(parse_delta_file("#rbq-deltas v9\n").is_err());
    }

    #[test]
    fn malformed_delta_lines_rejected() {
        for bad in [
            "",
            "an",
            "an two words",
            "ae 0",
            "ae x 1",
            "re 0 1 2",
            "zz 0 1",
        ] {
            assert!(delta_op_from_line(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse_delta_file("#rbq-deltas v1\nan A\nae bogus 1\n").unwrap_err();
        assert!(matches!(err, QueryParseError::AtLine(3, _)), "{err}");
        // A whitespace label cannot round-trip the line format.
        let mut batch = DeltaBatch::new();
        batch.add_node("two words");
        let mut buf = Vec::new();
        assert!(matches!(
            write_delta_file(&mut buf, &batch),
            Err(WireWriteError::Format(
                QueryParseError::UnserializableLabel(_)
            ))
        ));
    }

    #[test]
    fn malformed_answer_lines_rejected() {
        for bad in [
            "",
            "reach 1",
            "reach 2 0",
            "reach 1 0 extra",
            "pattern 3 2 1",
            "pattern 3 2 1 a,b",
            "denied 5",
            "timedout extra",
            "bogus 1 2",
        ] {
            assert!(answer_from_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
