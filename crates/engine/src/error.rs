//! Typed engine errors.
//!
//! Everything the engine can reject is enumerated here instead of being a
//! `String`: a router (or any other front end on the far side of a process
//! or shard boundary) can match on the variant, wrap it losslessly, and
//! still render the same human-readable message via [`std::fmt::Display`].

use std::fmt;

/// Errors parsing or serializing the versioned query/answer line formats
/// (see [`crate::wire`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryParseError {
    /// Empty input line.
    EmptyLine,
    /// Unknown leading query-kind token.
    UnknownKind(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field failed to parse.
    BadField {
        /// What the field was.
        what: &'static str,
        /// The offending token (empty when absent).
        token: String,
    },
    /// Extra tokens after a complete line.
    TrailingTokens(String),
    /// A pattern label was empty.
    EmptyLabel,
    /// A pattern edge was not `U-V`.
    BadEdge(String),
    /// A pattern edge referenced a node index out of range.
    EdgeOutOfRange(String),
    /// Personalized/output index out of range.
    AnchorOutOfRange {
        /// Personalized index.
        up: usize,
        /// Output index.
        uo: usize,
        /// Number of pattern nodes.
        len: usize,
    },
    /// A label cannot round-trip the line format (whitespace or comma).
    UnserializableLabel(String),
    /// Unknown leading answer-kind token.
    UnknownAnswerKind(String),
    /// A file header declared a wire version this build does not speak.
    UnsupportedVersion(String),
    /// A file-level error, tagged with its 1-based line number.
    AtLine(usize, Box<QueryParseError>),
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryParseError::EmptyLine => write!(f, "empty query line"),
            QueryParseError::UnknownKind(k) => {
                write!(f, "unknown query kind {k:?} (want r|s|i)")
            }
            QueryParseError::MissingField(what) => write!(f, "missing {what}"),
            QueryParseError::BadField { what, token } => write!(f, "bad {what} {token:?}"),
            QueryParseError::TrailingTokens(line) => {
                write!(f, "trailing tokens on line {line:?}")
            }
            QueryParseError::EmptyLabel => write!(f, "empty pattern label"),
            QueryParseError::BadEdge(e) => write!(f, "bad edge {e:?}, expected U-V"),
            QueryParseError::EdgeOutOfRange(e) => {
                write!(f, "edge {e:?} references missing node")
            }
            QueryParseError::AnchorOutOfRange { up, uo, len } => write!(
                f,
                "personalized/output index out of range ({up}/{uo} of {len})"
            ),
            QueryParseError::UnserializableLabel(l) => {
                write!(f, "label {l:?} does not round-trip the line format")
            }
            QueryParseError::UnknownAnswerKind(k) => {
                write!(
                    f,
                    "unknown answer kind {k:?} (want reach|pattern|denied|error|timedout|failed)"
                )
            }
            QueryParseError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v:?} (this build speaks v1-v2)"
                )
            }
            QueryParseError::AtLine(n, e) => write!(f, "line {n}: {e}"),
        }
    }
}

impl std::error::Error for QueryParseError {}

/// Top-level engine error: configuration problems plus lossless wrappers
/// for the lower layers, so shard errors cross the router boundary typed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A resource ratio lies outside `(0, 1]`.
    InvalidAlpha {
        /// Which knob (`"pattern alpha"`, `"reach alpha"`).
        what: &'static str,
        /// The rejected value.
        got: f64,
    },
    /// A query line failed to parse or serialize.
    Parse(QueryParseError),
    /// A pattern failed to resolve against the graph.
    Resolve(rbq_pattern::ResolveError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidAlpha { what, got } => {
                write!(f, "{what} must lie in (0, 1], got {got}")
            }
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Resolve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Resolve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryParseError> for EngineError {
    fn from(e: QueryParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<rbq_pattern::ResolveError> for EngineError {
    fn from(e: rbq_pattern::ResolveError) -> Self {
        EngineError::Resolve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_messages() {
        // Front ends grep for these substrings; keep them stable.
        assert!(QueryParseError::UnknownKind("x".into())
            .to_string()
            .contains("unknown query kind"));
        assert!(EngineError::InvalidAlpha {
            what: "pattern alpha",
            got: 0.0
        }
        .to_string()
        .contains("must lie in (0, 1]"));
    }

    #[test]
    fn wrapping_is_lossless() {
        let inner = QueryParseError::MissingField("source id");
        let outer: EngineError = inner.clone().into();
        assert_eq!(outer, EngineError::Parse(inner));
        let e: &dyn std::error::Error = &outer;
        assert!(e.source().is_some());
    }

    #[test]
    fn at_line_prefixes() {
        let e = QueryParseError::AtLine(7, Box::new(QueryParseError::EmptyLabel));
        assert_eq!(e.to_string(), "line 7: empty pattern label");
    }
}
