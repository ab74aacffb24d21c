//! The unified query and answer types served by the engine.

use crate::error::QueryParseError;
use rbq_graph::NodeId;
use rbq_pattern::{Pattern, PatternBuilder};
use std::fmt;

/// One query of the mixed workload: reachability or an anchored pattern
/// under either matching semantics.
#[derive(Debug, Clone)]
pub enum Query {
    /// `source → target?` (RBReach).
    Reach {
        /// Source node.
        source: NodeId,
        /// Target node.
        target: NodeId,
    },
    /// Strong-simulation pattern matching (RBSim).
    PatternSim {
        /// The anchored pattern.
        pattern: Pattern,
    },
    /// Subgraph-isomorphism pattern matching (RBSub).
    PatternIso {
        /// The anchored pattern.
        pattern: Pattern,
    },
}

/// Query class, for routing and per-class statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Reachability.
    Reach,
    /// Strong simulation.
    Sim,
    /// Subgraph isomorphism.
    Iso,
}

impl Query {
    /// The class this query belongs to.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::Reach { .. } => QueryClass::Reach,
            Query::PatternSim { .. } => QueryClass::Sim,
            Query::PatternIso { .. } => QueryClass::Iso,
        }
    }

    /// Serialize to the one-line text format of `rbq batch` query files:
    ///
    /// ```text
    /// r <src> <dst>
    /// s <up> <uo> <label0,label1,...> <u0>-<v0>,<u1>-<v1>,...
    /// i <up> <uo> <labels> <edges>
    /// ```
    ///
    /// Pattern labels must not contain whitespace or commas (the generated
    /// workloads' labels never do); [`Query::to_line`] returns an error for
    /// labels that would not round-trip.
    pub fn to_line(&self) -> Result<String, QueryParseError> {
        match self {
            Query::Reach { source, target } => Ok(format!("r {} {}", source.0, target.0)),
            Query::PatternSim { pattern } => pattern_line('s', pattern),
            Query::PatternIso { pattern } => pattern_line('i', pattern),
        }
    }

    /// Parse one non-empty, non-comment line of the query-file format.
    pub fn parse_line(line: &str) -> Result<Query, QueryParseError> {
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or(QueryParseError::EmptyLine)?;
        match kind {
            "r" => {
                let s: u32 = parse_field(parts.next(), "source id")?;
                let t: u32 = parse_field(parts.next(), "target id")?;
                if parts.next().is_some() {
                    return Err(QueryParseError::TrailingTokens(line.to_owned()));
                }
                Ok(Query::Reach {
                    source: NodeId(s),
                    target: NodeId(t),
                })
            }
            "s" | "i" => {
                let up: usize = parse_field(parts.next(), "personalized index")?;
                let uo: usize = parse_field(parts.next(), "output index")?;
                let labels = parts
                    .next()
                    .ok_or(QueryParseError::MissingField("label list"))?;
                let edges = parts.next().unwrap_or("");
                if parts.next().is_some() {
                    return Err(QueryParseError::TrailingTokens(line.to_owned()));
                }
                let pattern = parse_pattern(up, uo, labels, edges)?;
                Ok(if kind == "s" {
                    Query::PatternSim { pattern }
                } else {
                    Query::PatternIso { pattern }
                })
            }
            other => Err(QueryParseError::UnknownKind(other.to_owned())),
        }
    }
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    what: &'static str,
) -> Result<T, QueryParseError> {
    field
        .ok_or(QueryParseError::MissingField(what))?
        .parse()
        .map_err(|_| QueryParseError::BadField {
            what,
            token: field.unwrap_or("").to_owned(),
        })
}

fn pattern_line(kind: char, p: &Pattern) -> Result<String, QueryParseError> {
    let mut labels = Vec::with_capacity(p.node_count());
    for u in p.nodes() {
        let l = p.label_str(u);
        if l.is_empty() || l.contains(',') || l.chars().any(char::is_whitespace) {
            return Err(QueryParseError::UnserializableLabel(l.to_owned()));
        }
        labels.push(l.to_owned());
    }
    let edges: Vec<String> = p
        .edges()
        .iter()
        .map(|&(u, v)| format!("{}-{}", u.0, v.0))
        .collect();
    Ok(format!(
        "{kind} {} {} {} {}",
        p.personalized().0,
        p.output().0,
        labels.join(","),
        if edges.is_empty() {
            "-".to_string()
        } else {
            edges.join(",")
        }
    ))
}

fn parse_pattern(
    up: usize,
    uo: usize,
    labels: &str,
    edges: &str,
) -> Result<Pattern, QueryParseError> {
    let mut b = PatternBuilder::new();
    let mut ids = Vec::new();
    for l in labels.split(',') {
        if l.is_empty() {
            return Err(QueryParseError::EmptyLabel);
        }
        ids.push(b.add_node(l));
    }
    if up >= ids.len() || uo >= ids.len() {
        return Err(QueryParseError::AnchorOutOfRange {
            up,
            uo,
            len: ids.len(),
        });
    }
    if !(edges.is_empty() || edges == "-") {
        for e in edges.split(',') {
            let (u, v) = e
                .split_once('-')
                .ok_or_else(|| QueryParseError::BadEdge(e.to_owned()))?;
            let u: usize = u
                .parse()
                .map_err(|_| QueryParseError::BadEdge(e.to_owned()))?;
            let v: usize = v
                .parse()
                .map_err(|_| QueryParseError::BadEdge(e.to_owned()))?;
            if u >= ids.len() || v >= ids.len() {
                return Err(QueryParseError::EdgeOutOfRange(e.to_owned()));
            }
            b.add_edge(ids[u], ids[v]);
        }
    }
    b.personalized(ids[up]).output(ids[uo]);
    Ok(b.build())
}

/// The engine's answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Reachability verdict. `reachable = true` is always certified
    /// (Theorem 4); `false` may be a false negative below α = 1.
    Reach {
        /// The (approximate) verdict.
        reachable: bool,
        /// Whether the verdict was certified exact.
        certified: bool,
    },
    /// Pattern answer `Q(G_Q)`: matches of the output node.
    Pattern {
        /// Sorted matches of the output node.
        matches: Vec<NodeId>,
        /// Size `|G_Q|` actually fetched.
        gq_size: usize,
        /// Nodes in `G_Q`.
        gq_nodes: usize,
        /// Whether reduction stopped on the size budget.
        hit_budget: bool,
    },
    /// The batch's aggregate visit budget could not cover this query; the
    /// answer was withheld at settlement (input-order, so deterministic).
    Denied {
        /// Visits this query would have charged.
        needed: usize,
        /// Aggregate budget remaining when it was considered.
        remaining: usize,
    },
    /// The query was malformed for this graph (unknown label, id out of
    /// range, ambiguous anchor, …).
    Error(String),
    /// The batch deadline expired before (or while) this query evaluated.
    /// Settled deterministically: a query whose evaluation never started
    /// before the deadline is timed out regardless of thread count.
    TimedOut,
    /// Evaluation panicked and was contained; the rest of the batch is
    /// unaffected. Carries the panic message when one was available.
    Failed(String),
}

impl Answer {
    /// Whether this is a delivered (non-denied, non-error) answer.
    pub fn is_ok(&self) -> bool {
        matches!(self, Answer::Reach { .. } | Answer::Pattern { .. })
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Reach {
                reachable,
                certified,
            } => write!(
                f,
                "reach={reachable}{}",
                if *certified { " (certified)" } else { "" }
            ),
            Answer::Pattern {
                matches, gq_size, ..
            } => write!(f, "{} matches, |G_Q|={gq_size}", matches.len()),
            Answer::Denied { needed, remaining } => {
                write!(
                    f,
                    "denied (needed {needed}, aggregate remaining {remaining})"
                )
            }
            Answer::Error(e) => write!(f, "error: {e}"),
            Answer::TimedOut => write!(f, "timed out (batch deadline)"),
            Answer::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// One answered query: the answer plus schedule-independent accounting.
///
/// `answer` and `visits` are deterministic functions of the batch input —
/// identical across thread counts and cache states. `cached` reports
/// whether *this* run served the answer from the reduction cache, which
/// does depend on scheduling; comparisons between runs should ignore it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The answer.
    pub answer: Answer,
    /// Canonical visit cost charged against budgets.
    pub visits: usize,
    /// Whether the reduction cache served this answer.
    pub cached: bool,
}

impl QueryResult {
    /// A result settled without an evaluation behind it — shed, timed out,
    /// failed or malformed: no visits, nothing from the cache.
    pub(crate) fn unevaluated(answer: Answer) -> Self {
        QueryResult {
            answer,
            visits: 0,
            cached: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbq_pattern::pattern::fig1_pattern;

    #[test]
    fn reach_round_trip() {
        let q = Query::Reach {
            source: NodeId(7),
            target: NodeId(42),
        };
        let line = q.to_line().unwrap();
        assert_eq!(line, "r 7 42");
        match Query::parse_line(&line).unwrap() {
            Query::Reach { source, target } => {
                assert_eq!((source, target), (NodeId(7), NodeId(42)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn pattern_round_trip() {
        for ctor in [
            |p| Query::PatternSim { pattern: p },
            |p| Query::PatternIso { pattern: p },
        ] {
            let q = ctor(fig1_pattern());
            let line = q.to_line().unwrap();
            let back = Query::parse_line(&line).unwrap();
            let (p1, p2) = match (&q, &back) {
                (Query::PatternSim { pattern: a }, Query::PatternSim { pattern: b })
                | (Query::PatternIso { pattern: a }, Query::PatternIso { pattern: b }) => (a, b),
                _ => panic!("class changed in round trip"),
            };
            assert_eq!(p1.node_count(), p2.node_count());
            assert_eq!(p1.edges(), p2.edges());
            assert_eq!(p1.personalized(), p2.personalized());
            assert_eq!(p1.output(), p2.output());
            for u in p1.nodes() {
                assert_eq!(p1.label_str(u), p2.label_str(u));
            }
        }
    }

    #[test]
    fn edgeless_pattern_round_trips() {
        let mut b = PatternBuilder::new();
        let me = b.add_node("ME");
        b.personalized(me).output(me);
        let q = Query::PatternSim { pattern: b.build() };
        let line = q.to_line().unwrap();
        assert!(Query::parse_line(&line).is_ok());
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "",
            "x 1 2",
            "r 1",
            "r 1 2 3",
            "s 0 0",
            "s 0 5 ME,A 0-1",
            "s 0 1 ME,A 0-9",
            "s 0 1 ME,A 0+1",
            "r a b",
        ] {
            assert!(Query::parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn comma_label_refused_on_write() {
        let mut b = PatternBuilder::new();
        let me = b.add_node("a,b");
        b.personalized(me).output(me);
        let q = Query::PatternSim { pattern: b.build() };
        assert!(q.to_line().is_err());
    }
}
