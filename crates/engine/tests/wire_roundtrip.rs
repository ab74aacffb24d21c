//! Property tests pinning the v2 wire format: arbitrary queries and
//! answers survive a serialize → parse round trip, both line-by-line and
//! through whole versioned files.

use proptest::prelude::*;
use rbq_engine::wire::{
    answer_from_line, answer_to_line, parse_answer_file, parse_query_file, write_answer_file,
    write_query_file,
};
use rbq_engine::{Answer, Query};
use rbq_graph::NodeId;
use rbq_pattern::PatternBuilder;

/// Labels the line format can carry: non-empty, no whitespace, no commas.
fn label_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:-";
    prop::collection::vec(0usize..ALPHABET.len(), 1..9)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

/// Printable-ASCII error messages with no leading/trailing whitespace
/// (file parsing trims each line) and no newlines (the writer flattens
/// them).
fn message_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).unwrap().trim().to_owned())
}

/// All the raw material for a pattern query; indices are taken modulo the
/// label count so every draw is valid.
fn pattern_query_strategy() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(label_strategy(), 1..6),
        prop::collection::vec((0usize..8, 0usize..8), 0..10),
        (0usize..8, 0usize..8),
        prop::bool::ANY,
    )
        .prop_map(|(labels, raw_edges, (up, uo), sim)| {
            let mut b = PatternBuilder::new();
            let ids: Vec<_> = labels.iter().map(|l| b.add_node(l)).collect();
            for (u, v) in raw_edges {
                b.add_edge(ids[u % ids.len()], ids[v % ids.len()]);
            }
            b.personalized(ids[up % ids.len()]);
            b.output(ids[uo % ids.len()]);
            let pattern = b.build();
            if sim {
                Query::PatternSim { pattern }
            } else {
                Query::PatternIso { pattern }
            }
        })
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (
        0u8..3,
        (0u32..2_000_000, 0u32..2_000_000),
        pattern_query_strategy(),
    )
        .prop_map(|(kind, (s, t), pattern)| match kind {
            0 => Query::Reach {
                source: NodeId(s),
                target: NodeId(t),
            },
            _ => pattern,
        })
}

fn answer_strategy() -> impl Strategy<Value = Answer> {
    (
        0u8..4,
        (prop::bool::ANY, prop::bool::ANY),
        (
            prop::collection::vec(0u32..2_000_000, 0..8),
            0usize..1_000_000_000,
            0usize..1_000_000_000,
        ),
        message_strategy(),
    )
        .prop_map(|(kind, (flag_a, flag_b), (ms, x, y), msg)| match kind {
            0 => Answer::Reach {
                reachable: flag_a,
                certified: flag_b,
            },
            1 => Answer::Pattern {
                matches: ms.into_iter().map(NodeId).collect(),
                gq_size: x,
                gq_nodes: y,
                hit_budget: flag_a,
            },
            2 => Answer::Denied {
                needed: x,
                remaining: y,
            },
            _ => Answer::Error(msg),
        })
}

/// Structural pattern equality (Pattern itself has no PartialEq).
fn assert_query_eq(a: &Query, b: &Query) -> Result<(), TestCaseError> {
    match (a, b) {
        (
            Query::Reach {
                source: s1,
                target: t1,
            },
            Query::Reach {
                source: s2,
                target: t2,
            },
        ) => prop_assert_eq!((s1, t1), (s2, t2)),
        (Query::PatternSim { pattern: p1 }, Query::PatternSim { pattern: p2 })
        | (Query::PatternIso { pattern: p1 }, Query::PatternIso { pattern: p2 }) => {
            prop_assert_eq!(p1.node_count(), p2.node_count());
            prop_assert_eq!(p1.edges(), p2.edges());
            prop_assert_eq!(p1.personalized(), p2.personalized());
            prop_assert_eq!(p1.output(), p2.output());
            for u in p1.nodes() {
                prop_assert_eq!(p1.label_str(u), p2.label_str(u));
            }
        }
        _ => prop_assert!(false, "query class changed in round trip"),
    }
    Ok(())
}

proptest! {
    #[test]
    fn query_lines_round_trip(q in query_strategy()) {
        let line = q.to_line().unwrap();
        let back = Query::parse_line(&line).unwrap();
        assert_query_eq(&q, &back)?;
        // Serialization is canonical: a second trip is byte-identical.
        prop_assert_eq!(line, back.to_line().unwrap());
    }

    #[test]
    fn answer_lines_round_trip(a in answer_strategy()) {
        let line = answer_to_line(&a);
        let back = answer_from_line(&line).unwrap();
        prop_assert_eq!(&a, &back);
        prop_assert_eq!(line, answer_to_line(&back));
    }

    #[test]
    fn query_files_round_trip(qs in prop::collection::vec(query_strategy(), 0..12)) {
        let mut buf = Vec::new();
        write_query_file(&mut buf, &qs).unwrap();
        let parsed = parse_query_file(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(parsed.queries.len(), qs.len());
        prop_assert!(!parsed.headerless);
        for (a, b) in qs.iter().zip(&parsed.queries) {
            assert_query_eq(a, b)?;
        }
    }

    #[test]
    fn answer_files_round_trip(aa in prop::collection::vec(answer_strategy(), 0..12)) {
        let mut buf = Vec::new();
        write_answer_file(&mut buf, &aa).unwrap();
        let parsed = parse_answer_file(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(parsed.answers, aa);
    }
}
