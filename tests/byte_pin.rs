//! Byte pins for every file format rbq writes: one fixed fixture is
//! written as a snapshot, a WAL after two appends, and a query, answer and
//! delta file, and the CRC-32 of each file is checked against a constant.
//! A refactor of the framing code must leave all five unchanged; a
//! deliberate layout change bumps the format's version in
//! `rbq_graph::codec` and re-pins here.
//!
//! The canonical form is pinned the same way: it keys the reduction cache
//! and its node order decides the order `Pick` visits candidates in, so a
//! change to canonicalisation that moves one byte moves answers.

mod support;

use rbq::rbq_engine::wire::{
    answer_to_line, write_answer_file, write_delta_file, write_query_file,
};
use rbq::rbq_engine::{canonical_pattern, Answer, Query};
use rbq::rbq_graph::builder::graph_from_edges;
use rbq::rbq_graph::snapshot::{crc32, write_snapshot, SNAPSHOT_FILE};
use rbq::rbq_graph::wal::{WalWriter, WAL_FILE};
use rbq::rbq_graph::{DeltaBatch, NodeId};
use rbq::rbq_pattern::pattern::fig1_pattern;
use rbq::rbq_workload::{extract_pattern, youtube_like, PatternSpec};
use std::fmt::Write;
use support::fresh_dir;

/// The fixture: a five-node graph, two delta batches (node adds, edge adds
/// and an edge removal), three queries and one answer of every kind.
fn batches() -> [DeltaBatch; 2] {
    let mut b1 = DeltaBatch::new();
    b1.add_node("Newcomer");
    b1.add_edge(NodeId(0), NodeId(5));
    b1.remove_edge(NodeId(1), NodeId(2));
    let mut b2 = DeltaBatch::new();
    b2.add_node("B");
    b2.add_edge(NodeId(6), NodeId(3));
    [b1, b2]
}

fn queries() -> Vec<Query> {
    vec![
        Query::Reach {
            source: NodeId(0),
            target: NodeId(4),
        },
        Query::PatternSim {
            pattern: fig1_pattern(),
        },
        Query::PatternIso {
            pattern: fig1_pattern(),
        },
    ]
}

fn answers() -> Vec<Answer> {
    vec![
        Answer::Reach {
            reachable: true,
            certified: false,
        },
        Answer::Pattern {
            matches: vec![NodeId(3), NodeId(9)],
            gq_size: 14,
            gq_nodes: 6,
            hit_budget: true,
        },
        Answer::Denied {
            needed: 120,
            remaining: 7,
        },
        Answer::Error("node id out of range".into()),
        Answer::TimedOut,
        Answer::Failed("kernel panicked".into()),
    ]
}

#[test]
fn every_written_format_is_byte_pinned() {
    let dir = fresh_dir("byte_pin");
    std::fs::create_dir_all(&dir).unwrap();
    let g = graph_from_edges(
        &["A", "B", "A", "C", "B"],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)],
    );
    write_snapshot(&g, &dir.join(SNAPSHOT_FILE), 7).unwrap();
    let mut wal = WalWriter::create(&dir.join(WAL_FILE), 1).unwrap();
    for b in &batches() {
        wal.append(b).unwrap();
    }
    drop(wal);
    let mut query_file = Vec::new();
    write_query_file(&mut query_file, &queries()).unwrap();
    let mut answer_file = Vec::new();
    write_answer_file(&mut answer_file, &answers()).unwrap();
    let mut delta_file = Vec::new();
    write_delta_file(&mut delta_file, &batches()[0]).unwrap();

    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let actual = [
        ("snapshot", crc32(&read(SNAPSHOT_FILE))),
        ("wal", crc32(&read(WAL_FILE))),
        ("queries", crc32(&query_file)),
        ("answers", crc32(&answer_file)),
        ("deltas", crc32(&delta_file)),
    ];
    // Printed by this test at the commit before the framing codec landed.
    let pinned = [
        0x2b7b_eb78,
        0x4fcb_af9b,
        0x25a8_bdf2,
        0xde86_f5eb,
        0x4bec_a053,
    ];
    for ((name, crc), pin) in actual.into_iter().zip(pinned) {
        assert_eq!(
            crc, pin,
            "{name} bytes moved: crc {crc:#010x}, pinned {pin:#010x}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn canonical_form_is_byte_pinned() {
    let g = youtube_like(4_000, 42);
    let mut bytes = String::new();
    let mut patterns = 0;
    for (spec, seeds) in [
        ((3, 3), 0..40u64),
        ((4, 6), 0..80),
        ((6, 10), 0..60),
        ((8, 14), 0..40),
    ] {
        for seed in seeds {
            let Some(p) = extract_pattern(&g, PatternSpec::new(spec.0, spec.1), seed) else {
                continue;
            };
            let (canon, signature) = canonical_pattern(&p);
            bytes.push_str(&signature);
            for &(u, v) in canon.edges() {
                write!(bytes, ";{}-{}", u.index(), v.index()).unwrap();
            }
            let (up, uo) = (canon.personalized().index(), canon.output().index());
            writeln!(bytes, "|{up}|{uo}").unwrap();
            patterns += 1;
        }
    }
    assert!(patterns >= 150, "only {patterns} patterns extracted");
    // Printed by this test at the commit before canonicalisation moved
    // onto reused buffers.
    let pin = 0xdc29_b3bb;
    let crc = crc32(bytes.as_bytes());
    assert_eq!(
        crc, pin,
        "canonical form moved ({patterns} patterns): crc {crc:#010x}, pinned {pin:#010x}"
    );
}

/// Every answer line the wire writes: each variant, a pattern answer with
/// 0, 1 and many matches (ids up to `u32::MAX`), and error and failure
/// text with `\n` and `\r` in it. The CRC-32 of the lines (each ended by a
/// newline) and of the answer file holding the same list are pinned, so
/// rewriting the printer cannot move a byte.
#[test]
fn answer_lines_are_byte_pinned() {
    let mut answers = vec![
        Answer::Reach {
            reachable: false,
            certified: false,
        },
        Answer::Reach {
            reachable: true,
            certified: true,
        },
        Answer::Reach {
            reachable: false,
            certified: true,
        },
        Answer::Denied {
            needed: 0,
            remaining: 0,
        },
        Answer::Denied {
            needed: usize::MAX,
            remaining: 1_000_000,
        },
        Answer::Error(String::new()),
        Answer::Error("unknown label \"Zz\"\nat node 3\r\n".into()),
        Answer::TimedOut,
        Answer::Failed("kernel panicked:\r\nindex out of bounds\n".into()),
    ];
    for (n, gq_size, gq_nodes) in [(0u32, 0, 0), (1, 9, 3), (64, 123_456, 7_890)] {
        answers.push(Answer::Pattern {
            matches: (0..n)
                .map(|i| NodeId(if i % 2 == 0 { u32::MAX - i } else { i * 37 }))
                .collect(),
            gq_size,
            gq_nodes,
            hit_budget: n == 1,
        });
    }
    let mut lines = String::new();
    for a in &answers {
        lines.push_str(&answer_to_line(a));
        lines.push('\n');
    }
    let mut file = Vec::new();
    write_answer_file(&mut file, &answers).unwrap();
    let actual = [
        ("answer lines", crc32(lines.as_bytes())),
        ("answer file", crc32(&file)),
    ];
    // Printed by this test at the commit before answer lines were written
    // into one buffer.
    let pinned = [0x4d5e_ad8b, 0x6aca_86a3];
    for ((name, crc), pin) in actual.into_iter().zip(pinned) {
        assert_eq!(
            crc, pin,
            "{name} bytes moved: crc {crc:#010x}, pinned {pin:#010x}"
        );
    }
}
