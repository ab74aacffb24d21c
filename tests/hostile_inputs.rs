//! Hostile text inputs, as `tests/durability.rs` does for the snapshot and
//! the WAL: valid query, answer, delta and graph files drawn from the
//! shared generator, mutated by bit flips, truncations, duplicated lines
//! and tokens spliced in from another file, must parse to a typed error —
//! never a panic — or to a value that re-serialises and re-parses to
//! itself.

mod support;

use rbq_engine::wire::{
    answer_from_line, parse_answer_file, parse_delta_file, parse_query_file, write_answer_file,
    write_delta_file, write_query_file,
};
use rbq_engine::{Answer, Engine, EngineConfig, Query};
use rbq_graph::io::{read_graph, write_graph};
use std::sync::Arc;
use support::{graph_sig, Case, Rng};

/// Parse `bytes` as file kind `kind` (queries, answers, deltas, graph); if
/// that succeeds, write the value out and check it parses back to itself.
/// `None` is a typed rejection.
fn parse_and_roundtrip(kind: usize, bytes: &[u8]) -> Option<()> {
    let (text, mut out) = (String::from_utf8_lossy(bytes), Vec::new());
    let reparse = |out: &[u8]| String::from_utf8(out.to_vec()).expect("written text is UTF-8");
    match kind {
        0 => {
            let file = parse_query_file(&text).ok()?;
            write_query_file(&mut out, &file.queries).expect("a parsed query serialises");
            let back = parse_query_file(&reparse(&out)).expect("re-parse").queries;
            let lines = |qs: &[Query]| qs.iter().map(|q| q.to_line().unwrap()).collect::<Vec<_>>();
            assert_eq!(lines(&back), lines(&file.queries), "{text:?}");
        }
        1 => {
            let file = parse_answer_file(&text).ok()?;
            write_answer_file(&mut out, &file.answers).expect("answers serialise");
            let back = parse_answer_file(&reparse(&out)).expect("re-parse");
            assert_eq!(back.answers, file.answers, "{text:?}");
        }
        2 => {
            let file = parse_delta_file(&text).ok()?;
            write_delta_file(&mut out, &file.batch).expect("a parsed delta serialises");
            let back = parse_delta_file(&reparse(&out)).expect("re-parse");
            assert_eq!(back.batch, file.batch, "{text:?}");
        }
        _ => {
            let g = read_graph(bytes).ok()?;
            write_graph(&g, &mut out).expect("write to memory");
            let back = read_graph(&out[..]).expect("re-read");
            assert_eq!(graph_sig(&back), graph_sig(&g), "{text:?}");
        }
    }
    Some(())
}

/// One mutation of `file`: a bit flip, a truncation, a duplicated line, or
/// a token from `donor` spliced in at a random byte.
fn mutate(rng: &mut Rng, file: &[u8], donor: &[u8]) -> Vec<u8> {
    let (mut bytes, at) = (file.to_vec(), rng.below(file.len() + 1));
    let lines: Vec<&[u8]> = file.split_inclusive(|&b| b == b'\n').collect();
    let tokens: Vec<&[u8]> = donor.split(|b| b.is_ascii_whitespace()).collect();
    match rng.below(4) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        2 => {
            let (line, cut) = (lines[rng.below(lines.len())], rng.below(lines.len() + 1));
            bytes = [&lines[..cut].concat(), line, &lines[cut..].concat()].concat();
        }
        _ => drop(bytes.splice(at..at, tokens[rng.below(tokens.len())].iter().copied())),
    }
    bytes
}

#[test]
fn text_parsers_reject_typed_or_roundtrip() {
    for seed in 0..48 {
        let mut case = Case::new(seed);
        let (g, edges) = (Arc::new(case.graph.clone()), graph_sig(&case.graph).1);
        let queries = case.batch(&g, 12);
        let engine = Engine::new(g.clone(), EngineConfig::default());
        let results = engine.run_batch(&queries).results.into_iter();
        let mut answers: Vec<Answer> = results.map(|r| r.answer).collect();
        let more = ["denied 9 2", "timedout", "failed at vf2.step"].map(answer_from_line);
        answers.extend(more.map(|a| a.expect("valid answer lines")));
        let delta = case.delta(g.node_count(), &edges.into_iter().collect(), 3);
        let mut files = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        write_query_file(&mut files[0], &queries).expect("generated queries serialise");
        write_answer_file(&mut files[1], &answers).expect("answers serialise");
        write_delta_file(&mut files[2], &delta).expect("generated deltas serialise");
        write_graph(&g, &mut files[3]).expect("write to memory");
        for (kind, file) in files.iter().enumerate() {
            assert!(parse_and_roundtrip(kind, file).is_some(), "file {kind}");
            for _ in 0..64 {
                let mutant = mutate(&mut case.rng, file, &files[(kind + 1) % 4]);
                parse_and_roundtrip(kind, &mutant);
            }
        }
    }
}
