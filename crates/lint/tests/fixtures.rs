//! Fixture-corpus integration tests: every rule firing and passing, the
//! golden diagnostic set, and the mutation checks (deleting a single
//! `tick(` or `// invariant:` must turn the lint red).

use rbq_lint::{check_workspace, run, Context, SourceFile};
use std::path::Path;

/// (fixture file, pretend workspace path) pairs. The pretend paths place
/// fixtures inside the fixture context's serving crates; none contain a
/// test-path marker, so the files are linted as production code.
const FIXTURES: &[(&str, &str)] = &[
    ("fx_serving.rs", "crates/core/src/fx_serving.rs"),
    ("fx_lock.rs", "crates/engine/src/fx_lock.rs"),
    ("fx_kernel.rs", "crates/core/src/fx_kernel.rs"),
    ("fx_hot.rs", "crates/core/src/fx_hot.rs"),
    ("fx_faultpoint.rs", "crates/core/src/fx_faultpoint.rs"),
    ("fx_wire.rs", "crates/engine/src/fx_wire.rs"),
    ("fx_snapshot.rs", "crates/core/src/fx_snapshot.rs"),
    ("fx_wal.rs", "crates/core/src/fx_wal.rs"),
    ("fx_allows.rs", "crates/core/src/fx_allows.rs"),
    ("fx_dead.rs", "crates/core/src/fx_dead.rs"),
    ("fx_dead_user.rs", "crates/engine/src/fx_dead_user.rs"),
];

fn fixture_ctx() -> Context {
    Context {
        serving_prefixes: vec!["crates/core/src/".into(), "crates/engine/src/".into()],
        kernel_files: vec!["crates/core/src/fx_kernel.rs".into()],
        registry_file: "crates/core/src/fx_faultpoint.rs".into(),
        wire_file: "crates/engine/src/fx_wire.rs".into(),
        snapshot_file: "crates/core/src/fx_snapshot.rs".into(),
        wal_file: "crates/core/src/fx_wal.rs".into(),
        test_path_markers: vec!["tests/".into()],
        // Only the dead-export pair: the other fixtures export freely.
        export_prefixes: vec!["crates/core/src/fx_dead".into()],
    }
}

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixtures() -> Vec<SourceFile> {
    FIXTURES
        .iter()
        .map(|(file, pretend)| SourceFile {
            path: pretend.to_string(),
            source: std::fs::read_to_string(fixture_dir().join(file))
                .unwrap_or_else(|e| panic!("read fixture {file}: {e}")),
        })
        .collect()
}

fn render(diags: &[rbq_lint::Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// The full corpus against the golden diagnostic set. Regenerate with
/// `RBQ_LINT_BLESS=1 cargo test -p rbq-lint --test fixtures` after a
/// deliberate rule change, then review the diff.
#[test]
fn corpus_matches_golden_diagnostics() {
    let actual = render(&run(&fixture_ctx(), &load_fixtures()));
    let golden_path = fixture_dir().join("expected.txt");
    if std::env::var_os("RBQ_LINT_BLESS").is_some() {
        std::fs::write(&golden_path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with RBQ_LINT_BLESS=1 to create it");
    assert_eq!(
        actual, expected,
        "fixture diagnostics diverged from tests/fixtures/expected.txt \
         (bless with RBQ_LINT_BLESS=1 after reviewing)"
    );
}

/// Each rule id appears at least once in the golden corpus — the corpus
/// demonstrably exercises every rule.
#[test]
fn corpus_covers_every_rule() {
    let diags = run(&fixture_ctx(), &load_fixtures());
    for rule in rbq_lint::rules::RULES {
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "no fixture finding for rule {rule}"
        );
    }
    assert!(
        diags.iter().any(|d| d.rule == rbq_lint::rules::LINT_ALLOW),
        "no fixture finding for the lint-allow meta-rule"
    );
}

fn run_with_replacement(pretend: &str, from: &str, to: &str) -> Vec<rbq_lint::Diagnostic> {
    let mut files = load_fixtures();
    let f = files.iter_mut().find(|f| f.path == pretend).unwrap();
    assert!(f.source.contains(from), "fixture lost the marker {from:?}");
    f.source = f.source.replacen(from, to, 1);
    run(&fixture_ctx(), &files)
}

/// Deleting the single `tick(` call from the good kernel loop turns the
/// lint red with a new cancel-coverage finding.
#[test]
fn removing_tick_turns_red() {
    let base = run(&fixture_ctx(), &load_fixtures());
    let mutated = run_with_replacement(
        "crates/core/src/fx_kernel.rs",
        "cancel.tick(\"fx.kernel\");",
        "",
    );
    let count = |ds: &[rbq_lint::Diagnostic]| {
        ds.iter()
            .filter(|d| d.rule == "cancel-coverage" && d.file.ends_with("fx_kernel.rs"))
            .count()
    };
    assert_eq!(count(&mutated), count(&base) + 1);
}

/// Deleting a `// invariant:` comment turns its documented `.expect(` into
/// a serving-unwrap finding.
#[test]
fn removing_invariant_turns_red() {
    let base = run(&fixture_ctx(), &load_fixtures());
    let mutated = run_with_replacement(
        "crates/core/src/fx_serving.rs",
        "// invariant: the caller populated `v` two lines up; this cannot fail.",
        "",
    );
    let count = |ds: &[rbq_lint::Diagnostic]| {
        ds.iter()
            .filter(|d| d.rule == "serving-unwrap" && d.file.ends_with("fx_serving.rs"))
            .count()
    };
    assert_eq!(count(&mutated), count(&base) + 1);
}

/// Stripping the reason off a working allow turns it into a lint-allow
/// finding AND resurfaces the finding it used to suppress.
#[test]
fn stripping_allow_reason_turns_red() {
    let base = run(&fixture_ctx(), &load_fixtures());
    let mutated = run_with_replacement(
        "crates/core/src/fx_serving.rs",
        "allow(serving-unwrap, \"fixture demonstrating a reasoned allow\")",
        "allow(serving-unwrap)",
    );
    let unwraps = |ds: &[rbq_lint::Diagnostic]| {
        ds.iter()
            .filter(|d| d.rule == "serving-unwrap" && d.file.ends_with("fx_serving.rs"))
            .count()
    };
    let allows = |ds: &[rbq_lint::Diagnostic]| {
        ds.iter()
            .filter(|d| d.rule == "lint-allow" && d.file.ends_with("fx_serving.rs"))
            .count()
    };
    assert_eq!(unwraps(&mutated), unwraps(&base) + 1);
    assert_eq!(allows(&mutated), allows(&base) + 1);
}

/// Dropping the one outside mention of an export flags its declaration.
#[test]
fn removing_last_reference_turns_red() {
    let base = run(&fixture_ctx(), &load_fixtures());
    let mutated = run_with_replacement(
        "crates/engine/src/fx_dead_user.rs",
        "crate::fx_dead::used_elsewhere() + ",
        "",
    );
    let dead = |ds: &[rbq_lint::Diagnostic]| ds.iter().filter(|d| d.rule == "dead-export").count();
    assert_eq!(dead(&mutated), dead(&base) + 1);
    assert!(mutated
        .iter()
        .any(|d| d.rule == "dead-export" && d.message.contains("`used_elsewhere`")));
}

/// Un-registering a fired fault point flags the call site; registering one
/// that is never fired flags the registry line.
#[test]
fn faultpoint_mutations_turn_red() {
    let dropped = run_with_replacement(
        "crates/core/src/fx_faultpoint.rs",
        "\"fx.fired\",   // fired below — consistent",
        "",
    );
    assert!(dropped
        .iter()
        .any(|d| d.rule == "faultpoint-registry" && d.message.contains("fx.fired")));
}

/// The committed workspace itself is lint-clean — the same invariant CI
/// enforces, kept here so plain `cargo test` catches a violation too.
#[test]
fn committed_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = check_workspace(&root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        render(&diags)
    );
}
