//! `rbq-lint` — a dependency-free, workspace-native static-analysis pass
//! that machine-enforces the serving-path invariants PRs 3–8 established by
//! convention:
//!
//! | rule | invariant |
//! |---|---|
//! | `serving-unwrap` | no undocumented `.unwrap()`/`.expect(`/`panic!` in serving crates |
//! | `lock-relock` | lock poisoning goes through the `relock` helpers |
//! | `cancel-coverage` | every kernel hot loop has a `CancelTicker::tick` point |
//! | `hot-path-alloc` | `// rbq-lint: hot` functions never allocate (static complement to `tests/alloc_free.rs`) |
//! | `wire-version` | `#rbq-*` wire header literals agree with the `wire` rows of the format table in `codec.rs` |
//! | `snapshot-version` | `#rbq-snapshot`/`#rbq-wal` magics agree with their `durable` rows in `codec.rs` |
//! | `dead-export` | a `pub` / `pub(crate)` `fn`, `const` or `static` of a library crate is named in some other file |
//!
//! Suppression is explicit and audited: `// rbq-lint: allow(rule-id,
//! "reason")` with a mandatory non-empty reason; blanket, malformed, or
//! unused allows are themselves findings (`lint-allow`). `// invariant:`
//! comments document intentional panics for `serving-unwrap`, and
//! `// rbq-lint: hot` marks a function for `hot-path-alloc`.
//!
//! No `syn`, no filesystem crates: the build environment is offline, so the
//! lexer in [`lexer`] is hand-rolled (raw strings, char literals vs
//! lifetimes, nested block comments, `#[cfg(test)]` scoping).

pub mod lexer;
pub mod rules;
pub mod scope;

use lexer::{Comment, Lexed};
use scope::TestScope;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One `file:line: rule-id: message` finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding before suppression (no file yet — per-file rules add it).
#[derive(Debug, Clone)]
pub struct RawFinding {
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// A parsed `// rbq-lint: …` directive.
#[derive(Debug, Clone)]
enum DirectiveKind {
    Hot,
    Allow { rule: String, reason: String },
    Malformed(String),
}

#[derive(Debug, Clone)]
struct Directive {
    kind: DirectiveKind,
    /// Lines this directive covers (its own line if trailing, else the
    /// next code line after it).
    covers: Vec<u32>,
    line: u32,
}

/// One input file: workspace-relative path (forward slashes) + source.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub source: String,
}

/// What the engine knows about the workspace layout: which paths are
/// serving code, which files are registered kernel hot loops, and where
/// the file-format table lives.
#[derive(Debug, Clone)]
pub struct Context {
    pub serving_prefixes: Vec<String>,
    pub kernel_files: Vec<String>,
    /// Declares every `#rbq-*` file format as a `wire(…)` or `durable(…)`
    /// row.
    pub format_file: String,
    /// Path substrings that make an entire file test scope.
    pub test_path_markers: Vec<String>,
    /// Path prefixes of the files whose exports `dead-export` checks
    /// (references are looked for in every file of the run).
    pub export_prefixes: Vec<String>,
}

impl Context {
    /// The layout of this workspace.
    pub fn workspace() -> Self {
        Context {
            serving_prefixes: ["graph", "core", "pattern", "reach", "engine", "router"]
                .iter()
                .map(|c| format!("crates/{c}/src/"))
                .collect(),
            kernel_files: [
                "crates/graph/src/neighborhood.rs", // ball BFS
                "crates/pattern/src/dualsim.rs",    // dual-sim fixpoint
                "crates/core/src/reduction.rs",     // reduction Pick loop
                "crates/pattern/src/vf2.rs",        // VF2 step
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            format_file: "crates/graph/src/codec.rs".into(),
            test_path_markers: ["tests/", "benches/", "examples/", "fixtures/"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            export_prefixes: vec!["crates/".into()],
        }
    }
}

/// Per-file analysis shared by every rule.
pub struct Analysis {
    pub path: String,
    pub lexed: Lexed,
    pub scope: TestScope,
    pub serving: bool,
    pub kernel: bool,
    /// Lines annotated `// rbq-lint: hot` (the comment's line).
    pub hot_lines: Vec<u32>,
    /// Line coverage of `// invariant:` comments.
    invariant_cover: BTreeSet<u32>,
    directives: Vec<Directive>,
}

impl Analysis {
    pub fn invariant_covers(&self, line: u32) -> bool {
        self.invariant_cover.contains(&line)
    }
}

/// Lines a comment covers: its own line when it trails code, otherwise the
/// next line carrying a code token.
fn comment_cover(c: &Comment, code_lines: &BTreeSet<u32>) -> Vec<u32> {
    if code_lines.contains(&c.line) {
        vec![c.line]
    } else {
        code_lines
            .range(c.end_line + 1..)
            .next()
            .map(|l| vec![*l])
            .unwrap_or_default()
    }
}

fn parse_directive(text: &str) -> Option<DirectiveKind> {
    let t = text.trim();
    let rest = t.strip_prefix("rbq-lint:")?.trim();
    if rest == "hot" || rest.starts_with("hot ") {
        return Some(DirectiveKind::Hot);
    }
    if let Some(args) = rest.strip_prefix("allow") {
        let args = args.trim();
        let inner = args
            .strip_prefix('(')
            .and_then(|a| a.strip_suffix(')'))
            .map(str::trim);
        let Some(inner) = inner else {
            return Some(DirectiveKind::Malformed(
                "allow needs the form allow(rule-id, \"reason\")".into(),
            ));
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), rest.trim()),
            None => (inner, ""),
        };
        if rule == "*" || rule.eq_ignore_ascii_case("all") {
            return Some(DirectiveKind::Malformed(
                "blanket allows are forbidden — name one rule id".into(),
            ));
        }
        if !rules::RULES.contains(&rule) {
            return Some(DirectiveKind::Malformed(format!(
                "unknown rule id {rule:?} in allow"
            )));
        }
        let reason = reason
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            return Some(DirectiveKind::Malformed(
                "allow requires a non-empty quoted reason".into(),
            ));
        }
        return Some(DirectiveKind::Allow {
            rule: rule.to_string(),
            reason: reason.to_string(),
        });
    }
    Some(DirectiveKind::Malformed(format!(
        "unrecognized rbq-lint directive {rest:?} (expected `hot` or `allow(rule, \"reason\")`)"
    )))
}

fn analyze(ctx: &Context, file: &SourceFile, lexed: Lexed) -> Analysis {
    let mut scope = scope::test_scope(&lexed.tokens);
    if ctx
        .test_path_markers
        .iter()
        .any(|m| file.path.starts_with(m.as_str()) || file.path.contains(&format!("/{m}")))
    {
        scope.whole_file = true;
    }
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut hot_lines = Vec::new();
    let mut invariant_cover = BTreeSet::new();
    let mut directives = Vec::new();
    for c in &lexed.comments {
        let text = c.text.trim();
        if text.starts_with("invariant:") {
            invariant_cover.extend(comment_cover(c, &code_lines));
            continue;
        }
        if let Some(kind) = parse_directive(&c.text) {
            if matches!(kind, DirectiveKind::Hot) {
                hot_lines.push(c.line);
            }
            directives.push(Directive {
                kind,
                covers: comment_cover(c, &code_lines),
                line: c.line,
            });
        }
    }
    Analysis {
        path: file.path.clone(),
        serving: ctx
            .serving_prefixes
            .iter()
            .any(|p| file.path.starts_with(p.as_str())),
        kernel: ctx.kernel_files.contains(&file.path),
        lexed,
        scope,
        hot_lines,
        invariant_cover,
        directives,
    }
}

/// Run every rule over `files`, apply suppression, and return the sorted
/// diagnostics. `files` is the whole set to check — the cross-file rules
/// (`wire-version`, `snapshot-version`) read their declarations from
/// `ctx.format_file` if present in the set, and `dead-export` looks for
/// references across all of it.
pub fn run(ctx: &Context, files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut analyses: Vec<Analysis> = Vec::new();
    for f in files {
        match lexer::lex(&f.source) {
            Ok(lexed) => analyses.push(analyze(ctx, f, lexed)),
            Err(e) => diags.push(Diagnostic {
                file: f.path.clone(),
                line: e.line,
                rule: "parse".into(),
                message: e.message,
            }),
        }
    }

    // Cross-file declarations.
    let mut format_findings = Vec::new();
    let formats = analyses
        .iter()
        .find(|a| a.path == ctx.format_file)
        .map(|a| rules::parse_format_decl(a, &mut format_findings))
        .unwrap_or_default();

    // Per-file rules.
    let mut per_file: Vec<(usize, Vec<RawFinding>)> = Vec::new();
    for (ai, a) in analyses.iter().enumerate() {
        let mut raw = Vec::new();
        if a.serving {
            rules::serving_unwrap(a, &mut raw);
            rules::lock_relock(a, &mut raw);
        }
        if a.kernel {
            rules::cancel_coverage(a, &mut raw);
        }
        rules::hot_path_alloc(a, &mut raw);
        rules::wire_version(a, &formats, &mut raw);
        if a.path == ctx.format_file {
            raw.append(&mut format_findings);
        }
        per_file.push((ai, raw));
    }

    // dead-export: an export named by no file but its own.
    let mentions: Vec<BTreeSet<&str>> = analyses.iter().map(rules::collect_mentions).collect();
    for (ai, a) in analyses.iter().enumerate() {
        if !ctx.export_prefixes.iter().any(|p| a.path.starts_with(p)) {
            continue;
        }
        let mut exports = Vec::new();
        rules::collect_exports(a, &mut exports);
        for e in exports {
            let named_elsewhere = mentions
                .iter()
                .enumerate()
                .any(|(k, m)| k != ai && m.contains(e.name.as_str()));
            if !named_elsewhere {
                per_file[ai].1.push(RawFinding {
                    line: e.line,
                    rule: rules::DEAD_EXPORT,
                    message: format!(
                        "`{}` is exported but no other file names it (`pub use` aside) — \
                         make it private, delete it, or mark deliberate public API with a \
                         reasoned allow",
                        e.name
                    ),
                });
            }
        }
    }

    // Suppression: reasoned allows consume findings; everything else lands
    // in the output. Allows that consume nothing are themselves findings.
    for (ai, raw) in per_file {
        let a = &analyses[ai];
        let mut used = vec![false; a.directives.len()];
        for f in raw {
            let allow = a.directives.iter().enumerate().find(|(_, d)| {
                matches!(&d.kind, DirectiveKind::Allow { rule, .. }
                    if *rule == f.rule && d.covers.contains(&f.line))
            });
            if let Some((di, _)) = allow {
                used[di] = true;
            } else {
                diags.push(Diagnostic {
                    file: a.path.clone(),
                    line: f.line,
                    rule: f.rule.into(),
                    message: f.message,
                });
            }
        }
        for (di, d) in a.directives.iter().enumerate() {
            match &d.kind {
                DirectiveKind::Malformed(m) => diags.push(Diagnostic {
                    file: a.path.clone(),
                    line: d.line,
                    rule: rules::LINT_ALLOW.into(),
                    message: m.clone(),
                }),
                DirectiveKind::Allow { rule, reason } if !used[di] => diags.push(Diagnostic {
                    file: a.path.clone(),
                    line: d.line,
                    rule: rules::LINT_ALLOW.into(),
                    message: format!(
                        "allow({rule}, {reason:?}) suppresses nothing — remove it (audited \
                         suppressions must stay attached to a real finding)"
                    ),
                }),
                _ => {}
            }
        }
    }

    diags.sort();
    diags
}

/// Walk the workspace under `root`, collecting every `.rs` file outside
/// `vendor/`, `target/`, `.git/`, and the lint crate itself (whose fixture
/// corpus is violations by design).
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let skip_top = ["vendor", "target", ".git", ".github"];
    let mut stack = vec![PathBuf::from(root)];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                if skip_top.contains(&rel.as_str()) || rel == "crates/lint" {
                    continue;
                }
                stack.push(path);
            } else if rel.ends_with(".rs") {
                files.push(SourceFile {
                    path: rel,
                    source: std::fs::read_to_string(&path)?,
                });
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Check the workspace at `root` with the standard [`Context::workspace`]
/// layout. The format table and the kernel files must exist — a refactor
/// that moves or deletes them must move the lint's anchors too, loudly.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let ctx = Context::workspace();
    let files = collect_workspace_files(root)?;
    let mut diags = run(&ctx, &files);
    if !files.iter().any(|f| f.path == ctx.format_file) {
        diags.push(Diagnostic {
            file: ctx.format_file.clone(),
            line: 1,
            rule: "anchor".into(),
            message: "declaration file missing — update the lint's Context if it moved".into(),
        });
    }
    for k in &ctx.kernel_files {
        if !files.iter().any(|f| f.path == *k) {
            diags.push(Diagnostic {
                file: k.clone(),
                line: 1,
                rule: "anchor".into(),
                message: "registered kernel file missing — update the lint's Context if it moved"
                    .into(),
            });
        }
    }
    diags.sort();
    Ok(diags)
}

/// Locate the workspace root at or above `start` (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Run the full check and print findings to stderr; returns the number of
/// findings. Shared by the `rbq-lint` binary and the `rbq lint` subcommand.
pub fn check_and_report(root: &Path) -> std::io::Result<usize> {
    let diags = check_workspace(root)?;
    for d in &diags {
        eprintln!("{d}");
    }
    if diags.is_empty() {
        eprintln!("rbq-lint: clean");
    } else {
        eprintln!("rbq-lint: {} finding(s)", diags.len());
    }
    Ok(diags.len())
}
