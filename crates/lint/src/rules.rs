//! The repo-specific rule set. Each rule walks one file's token stream
//! (test scope already excluded by the caller-supplied [`Analysis`]) and
//! emits raw findings; the engine in `lib.rs` applies `allow` suppression
//! afterwards.

use crate::lexer::Tok;
use crate::scope::{fn_body_after_line, loop_body_span};
use crate::{Analysis, RawFinding};
use std::collections::BTreeSet;

pub const SERVING_UNWRAP: &str = "serving-unwrap";
pub const LOCK_RELOCK: &str = "lock-relock";
pub const CANCEL_COVERAGE: &str = "cancel-coverage";
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
pub const WIRE_VERSION: &str = "wire-version";
pub const SNAPSHOT_VERSION: &str = "snapshot-version";
pub const DEAD_EXPORT: &str = "dead-export";
/// Meta-rule for suppression hygiene: malformed, blanket, or unused
/// `allow` directives. Not itself suppressible.
pub const LINT_ALLOW: &str = "lint-allow";

/// Every real (suppressible) rule id.
pub const RULES: &[&str] = &[
    SERVING_UNWRAP,
    LOCK_RELOCK,
    CANCEL_COVERAGE,
    HOT_PATH_ALLOC,
    WIRE_VERSION,
    SNAPSHOT_VERSION,
    DEAD_EXPORT,
];

fn ident_is(t: &Tok, name: &str) -> bool {
    matches!(t, Tok::Ident(n) if n == name)
}

fn punct_is(t: &Tok, c: char) -> bool {
    *t == Tok::Punct(c)
}

/// `serving-unwrap`: no `.unwrap()` / `.expect(` / `panic!` on the serving
/// path unless the site carries a `// invariant:` comment (preceding line
/// or trailing) or a reasoned `allow`. `.lock()/.read()/.write()` receivers
/// are excluded here — `lock-relock` owns those sites with the sharper fix.
pub fn serving_unwrap(a: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &a.lexed.tokens;
    for i in 0..toks.len() {
        if a.scope.contains_token(i) {
            continue;
        }
        let t = &toks[i].tok;
        let line = toks[i].line;
        let mut hit: Option<&str> = None;
        if ident_is(t, "unwrap")
            && i >= 1
            && punct_is(&toks[i - 1].tok, '.')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(p) if punct_is(p, '('))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(p) if punct_is(p, ')'))
        {
            hit = Some(".unwrap()");
        } else if ident_is(t, "expect")
            && i >= 1
            && punct_is(&toks[i - 1].tok, '.')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(p) if punct_is(p, '('))
        {
            hit = Some(".expect(…)");
        } else if ident_is(t, "panic")
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(p) if punct_is(p, '!'))
        {
            hit = Some("panic!");
        }
        let Some(what) = hit else { continue };
        if what != "panic!" && is_lock_receiver(a, i) {
            continue; // lock-relock reports these
        }
        if a.invariant_covers(line) {
            continue;
        }
        out.push(RawFinding {
            line,
            rule: SERVING_UNWRAP,
            message: format!(
                "{what} on the serving path — return a typed error, or document the \
                 invariant with a `// invariant:` comment on the line above"
            ),
        });
    }
}

/// Whether the method-name token at `i` (unwrap/expect) is called directly
/// on a `.lock()` / `.read()` / `.write()` result.
fn is_lock_receiver(a: &Analysis, i: usize) -> bool {
    let toks = &a.lexed.tokens;
    i >= 4
        && punct_is(&toks[i - 1].tok, '.')
        && punct_is(&toks[i - 2].tok, ')')
        && punct_is(&toks[i - 3].tok, '(')
        && matches!(&toks[i - 4].tok, Tok::Ident(n) if matches!(n.as_str(), "lock" | "read" | "write"))
}

/// `lock-relock`: serving code never unwraps a lock acquisition directly —
/// poisoning must go through the crate's `relock` helpers so a contained
/// panic in one query cannot take the whole engine down.
pub fn lock_relock(a: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &a.lexed.tokens;
    for i in 0..toks.len() {
        if a.scope.contains_token(i) {
            continue;
        }
        let Tok::Ident(m) = &toks[i].tok else {
            continue;
        };
        if !matches!(m.as_str(), "lock" | "read" | "write") {
            continue;
        }
        let ok = i >= 1
            && punct_is(&toks[i - 1].tok, '.')
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(p) if punct_is(p, '('))
            && matches!(toks.get(i + 2).map(|t| &t.tok), Some(p) if punct_is(p, ')'))
            && matches!(toks.get(i + 3).map(|t| &t.tok), Some(p) if punct_is(p, '.'))
            && matches!(
                toks.get(i + 4).map(|t| &t.tok),
                Some(Tok::Ident(u)) if matches!(u.as_str(), "unwrap" | "expect")
            )
            && matches!(toks.get(i + 5).map(|t| &t.tok), Some(p) if punct_is(p, '('));
        if ok {
            out.push(RawFinding {
                line: toks[i].line,
                rule: LOCK_RELOCK,
                message: format!(
                    ".{m}().unwrap()-style acquisition on the serving path — use the \
                     poison-recovering `relock` helpers instead"
                ),
            });
        }
    }
}

/// `cancel-coverage`: every `loop` / `while` body in a registered kernel
/// hot-loop file must contain a cooperative `tick(` cancellation point
/// (directly or in a nested loop), so an armed deadline can always
/// interrupt the kernel.
pub fn cancel_coverage(a: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &a.lexed.tokens;
    for i in 0..toks.len() {
        if a.scope.contains_token(i) {
            continue;
        }
        let Tok::Ident(kw) = &toks[i].tok else {
            continue;
        };
        if kw != "loop" && kw != "while" {
            continue;
        }
        let Some(body) = loop_body_span(toks, i) else {
            continue;
        };
        let has_tick = (body.start..body.end).any(|j| {
            ident_is(&toks[j].tok, "tick")
                && matches!(toks.get(j + 1).map(|t| &t.tok), Some(p) if punct_is(p, '('))
        });
        if !has_tick {
            out.push(RawFinding {
                line: toks[i].line,
                rule: CANCEL_COVERAGE,
                message: format!(
                    "`{kw}` body in a registered kernel file has no `CancelTicker::tick` \
                     cancellation point — an armed deadline cannot interrupt it"
                ),
            });
        }
    }
}

/// Allocating constructs recognized by `hot-path-alloc`.
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
    // A fresh hash or tree collection allocates on its first insert; hot
    // code keeps one in its scratch and clears it.
    ("HashMap", "new"),
    ("HashMap", "default"),
    ("HashMap", "with_capacity"),
    ("HashSet", "new"),
    ("HashSet", "default"),
    ("HashSet", "with_capacity"),
    ("FxHashMap", "new"),
    ("FxHashMap", "default"),
    ("FxHashMap", "with_capacity"),
    ("FxHashSet", "new"),
    ("FxHashSet", "default"),
    ("FxHashSet", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeMap", "default"),
    ("BTreeMap", "with_capacity"),
    ("BTreeSet", "new"),
    ("BTreeSet", "default"),
    ("BTreeSet", "with_capacity"),
];
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned", "clone"];
/// Path-form calls that look allocating but are not: `Arc::clone` /
/// `Rc::clone` are refcount bumps.
const ALLOWED_PATHS: &[(&str, &str)] = &[("Arc", "clone"), ("Rc", "clone")];

/// `hot-path-alloc`: inside a function annotated `// rbq-lint: hot`, no
/// allocating construct outside the built-in allowlist — the static
/// complement to the counting-allocator pin in `tests/alloc_free.rs`.
/// Cold branches inside a hot function carry a reasoned `allow`.
pub fn hot_path_alloc(a: &Analysis, out: &mut Vec<RawFinding>) {
    let toks = &a.lexed.tokens;
    for &hot_line in &a.hot_lines {
        if a.scope.contains_line(hot_line) {
            continue;
        }
        let Some(body) = fn_body_after_line(toks, hot_line) else {
            out.push(RawFinding {
                line: hot_line,
                rule: HOT_PATH_ALLOC,
                message: "dangling `// rbq-lint: hot` — no function body follows the annotation"
                    .into(),
            });
            continue;
        };
        for j in body.start..body.end {
            if a.scope.contains_token(j) {
                continue;
            }
            let line = toks[j].line;
            let Tok::Ident(name) = &toks[j].tok else {
                continue;
            };
            let next = toks.get(j + 1).map(|t| &t.tok);
            // vec! / format!
            if ALLOC_MACROS.contains(&name.as_str()) && matches!(next, Some(p) if punct_is(p, '!'))
            {
                out.push(RawFinding {
                    line,
                    rule: HOT_PATH_ALLOC,
                    message: format!("`{name}!` allocates inside a `// rbq-lint: hot` function"),
                });
                continue;
            }
            // Type::method( path calls
            if punct_is(
                toks.get(j + 1).map(|t| &t.tok).unwrap_or(&Tok::Punct(' ')),
                ':',
            ) && matches!(toks.get(j + 2).map(|t| &t.tok), Some(p) if punct_is(p, ':'))
            {
                if let Some(Tok::Ident(m)) = toks.get(j + 3).map(|t| &t.tok) {
                    let pair = (name.as_str(), m.as_str());
                    if ALLOC_PATHS.contains(&pair) && !ALLOWED_PATHS.contains(&pair) {
                        out.push(RawFinding {
                            line,
                            rule: HOT_PATH_ALLOC,
                            message: format!(
                                "`{name}::{m}` allocates inside a `// rbq-lint: hot` function"
                            ),
                        });
                        continue;
                    }
                }
            }
            // .method( calls
            if j >= 1
                && punct_is(&toks[j - 1].tok, '.')
                && ALLOC_METHODS.contains(&name.as_str())
                && matches!(next, Some(p) if punct_is(p, '('))
            {
                out.push(RawFinding {
                    line,
                    rule: HOT_PATH_ALLOC,
                    message: format!(
                        "`.{name}(` allocates inside a `// rbq-lint: hot` function \
                         (use `Arc::clone` for refcount bumps; cold branches need a \
                         reasoned allow)"
                    ),
                });
            }
        }
    }
}

/// A `pub` / `pub(…)` `fn | const | static` declared outside test scope.
/// Types are left out: a return type is legitimately named only where it is
/// declared.
#[derive(Debug, Clone)]
pub struct Export {
    pub name: String,
    pub line: u32,
}

/// Index one past the `pub` at `i` and its optional `(crate)`-style
/// restriction.
fn after_visibility(a: &Analysis, i: usize) -> usize {
    let toks = &a.lexed.tokens;
    let mut j = i + 1;
    if matches!(toks.get(j).map(|t| &t.tok), Some(p) if punct_is(p, '(')) {
        while j < toks.len() && !punct_is(&toks[j].tok, ')') {
            j += 1;
        }
        j += 1;
    }
    j
}

/// `dead-export`, declaration half: the exported functions, consts and
/// statics of one file.
pub fn collect_exports(a: &Analysis, out: &mut Vec<Export>) {
    let toks = &a.lexed.tokens;
    let ident = |j: usize| match toks.get(j).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => Some(n.as_str()),
        _ => None,
    };
    for i in 0..toks.len() {
        if !ident_is(&toks[i].tok, "pub") || a.scope.contains_token(i) {
            continue;
        }
        let mut j = after_visibility(a, i);
        // Skip `const` / `unsafe` / `async` / `extern "C"` qualifiers of a
        // `fn`; a `const` followed by anything else names a constant.
        let name = loop {
            match ident(j) {
                Some("fn") => break ident(j + 1),
                Some("static") if ident(j + 1) == Some("mut") => break ident(j + 2),
                Some("static") => break ident(j + 1),
                Some("const")
                    if !matches!(ident(j + 1), Some("fn" | "unsafe" | "async" | "extern")) =>
                {
                    break ident(j + 1)
                }
                Some("const" | "unsafe" | "async" | "extern") => j += 1,
                None if matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Str(_))) => j += 1,
                _ => break None,
            }
        };
        if let Some(name) = name.filter(|n| *n != "_") {
            out.push(Export {
                name: name.to_string(),
                line: toks[i].line,
            });
        }
    }
}

/// `dead-export`, reference half: every identifier token of one file, test
/// scope included (a test is a consumer), `pub use` re-exports aside (a
/// re-export is not a use).
pub fn collect_mentions(a: &Analysis) -> BTreeSet<&str> {
    let toks = &a.lexed.tokens;
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        let reexport = ident_is(&toks[i].tok, "pub")
            && matches!(toks.get(after_visibility(a, i)), Some(t) if ident_is(&t.tok, "use"));
        if reexport {
            while i < toks.len() && !punct_is(&toks[i].tok, ';') {
                i += 1;
            }
        } else if let Tok::Ident(n) = &toks[i].tok {
            out.insert(n.as_str());
        }
        i += 1;
    }
    out
}

/// One declared `#rbq-<kind> v<N>` format row: the version the workspace
/// currently writes, where it is declared, and which rule id polices stale
/// occurrences of its kind. Wire rows share one version (`wire-version`);
/// durable rows (`snapshot-version`) each version independently.
#[derive(Debug, Clone)]
pub struct HeaderDecl {
    pub kind: String,
    pub version: u32,
    pub line: u32,
    pub rule: &'static str,
}

/// Parse the format table out of its declaring module: every
/// `wire("#rbq-<kind> v<N>", …)` and `durable("#rbq-<kind> v<N>", …)` row
/// outside test scope. A row whose literal is not such a magic, wire rows
/// that disagree on their version, and a module with no rows at all are
/// findings against that module.
pub fn parse_format_decl(a: &Analysis, out: &mut Vec<RawFinding>) -> Vec<HeaderDecl> {
    let toks = &a.lexed.tokens;
    let mut headers: Vec<HeaderDecl> = Vec::new();
    for (i, row) in toks.windows(3).enumerate() {
        let rule = match &row[0].tok {
            Tok::Ident(f) if f == "wire" => WIRE_VERSION,
            Tok::Ident(f) if f == "durable" => SNAPSHOT_VERSION,
            _ => continue,
        };
        let (Tok::Punct('('), Tok::Str(s)) = (&row[1].tok, &row[2].tok) else {
            continue;
        };
        if a.scope.contains_token(i) {
            continue;
        }
        let line = row[2].line;
        match parse_header(s) {
            Some((kind, version)) => headers.push(HeaderDecl {
                kind,
                version,
                line,
                rule,
            }),
            None => out.push(RawFinding {
                line,
                rule,
                message: format!("format row {s:?} is not a `#rbq-<kind> v<N>` magic"),
            }),
        }
    }
    if headers.is_empty() {
        out.push(RawFinding {
            line: 1,
            rule: WIRE_VERSION,
            message: "format module declares no `wire(\"#rbq-…\")` / `durable(…)` rows".into(),
        });
    }
    let mut wire = headers.iter().filter(|h| h.rule == WIRE_VERSION);
    if let Some(first) = wire.next() {
        for h in wire.filter(|h| h.version != first.version) {
            out.push(RawFinding {
                line: h.line,
                rule: WIRE_VERSION,
                message: format!(
                    "wire header versions disagree: `#rbq-{}` is v{} but \
                     `#rbq-{}` is v{}",
                    h.kind, h.version, first.kind, first.version
                ),
            });
        }
    }
    headers
}

/// Parse `#rbq-<kind> v<N>` from the *start* of a header string. The kind
/// is a lowercase word and ` v<digits>` must follow it immediately, so
/// prose mentions like "has no #rbq-queries header" don't parse.
fn parse_header(s: &str) -> Option<(String, u32)> {
    let rest = s.strip_prefix("#rbq-")?;
    let kind: String = rest.chars().take_while(char::is_ascii_lowercase).collect();
    if kind.is_empty() {
        return None;
    }
    let rest = rest[kind.len()..].strip_prefix(" v")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    if digits.is_empty() {
        return None;
    }
    Some((kind, digits.parse().ok()?))
}

/// `wire-version` / `snapshot-version`: every `#rbq-…` header occurrence
/// in string literals and comments must agree with the declared current
/// version of its kind, under the rule of its row's family. Test scope may
/// reference older versions (legacy-read coverage); a *future* version in
/// a test marks an intentional rejection test and needs an explicit allow.
pub fn wire_version(a: &Analysis, headers: &[HeaderDecl], out: &mut Vec<RawFinding>) {
    if headers.is_empty() {
        return;
    }
    let mut check = |text: &str, line: u32, in_test: bool| {
        let mut rest = text;
        while let Some(pos) = rest.find("#rbq-") {
            rest = &rest[pos..];
            let occurrence = rest;
            rest = &rest["#rbq-".len()..];
            let Some((kind, v)) = parse_header(occurrence) else {
                continue; // versionless prefix check like `starts_with("#rbq-queries")`
            };
            let Some(h) = headers.iter().find(|h| h.kind == kind) else {
                if !in_test {
                    out.push(RawFinding {
                        line,
                        rule: WIRE_VERSION,
                        message: format!("unknown wire header kind `#rbq-{kind}`"),
                    });
                }
                continue;
            };
            let current = h.version;
            if !in_test && v != current {
                out.push(RawFinding {
                    line,
                    rule: h.rule,
                    message: format!(
                        "stale header `#rbq-{kind} v{v}` — the declared current \
                         version is v{current}"
                    ),
                });
            } else if in_test && v > current {
                out.push(RawFinding {
                    line,
                    rule: h.rule,
                    message: format!(
                        "future version `#rbq-{kind} v{v}` in test (current is \
                         v{current}) — a deliberate rejection test needs a reasoned allow"
                    ),
                });
            }
        }
    };
    for (i, t) in a.lexed.tokens.iter().enumerate() {
        if let Tok::Str(s) = &t.tok {
            check(s, t.line, a.scope.contains_token(i));
        }
    }
    for c in &a.lexed.comments {
        check(&c.text, c.line, a.scope.contains_line(c.line));
    }
}
