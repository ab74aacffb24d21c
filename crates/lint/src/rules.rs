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
pub const FAULTPOINT_REGISTRY: &str = "faultpoint-registry";
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
    FAULTPOINT_REGISTRY,
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

/// A `fire("name")` / `fire_at("name", …)` call site.
#[derive(Debug, Clone)]
pub struct FireSite {
    pub name: String,
    pub file: String,
    pub line: u32,
}

/// Collect the non-test fault-point call sites of one file.
pub fn collect_fire_sites(a: &Analysis, out: &mut Vec<FireSite>) {
    let toks = &a.lexed.tokens;
    for i in 0..toks.len() {
        if a.scope.contains_token(i) {
            continue;
        }
        let Tok::Ident(f) = &toks[i].tok else {
            continue;
        };
        if f != "fire" && f != "fire_at" {
            continue;
        }
        // Skip the definitions (`fn fire(...)`).
        if i >= 1 && ident_is(&toks[i - 1].tok, "fn") {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(p) if punct_is(p, '(')) {
            continue;
        }
        if let Some(Tok::Str(name)) = toks.get(i + 2).map(|t| &t.tok) {
            out.push(FireSite {
                name: name.clone(),
                file: a.path.clone(),
                line: toks[i].line,
            });
        }
    }
}

/// A registry entry parsed out of the declared `REGISTRY` const.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    pub name: String,
    pub line: u32,
}

/// Parse the `REGISTRY: &[&str]` const from the fault-point module: every
/// string literal between `REGISTRY` and the closing `;`.
pub fn parse_registry(a: &Analysis) -> Option<Vec<RegistryEntry>> {
    let toks = &a.lexed.tokens;
    let start = toks.iter().position(|t| ident_is(&t.tok, "REGISTRY"))?;
    let mut entries = Vec::new();
    for t in &toks[start..] {
        match &t.tok {
            Tok::Str(s) => entries.push(RegistryEntry {
                name: s.clone(),
                line: t.line,
            }),
            Tok::Punct(';') => break,
            _ => {}
        }
    }
    Some(entries)
}

/// One declared `#rbq-<kind> v<N>` header or file magic: the version the
/// workspace currently writes, where it is declared, and which rule id
/// polices stale occurrences of its kind. Wire headers share one version
/// (`wire-version`); the durable-state magics (`snapshot-version`) each
/// version independently.
#[derive(Debug, Clone)]
pub struct HeaderDecl {
    pub kind: String,
    pub version: u32,
    pub line: u32,
    pub rule: &'static str,
}

/// Every declared header/magic the occurrence checker knows about.
#[derive(Debug, Clone)]
pub struct WireDecl {
    pub headers: Vec<HeaderDecl>,
}

const HEADER_CONSTS: &[(&str, &str)] = &[
    ("QUERY_FILE_HEADER", "queries"),
    ("ANSWER_FILE_HEADER", "answers"),
    ("DELTA_FILE_HEADER", "deltas"),
];

/// Parse the three header consts from the wire module, reporting malformed
/// or missing ones as findings against that file.
pub fn parse_wire_decl(a: &Analysis, out: &mut Vec<RawFinding>) -> Option<WireDecl> {
    let toks = &a.lexed.tokens;
    let mut headers = Vec::new();
    for (cname, kind) in HEADER_CONSTS {
        let Some(i) = toks.iter().position(|t| ident_is(&t.tok, cname)) else {
            out.push(RawFinding {
                line: 1,
                rule: WIRE_VERSION,
                message: format!("wire module does not declare `{cname}`"),
            });
            continue;
        };
        // The const's value is the first string literal before the `;`.
        let mut lit = None;
        for t in &toks[i..] {
            match &t.tok {
                Tok::Str(s) => {
                    lit = Some((s.clone(), t.line));
                    break;
                }
                Tok::Punct(';') => break,
                _ => {}
            }
        }
        let parsed = lit.as_ref().and_then(|(s, _)| parse_header(s));
        match (lit, parsed) {
            (Some((_, line)), Some((k, v))) if k == *kind => headers.push(HeaderDecl {
                kind: k,
                version: v,
                line,
                rule: WIRE_VERSION,
            }),
            (Some((s, line)), _) => out.push(RawFinding {
                line,
                rule: WIRE_VERSION,
                message: format!("`{cname}` value {s:?} is not a `#rbq-{kind} v<N>` header"),
            }),
            (None, _) => out.push(RawFinding {
                line: toks[i].line,
                rule: WIRE_VERSION,
                message: format!("`{cname}` has no string literal value"),
            }),
        }
    }
    if headers.is_empty() {
        return None;
    }
    let v0 = headers[0].version;
    for h in &headers {
        if h.version != v0 {
            out.push(RawFinding {
                line: h.line,
                rule: WIRE_VERSION,
                message: format!(
                    "wire header versions disagree: `#rbq-{}` is v{} but \
                     `#rbq-{}` is v{v0}",
                    h.kind, h.version, headers[0].kind
                ),
            });
        }
    }
    Some(WireDecl { headers })
}

/// Parse a single `#rbq-<kind> v<N>` magic const (the snapshot / WAL file
/// formats) out of its declaring module, reporting a missing or malformed
/// declaration under `snapshot-version`. Unlike the wire headers, each
/// magic versions independently.
pub fn parse_magic_decl(
    a: &Analysis,
    cname: &str,
    kind: &str,
    out: &mut Vec<RawFinding>,
) -> Option<HeaderDecl> {
    let toks = &a.lexed.tokens;
    let Some(i) = toks.iter().position(|t| ident_is(&t.tok, cname)) else {
        out.push(RawFinding {
            line: 1,
            rule: SNAPSHOT_VERSION,
            message: format!("module does not declare `{cname}`"),
        });
        return None;
    };
    let mut lit = None;
    for t in &toks[i..] {
        match &t.tok {
            Tok::Str(s) => {
                lit = Some((s.clone(), t.line));
                break;
            }
            Tok::Punct(';') => break,
            _ => {}
        }
    }
    match lit {
        Some((s, line)) => match parse_header(&s) {
            Some((k, v)) if k == kind => Some(HeaderDecl {
                kind: k,
                version: v,
                line,
                rule: SNAPSHOT_VERSION,
            }),
            _ => {
                out.push(RawFinding {
                    line,
                    rule: SNAPSHOT_VERSION,
                    message: format!("`{cname}` value {s:?} is not a `#rbq-{kind} v<N>` magic"),
                });
                None
            }
        },
        None => {
            out.push(RawFinding {
                line: toks[i].line,
                rule: SNAPSHOT_VERSION,
                message: format!("`{cname}` has no string literal value"),
            });
            None
        }
    }
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
/// version of its kind — wire headers against the wire declaration,
/// snapshot/WAL magics against theirs. Test scope may reference older
/// versions (legacy-read coverage); a *future* version in a test marks an
/// intentional rejection test and needs an explicit allow.
pub fn wire_version(a: &Analysis, decl: &WireDecl, out: &mut Vec<RawFinding>) {
    if decl.headers.is_empty() {
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
            let Some(h) = decl.headers.iter().find(|h| h.kind == kind) else {
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
