//! The `xgs-lint` rule engine.
//!
//! Rules operate on the token stream from [`crate::lexer`] — never on raw
//! substring matches — so rule names inside string literals or comments
//! can neither trigger nor suppress a rule. Every rule is named and
//! individually suppressible with a justified allow comment:
//!
//! ```text
//! // xgs-lint: allow(rule-name): why this site is safe
//! ```
//!
//! The justification text after the closing paren is **mandatory**; an
//! allow without one is itself a finding (`unjustified-allow`). An allow
//! suppresses findings on its own line and on the line directly below it
//! (so both trailing and line-above comment styles work).
//!
//! Path-scoped rules receive the workspace-relative path with `/`
//! separators; the scoping predicates live next to each rule below.

use crate::lexer::{lex, LineIndex, Token, TokenKind};
use xgs_json::Writer;

/// Name + one-line summary for every rule, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-partial-cmp-sort",
        "float comparisons go through total_cmp, never .partial_cmp() (NaN-safe total order)",
    ),
    (
        "no-panic-in-network-path",
        "no unwrap/expect/panic!/wire-buffer indexing in server request handling or shard frame code",
    ),
    (
        "bounded-read-only",
        "no read_line/read_to_end/read_to_string on network streams; use the bounded fill_buf reader",
    ),
    (
        "no-unjustified-unsafe",
        "every unsafe block carries a justified allow",
    ),
    (
        "frame-kind-exhaustive",
        "matches on wire frame/op kinds bind unknown values explicitly instead of `_ =>`",
    ),
    (
        "lock-order",
        "the workspace lock graph respects the declared server order: BatchQueue::inner < ModelRegistry::models < Shared::metrics",
    ),
    (
        "lock-cycle",
        "the workspace lock-acquisition graph is acyclic; a may-deadlock cycle is reported with its full witness path",
    ),
    (
        "safety-comment-required",
        "every unsafe site carries a SAFETY comment on the preceding lines saying why it is sound",
    ),
    (
        "no-unsafe-outside-audited-modules",
        "unsafe is confined to the audited allowlist: vendor/rayon, vendor/polling, crates/kernels/src/simd.rs",
    ),
    (
        "syscall-ret-checked",
        "in vendor/polling every raw syscall result must flow into an error check before reuse",
    ),
    (
        "no-unbounded-channel-send",
        "no unbounded mpsc channel() in shard coordinator/reader paths; bound the queue or justify the allow",
    ),
    (
        "no-heartbeat-in-hot-loop",
        "liveness HEARTBEAT frames are never emitted from a loop that also emits per-task TASK frames",
    ),
    (
        "no-raw-parallelism-probe",
        "machine-size probes go through xgs_runtime::logical_cores(), never raw available_parallelism()/num_cpus::get()",
    ),
    (
        "unjustified-allow",
        "an `xgs-lint: allow(...)` comment without justification text",
    ),
];

/// One lint finding, pointing at a byte offset resolved to line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `xgs-lint: allow(rule)` comment.
pub(crate) struct Allow {
    pub(crate) rule: String,
    pub(crate) line: usize,
    pub(crate) justified: bool,
}

/// A significant (non-whitespace, non-comment) token with its text.
/// Shared with the workspace lock-graph pass in [`crate::lockgraph`].
#[derive(Clone, Copy)]
pub(crate) struct Sig<'a> {
    pub(crate) kind: TokenKind,
    pub(crate) text: &'a [u8],
    pub(crate) start: usize,
}

impl<'a> Sig<'a> {
    pub(crate) fn is_punct(&self, b: u8) -> bool {
        self.kind == TokenKind::Punct(b)
    }
    pub(crate) fn is_ident(&self, name: &[u8]) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// Build the significant-token view shared by the per-file rules and the
/// workspace lock-graph pass: whitespace and comments stripped, import
/// aliases resolved so renames cannot hide a pattern.
pub(crate) fn sig_tokens<'a>(src: &'a [u8], toks: &[Token]) -> Vec<Sig<'a>> {
    let mut sig: Vec<Sig<'a>> = toks
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|t| Sig {
            kind: t.kind,
            text: t.text(src),
            start: t.start,
        })
        .collect();
    resolve_use_aliases(&mut sig);
    sig
}

/// [`lint_file`] result: findings plus the justified-allow census (the
/// binary reports both; an allow is spent scrutiny and worth surfacing).
pub struct FileLint {
    pub findings: Vec<Finding>,
    pub justified_allows: usize,
}

/// Lint one source file, returning only the findings.
pub fn lint_source(path: &str, src: &[u8]) -> Vec<Finding> {
    lint_file(path, src).findings
}

/// Lint one source file. `path` must be workspace-relative with `/`
/// separators — the path-scoped rules key off it.
pub fn lint_file(path: &str, src: &[u8]) -> FileLint {
    lint_file_as(path, src, false)
}

/// Lint a set of files together, as the `xgs-lint` walk does. A pre-pass
/// finds every out-of-line `#[cfg(test)] mod name;` declaration, and the
/// file it names is linted as test code throughout — what an inline
/// `#[cfg(test)] mod name { … }` gets from its attribute.
pub fn lint_files(sources: &[(String, Vec<u8>)]) -> FileLint {
    let test_files = out_of_line_test_modules(sources);
    let mut all = FileLint {
        findings: Vec::new(),
        justified_allows: 0,
    };
    for (path, src) in sources {
        let lint = lint_file_as(path, src, test_files.contains(path));
        all.findings.extend(lint.findings);
        all.justified_allows += lint.justified_allows;
    }
    all
}

fn lint_file_as(path: &str, src: &[u8], test_file: bool) -> FileLint {
    let toks = lex(src);
    let idx = LineIndex::new(src);
    let sig = sig_tokens(src, &toks);
    let allows = parse_allows(src, &toks, &idx);
    let tests = if test_file {
        vec![(0, src.len())]
    } else {
        test_regions(&sig)
    };
    let in_test = |off: usize| tests.iter().any(|&(s, e)| off >= s && off < e);

    let mut raw = Vec::new();
    rule_partial_cmp(path, &sig, &mut raw);
    if network_scoped(path) {
        rule_no_panic(path, &sig, &in_test, &mut raw);
        rule_bounded_read(path, &sig, &in_test, &mut raw);
        rule_unbounded_channel(path, &sig, &in_test, &mut raw);
    }
    rule_unsafe(path, &sig, &mut raw);
    rule_safety_comment(path, src, &toks, &sig, &mut raw);
    rule_unsafe_audited(path, &sig, &mut raw);
    if syscall_scoped(path) {
        rule_syscall_ret(path, &sig, &mut raw);
    }
    if frame_scoped(path) {
        rule_frame_exhaustive(path, &sig, &in_test, &mut raw);
        rule_heartbeat_hot_loop(path, &sig, &in_test, &mut raw);
    }
    rule_raw_parallelism_probe(path, &sig, &mut raw);

    // Nested matches can surface one site twice (outer and inner scan).
    raw.sort_by_key(|(off, rule, _)| (*off, *rule));
    raw.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    let mut findings = Vec::new();
    for (off, rule, message) in raw {
        let (line, col) = idx.locate(off);
        let suppressed = allows
            .iter()
            .any(|a| a.justified && a.rule == rule && (a.line == line || a.line + 1 == line));
        if !suppressed {
            findings.push(Finding {
                rule,
                path: path.to_string(),
                line,
                col,
                message,
            });
        }
    }
    for a in &allows {
        if !RULES.iter().any(|(name, _)| *name == a.rule) {
            findings.push(Finding {
                rule: "unjustified-allow",
                path: path.to_string(),
                line: a.line,
                col: 1,
                message: format!("allow({}) names a rule that does not exist", a.rule),
            });
        } else if !a.justified {
            findings.push(Finding {
                rule: "unjustified-allow",
                path: path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "allow({}) carries no justification; write `// xgs-lint: allow({}): <why>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
    FileLint {
        findings,
        justified_allows: allows
            .iter()
            .filter(|a| a.justified && RULES.iter().any(|(name, _)| *name == a.rule))
            .count(),
    }
}

/// The machine-readable report, in the workspace's JSON schema (see
/// README "Static analysis"): scanned-file count, justified allow count,
/// the rule table, a per-rule finding histogram (rules with zero findings
/// are omitted, in [`RULES`] order), and one object per finding.
pub fn report_json(files: usize, justified_allows: usize, findings: &[Finding]) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("files").u64(files as u64);
    w.key("allows").u64(justified_allows as u64);
    w.key("rules").begin_array();
    for (name, _) in RULES {
        w.string(name);
    }
    w.end_array();
    w.key("histogram").begin_object();
    for (name, _) in RULES {
        let n = findings.iter().filter(|f| f.rule == *name).count();
        if n > 0 {
            w.key(name).u64(n as u64);
        }
    }
    w.end_object();
    w.key("findings").begin_array();
    for f in findings {
        w.begin_object();
        w.key("rule").string(f.rule);
        w.key("path").string(&f.path);
        w.key("line").u64(f.line as u64);
        w.key("col").u64(f.col as u64);
        w.key("message").string(&f.message);
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Minimal SARIF 2.1.0 report: one run, one `xgs-lint` driver with every
/// rule in [`RULES`], one result per finding. Enough for the standard
/// ingestion paths (code-scanning uploads, SARIF viewers).
pub fn report_sarif(findings: &[Finding]) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("$schema")
        .string("https://json.schemastore.org/sarif-2.1.0.json");
    w.key("version").string("2.1.0");
    w.key("runs").begin_array().begin_object();
    w.key("tool").begin_object();
    w.key("driver").begin_object();
    w.key("name").string("xgs-lint");
    w.key("rules").begin_array();
    for (name, summary) in RULES {
        w.begin_object();
        w.key("id").string(name);
        w.key("shortDescription").begin_object();
        w.key("text").string(summary);
        w.end_object().end_object();
    }
    w.end_array().end_object().end_object();
    w.key("results").begin_array();
    for f in findings {
        w.begin_object();
        w.key("ruleId").string(f.rule);
        w.key("level").string("error");
        w.key("message").begin_object();
        w.key("text").string(&f.message);
        w.end_object();
        w.key("locations").begin_array().begin_object();
        w.key("physicalLocation").begin_object();
        w.key("artifactLocation").begin_object();
        w.key("uri").string(&f.path);
        w.end_object();
        w.key("region").begin_object();
        w.key("startLine").u64(f.line as u64);
        w.key("startColumn").u64(f.col as u64);
        w.end_object().end_object().end_object().end_array();
        w.end_object();
    }
    w.end_array().end_object().end_array().end_object();
    w.finish()
}

// ---------------------------------------------------------------- scoping

/// Every file of the `xgs-cholesky` shard stack (`shard/worker.rs`,
/// `shard/coordinator.rs`, ...).
fn cholesky_shard(path: &str) -> bool {
    path.contains("crates/cholesky/src/shard/")
}

/// Files whose request-handling / frame paths must be panic-free and use
/// bounded reads: the server's request pipeline, its load generator
/// (which promises never to panic on server misbehaviour), and both shard
/// layers.
fn network_scoped(path: &str) -> bool {
    path.ends_with("crates/server/src/server.rs")
        || path.ends_with("crates/server/src/reactor.rs")
        || path.ends_with("crates/server/src/batch.rs")
        || path.ends_with("crates/server/src/registry.rs")
        || path.ends_with("crates/server/src/protocol.rs")
        || path.ends_with("crates/server/src/loadgen.rs")
        || path.ends_with("crates/runtime/src/shard.rs")
        || cholesky_shard(path)
        || path.ends_with("crates/fleet/src/lib.rs")
}

/// Files that dispatch on wire frame or op kinds.
fn frame_scoped(path: &str) -> bool {
    path.ends_with("crates/runtime/src/shard.rs")
        || cholesky_shard(path)
        || path.ends_with("crates/server/src/protocol.rs")
        || path.ends_with("crates/server/src/server.rs")
        || path.ends_with("crates/fleet/src/lib.rs")
}

/// Files whose raw syscall results must visibly flow into an error check.
fn syscall_scoped(path: &str) -> bool {
    path.starts_with("vendor/polling/") || path.contains("/vendor/polling/")
}

/// The audited-unsafe allowlist: the only places `unsafe` may appear at
/// all. Everything here was reviewed line-by-line for this rule pack (the
/// pool's lifetime erasure, the reactor's raw epoll/eventfd calls, and the
/// AVX2+FMA seam of the kernels); growing the list is a deliberate review event, not
/// a side effect of writing new code.
const AUDITED_UNSAFE: &[&str] = &[
    "vendor/rayon/",
    "vendor/polling/",
    "crates/kernels/src/simd.rs",
];

// ---------------------------------------------------------------- aliases

/// Resolve `use path::Orig as Alias;` renames: every later `Alias` ident
/// token is rewritten to read `Orig`, so token-pattern rules see through
/// import aliasing (`use std::sync::mpsc::channel as chan; chan()` is
/// still a `channel()` call to the rules). Both texts are slices of the
/// same source buffer, so the rewrite is a pointer swap, not a copy.
/// Underscore imports (`use T as _;`) bind nothing and are skipped.
fn resolve_use_aliases(sig: &mut [Sig<'_>]) {
    // Collect (alias, original) pairs from `Orig as Alias` inside `use`
    // statements (including grouped `use a::{B as C, D as E};` lists).
    let mut renames: Vec<(&[u8], &[u8])> = Vec::new();
    let mut w = 0;
    while w < sig.len() {
        if !sig[w].is_ident(b"use") {
            w += 1;
            continue;
        }
        let mut j = w + 1;
        while j < sig.len() && !sig[j].is_punct(b';') {
            if sig[j].is_ident(b"as")
                && j >= 1
                && sig[j - 1].kind == TokenKind::Ident
                && sig.get(j + 1).is_some_and(|a| {
                    a.kind == TokenKind::Ident && a.text != b"_" && a.text != b"as"
                })
            {
                renames.push((sig[j + 1].text, sig[j - 1].text));
            }
            j += 1;
        }
        w = j + 1;
    }
    if renames.is_empty() {
        return;
    }
    for s in sig.iter_mut() {
        if s.kind == TokenKind::Ident {
            if let Some(&(_, orig)) = renames.iter().find(|(alias, _)| *alias == s.text) {
                s.text = orig;
            }
        }
    }
}

// ----------------------------------------------------------------- allows

/// Scan line comments for `xgs-lint: allow(rule)[: justification]`.
///
/// Only plain `//` comments qualify — doc comments (`///`, `//!`) can
/// *talk about* the syntax without suppressing anything.
pub(crate) fn parse_allows(src: &[u8], toks: &[Token], idx: &LineIndex) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let text = t.text(src);
        if matches!(text.get(2), Some(b'/') | Some(b'!')) {
            continue;
        }
        let body = trim_ascii(&text[2.min(text.len())..]);
        if !body.starts_with(b"xgs-lint:") {
            continue;
        }
        let mut rest = body;
        while let Some(pos) = find(rest, b"xgs-lint:") {
            rest = &rest[pos + b"xgs-lint:".len()..];
            let Some(ap) = find(rest, b"allow(") else {
                break;
            };
            rest = &rest[ap + b"allow(".len()..];
            let Some(close) = rest.iter().position(|&b| b == b')') else {
                break;
            };
            let rule = String::from_utf8_lossy(&rest[..close]).trim().to_string();
            rest = &rest[close + 1..];
            // Justification: any text after the `)`, past a `:` or dash.
            let just = rest
                .iter()
                .position(|&b| !matches!(b, b':' | b'-' | b' ' | b'\t'))
                .map(|p| &rest[p..])
                .unwrap_or(b"");
            allows.push(Allow {
                rule,
                line: idx.line(t.start),
                justified: !just.is_empty(),
            });
        }
    }
    allows
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn trim_ascii(mut b: &[u8]) -> &[u8] {
    while let Some((f, rest)) = b.split_first() {
        if f.is_ascii_whitespace() {
            b = rest;
        } else {
            break;
        }
    }
    b
}

// ----------------------------------------------------------- test regions

/// Byte spans covered by `#[cfg(test)]` items (and `#[test]` functions):
/// the panic/read rules don't apply there. Detected as the token sequence
/// `# [ cfg ( test ) ]` / `# [ test ]` followed by an item whose body is
/// the next brace-balanced block (or a `;`-terminated item).
pub(crate) fn test_regions(sig: &[Sig<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        let hit = starts_with_seq(&sig[i..], &[b"#", b"[", b"cfg", b"(", b"test", b")", b"]"])
            || starts_with_seq(&sig[i..], &[b"#", b"[", b"test", b"]"]);
        if !hit {
            i += 1;
            continue;
        }
        let start = sig[i].start;
        // Find the item body: first `{` before any top-level `;`.
        let mut j = i;
        let mut depth = 0usize;
        let mut end = None;
        while j < sig.len() {
            let s = &sig[j];
            if s.is_punct(b'{') {
                depth += 1;
            } else if s.is_punct(b'}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = Some(s.start + 1);
                    break;
                }
            } else if s.is_punct(b';') && depth == 0 {
                end = Some(s.start + 1);
                break;
            }
            j += 1;
        }
        let end = end.unwrap_or(sig.last().map(|s| s.start + 1).unwrap_or(start));
        regions.push((start, end));
        i = j.max(i) + 1;
    }
    regions
}

/// The files out-of-line `#[cfg(test)] mod name;` declarations name:
/// `name.rs` or `name/mod.rs` in the declaring file's directory when it
/// is a `mod.rs`/`lib.rs`/`main.rs`, else in the directory named after
/// the declaring file.
fn out_of_line_test_modules(sources: &[(String, Vec<u8>)]) -> Vec<String> {
    let mut files = Vec::new();
    for (path, src) in sources {
        let sig = sig_tokens(src, &lex(src));
        for w in 0..sig.len() {
            if !starts_with_seq(&sig[w..], &[b"#", b"[", b"cfg", b"(", b"test", b")", b"]"]) {
                continue;
            }
            let [m, name, semi, ..] = &sig[w + 7..] else {
                continue;
            };
            if !(m.is_ident(b"mod") && name.kind == TokenKind::Ident && semi.is_punct(b';')) {
                continue;
            }
            let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
            let base = match file {
                "mod.rs" | "lib.rs" | "main.rs" => dir.to_string(),
                _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
            };
            let name = String::from_utf8_lossy(name.text);
            files.push(format!("{base}/{name}.rs"));
            files.push(format!("{base}/{name}/mod.rs"));
        }
    }
    files
}

fn starts_with_seq(sig: &[Sig<'_>], seq: &[&[u8]]) -> bool {
    seq.len() <= sig.len()
        && seq.iter().zip(sig).all(|(want, s)| match s.kind {
            TokenKind::Ident => s.text == *want,
            TokenKind::Punct(b) => *want == [b],
            _ => false,
        })
}

// ------------------------------------------------------------------ rules

type Raw = Vec<(usize, &'static str, String)>;

/// `no-partial-cmp-sort`: any `.partial_cmp(` *call* is a finding
/// (`fn partial_cmp` trait implementations are fine — no leading dot).
fn rule_partial_cmp(_path: &str, sig: &[Sig<'_>], out: &mut Raw) {
    for w in 1..sig.len() {
        if sig[w].is_ident(b"partial_cmp") && sig[w - 1].is_punct(b'.') {
            out.push((
                sig[w].start,
                "no-partial-cmp-sort",
                "call goes through partial_cmp; use f64::total_cmp for a NaN-safe total order"
                    .to_string(),
            ));
        }
    }
}

/// Identifiers that hold raw wire payloads: indexing them without `get`
/// turns a short frame into a panic instead of a typed protocol error.
const WIRE_BUFFERS: &[&[u8]] = &[b"payload"];

/// `no-panic-in-network-path`.
fn rule_no_panic(_path: &str, sig: &[Sig<'_>], in_test: &dyn Fn(usize) -> bool, out: &mut Raw) {
    const PANIC_MACROS: &[&[u8]] = &[b"panic", b"unreachable", b"todo", b"unimplemented"];
    for w in 0..sig.len() {
        let s = &sig[w];
        if in_test(s.start) {
            continue;
        }
        if w > 0 && sig[w - 1].is_punct(b'.') && (s.is_ident(b"unwrap") || s.is_ident(b"expect")) {
            out.push((
                s.start,
                "no-panic-in-network-path",
                format!(
                    "{}() in a network path; route the failure through the typed error enum",
                    String::from_utf8_lossy(s.text)
                ),
            ));
        }
        if PANIC_MACROS.iter().any(|m| s.is_ident(m))
            && sig.get(w + 1).is_some_and(|n| n.is_punct(b'!'))
        {
            out.push((
                s.start,
                "no-panic-in-network-path",
                format!(
                    "{}! in a network path; route the failure through the typed error enum",
                    String::from_utf8_lossy(s.text)
                ),
            ));
        }
        if WIRE_BUFFERS.iter().any(|b| s.is_ident(b))
            && sig.get(w + 1).is_some_and(|n| n.is_punct(b'['))
        {
            out.push((
                s.start,
                "no-panic-in-network-path",
                format!(
                    "indexing wire buffer `{}` can panic on a short frame; use .get(..) and return a protocol error",
                    String::from_utf8_lossy(s.text)
                ),
            ));
        }
    }
}

/// `bounded-read-only`.
fn rule_bounded_read(_path: &str, sig: &[Sig<'_>], in_test: &dyn Fn(usize) -> bool, out: &mut Raw) {
    const UNBOUNDED: &[&[u8]] = &[b"read_line", b"read_to_end", b"read_to_string"];
    for w in 1..sig.len() {
        let s = &sig[w];
        if in_test(s.start) || !sig[w - 1].is_punct(b'.') {
            continue;
        }
        if UNBOUNDED.iter().any(|m| s.is_ident(m)) {
            out.push((
                s.start,
                "bounded-read-only",
                format!(
                    "{}() is unbounded on a network stream; use the fill_buf bounded reader or deadline'd frame reads",
                    String::from_utf8_lossy(s.text)
                ),
            ));
        }
    }
}

/// `no-unbounded-channel-send`: a zero-argument `channel()` call builds an
/// unbounded mpsc queue. In the shard coordinator/reader fan-in a slow
/// consumer then buffers without limit (every TILE publish is a full tile
/// payload), so the bound — or the reasoned decision not to have one —
/// must be explicit: use `sync_channel(n)` or carry a justified allow.
/// Alias-resolved (`use ...::channel as chan;` does not hide the call).
fn rule_unbounded_channel(
    _path: &str,
    sig: &[Sig<'_>],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Raw,
) {
    for w in 0..sig.len() {
        let s = &sig[w];
        if !s.is_ident(b"channel") || in_test(s.start) {
            continue;
        }
        // A call with no arguments: `channel ( )`. Method position
        // (`.channel()`) is some other API, not std::sync::mpsc.
        if w > 0 && sig[w - 1].is_punct(b'.') {
            continue;
        }
        if sig.get(w + 1).is_some_and(|n| n.is_punct(b'('))
            && sig.get(w + 2).is_some_and(|n| n.is_punct(b')'))
        {
            out.push((
                s.start,
                "no-unbounded-channel-send",
                "unbounded channel() in a shard network path; use sync_channel(n) or justify why depth is bounded elsewhere"
                    .to_string(),
            ));
        }
    }
}

/// `no-unjustified-unsafe`: every `unsafe` keyword needs a justified allow.
fn rule_unsafe(_path: &str, sig: &[Sig<'_>], out: &mut Raw) {
    for s in sig {
        if s.is_ident(b"unsafe") {
            out.push((
                s.start,
                "no-unjustified-unsafe",
                "unsafe requires `// xgs-lint: allow(no-unjustified-unsafe): <why it is sound>`"
                    .to_string(),
            ));
        }
    }
}

/// `frame-kind-exhaustive`: inside a `match` whose scrutinee names a wire
/// kind (`kind`, `task_kind`, `op`) or whose arms use `K_*`/`KIND_*`
/// constants, a bare `_ =>` arm is a finding — unknown wire values must be
/// bound to a name and answered with a protocol error so that adding a
/// frame kind can never be silently mis-dispatched. Test regions are
/// exempt (tests may deliberately construct partial matches).
fn rule_frame_exhaustive(
    _path: &str,
    sig: &[Sig<'_>],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Raw,
) {
    const SCRUTINEES: &[&[u8]] = &[b"kind", b"task_kind", b"frame_kind", b"op"];
    let mut w = 0;
    while w < sig.len() {
        if !sig[w].is_ident(b"match") {
            w += 1;
            continue;
        }
        // Scrutinee: tokens up to the match's `{` (at bracket depth 0).
        let mut j = w + 1;
        let mut paren = 0i32;
        let mut kindy = false;
        while j < sig.len() {
            let s = &sig[j];
            if s.is_punct(b'(') || s.is_punct(b'[') {
                paren += 1;
            } else if s.is_punct(b')') || s.is_punct(b']') {
                paren -= 1;
            } else if s.is_punct(b'{') && paren == 0 {
                break;
            } else if SCRUTINEES.iter().any(|n| s.is_ident(n)) {
                kindy = true;
            }
            j += 1;
        }
        if j >= sig.len() {
            break;
        }
        // Body span: matching close brace.
        let open = j;
        let mut depth = 0i32;
        let mut close = sig.len();
        while j < sig.len() {
            if sig[j].is_punct(b'{') {
                depth += 1;
            } else if sig[j].is_punct(b'}') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
            j += 1;
        }
        let body = &sig[open + 1..close.min(sig.len())];
        let uses_kind_consts = body.iter().any(|s| {
            s.kind == TokenKind::Ident
                && (s.text.starts_with(b"K_") || s.text.starts_with(b"KIND_"))
        });
        if kindy || uses_kind_consts {
            for win in body.windows(3) {
                if win[0].is_ident(b"_")
                    && win[1].is_punct(b'=')
                    && win[2].is_punct(b'>')
                    && !in_test(win[0].start)
                {
                    out.push((
                        win[0].start,
                        "frame-kind-exhaustive",
                        "wildcard `_ =>` on a wire kind match; bind the value (`other =>`) and return a protocol error"
                            .to_string(),
                    ));
                }
            }
        }
        w = open + 1;
    }
}

/// `no-heartbeat-in-hot-loop`: a loop body that *emits* `K_HEARTBEAT`
/// through a send primitive and also emits `K_TASK` is mixing liveness
/// traffic into the per-task send path. Heartbeats exist to bound death
/// detection when the hot path is quiet; riding them on task dispatch
/// makes their cadence a function of load (a stalled dispatcher stops
/// heartbeating exactly when liveness matters) and doubles the frame
/// rate of the hottest loop. Receive-side dispatch (`K_HEARTBEAT` as a
/// match pattern) is fine — only send-call arguments count.
fn rule_heartbeat_hot_loop(
    _path: &str,
    sig: &[Sig<'_>],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Raw,
) {
    /// Offset of the first `send`-like call whose argument list names
    /// `konst`, if any.
    fn emit_site(body: &[Sig<'_>], konst: &[u8]) -> Option<usize> {
        const SENDS: &[&[u8]] = &[b"send", b"write_frame", b"send_frame"];
        let mut i = 0;
        while i < body.len() {
            let callee = &body[i];
            if callee.kind == TokenKind::Ident
                && SENDS.iter().any(|n| callee.is_ident(n))
                && body.get(i + 1).is_some_and(|s| s.is_punct(b'('))
            {
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < body.len() {
                    let s = &body[j];
                    if s.is_punct(b'(') {
                        depth += 1;
                    } else if s.is_punct(b')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if s.is_ident(konst) {
                        return Some(callee.start);
                    }
                    j += 1;
                }
                i = j;
            }
            i += 1;
        }
        None
    }

    let mut w = 0;
    while w < sig.len() {
        let s = &sig[w];
        if !(s.is_ident(b"loop") || s.is_ident(b"while") || s.is_ident(b"for")) {
            w += 1;
            continue;
        }
        // Loop header: tokens up to the body's `{` at bracket depth 0.
        let mut j = w + 1;
        let mut paren = 0i32;
        while j < sig.len() {
            let t = &sig[j];
            if t.is_punct(b'(') || t.is_punct(b'[') {
                paren += 1;
            } else if t.is_punct(b')') || t.is_punct(b']') {
                paren -= 1;
            } else if t.is_punct(b'{') && paren == 0 {
                break;
            }
            j += 1;
        }
        if j >= sig.len() {
            break;
        }
        let open = j;
        let mut depth = 0i32;
        let mut close = sig.len();
        while j < sig.len() {
            if sig[j].is_punct(b'{') {
                depth += 1;
            } else if sig[j].is_punct(b'}') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
            j += 1;
        }
        let body = &sig[open + 1..close.min(sig.len())];
        if let Some(hb) = emit_site(body, b"K_HEARTBEAT") {
            if emit_site(body, b"K_TASK").is_some() && !in_test(hb) {
                out.push((
                    hb,
                    "no-heartbeat-in-hot-loop",
                    "HEARTBEAT emitted from a loop that also sends TASK frames; liveness \
                     traffic must not ride the per-task send path"
                        .to_string(),
                ));
            }
        }
        // Step inside the header so nested loops are scanned too.
        w = open + 1;
    }
}

/// `no-raw-parallelism-probe`: every layer that sizes itself by the
/// machine must route through the one shared helper
/// (`xgs_runtime::logical_cores()`) so the executor, the shard workers'
/// JOIN advertisement, the bench defaults, and the rayon pool all agree
/// on the same number. A direct `available_parallelism()` call or a
/// `num_cpus::get()` path expression anywhere else is a finding; the
/// helper itself carries the justified allow. Alias-resolved, so
/// `use std::thread::available_parallelism as cores;` does not hide the
/// probe. Tests are *not* exempt: a test probing the machine directly is
/// exactly the inconsistency the rule exists to prevent.
fn rule_raw_parallelism_probe(_path: &str, sig: &[Sig<'_>], out: &mut Raw) {
    for w in 0..sig.len() {
        let s = &sig[w];
        if s.is_ident(b"available_parallelism") && sig.get(w + 1).is_some_and(|n| n.is_punct(b'('))
        {
            out.push((
                s.start,
                "no-raw-parallelism-probe",
                "raw available_parallelism() probe; use xgs_runtime::logical_cores() so every layer sizes itself identically"
                    .to_string(),
            ));
        }
        if s.is_ident(b"num_cpus")
            && sig.get(w + 1).is_some_and(|n| n.is_punct(b':'))
            && sig.get(w + 2).is_some_and(|n| n.is_punct(b':'))
            && sig.get(w + 3).is_some_and(|n| n.is_ident(b"get"))
        {
            out.push((
                s.start,
                "no-raw-parallelism-probe",
                "raw num_cpus::get() probe; use xgs_runtime::logical_cores() so every layer sizes itself identically"
                    .to_string(),
            ));
        }
    }
}

/// `safety-comment-required`: every `unsafe` keyword must be preceded —
/// between the previous `{`, `}`, or `;` and the keyword itself — by a
/// comment naming SAFETY. Accepts the conventional spellings: a
/// `// SAFETY: ...` line above the block, a `/// # Safety` doc section on
/// an unsafe fn, or a shared `/* Safety: ... */`. This is deliberately a
/// *separate* obligation from `no-unjustified-unsafe`: the allow justifies
/// why the site exists at all; the SAFETY comment states the invariant the
/// unsafe code relies on, next to the code, for the reviewer who edits it.
fn rule_safety_comment(_path: &str, src: &[u8], toks: &[Token], sig: &[Sig<'_>], out: &mut Raw) {
    for s in sig {
        if !s.is_ident(b"unsafe") {
            continue;
        }
        // Raw-token index of this keyword (token spans tile the file, so
        // the partition point lands exactly on it).
        let ri = toks.partition_point(|t| t.start < s.start);
        let mut documented = false;
        let mut k = ri;
        while k > 0 {
            k -= 1;
            let t = &toks[k];
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment
                    if find(&t.text(src).to_ascii_lowercase(), b"safety").is_some() =>
                {
                    documented = true;
                    break;
                }
                // Statement/item boundary: the comment must sit with the
                // unsafe site, not anywhere earlier in the file.
                TokenKind::Punct(b'{') | TokenKind::Punct(b'}') | TokenKind::Punct(b';') => break,
                _ => {}
            }
        }
        if !documented {
            out.push((
                s.start,
                "safety-comment-required",
                "unsafe without a `// SAFETY:` comment on the preceding lines; state the invariant this site relies on"
                    .to_string(),
            ));
        }
    }
}

/// `no-unsafe-outside-audited-modules`: `unsafe` anywhere outside
/// [`AUDITED_UNSAFE`] is a finding regardless of comments or allows for
/// the *other* unsafe rules — extending the audited surface means
/// extending the allowlist in a reviewed diff.
fn rule_unsafe_audited(path: &str, sig: &[Sig<'_>], out: &mut Raw) {
    if AUDITED_UNSAFE
        .iter()
        .any(|p| path.starts_with(p) || path.ends_with(p) || path.contains(&format!("/{p}")))
    {
        return;
    }
    for s in sig {
        if s.is_ident(b"unsafe") {
            out.push((
                s.start,
                "no-unsafe-outside-audited-modules",
                "unsafe outside the audited allowlist (vendor/rayon, vendor/polling, crates/kernels/src/simd.rs); move the code there or extend the allowlist in a reviewed change"
                    .to_string(),
            ));
        }
    }
}

/// Raw syscalls whose return value encodes failure as `-1`/negative.
const SYSCALLS: &[&[u8]] = &[
    b"epoll_create1",
    b"epoll_ctl",
    b"epoll_wait",
    b"eventfd",
    b"read",
    b"write",
    b"close",
];

/// `syscall-ret-checked` (vendor/polling only): a raw syscall's result
/// must visibly flow into an error check — a comparison right after the
/// call (`< 0`, `== -1`, `?`), a `match` on the call, or a `let` binding
/// whose name later appears next to a comparison. Discarding the result
/// (`unsafe { close(fd) };`) needs a justified allow saying why best-effort
/// is correct there.
fn rule_syscall_ret(_path: &str, sig: &[Sig<'_>], out: &mut Raw) {
    for w in 0..sig.len() {
        let s = &sig[w];
        if !SYSCALLS.iter().any(|n| s.is_ident(n)) {
            continue;
        }
        if !sig.get(w + 1).is_some_and(|n| n.is_punct(b'(')) {
            continue;
        }
        // Not a call: extern declarations (`fn read(...)`) and method
        // position (`stream.read(...)` is std::io, not the raw syscall).
        if w > 0 && (sig[w - 1].is_punct(b'.') || sig[w - 1].is_ident(b"fn")) {
            continue;
        }
        // Span of the argument list.
        let mut depth = 0i32;
        let mut j = w + 1;
        let mut close = None;
        while j < sig.len() {
            if sig[j].is_punct(b'(') {
                depth += 1;
            } else if sig[j].is_punct(b')') {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(close) = close else { continue };

        // (a) The result flows directly into a comparison or `?` after the
        // call (skipping `}` from a wrapping `unsafe { ... }`).
        let mut k = close + 1;
        while sig.get(k).is_some_and(|t| t.is_punct(b'}')) {
            k += 1;
        }
        if sig.get(k).is_some_and(|t| {
            t.is_punct(b'<')
                || t.is_punct(b'>')
                || t.is_punct(b'?')
                || (t.is_punct(b'=') && sig.get(k + 1).is_some_and(|n| n.is_punct(b'=')))
                || (t.is_punct(b'!') && sig.get(k + 1).is_some_and(|n| n.is_punct(b'=')))
        }) {
            continue;
        }

        // Walk back over `unsafe {` wrappers to see the binding context.
        let mut b = w;
        while b > 0 && (sig[b - 1].is_punct(b'{') || sig[b - 1].is_ident(b"unsafe")) {
            b -= 1;
        }
        // (b) The whole call is a match scrutinee.
        if b > 0 && sig[b - 1].is_ident(b"match") {
            continue;
        }
        // (c) `let [mut] name = [unsafe {] call(..)` and `name` later sits
        // next to a comparison operator.
        let mut checked = false;
        if b > 0 && sig[b - 1].is_punct(b'=') {
            let mut t = b - 1;
            let mut let_idx = None;
            let mut guard = 0;
            while t > 0 && guard < 16 {
                t -= 1;
                guard += 1;
                let x = &sig[t];
                if x.is_punct(b';') || x.is_punct(b'{') || x.is_punct(b'}') {
                    break;
                }
                if x.is_ident(b"let") {
                    let_idx = Some(t);
                    break;
                }
            }
            if let Some(li) = let_idx {
                let mut ni = li + 1;
                if sig.get(ni).is_some_and(|x| x.is_ident(b"mut")) {
                    ni += 1;
                }
                if let Some(name) = sig
                    .get(ni)
                    .filter(|x| x.kind == TokenKind::Ident && x.text != b"_")
                    .map(|x| x.text)
                {
                    let is_cmp_at = |m: usize| {
                        sig.get(m).is_some_and(|t| {
                            t.is_punct(b'<')
                                || t.is_punct(b'>')
                                || (t.is_punct(b'=')
                                    && sig.get(m + 1).is_some_and(|n| n.is_punct(b'=')))
                                || (t.is_punct(b'!')
                                    && sig.get(m + 1).is_some_and(|n| n.is_punct(b'=')))
                        })
                    };
                    let cmp_before = |m: usize| {
                        m >= 1
                            && sig.get(m - 1).is_some_and(|t| {
                                t.is_punct(b'<')
                                    || t.is_punct(b'>')
                                    || (t.is_punct(b'=')
                                        && m >= 2
                                        && sig.get(m - 2).is_some_and(|p| {
                                            p.is_punct(b'=')
                                                || p.is_punct(b'!')
                                                || p.is_punct(b'<')
                                                || p.is_punct(b'>')
                                        }))
                            })
                    };
                    for (m, t) in sig.iter().enumerate().take(close + 4000).skip(close) {
                        if t.kind == TokenKind::Ident
                            && t.text == name
                            && (is_cmp_at(m + 1) || cmp_before(m))
                        {
                            checked = true;
                            break;
                        }
                    }
                }
            }
        }
        if !checked {
            out.push((
                s.start,
                "syscall-ret-checked",
                format!(
                    "result of raw {}() is never error-checked; compare it (or justify the allow for best-effort sites)",
                    String::from_utf8_lossy(s.text)
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src.as_bytes())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn partial_cmp_call_flagged_impl_not() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", src),
            ["no-partial-cmp-sort"]
        );
        let imp =
            "impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { None } }";
        assert!(rules_hit("crates/x/src/lib.rs", imp).is_empty());
    }

    #[test]
    fn string_literals_never_trigger() {
        let src = r#"fn f() { let s = "x.unwrap() unsafe _ =>"; }"#;
        assert!(rules_hit("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "fn f(v: &mut Vec<f64>) {\n    // xgs-lint: allow(no-partial-cmp-sort): NaN-free by construction\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_a_finding() {
        let src = "fn f(v: &mut Vec<f64>) {\n    // xgs-lint: allow(no-partial-cmp-sort)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let hit = rules_hit("crates/x/src/lib.rs", src);
        assert!(hit.contains(&"no-partial-cmp-sort"), "{hit:?}");
        assert!(hit.contains(&"unjustified-allow"), "{hit:?}");
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_panic_rules() {
        let src = "fn run() -> Result<(), E> { Ok(()) }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { run().unwrap(); }\n}";
        assert!(rules_hit("crates/server/src/server.rs", src).is_empty());
    }

    #[test]
    fn frame_wildcard_flagged_binding_ok() {
        let bad = "fn f(kind: u8) { match kind { K_HELLO => a(), _ => b(), } }";
        assert_eq!(
            rules_hit("crates/runtime/src/shard.rs", bad),
            ["frame-kind-exhaustive"]
        );
        let good = "fn f(kind: u8) { match kind { K_HELLO => a(), other => err(other), } }";
        assert!(rules_hit("crates/runtime/src/shard.rs", good).is_empty());
        // Matches on non-kind scrutinees keep their wildcard freedom.
        let unrelated = "fn f(x: u8) { match x { 1 => a(), _ => b(), } }";
        assert!(rules_hit("crates/runtime/src/shard.rs", unrelated).is_empty());
        // The registration/liveness kinds are wire kinds like any other.
        let fleet = "fn f(kind: u8) { match kind { K_JOIN => a(), K_HEARTBEAT => b(), K_ASSIGN => c(), _ => d(), } }";
        assert_eq!(
            rules_hit("crates/fleet/src/lib.rs", fleet),
            ["frame-kind-exhaustive"]
        );
    }

    #[test]
    fn heartbeat_in_hot_loop_flagged_separate_loops_ok() {
        // Liveness frames on the per-task send path: flagged.
        let bad = "fn f(co: &mut C) { for id in order { co.send(w, K_TASK, &t); co.send(w, K_HEARTBEAT, &hb); } }";
        assert_eq!(
            rules_hit("crates/cholesky/src/shard/coordinator.rs", bad),
            ["no-heartbeat-in-hot-loop"]
        );
        // The stack's out-of-line test module, declared
        // `#[cfg(test)] mod tests;` in its `mod.rs`, is test code.
        let stack = [
            (
                "crates/cholesky/src/shard/mod.rs".to_string(),
                b"#[cfg(test)]\nmod tests;\n".to_vec(),
            ),
            (
                "crates/cholesky/src/shard/tests.rs".to_string(),
                bad.as_bytes().to_vec(),
            ),
        ];
        assert!(lint_files(&stack).findings.is_empty());
        // Heartbeats from their own (drain/monitor) loop: fine.
        let good = "fn f(co: &mut C) { for id in order { co.send(w, K_TASK, &t); } for w in 0..n { co.send(w, K_HEARTBEAT, &hb); } }";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", good).is_empty());
        // Receive-side dispatch on K_HEARTBEAT next to a TASK send is not
        // an emission: only send-call arguments count.
        let dispatch = "fn f() { loop { match kind { K_HEARTBEAT => pong(), other => err(other), } co.send(w, K_TASK, &t); } }";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", dispatch).is_empty());
        // A nested hot loop inside a quiet outer loop is still caught.
        let nested = "fn f() { loop { step(); while go { write_frame(s, K_TASK, &t); write_frame(s, K_HEARTBEAT, &hb); } } }";
        assert_eq!(
            rules_hit("crates/fleet/src/lib.rs", nested),
            ["no-heartbeat-in-hot-loop"]
        );
        // Outside the frame-scoped files the rule does not apply.
        assert!(rules_hit("crates/x/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn bounded_read_and_wire_index() {
        let src =
            "fn f(r: &mut R, payload: &[u8]) -> Res { r.read_line(&mut s); decode(&payload[8..]) }";
        let hit = rules_hit("crates/cholesky/src/shard/worker.rs", src);
        assert!(hit.contains(&"bounded-read-only"), "{hit:?}");
        assert!(hit.contains(&"no-panic-in-network-path"), "{hit:?}");
    }

    #[test]
    fn unbounded_channel_flagged_bounded_ok() {
        let bad = "fn f() { let (tx, rx) = channel(); }";
        assert_eq!(
            rules_hit("crates/cholesky/src/shard/worker.rs", bad),
            ["no-unbounded-channel-send"]
        );
        let bounded = "fn f() { let (tx, rx) = sync_channel(8); }";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", bounded).is_empty());
        // With-capacity constructors of other queue types are not mpsc.
        let method = "fn f(b: &B) { let c = b.channel(); }";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", method).is_empty());
        // Outside the network scope the rule does not apply.
        assert!(rules_hit("crates/x/src/lib.rs", bad).is_empty());
        // A justified allow is the sanctioned escape hatch.
        let allowed = "fn f() {\n    // xgs-lint: allow(no-unbounded-channel-send): depth bounded by in-flight DONEs\n    let (tx, rx) = channel();\n}";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", allowed).is_empty());
    }

    #[test]
    fn use_alias_resolution_sees_through_renames() {
        // The aliased call is still a zero-arg mpsc channel construction.
        let aliased = "use std::sync::mpsc::channel as chan;\nfn f() { let (tx, rx) = chan(); }";
        assert_eq!(
            rules_hit("crates/cholesky/src/shard/worker.rs", aliased),
            ["no-unbounded-channel-send"]
        );
        // Grouped imports resolve too.
        let grouped =
            "use std::sync::mpsc::{channel as fanin, Receiver};\nfn f() { let x = fanin(); }";
        assert_eq!(
            rules_hit("crates/cholesky/src/shard/worker.rs", grouped),
            ["no-unbounded-channel-send"]
        );
        // `as _` binds nothing; expression casts are not aliases.
        let cast = "use std::io::Read as _;\nfn f(x: u8) -> u64 { x as u64 }";
        assert!(rules_hit("crates/cholesky/src/shard/worker.rs", cast).is_empty());
        // Unaliased names keep working when renames exist elsewhere.
        let mixed = "use std::sync::mpsc::sync_channel as sc;\nfn f() { let a = sc(4); let b = channel(); }";
        assert_eq!(
            rules_hit("crates/cholesky/src/shard/worker.rs", mixed),
            ["no-unbounded-channel-send"]
        );
    }

    #[test]
    fn raw_parallelism_probe_flagged_helper_allowed() {
        let bad = "fn workers() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", bad),
            ["no-raw-parallelism-probe"]
        );
        let ncpus = "fn workers() -> usize { num_cpus::get() }";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", ncpus),
            ["no-raw-parallelism-probe"]
        );
        // The shared helper is the one sanctioned site, via the allow.
        let helper = "pub fn logical_cores() -> usize {\n    // xgs-lint: allow(no-raw-parallelism-probe): this is the shared helper itself\n    num_cpus::get()\n}";
        assert!(rules_hit("crates/runtime/src/lib.rs", helper).is_empty());
        // Aliasing the std probe does not hide it.
        let aliased = "use std::thread::available_parallelism as cores;\nfn f() -> usize { cores().map(|n| n.get()).unwrap_or(1) }";
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", aliased),
            ["no-raw-parallelism-probe"]
        );
        // Unrelated `get` calls and doc-comment mentions are inert.
        let quiet = "/// Calls `num_cpus::get()` internally.\nfn f(m: &M) -> usize { m.get() }";
        assert!(rules_hit("crates/x/src/lib.rs", quiet).is_empty());
        // Routing through the helper is what the rule wants to see.
        let routed = "fn f() -> usize { xgs_runtime::logical_cores() }";
        assert!(rules_hit("crates/x/src/lib.rs", routed).is_empty());
    }

    #[test]
    fn unsafe_needs_allow_safety_comment_and_audited_module() {
        // A bare unsafe outside the allowlist trips all three unsafe rules.
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let hit = rules_hit("crates/x/src/lib.rs", bad);
        assert!(hit.contains(&"no-unjustified-unsafe"), "{hit:?}");
        assert!(hit.contains(&"safety-comment-required"), "{hit:?}");
        assert!(
            hit.contains(&"no-unsafe-outside-audited-modules"),
            "{hit:?}"
        );
        // Inside an audited module, with a SAFETY comment and a justified
        // allow, the site is clean.
        let good = "fn f() {\n    // SAFETY: caller upholds the aliasing invariant checked above.\n    // xgs-lint: allow(no-unjustified-unsafe): checked invariant above\n    unsafe { core::hint::unreachable_unchecked() }\n}";
        assert!(rules_hit("vendor/rayon/src/lib.rs", good).is_empty());
        // The audited path alone is not enough: the SAFETY comment and the
        // allow are still owed there.
        let hit = rules_hit("vendor/rayon/src/lib.rs", bad);
        assert!(hit.contains(&"safety-comment-required"), "{hit:?}");
        assert!(
            !hit.contains(&"no-unsafe-outside-audited-modules"),
            "{hit:?}"
        );
    }

    #[test]
    fn safety_comment_stops_at_statement_boundary() {
        // A SAFETY comment on a *previous* statement does not cover this
        // unsafe; the boundary `;` cuts the backward scan.
        let far = "fn f() {\n    // SAFETY: about something else entirely.\n    a();\n    unsafe { b() }\n}";
        let hit = rules_hit("vendor/rayon/src/lib.rs", far);
        assert!(hit.contains(&"safety-comment-required"), "{hit:?}");
        // `let _ = unsafe { ... }` keeps the comment and binding together.
        let bound = "fn f() {\n    // SAFETY: len was checked against capacity.\n    // xgs-lint: allow(no-unjustified-unsafe): bounds proven above\n    let x = unsafe { b() };\n    use_it(x);\n}";
        assert!(rules_hit("vendor/rayon/src/lib.rs", bound).is_empty());
        // A doc-comment `# Safety` section on an unsafe fn counts.
        let docfn = "/// Does a thing.\n///\n/// # Safety\n/// Caller must pin the buffer.\n// xgs-lint: allow(no-unjustified-unsafe): contract documented above\npub unsafe fn g() {}";
        assert!(rules_hit("vendor/rayon/src/lib.rs", docfn).is_empty());
    }

    #[test]
    fn syscall_results_must_flow_into_checks() {
        // Discarded result: flagged.
        let bad = "fn f(fd: i32) { unsafe { close(fd) }; }";
        let hit = rules_hit("vendor/polling/src/lib.rs", bad);
        assert!(hit.contains(&"syscall-ret-checked"), "{hit:?}");
        // Direct comparison after the call: fine.
        let cmp = "fn f(fd: i32) -> bool { unsafe { close(fd) } < 0 }";
        assert!(!rules_hit("vendor/polling/src/lib.rs", cmp).contains(&"syscall-ret-checked"));
        // Bound then compared later: fine.
        let bound = "fn f() -> io::Result<i32> { let rc = unsafe { eventfd(0, 0) }; if rc < 0 { return Err(last()); } Ok(rc) }";
        assert!(!rules_hit("vendor/polling/src/lib.rs", bound).contains(&"syscall-ret-checked"));
        // Bound and never compared: flagged.
        let unused = "fn f() { let rc = unsafe { eventfd(0, 0) }; stash(rc); }";
        assert!(rules_hit("vendor/polling/src/lib.rs", unused).contains(&"syscall-ret-checked"));
        // Match on the call is a check.
        let matched = "fn f(fd: i32) { match unsafe { close(fd) } { 0 => (), e => log(e), } }";
        assert!(!rules_hit("vendor/polling/src/lib.rs", matched).contains(&"syscall-ret-checked"));
        // Method-position read is std::io, not the raw syscall.
        let io = "fn f(s: &mut S, buf: &mut [u8]) { s.read(buf); }";
        assert!(!rules_hit("vendor/polling/src/lib.rs", io).contains(&"syscall-ret-checked"));
        // Outside vendor/polling the rule does not apply.
        assert!(!rules_hit("crates/x/src/lib.rs", bad).contains(&"syscall-ret-checked"));
        // A justified allow is the sanctioned escape for best-effort sites.
        let allowed = "fn f(fd: i32) {\n    // xgs-lint: allow(syscall-ret-checked): best-effort close on the error path\n    unsafe { close(fd) };\n}";
        assert!(!rules_hit("vendor/polling/src/lib.rs", allowed).contains(&"syscall-ret-checked"));
    }
}
