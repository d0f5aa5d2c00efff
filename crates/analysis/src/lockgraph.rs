//! Workspace lock-acquisition graph: the call-graph-aware deadlock pass
//! behind the `lock-order` and `lock-cycle` rules.
//!
//! The per-file rules in [`crate::rules`] are deliberately intra-procedural;
//! deadlocks are not. `A` locks `q.inner` and calls `B`, `B` locks
//! `metrics` — no single function ever holds two guards, yet the workspace
//! now contains the edge `inner -> metrics`, and one inverted pair anywhere
//! else closes a cycle. This pass builds that graph for the whole workspace
//! in three steps over the existing token stream (no new parser):
//!
//! 1. **Function index.** Every `fn` item is scanned once, recording its
//!    lock acquisitions (`.lock()`, `.wait()`, and reader–writer
//!    `.read()` / `.write()` receivers, with the set of locks held at that
//!    point — guard tracking reuses the same discipline the old
//!    intra-procedural rule enforced: `let`-bound guards live to end of
//!    block or `drop(g)`, temporaries to end of statement) and its
//!    outgoing calls (free calls, `path::calls`, and `self.method()` calls,
//!    each with the held set at the call site). Lock identity is
//!    `crate::receiver` — the last field name before `.lock()` — so
//!    `server::inner` and `rayon::idle` are distinct nodes even if a field
//!    name repeats across crates.
//! 2. **Held-set propagation.** A fixpoint computes, per function, the set
//!    of locks it *may* acquire transitively (calls resolve by bare name
//!    within the same crate — an over-approximation that unions same-named
//!    functions rather than missing edges). Each entry carries a witness
//!    chain of call sites down to the concrete `.lock()` line.
//! 3. **Graph + report.** Holding `h` while acquiring `l` (directly or via
//!    a call that may acquire `l`) adds the edge `h -> l`. Any cycle —
//!    including a self-loop, i.e. re-entrant acquisition of a non-reentrant
//!    mutex — is a `lock-cycle` finding with the full witness path (function
//!    chain and `file:line` per edge). The server's documented
//!    `BatchQueue::inner ≺ ModelRegistry::models ≺ Shared::metrics` order is
//!    additionally checked as a consequence: an edge from a higher-ranked to
//!    a lower-ranked declared lock is a `lock-order` finding even before any
//!    reverse edge exists to close the cycle.
//!
//! Findings are suppressible exactly like per-file rules, with a justified
//! `// xgs-lint: allow(lock-cycle): <why>` on or directly above the
//! reported acquisition line.

use crate::lexer::{lex, LineIndex, TokenKind};
use crate::rules::{parse_allows, sig_tokens, test_regions, Finding, Sig};
use std::collections::BTreeMap;

/// One step of a witness path: `func` at `path:line` either acquires the
/// edge's target lock (last step) or calls the next function in the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Site {
    pub func: String,
    pub path: String,
    pub line: usize,
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}:{})", self.func, self.path, self.line)
    }
}

/// A may-happen acquisition edge: some call path acquires `to` while `from`
/// is held. `witness` starts at the function holding `from` and ends at the
/// site that acquires `to`.
#[derive(Clone, Debug)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub witness: Vec<Site>,
}

/// A cycle in the lock graph. `locks` lists the nodes in order with
/// `locks[0]` repeated at the end; `edges[i]` indexes the
/// [`Analysis::edges`] entry realizing `locks[i] -> locks[i + 1]`.
#[derive(Clone, Debug)]
pub struct Cycle {
    pub locks: Vec<String>,
    pub edges: Vec<usize>,
}

/// The built graph plus everything reportable about it.
pub struct Analysis {
    pub edges: Vec<Edge>,
    pub cycles: Vec<Cycle>,
    pub findings: Vec<Finding>,
}

/// The server's declared lock order, least to greatest (see
/// `crates/server/src/lib.rs`). Node ids are `crate::receiver`.
const DECLARED: &[(&str, &str)] = &[
    ("server::inner", "BatchQueue::inner"),
    ("server::models", "ModelRegistry::models"),
    ("server::metrics", "Shared::metrics"),
];

/// Keywords that can directly precede `(` in expression position without
/// being calls.
/// (`drop` is listed because `drop(expr)` is `std::mem::drop`, not a call
/// into an `impl Drop` in the same crate — destructors run where values
/// die, which name resolution cannot order.)
const NOT_CALLEES: &[&[u8]] = &[
    b"if",
    b"while",
    b"for",
    b"match",
    b"return",
    b"loop",
    b"in",
    b"as",
    b"move",
    b"unsafe",
    b"let",
    b"else",
    b"fn",
    b"await",
    b"dyn",
    b"ref",
    b"mut",
    b"pub",
    b"use",
    b"mod",
    b"impl",
    b"where",
    b"break",
    b"continue",
    b"drop",
];

/// Cap on rendered witness-chain length; deeper chains are elided in the
/// middle of the message but the graph itself is exact.
const MAX_CHAIN: usize = 8;

struct Acq {
    lock: String,
    line: usize,
    held: Vec<String>,
}

struct Call {
    callee: String,
    line: usize,
    held: Vec<String>,
}

struct FnDef {
    name: String,
    krate: String,
    path: String,
    acquires: Vec<Acq>,
    calls: Vec<Call>,
}

/// Crate a workspace-relative path belongs to; top-level `src/`, `tests/`,
/// `benches/` files are the root package.
fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .or_else(|| path.strip_prefix("vendor/"))
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Resolve the receiver of an acquisition (`.lock()`, `.read()`, ...): the
/// nearest field or binding name walking the dotted chain backwards, seeing
/// through tuple indices (`self.idle.0.lock()` -> `idle`) and index
/// expressions (`self.slots[i].lock()` -> `slots`). Returns `None` for
/// receivers with no stable name (call results, literals).
fn receiver_of(sig: &[Sig<'_>], mut k: usize) -> Option<String> {
    loop {
        match sig[k].kind {
            TokenKind::Ident => {
                return Some(String::from_utf8_lossy(sig[k].text).into_owned());
            }
            // Tuple-field access: step over `name . 0`.
            TokenKind::Number if k >= 2 && sig[k - 1].is_punct(b'.') => k -= 2,
            TokenKind::Number => return None,
            TokenKind::Punct(b']') => {
                // Index expression: skip back to the matching `[`.
                let mut depth = 0i32;
                loop {
                    if sig[k].is_punct(b']') {
                        depth += 1;
                    } else if sig[k].is_punct(b'[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            _ => return None,
        }
    }
}

/// Whether the method name at `sig[j]` (after a `.`) acquires a lock:
/// `.lock()`, `.wait(..)`, or a reader–writer guard's no-argument
/// `.read()` / `.write()`. `io::Read::read(&mut buf)` and
/// `io::Write::write(buf)` take an argument and are not acquisitions.
fn is_acquisition(sig: &[Sig<'_>], j: usize) -> bool {
    let open = sig.get(j + 1).is_some_and(|n| n.is_punct(b'('));
    let no_args = open && sig.get(j + 2).is_some_and(|n| n.is_punct(b')'));
    let s = &sig[j];
    (open && (s.is_ident(b"lock") || s.is_ident(b"wait")))
        || (no_args && (s.is_ident(b"read") || s.is_ident(b"write")))
}

/// Scan one file into function definitions. Mirrors the guard-holding
/// discipline documented on the rules: `let`-bound guards are held to the
/// end of their block or an explicit `drop(name)`; an unbound `.lock()`
/// temporary to the end of its statement. Test regions are skipped — test
/// helpers lock freely and never run under production contention.
fn scan_file(path: &str, src: &[u8]) -> Vec<FnDef> {
    struct Held {
        node: String,
        depth: i32,
        var: Option<Vec<u8>>,
    }

    let toks = lex(src);
    let idx = LineIndex::new(src);
    let sig = sig_tokens(src, &toks);
    let tests = test_regions(&sig);
    let in_test = |off: usize| tests.iter().any(|&(s, e)| off >= s && off < e);
    let krate = crate_of(path);

    let mut fns = Vec::new();
    let mut w = 0;
    while w < sig.len() {
        if !sig[w].is_ident(b"fn") || in_test(sig[w].start) {
            w += 1;
            continue;
        }
        let Some(name_tok) = sig.get(w + 1).filter(|t| t.kind == TokenKind::Ident) else {
            w += 1;
            continue;
        };
        let name = String::from_utf8_lossy(name_tok.text).into_owned();
        let mut j = w + 2;
        while j < sig.len() && !sig[j].is_punct(b'{') && !sig[j].is_punct(b';') {
            j += 1;
        }
        if j >= sig.len() || sig[j].is_punct(b';') {
            w = j + 1;
            continue;
        }

        let mut def = FnDef {
            name,
            krate: krate.clone(),
            path: path.to_string(),
            acquires: Vec::new(),
            calls: Vec::new(),
        };
        let mut depth = 1i32;
        let mut held: Vec<Held> = Vec::new();
        let mut stmt_let: Option<Vec<u8>> = None;
        // Paren depth within the current statement: a `.lock()` at
        // depth > 0 sits inside a call argument or closure, so its guard
        // is a temporary of that subexpression, not the `let` binding.
        let mut stmt_paren = 0i32;
        j += 1;
        while j < sig.len() && depth > 0 {
            let s = &sig[j];
            if s.is_punct(b'(') {
                stmt_paren += 1;
            } else if s.is_punct(b')') {
                stmt_paren = (stmt_paren - 1).max(0);
            }
            if s.is_punct(b'{') {
                depth += 1;
                stmt_paren = 0;
            } else if s.is_punct(b'}') {
                depth -= 1;
                // A `}` closing back to a temporary's own depth ends the
                // statement-expression its scrutinee belonged to (`if let
                // Some(x) = m.lock().pop() { .. }` holds the guard through
                // the body, not beyond it). Slightly eager for `match`
                // scrutinees — a missed tail edge, never a false one.
                held.retain(|h| h.depth < depth || (h.depth == depth && h.var.is_some()));
                stmt_paren = 0;
            } else if s.is_punct(b';') {
                held.retain(|h| h.var.is_some() || h.depth < depth);
                stmt_let = None;
                stmt_paren = 0;
            } else if s.is_ident(b"let") {
                // `if let` / `while let` scrutinee guards are temporaries
                // of the statement-expression, and `let Some(x)` /
                // `let pat::Path(x)` destructures a pattern — neither
                // names a guard that `drop(name)` could later release.
                let in_cond =
                    j >= 1 && (sig[j - 1].is_ident(b"if") || sig[j - 1].is_ident(b"while"));
                let mut k = j + 1;
                if sig.get(k).is_some_and(|s| s.is_ident(b"mut")) {
                    k += 1;
                }
                // `let x: T = ..` binds `x`; `let a::B(x) = ..` does not.
                let path_sep = |i: usize| {
                    sig.get(i).is_some_and(|n| n.is_punct(b':'))
                        && sig.get(i + 1).is_some_and(|n| n.is_punct(b':'))
                };
                let ctor = sig.get(k + 1).is_some_and(|n| n.is_punct(b'(')) || path_sep(k + 1);
                stmt_let = if in_cond || ctor {
                    None
                } else {
                    sig.get(k)
                        .filter(|s| s.kind == TokenKind::Ident)
                        .map(|s| s.text.to_vec())
                };
            } else if s.is_ident(b"drop")
                && sig.get(j + 1).is_some_and(|n| n.is_punct(b'('))
                && sig.get(j + 3).is_some_and(|n| n.is_punct(b')'))
            {
                if let Some(v) = sig.get(j + 2) {
                    held.retain(|h| h.var.as_deref() != Some(v.text));
                }
            } else if j >= 2 && sig[j - 1].is_punct(b'.') && is_acquisition(&sig, j) {
                if let Some(recv) = receiver_of(&sig, j - 2) {
                    let node = format!("{krate}::{recv}");
                    // `.wait()` receivers join the graph as acquisition
                    // targets but do not hold anything afterwards.
                    let holds = !s.is_ident(b"wait");
                    def.acquires.push(Acq {
                        lock: node.clone(),
                        line: idx.line(s.start),
                        held: held.iter().map(|h| h.node.clone()).collect(),
                    });
                    // A guard inside a call argument or closure is a
                    // temporary of that subexpression, unless it is the
                    // subexpression's whole value (`.read())`): then it
                    // escapes into the statement's binding, as in
                    // `let gs: Vec<_> = ids.map(|i| m[i].read()).collect();`.
                    let escapes = sig.get(j + 3).is_some_and(|n| n.is_punct(b')'));
                    if holds {
                        held.push(Held {
                            node,
                            depth,
                            var: if stmt_paren == 0 || escapes {
                                stmt_let.clone()
                            } else {
                                None
                            },
                        });
                    }
                }
            } else if s.kind == TokenKind::Ident
                && sig.get(j + 1).is_some_and(|n| n.is_punct(b'('))
                && !NOT_CALLEES.iter().any(|k| s.is_ident(k))
            {
                // A call this pass can resolve: free (`helper(..)`), path
                // (`queue::push(..)`), or explicit-self method
                // (`self.drain(..)`). Arbitrary method calls are *not*
                // resolved by bare name — `vec.push()` must not alias a
                // `fn push` that locks — so receiver-typed dispatch stays
                // out of the graph rather than poisoning it.
                let dotted = j >= 1 && sig[j - 1].is_punct(b'.');
                let self_method = j >= 2 && dotted && sig[j - 2].is_ident(b"self");
                if !dotted || self_method {
                    def.calls.push(Call {
                        callee: String::from_utf8_lossy(s.text).into_owned(),
                        line: idx.line(s.start),
                        held: held.iter().map(|h| h.node.clone()).collect(),
                    });
                }
            }
            j += 1;
        }
        fns.push(def);
        w = j;
    }
    fns
}

/// Build the workspace lock graph and report violations. `files` holds
/// `(workspace-relative path, source)` pairs for every linted file; allow
/// comments in those files suppress findings exactly like per-file rules.
pub fn analyze_files(files: &[(String, Vec<u8>)]) -> Analysis {
    let mut sorted: Vec<&(String, Vec<u8>)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));

    let mut fns: Vec<FnDef> = Vec::new();
    for (path, src) in &sorted {
        fns.extend(scan_file(path, src));
    }

    // Same-crate name index. Duplicate names union their targets: better a
    // spurious edge a human dismisses than a cycle the pass cannot see.
    let mut index: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        index
            .entry((f.krate.clone(), f.name.clone()))
            .or_default()
            .push(i);
    }

    // Fixpoint: may[f] maps each lock the function may transitively
    // acquire to a witness chain ending at the concrete `.lock()` site.
    // Monotone (entries are only added, never changed), so it terminates
    // in at most |locks| * |fns| sweeps; in practice two or three.
    let mut may: Vec<BTreeMap<String, Vec<Site>>> = fns
        .iter()
        .map(|f| {
            let mut m = BTreeMap::new();
            for a in &f.acquires {
                m.entry(a.lock.clone()).or_insert_with(|| {
                    vec![Site {
                        func: f.name.clone(),
                        path: f.path.clone(),
                        line: a.line,
                    }]
                });
            }
            m
        })
        .collect();
    loop {
        let mut additions: Vec<(usize, String, Vec<Site>)> = Vec::new();
        for (fi, f) in fns.iter().enumerate() {
            for call in &f.calls {
                let key = (f.krate.clone(), call.callee.clone());
                for &ti in index.get(&key).into_iter().flatten() {
                    for (lock, chain) in &may[ti] {
                        if !may[fi].contains_key(lock) {
                            let mut witness = vec![Site {
                                func: f.name.clone(),
                                path: f.path.clone(),
                                line: call.line,
                            }];
                            witness.extend(chain.iter().take(MAX_CHAIN - 1).cloned());
                            additions.push((fi, lock.clone(), witness));
                        }
                    }
                }
            }
        }
        let mut changed = false;
        for (fi, lock, witness) in additions {
            if let std::collections::btree_map::Entry::Vacant(slot) = may[fi].entry(lock) {
                slot.insert(witness);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: held `h` at a direct acquisition of `l`, or at a call that may
    // acquire `l`. First witness (file order, then direct-before-call) wins.
    let mut edges: Vec<Edge> = Vec::new();
    let mut edge_index: BTreeMap<(String, String), usize> = BTreeMap::new();
    let add_edge = |edges: &mut Vec<Edge>,
                    edge_index: &mut BTreeMap<(String, String), usize>,
                    from: &str,
                    to: &str,
                    witness: Vec<Site>| {
        edge_index
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| {
                edges.push(Edge {
                    from: from.to_string(),
                    to: to.to_string(),
                    witness,
                });
                edges.len() - 1
            });
    };
    for f in &fns {
        for a in &f.acquires {
            let site = Site {
                func: f.name.clone(),
                path: f.path.clone(),
                line: a.line,
            };
            for h in &a.held {
                add_edge(&mut edges, &mut edge_index, h, &a.lock, vec![site.clone()]);
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let key = (f.krate.clone(), call.callee.clone());
            for &ti in index.get(&key).into_iter().flatten() {
                for (lock, chain) in &may[ti] {
                    let mut witness = vec![Site {
                        func: f.name.clone(),
                        path: f.path.clone(),
                        line: call.line,
                    }];
                    witness.extend(chain.iter().take(MAX_CHAIN - 1).cloned());
                    for h in &call.held {
                        add_edge(&mut edges, &mut edge_index, h, lock, witness.clone());
                    }
                }
            }
        }
    }

    let cycles = find_cycles(&edges);

    // Findings. A cycle is anchored at the acquisition site closing its
    // first edge; a declared-order inversion at its own acquisition site.
    let mut findings = Vec::new();
    for cy in &cycles {
        let first = &edges[cy.edges[0]];
        let anchor = first.witness.last().expect("witness chains are non-empty");
        let mut msg = format!("lock acquisition cycle: {}", cy.locks.join(" -> "));
        for (i, &ei) in cy.edges.iter().enumerate().take(3) {
            let e = &edges[ei];
            let path: Vec<String> = e.witness.iter().map(|s| s.to_string()).collect();
            msg.push_str(&format!(
                "; edge {} -> {} via {}",
                e.from,
                e.to,
                path.join(" -> ")
            ));
            if i == 2 && cy.edges.len() > 3 {
                msg.push_str(&format!("; ... {} more edges", cy.edges.len() - 3));
            }
        }
        findings.push(Finding {
            rule: "lock-cycle",
            path: anchor.path.clone(),
            line: anchor.line,
            col: 1,
            message: msg,
        });
    }
    let rank = |node: &str| DECLARED.iter().position(|(n, _)| *n == node);
    for e in &edges {
        let (Some(rf), Some(rt)) = (rank(&e.from), rank(&e.to)) else {
            continue;
        };
        if rf < rt {
            continue;
        }
        if e.from == e.to {
            continue; // self-loop: already a lock-cycle finding
        }
        let anchor = e.witness.last().expect("witness chains are non-empty");
        let path: Vec<String> = e.witness.iter().map(|s| s.to_string()).collect();
        findings.push(Finding {
            rule: "lock-order",
            path: anchor.path.clone(),
            line: anchor.line,
            col: 1,
            message: format!(
                "acquired {} while {} may be held; the declared order is {}; witness: {}",
                DECLARED[rt].1,
                DECLARED[rf].1,
                "BatchQueue::inner < ModelRegistry::models < Shared::metrics",
                path.join(" -> ")
            ),
        });
    }

    // Allow suppression, same contract as per-file rules: a justified
    // allow on the finding's line or the line above.
    let mut allows: BTreeMap<&str, Vec<(String, usize)>> = BTreeMap::new();
    for (path, src) in &sorted {
        let toks = lex(src);
        let idx = LineIndex::new(src);
        for a in parse_allows(src, &toks, &idx) {
            if a.justified {
                allows
                    .entry(path.as_str())
                    .or_default()
                    .push((a.rule, a.line));
            }
        }
    }
    findings.retain(|f| {
        !allows.get(f.path.as_str()).is_some_and(|list| {
            list.iter()
                .any(|(rule, line)| rule == f.rule && (*line == f.line || line + 1 == f.line))
        })
    });
    findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));

    Analysis {
        edges,
        cycles,
        findings,
    }
}

/// Enumerate elementary cycles by DFS back-edge extraction, deduplicated
/// by node set. Complete enough for a lock graph (tens of nodes); every
/// strongly-connected component with a cycle yields at least one witness.
fn find_cycles(edges: &[Edge]) -> Vec<Cycle> {
    let mut adj: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(e.from.as_str()).or_default().push(i);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();

    let mut cycles: Vec<Cycle> = Vec::new();
    let mut seen_sets: Vec<Vec<String>> = Vec::new();
    // 0 = white, 1 = on current path, 2 = done.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();

    fn dfs<'a>(
        node: &'a str,
        edges: &'a [Edge],
        adj: &BTreeMap<&'a str, Vec<usize>>,
        color: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<(&'a str, usize)>,
        cycles: &mut Vec<Cycle>,
        seen_sets: &mut Vec<Vec<String>>,
    ) {
        color.insert(node, 1);
        for &ei in adj.get(node).into_iter().flatten() {
            let to = edges[ei].to.as_str();
            match color.get(to).copied().unwrap_or(0) {
                1 => {
                    // Back edge: the cycle is the path suffix from `to`.
                    let start = path.iter().position(|(n, _)| *n == to).unwrap_or(0);
                    let mut locks: Vec<String> =
                        path[start..].iter().map(|(n, _)| n.to_string()).collect();
                    let mut es: Vec<usize> = path[start + 1..].iter().map(|(_, e)| *e).collect();
                    locks.push(to.to_string());
                    es.push(ei);
                    let mut key = locks.clone();
                    key.sort();
                    key.dedup();
                    if !seen_sets.contains(&key) {
                        seen_sets.push(key);
                        cycles.push(Cycle { locks, edges: es });
                    }
                }
                0 => {
                    path.push((to, ei));
                    dfs(to, edges, adj, color, path, cycles, seen_sets);
                    path.pop();
                }
                _ => {}
            }
        }
        color.insert(node, 2);
    }

    for &n in &nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            let mut path = vec![(n, usize::MAX)];
            dfs(
                n,
                edges,
                &adj,
                &mut color,
                &mut path,
                &mut cycles,
                &mut seen_sets,
            );
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, Vec<u8>)> {
        list.iter()
            .map(|(p, s)| (p.to_string(), s.as_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn cross_function_cycle_found_with_witness() {
        // No single function holds two guards in the wrong order, but
        // a() holds `alpha` across a call into b(), which locks `beta`,
        // while c() holds `beta` and calls d() which locks `alpha`.
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn a(&self) { let g = self.alpha.lock(); self.b(); }\n\
             fn b(&self) { let h = self.beta.lock(); }\n\
             fn c(&self) { let h = self.beta.lock(); d(); }\n\
             fn d() { S.alpha.lock(); }\n",
        )]);
        let an = analyze_files(&fs);
        assert_eq!(an.cycles.len(), 1, "{:?}", an.cycles);
        let cy = &an.cycles[0];
        assert_eq!(cy.locks.first(), cy.locks.last());
        assert_eq!(cy.locks.len(), 3); // two distinct locks + repeat
        for (i, &ei) in cy.edges.iter().enumerate() {
            assert_eq!(an.edges[ei].from, cy.locks[i]);
            assert_eq!(an.edges[ei].to, cy.locks[i + 1]);
            assert!(!an.edges[ei].witness.is_empty());
        }
        assert!(an.findings.iter().any(|f| f.rule == "lock-cycle"));
        // The witness names the call chain, not just the endpoints.
        let f = an.findings.iter().find(|f| f.rule == "lock-cycle").unwrap();
        assert!(f.message.contains("crates/t/src/lib.rs:"), "{}", f.message);
    }

    #[test]
    fn self_loop_reacquisition_is_a_cycle() {
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) { let a = self.inner.lock(); let b = self.inner.lock(); }",
        )]);
        let an = analyze_files(&fs);
        assert!(
            an.findings.iter().any(|f| f.rule == "lock-cycle"),
            "{:?}",
            an.findings
        );
    }

    #[test]
    fn declared_order_inversion_is_lock_order_even_without_cycle() {
        let fs = files(&[(
            "crates/server/src/batch.rs",
            "fn f(&self) { let m = self.metrics.lock(); let q = self.inner.lock(); }",
        )]);
        let an = analyze_files(&fs);
        let rules: Vec<&str> = an.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"lock-order"), "{rules:?}");
    }

    #[test]
    fn declared_order_checked_across_calls() {
        // The inversion only exists through the call graph.
        let fs = files(&[(
            "crates/server/src/batch.rs",
            "fn outer(&self) { let m = self.metrics.lock(); self.helper(); }\n\
             fn helper(&self) { let q = self.inner.lock(); }\n",
        )]);
        let an = analyze_files(&fs);
        let f = an
            .findings
            .iter()
            .find(|f| f.rule == "lock-order")
            .expect("cross-call inversion must be found");
        assert!(f.message.contains("outer"), "{}", f.message);
        assert!(f.message.contains("helper"), "{}", f.message);
    }

    #[test]
    fn guard_release_breaks_the_edge() {
        let dropped = files(&[(
            "crates/server/src/batch.rs",
            "fn f(&self) { let m = self.metrics.lock(); drop(m); let q = self.inner.lock(); }",
        )]);
        assert!(analyze_files(&dropped).findings.is_empty());
        let scoped = files(&[(
            "crates/server/src/batch.rs",
            "fn f(&self) { { let m = self.metrics.lock(); } let q = self.inner.lock(); }",
        )]);
        assert!(analyze_files(&scoped).findings.is_empty());
        let stmt = files(&[(
            "crates/server/src/batch.rs",
            "fn f(&self) { self.metrics.lock().bump(); self.inner.lock().push(1); }",
        )]);
        assert!(analyze_files(&stmt).findings.is_empty());
        let ordered = files(&[(
            "crates/server/src/batch.rs",
            "fn f(&self) { let q = self.inner.lock(); let m = self.metrics.lock(); }",
        )]);
        assert!(analyze_files(&ordered).findings.is_empty());
    }

    #[test]
    fn crates_do_not_alias_same_named_locks_or_fns() {
        // `inner` in two crates are different nodes; a fn name in crate A
        // does not resolve calls made from crate B.
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "fn f(&self) { let g = self.inner.lock(); helper(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "fn helper() { S.inner.lock(); S.inner.lock(); }",
            ),
        ]);
        // b::helper self-deadlocks on a temporary? No: both are statement
        // temporaries released at `;` — no held set, no edge. And a::f's
        // call to `helper` must not resolve into crate b.
        let an = analyze_files(&fs);
        assert!(an.edges.is_empty(), "{:?}", an.edges);
    }

    #[test]
    fn justified_allow_suppresses_cycle_finding() {
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) {\n    let a = self.inner.lock();\n    \
             // xgs-lint: allow(lock-cycle): intentionally reentrant in this fixture\n    \
             let b = self.inner.lock();\n}",
        )]);
        let an = analyze_files(&fs);
        assert!(an.findings.is_empty(), "{:?}", an.findings);
        // The graph itself still records the edge — only reporting is
        // suppressed, so `--json` consumers can see audited edges.
        assert!(!an.edges.is_empty());
    }

    #[test]
    fn reader_writer_guards_are_acquisitions() {
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) { let w = self.tiles.write(); let r = self.norms.read(); }",
        )]);
        let an = analyze_files(&fs);
        assert_eq!(an.edges.len(), 1, "{:?}", an.edges);
        assert_eq!(an.edges[0].from, "t::tiles");
        assert_eq!(an.edges[0].to, "t::norms");
    }

    #[test]
    fn io_read_and_write_with_arguments_are_not_acquisitions() {
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) { let g = self.inner.lock(); let n = file.read(&mut b); \
             sock.write(&buf); }",
        )]);
        let an = analyze_files(&fs);
        assert!(an.edges.is_empty(), "{:?}", an.edges);
    }

    #[test]
    fn guards_collected_into_a_typed_binding_stay_held() {
        // The tile factor's shape: shared guards gathered into a `Vec`,
        // then an exclusive guard on the same lock family.
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn run(&self) {\n    \
             let reads: Vec<_> = ids.map(|r| self.tiles[r].read()).collect();\n    \
             let target = self.tiles[w].write();\n}",
        )]);
        let an = analyze_files(&fs);
        assert_eq!(an.cycles.len(), 1, "{:?}", an.edges);
        assert_eq!(an.cycles[0].locks, ["t::tiles", "t::tiles"]);
        // A guard used inside the closure does not escape it.
        let used = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) { let n: usize = ids.map(|r| self.tiles[r].read().len()).sum(); \
             let g = self.tiles[0].write(); }",
        )]);
        assert!(analyze_files(&used).edges.is_empty());
    }

    #[test]
    fn wait_joins_graph_without_holding() {
        // cv.wait while holding idle: edge idle -> cv, but wait holds
        // nothing, so a later lock sees only `idle` held.
        let fs = files(&[(
            "crates/t/src/lib.rs",
            "fn f(&self) { let g = self.idle.lock(); self.cv.wait(&mut g); }",
        )]);
        let an = analyze_files(&fs);
        assert_eq!(an.edges.len(), 1);
        assert_eq!(an.edges[0].from, "t::idle");
        assert_eq!(an.edges[0].to, "t::cv");
        assert!(an.cycles.is_empty());
    }
}
