//! Golden fixtures, one pair per rule: a minimal violating source that
//! must produce exactly that finding, and the same source with a
//! justified `xgs-lint: allow` that must lint clean (and be counted).
//!
//! The fixture code lives in string literals, so running `xgs-lint` over
//! this test file itself stays quiet — the rule engine only matches
//! identifier tokens, never literal or comment contents.

use xgs_analysis::{analyze_files, lint_file, lint_files, RULES};

/// Assert `src` at `path` yields exactly one finding of `rule` on `line`.
fn expect_one(path: &str, src: &str, rule: &str, line: usize) {
    let lint = lint_file(path, src.as_bytes());
    assert_eq!(
        lint.findings.len(),
        1,
        "{rule}: expected one finding, got {:#?}",
        lint.findings
    );
    let f = &lint.findings[0];
    assert_eq!(f.rule, rule);
    assert_eq!(f.line, line, "{rule}: wrong line in {f}");
    assert_eq!(f.path, path);
}

/// Assert `src` at `path` lints clean with exactly one justified allow.
fn expect_allowed(path: &str, src: &str) {
    let lint = lint_file(path, src.as_bytes());
    assert_eq!(
        lint.findings,
        vec![],
        "justified allow must suppress the finding"
    );
    assert_eq!(lint.justified_allows, 1);
}

#[test]
fn rules_table_is_complete() {
    let names: Vec<&str> = RULES.iter().map(|(n, _)| *n).collect();
    for want in [
        "no-partial-cmp-sort",
        "no-panic-in-network-path",
        "bounded-read-only",
        "no-unjustified-unsafe",
        "frame-kind-exhaustive",
        "lock-order",
        "lock-cycle",
        "safety-comment-required",
        "no-unsafe-outside-audited-modules",
        "syscall-ret-checked",
        "no-raw-parallelism-probe",
        "unjustified-allow",
    ] {
        assert!(names.contains(&want), "missing rule {want}");
    }
}

#[test]
fn golden_no_partial_cmp_sort() {
    let bad = "pub fn order(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));\n}\n";
    expect_one("crates/core/src/sortfix.rs", bad, "no-partial-cmp-sort", 2);

    let ok = "pub fn order(v: &mut [f64]) {\n    // xgs-lint: allow(no-partial-cmp-sort): inputs are covariance diagonals, NaN-free by construction\n    v.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));\n}\n";
    expect_allowed("crates/core/src/sortfix.rs", ok);
}

#[test]
fn golden_no_panic_in_network_path() {
    let bad = "fn handle(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    expect_one(
        "crates/server/src/server.rs",
        bad,
        "no-panic-in-network-path",
        2,
    );

    let ok = "fn handle(x: Option<u32>) -> u32 {\n    // xgs-lint: allow(no-panic-in-network-path): startup-only path, runs before any client connects\n    x.unwrap()\n}\n";
    expect_allowed("crates/server/src/server.rs", ok);
}

#[test]
fn golden_no_panic_skips_test_modules() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1u32).unwrap();\n    }\n}\n";
    let lint = lint_file("crates/server/src/server.rs", src.as_bytes());
    assert_eq!(lint.findings, vec![], "unwrap in tests is fine");
}

#[test]
fn golden_out_of_line_test_module() {
    // A network-scoped directory whose `mod.rs` declares its test module
    // out of line. With the attribute, the declared file is test code, as
    // an inline `#[cfg(test)] mod` is; without it, the same file is
    // network code and its helper's unwrap is a finding.
    let tests = "use super::*;\n#[test]\nfn t() {\n    decode(&[]).unwrap();\n}\nfn helper(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let stack = |decl: &str| {
        [
            ("crates/cholesky/src/shard/mod.rs", decl),
            ("crates/cholesky/src/shard/tests.rs", tests),
        ]
        .map(|(p, s)| (p.to_string(), s.as_bytes().to_vec()))
    };
    let lint = lint_files(&stack("mod worker;\n#[cfg(test)]\nmod tests;\n"));
    assert_eq!(lint.findings, vec![], "declared test module is test code");

    let lint = lint_files(&stack("mod worker;\nmod tests;\n"));
    assert_eq!(lint.findings.len(), 1, "{:#?}", lint.findings);
    let f = &lint.findings[0];
    assert_eq!(f.rule, "no-panic-in-network-path");
    assert_eq!(
        (f.path.as_str(), f.line),
        ("crates/cholesky/src/shard/tests.rs", 7)
    );
}

#[test]
fn golden_bounded_read_only() {
    let bad = "use std::io::Read;\nfn slurp(r: &mut impl Read) -> String {\n    let mut s = String::new();\n    let _ = r.read_to_string(&mut s);\n    s\n}\n";
    expect_one("crates/server/src/protocol.rs", bad, "bounded-read-only", 4);

    let ok = "use std::io::Read;\nfn slurp(r: &mut impl Read) -> String {\n    let mut s = String::new();\n    // xgs-lint: allow(bounded-read-only): source is a take()-capped reader, bounded upstream\n    let _ = r.read_to_string(&mut s);\n    s\n}\n";
    expect_allowed("crates/server/src/protocol.rs", ok);
}

#[test]
fn golden_no_unjustified_unsafe() {
    // The fixture sits in the audited simd module with a SAFETY comment,
    // so only the missing allow is on trial here.
    let bad = "pub fn deref(p: *const u8) -> u8 {\n    // SAFETY: caller contract guarantees p is valid for reads.\n    unsafe { *p }\n}\n";
    expect_one(
        "crates/kernels/src/simd.rs",
        bad,
        "no-unjustified-unsafe",
        3,
    );

    let ok = "pub fn deref(p: *const u8) -> u8 {\n    // SAFETY: caller contract guarantees p is valid for reads.\n    // xgs-lint: allow(no-unjustified-unsafe): caller contract guarantees p is valid for reads\n    unsafe { *p }\n}\n";
    expect_allowed("crates/kernels/src/simd.rs", ok);
}

#[test]
fn golden_safety_comment_required() {
    // Allowed and audited, but the invariant is not written down next to
    // the code: the SAFETY comment is its own obligation.
    let bad = "pub fn deref(p: *const u8) -> u8 {\n    // xgs-lint: allow(no-unjustified-unsafe): caller contract guarantees p is valid\n    unsafe { *p }\n}\n";
    expect_one(
        "crates/kernels/src/simd.rs",
        bad,
        "safety-comment-required",
        3,
    );

    // The fix is the comment itself, not an allow.
    let ok = "pub fn deref(p: *const u8) -> u8 {\n    // SAFETY: caller contract guarantees p is valid for reads.\n    // xgs-lint: allow(no-unjustified-unsafe): caller contract guarantees p is valid\n    unsafe { *p }\n}\n";
    expect_allowed("crates/kernels/src/simd.rs", ok);
}

#[test]
fn golden_no_unsafe_outside_audited_modules() {
    // SAFETY-commented and allowed, but in an unaudited crate: still a
    // finding — the allowlist is the reviewed boundary.
    let bad = "pub fn f() {\n    // SAFETY: spin_loop has no requirements.\n    // xgs-lint: allow(no-unjustified-unsafe): fixture\n    unsafe { core::hint::spin_loop() }\n}\n";
    expect_one(
        "crates/core/src/x.rs",
        bad,
        "no-unsafe-outside-audited-modules",
        4,
    );

    // The same rule is suppressible like any other, for staged migrations.
    // An allow only covers its own line and the next, so both allows ride
    // one comment line directly above the unsafe.
    let ok = "pub fn f() {\n    // SAFETY: spin_loop has no requirements.\n    // xgs-lint: allow(no-unjustified-unsafe): fixture xgs-lint: allow(no-unsafe-outside-audited-modules): moving into kernels next change\n    unsafe { core::hint::spin_loop() }\n}\n";
    let lint = lint_file("crates/core/src/x.rs", ok.as_bytes());
    assert_eq!(lint.findings, vec![], "both allows must suppress");
    assert_eq!(lint.justified_allows, 2);
}

#[test]
fn golden_syscall_ret_checked() {
    let bad = "fn shutdown(fd: i32) {\n    close(fd);\n}\n";
    expect_one("vendor/polling/src/util.rs", bad, "syscall-ret-checked", 2);

    // Comparing the result is the fix; no allow needed.
    let checked = "fn shutdown(fd: i32) -> bool {\n    close(fd) == 0\n}\n";
    let lint = lint_file("vendor/polling/src/util.rs", checked.as_bytes());
    assert_eq!(lint.findings, vec![], "checked result lints clean");

    // Best-effort sites carry the justification instead.
    let ok = "fn shutdown(fd: i32) {\n    // xgs-lint: allow(syscall-ret-checked): best-effort close on teardown, errors have nowhere to go\n    close(fd);\n}\n";
    expect_allowed("vendor/polling/src/util.rs", ok);
}

#[test]
fn golden_frame_kind_exhaustive() {
    let bad = "const K_PING: u8 = 9;\nfn dispatch(kind: u8) -> u32 {\n    match kind {\n        K_PING => 1,\n        _ => 0,\n    }\n}\n";
    // The worker loop's file: the whole `shard/` directory is in scope.
    expect_one(
        "crates/cholesky/src/shard/worker.rs",
        bad,
        "frame-kind-exhaustive",
        5,
    );

    let ok = "const K_PING: u8 = 9;\nfn dispatch(kind: u8) -> u32 {\n    match kind {\n        K_PING => 1,\n        // xgs-lint: allow(frame-kind-exhaustive): forward-compat fallthrough, unknown frames are dropped by design\n        _ => 0,\n    }\n}\n";
    expect_allowed("crates/cholesky/src/shard/worker.rs", ok);
}

/// Run the workspace lock-graph pass over in-memory fixture files.
fn lock_graph(files: &[(&str, &str)]) -> xgs_analysis::Analysis {
    let owned: Vec<(String, Vec<u8>)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.as_bytes().to_vec()))
        .collect();
    analyze_files(&owned)
}

#[test]
fn golden_lock_order() {
    // The declared server order is violated even though no cycle exists
    // yet: the inversion alone is the finding.
    let bad = "fn drain(q: &BatchQueue, reg: &ModelRegistry) {\n    let models = reg.models.lock();\n    let inner = q.inner.lock();\n    drop((models, inner));\n}\n";
    let an = lock_graph(&[("crates/server/src/drainer.rs", bad)]);
    assert_eq!(an.findings.len(), 1, "{:#?}", an.findings);
    let f = &an.findings[0];
    assert_eq!(f.rule, "lock-order");
    assert_eq!(f.line, 3, "{f}");
    assert!(f.message.contains("witness"), "{}", f.message);

    let ok = "fn drain(q: &BatchQueue, reg: &ModelRegistry) {\n    let models = reg.models.lock();\n    // xgs-lint: allow(lock-order): models is dropped before inner is used, see teardown protocol\n    let inner = q.inner.lock();\n    drop((models, inner));\n}\n";
    let an = lock_graph(&[("crates/server/src/drainer.rs", ok)]);
    assert_eq!(an.findings, vec![], "justified allow must suppress");
    // The audited edge stays visible in the graph for report consumers.
    assert_eq!(an.edges.len(), 1);
}

#[test]
fn golden_lock_cycle() {
    // The inverse orders live in different files of the same crate; only
    // the workspace-level union sees the cycle.
    let a = "fn ab(s: &S) { let g = s.alpha.lock(); let h = s.beta.lock(); drop((g, h)); }\n";
    let b = "fn ba(s: &S) { let h = s.beta.lock(); let g = s.alpha.lock(); drop((g, h)); }\n";
    let an = lock_graph(&[("crates/core/src/a.rs", a), ("crates/core/src/b.rs", b)]);
    assert_eq!(an.cycles.len(), 1, "{:#?}", an.cycles);
    let f = an
        .findings
        .iter()
        .find(|f| f.rule == "lock-cycle")
        .expect("cycle must be a finding");
    // The witness names both functions and both files.
    assert!(
        f.message.contains("ab") && f.message.contains("ba"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("a.rs:") && f.message.contains("b.rs:"),
        "{}",
        f.message
    );

    // A self-loop (reentrant acquisition) is the smallest cycle, and the
    // allow goes on the acquisition that closes it.
    let re = "fn f(s: &S) {\n    let a = s.inner.lock();\n    // xgs-lint: allow(lock-cycle): inner is a reentrant mutex in this fixture\n    let b = s.inner.lock();\n    drop((a, b));\n}\n";
    let an = lock_graph(&[("crates/core/src/c.rs", re)]);
    assert_eq!(an.findings, vec![], "{:#?}", an.findings);
    assert_eq!(
        an.cycles.len(),
        1,
        "suppression hides the finding, not the cycle"
    );
}

#[test]
fn golden_no_raw_parallelism_probe() {
    let bad = "pub fn default_workers() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";
    expect_one(
        "crates/core/src/engine.rs",
        bad,
        "no-raw-parallelism-probe",
        2,
    );

    let ncpus = "pub fn default_workers() -> usize {\n    num_cpus::get()\n}\n";
    expect_one(
        "crates/core/src/engine.rs",
        ncpus,
        "no-raw-parallelism-probe",
        2,
    );

    let ok = "pub fn logical_cores() -> usize {\n    // xgs-lint: allow(no-raw-parallelism-probe): this is the shared helper itself\n    num_cpus::get()\n}\n";
    expect_allowed("crates/runtime/src/lib.rs", ok);
}

#[test]
fn golden_unjustified_allow_is_a_finding() {
    // An allow with no justification suppresses nothing and is itself
    // reported, so the original finding also survives.
    let src = "pub fn deref(p: *const u8) -> u8 {\n    // SAFETY: caller contract guarantees p is valid for reads.\n    // xgs-lint: allow(no-unjustified-unsafe)\n    unsafe { *p }\n}\n";
    let lint = lint_file("crates/kernels/src/simd.rs", src.as_bytes());
    let mut rules: Vec<&str> = lint.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    assert_eq!(rules, vec!["no-unjustified-unsafe", "unjustified-allow"]);
    assert_eq!(lint.justified_allows, 0);
}

#[test]
fn golden_allow_of_unknown_rule_is_a_finding() {
    let src = "// xgs-lint: allow(no-such-rule): misspelled\npub fn f() {}\n";
    let lint = lint_file("crates/core/src/x.rs", src.as_bytes());
    assert_eq!(lint.findings.len(), 1, "{:#?}", lint.findings);
    assert_eq!(lint.findings[0].rule, "unjustified-allow");
    assert!(
        lint.findings[0].message.contains("does not exist"),
        "{}",
        lint.findings[0].message
    );
}

#[test]
fn golden_clean_file_is_clean() {
    let src = "//! A well-behaved module.\npub fn add(a: u64, b: u64) -> u64 {\n    a.wrapping_add(b)\n}\n";
    for path in [
        "crates/core/src/x.rs",
        "crates/server/src/server.rs",
        "crates/runtime/src/shard.rs",
        "crates/cholesky/src/shard/worker.rs",
    ] {
        let lint = lint_file(path, src.as_bytes());
        assert_eq!(lint.findings, vec![]);
        assert_eq!(lint.justified_allows, 0);
    }
}
