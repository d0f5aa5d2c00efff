//! `exageostat metrics-diff`: compare two `--metrics` JSON exports kernel
//! by kernel.
//!
//! Every metrics producer in the workspace — the shared-memory executor,
//! the distributed event simulator (`exageostat scale --metrics`), and the
//! prediction server and its load generator (`exageostat loadgen
//! --metrics`) — writes the same schema, so any pair of runs can be
//! diffed: before/after a code change, measured vs simulated, FP64 vs
//! mixed precision.
//!
//! ```text
//! exageostat metrics-diff --baseline base.json --candidate new.json
//! ```
//!
//! For each kernel kind: task count, total seconds and mean seconds in
//! both runs, plus the relative change of the total. Kernels present in
//! only one file show `-` on the missing side. An unreadable or
//! unparsable report fails the run (exit 1), as for every command that
//! reads a file.
//!
//! `--assert-counts potrf,trsm,...` additionally *checks* that the two
//! runs agree on the per-kernel task counts for the listed kinds (a kind
//! missing on one side counts as 0). This is how CI proves that a real
//! sharded factorization executed exactly the task census the distributed
//! event simulator projected.
//!
//! `--assert-wire-equal tile,task,...` does the same for the bytes-on-wire
//! census: the listed frame kinds must agree in both frame count and total
//! bytes. A sharded run held to a `scale --metrics` projection this way
//! proves the coordinator measured exactly the closed-form TILE bytes the
//! simulator predicted. `--assert-wire-below <kind,..>` checks the
//! candidate moved strictly fewer bytes of each kind than the baseline
//! (the mixed-precision wire must beat dense f64, not just match it).
//!
//! `--expect-count kind=N,..` and `--expect-min kind=N,..` assert on the
//! *candidate alone*: its count for each `kind` must equal (resp. reach)
//! `N`, with a missing kind counting as 0. This is how the CI chaos smoke
//! holds a fault-injected run to its recovery contract — exactly one
//! `worker_death`, at least one `panel_replay` — without needing a
//! baseline that also lost a worker.
//!
//! `--assert-checksum-equal` compares the `loadgen.checksum` field of two
//! **loadgen** report files (the order-independent FNV fold over every
//! response payload). Two replays of the same seeded stream must agree —
//! this is how CI proves a server that batches requests and one that
//! solves each alone return bitwise-identical predictions. Either file
//! lacking a checksum fails the assertion.
//!
//! Any failed assertion exits 1 after the table is printed.

use crate::cli::args::{ArgError, Args};
use crate::cli::commands::CmdError;
use crate::cli::io::IoError;
use std::fmt::Write as _;
use xgs_runtime::{KernelStats, MetricsReport};

/// A report file, parsed, with its text (the checksum assertion reads a
/// field outside the metrics schema).
fn load(path: &str) -> Result<(MetricsReport, String), CmdError> {
    let io_error = |kind, e: &dyn std::fmt::Display| {
        CmdError::Io(IoError::Io(std::io::Error::new(
            kind,
            format!("{path}: {e}"),
        )))
    };
    let text = std::fs::read_to_string(path).map_err(|e| io_error(e.kind(), &e))?;
    let report = MetricsReport::from_json(&text)
        .map_err(|e| io_error(std::io::ErrorKind::InvalidData, &e))?;
    Ok((report, text))
}

/// The comma list of kinds `--key` names, if given.
fn kinds<'a>(args: &'a Args, key: &str) -> Vec<&'a str> {
    args.get(key)
        .map_or(Vec::new(), |list| list.split(',').map(str::trim).collect())
}

fn mean(total: f64, count: u64) -> f64 {
    if count > 0 {
        total / count as f64
    } else {
        0.0
    }
}

fn rel_change(base: f64, new: f64) -> String {
    if base > 0.0 {
        format!("{:+.1}%", 100.0 * (new - base) / base)
    } else if new > 0.0 {
        "new".to_string()
    } else {
        "-".to_string()
    }
}

/// The side-by-side table of two reports.
fn table(base: &MetricsReport, cand: &MetricsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wall      {:>12.6}s -> {:>12.6}s  ({})",
        base.wall_seconds,
        cand.wall_seconds,
        rel_change(base.wall_seconds, cand.wall_seconds)
    );
    let _ = writeln!(
        out,
        "tasks     {:>12} -> {:>12}  workers {} -> {}",
        base.tasks, cand.tasks, base.workers, cand.workers
    );

    // Union of kernel kinds, baseline order first, then candidate-only.
    let mut kinds: Vec<&str> = base.kernels.iter().map(|k| k.kind).collect();
    for k in &cand.kernels {
        if !kinds.contains(&k.kind) {
            kinds.push(k.kind);
        }
    }
    let _ = writeln!(
        out,
        "{:>12} | {:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>8}",
        "kernel",
        "count A",
        "count B",
        "total A (s)",
        "total B (s)",
        "mean A (s)",
        "mean B (s)",
        "d total"
    );
    for kind in kinds {
        let a = base.kernels.iter().find(|k| k.kind == kind);
        let b = cand.kernels.iter().find(|k| k.kind == kind);
        let fmt_count = |k: Option<&KernelStats>| match k {
            Some(k) => format!("{}", k.count),
            None => "-".to_string(),
        };
        let fmt_total = |k: Option<&KernelStats>| match k {
            Some(k) => format!("{:.6}", k.total_seconds),
            None => "-".to_string(),
        };
        let fmt_mean = |k: Option<&KernelStats>| match k {
            Some(k) => format!("{:.3e}", mean(k.total_seconds, k.count)),
            None => "-".to_string(),
        };
        let delta = rel_change(
            a.map_or(0.0, |k| k.total_seconds),
            b.map_or(0.0, |k| k.total_seconds),
        );
        let _ = writeln!(
            out,
            "{:>12} | {:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>8}",
            kind,
            fmt_count(a),
            fmt_count(b),
            fmt_total(a),
            fmt_total(b),
            fmt_mean(a),
            fmt_mean(b),
            delta
        );
    }

    // Bytes-on-wire census, when either run carries one.
    if !base.wire.is_empty() || !cand.wire.is_empty() {
        let mut frame_kinds: Vec<&str> = base.wire.iter().map(|w| w.kind).collect();
        for w in &cand.wire {
            if !frame_kinds.contains(&w.kind) {
                frame_kinds.push(w.kind);
            }
        }
        let _ = writeln!(
            out,
            "{:>12} | {:>10} {:>10} | {:>14} {:>14} | {:>8}",
            "wire", "frames A", "frames B", "bytes A", "bytes B", "d bytes"
        );
        for kind in frame_kinds {
            let a = base.wire.iter().find(|w| w.kind == kind);
            let b = cand.wire.iter().find(|w| w.kind == kind);
            let fmt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{:>12} | {:>10} {:>10} | {:>14} {:>14} | {:>8}",
                kind,
                fmt(a.map(|w| w.frames)),
                fmt(b.map(|w| w.frames)),
                fmt(a.map(|w| w.bytes)),
                fmt(b.map(|w| w.bytes)),
                rel_change(
                    a.map_or(0.0, |w| w.bytes as f64),
                    b.map_or(0.0, |w| w.bytes as f64)
                )
            );
        }
    }

    if let (Some(va), Some(vb)) = (&base.validation, &cand.validation) {
        let _ = writeln!(
            out,
            "validation  edges {} -> {}",
            va.edges_checked, vb.edges_checked
        );
    }
    out
}

/// `metrics-diff` — the table, then every assertion the flags ask for.
pub fn cmd_metrics_diff(args: &Args) -> Result<String, CmdError> {
    let (base_path, cand_path) = (args.require("baseline")?, args.require("candidate")?);
    let assert_counts = kinds(args, "assert-counts");
    let assert_wire_equal = kinds(args, "assert-wire-equal");
    let assert_wire_below = kinds(args, "assert-wire-below");
    // (kind, n, exact): candidate-only count assertions.
    let mut expect: Vec<(&str, u64, bool)> = Vec::new();
    for (key, exact) in [("expect-count", true), ("expect-min", false)] {
        for spec in kinds(args, key) {
            let parsed = spec
                .split_once('=')
                .and_then(|(kind, n)| Some((kind.trim(), n.trim().parse::<u64>().ok()?)));
            let (kind, n) = parsed.ok_or_else(|| {
                ArgError(format!(
                    "--{key} needs kind=N[,kind=N..] (e.g. worker_death=1), got '{spec}'"
                ))
            })?;
            expect.push((kind, n, exact));
        }
    }
    let (base, base_text) = load(base_path)?;
    let (cand, cand_text) = load(cand_path)?;
    let mut out = table(&base, &cand);

    let mut failures: Vec<String> = Vec::new();
    let count = |r: &MetricsReport, kind: &str| {
        r.kernels
            .iter()
            .find(|k| k.kind == kind)
            .map_or(0, |k| k.count)
    };
    for kind in assert_counts {
        let (a, b) = (count(&base, kind), count(&cand, kind));
        if a != b {
            failures.push(format!(
                "{kind} count mismatch: {a} (baseline) != {b} (candidate)"
            ));
        }
    }
    let wire = |r: &MetricsReport, kind: &str| {
        r.wire
            .iter()
            .find(|w| w.kind == kind)
            .map_or((0, 0), |w| (w.frames, w.bytes))
    };
    for kind in assert_wire_equal {
        let (af, ab) = wire(&base, kind);
        let (bf, bb) = wire(&cand, kind);
        if (af, ab) != (bf, bb) {
            failures.push(format!(
                "{kind} wire mismatch: {af} frames / {ab} bytes (baseline) != \
                 {bf} frames / {bb} bytes (candidate)"
            ));
        }
    }
    for (kind, n, exact) in expect {
        let got = count(&cand, kind);
        if (exact && got != n) || (!exact && got < n) {
            let rel = if exact { "==" } else { ">=" };
            failures.push(format!("candidate {kind} count {got}, expected {rel} {n}"));
        }
    }
    for kind in assert_wire_below {
        let (_, ab) = wire(&base, kind);
        let (_, bb) = wire(&cand, kind);
        if bb >= ab {
            failures.push(format!(
                "{kind} wire bytes not reduced: {bb} (candidate) >= {ab} (baseline)"
            ));
        }
    }
    if args.bool("assert-checksum-equal") {
        // Loadgen reports carry `loadgen.checksum` beside the schema.
        let checksum = |text: &str| -> Option<String> {
            xgs_runtime::parse_json(text)
                .ok()?
                .get("loadgen")?
                .get("checksum")?
                .as_str()
                .map(str::to_string)
        };
        match (checksum(&base_text), checksum(&cand_text)) {
            (Some(a), Some(b)) if a == b => {
                let _ = writeln!(out, "checksum   {a} == {b}");
            }
            (Some(a), Some(b)) => failures.push(format!("response checksum mismatch: {a} != {b}")),
            (a, b) => {
                for (path, side) in [(base_path, a), (cand_path, b)] {
                    if side.is_none() {
                        failures.push(format!("{path}: no loadgen.checksum field"));
                    }
                }
            }
        }
    }
    out.truncate(out.trim_end().len());
    if failures.is_empty() {
        return Ok(out);
    }
    Err(CmdError::Failed {
        report: out,
        why: failures.join("\n"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::commands::run;
    use xgs_runtime::WireStats;

    /// A report file in `dir` with these kernel counts, one `tile` wire
    /// row of `tile_bytes`, and a loadgen checksum if given.
    fn report(
        dir: &std::path::Path,
        name: &str,
        counts: &[(&'static str, u64)],
        tile_bytes: u64,
        checksum: Option<&str>,
    ) -> String {
        let mut r = MetricsReport::default();
        for &(kind, count) in counts {
            r.kernels.push(KernelStats {
                count,
                ..KernelStats::new(kind)
            });
        }
        r.wire.push(WireStats {
            kind: "tile",
            frames: 2,
            bytes: tile_bytes,
        });
        let mut json = r.to_json();
        if let Some(c) = checksum {
            json = format!("{{\"loadgen\":{{\"checksum\":\"{c}\"}},{}", &json[1..]);
        }
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// `metrics-diff --baseline a --candidate b <flags>`.
    fn diff(a: &str, b: &str, flags: &str) -> Result<String, CmdError> {
        let cmd = format!("metrics-diff --baseline {a} --candidate {b} {flags}");
        run(&Args::parse(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap())
    }

    fn failed(r: Result<String, CmdError>) -> String {
        match r {
            Err(CmdError::Failed { report, why }) => {
                assert!(report.contains("kernel"), "{report}");
                why
            }
            other => panic!("expected a failed assertion, got {other:?}"),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xgs-mdiff-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counts_must_match_under_assert_counts() {
        let dir = scratch("counts");
        let a = report(&dir, "a.json", &[("potrf", 4), ("gemm", 10)], 100, None);
        let b = report(&dir, "b.json", &[("potrf", 4), ("gemm", 9)], 100, None);
        let same = report(&dir, "same.json", &[("gemm", 10), ("potrf", 4)], 100, None);
        let table = diff(&a, &same, "--assert-counts potrf,gemm").unwrap();
        assert!(table.contains("potrf") && table.contains("tile"), "{table}");
        let why = failed(diff(&a, &b, "--assert-counts potrf,gemm"));
        assert!(
            why.contains("gemm count mismatch: 10 (baseline) != 9"),
            "{why}"
        );
        assert!(!why.contains("potrf"), "{why}");
        // Unasserted, a difference only shows in the table.
        assert!(diff(&a, &b, "").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_equal_fails_on_a_byte_difference() {
        let dir = scratch("wire-eq");
        let a = report(&dir, "a.json", &[], 100, None);
        let b = report(&dir, "b.json", &[], 101, None);
        assert!(diff(&a, &a, "--assert-wire-equal tile").is_ok());
        let why = failed(diff(&a, &b, "--assert-wire-equal tile"));
        assert!(why.contains("tile wire mismatch"), "{why}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_below_needs_strictly_fewer_bytes() {
        let dir = scratch("wire-below");
        let a = report(&dir, "a.json", &[], 100, None);
        let b = report(&dir, "b.json", &[], 99, None);
        assert!(diff(&a, &b, "--assert-wire-below tile").is_ok());
        for cand in [&a, &report(&dir, "c.json", &[], 150, None)] {
            let why = failed(diff(&a, cand, "--assert-wire-below tile"));
            assert!(why.contains("tile wire bytes not reduced"), "{why}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expectations_hold_the_candidate_alone() {
        let dir = scratch("expect");
        let base = report(&dir, "a.json", &[], 0, None);
        let chaos = report(
            &dir,
            "b.json",
            &[("worker_death", 1), ("panel_replay", 3)],
            0,
            None,
        );
        let hit = "--expect-count worker_death=1 --expect-min panel_replay=2,absent=0";
        assert!(diff(&base, &chaos, hit).is_ok());
        let why = failed(diff(
            &base,
            &chaos,
            "--expect-count worker_death=2,panel_replay=3 --expect-min absent=1",
        ));
        assert!(why.contains("worker_death count 1, expected == 2"), "{why}");
        // A missing kind counts as 0.
        assert!(why.contains("absent count 0, expected >= 1"), "{why}");
        assert!(!why.contains("panel_replay"), "{why}");
        assert!(matches!(
            diff(&base, &chaos, "--expect-count worker_death"),
            Err(CmdError::Arg(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksums_must_be_present_and_equal() {
        let dir = scratch("checksum");
        let a = report(&dir, "a.json", &[], 0, Some("00ff"));
        let same = report(&dir, "same.json", &[], 0, Some("00ff"));
        let other = report(&dir, "other.json", &[], 0, Some("0100"));
        let none = report(&dir, "none.json", &[], 0, None);
        let table = diff(&a, &same, "--assert-checksum-equal").unwrap();
        assert!(table.ends_with("checksum   00ff == 00ff"), "{table}");
        let why = failed(diff(&a, &other, "--assert-checksum-equal"));
        assert!(
            why.contains("response checksum mismatch: 00ff != 0100"),
            "{why}"
        );
        let why = failed(diff(&a, &none, "--assert-checksum-equal"));
        assert!(why.contains("no loadgen.checksum field"), "{why}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_or_unparsable_report_fails_the_run() {
        let dir = scratch("unreadable");
        let a = report(&dir, "a.json", &[], 0, None);
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{not json").unwrap();
        for bad in ["/nonexistent/metrics.json", garbage.to_str().unwrap()] {
            match diff(&a, bad, "") {
                Err(e @ CmdError::Io(_)) => assert!(e.to_string().contains(bad), "{e}"),
                other => panic!("expected an I/O error for {bad}, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
