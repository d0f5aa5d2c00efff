//! The `exageostat` binary's exit codes: a usage error exits 2 whether
//! `Args::parse` or a subcommand finds it, and a run, request or assertion
//! that fails exits 1.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_exageostat");

fn exit_code(args: &[&str]) -> i32 {
    let out = Command::new(EXE).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    out.status.code().expect("exited, not killed")
}

#[test]
fn usage_errors_exit_2_and_failed_runs_exit_1() {
    let dir = std::env::temp_dir().join(format!("xgs-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    std::fs::write(&data, "x,y,z\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n").unwrap();
    let data = data.to_str().unwrap();
    let out = dir.join("out.csv");

    // A flag the subcommand does not read.
    assert_eq!(
        exit_code(&["simulate", "--sead", "9", "--out", out.to_str().unwrap()]),
        2
    );
    // A zero tile size, on a dataset that loads.
    assert_eq!(exit_code(&["fit", "--tile", "0", "--data", data]), 2);
    // A dataset that cannot be read is a failed run, not a usage error.
    assert_eq!(exit_code(&["fit", "--data", "/nonexistent.csv"]), 1);
    // A flag given twice, a stray word, a paper job that does not exist.
    assert_eq!(
        exit_code(&["fit", "--tile", "64", "--data", data, "--tile", "128"]),
        2
    );
    assert_eq!(exit_code(&["fit", "stray", "--data", data]), 2);
    assert_eq!(exit_code(&["paper", "fig12"]), 2);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unwritable_metrics_path_fails_before_the_run() {
    let dir = std::env::temp_dir().join(format!("xgs-exit-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    std::fs::write(&data, "x,y,z\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n").unwrap();
    let metrics = "/nonexistent/dir/m.json";
    // `paper table1` prints its tables as it goes, so an empty stdout
    // shows that no fit ran before the path was refused.
    for args in [
        &[
            "fit",
            "--data",
            data.to_str().unwrap(),
            "--metrics",
            metrics,
        ][..],
        &["paper", "table1", "--metrics", metrics],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.contains("could not write metrics"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loadgen_and_metrics_diff_exit_as_documented() {
    // An address that does not parse is a usage error; no lookup is made.
    assert_eq!(exit_code(&["loadgen", "--addr", "127.0.0.1:notaport"]), 2);
    assert_eq!(exit_code(&["loadgen", "--connect-timeout", "-1"]), 2);
    // A server that never accepts: every request fails, and the summary
    // still prints on stdout.
    let out = Command::new(EXE)
        .args(["loadgen", "--addr", "127.0.0.1:1", "--requests", "2"])
        .args(["--conns", "1", "--connect-timeout", "0.2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 errors"), "{stdout}");
    // A report that cannot be read is a failed run.
    let m = "/nonexistent.json";
    let diff = ["metrics-diff", "--baseline", m, "--candidate", m];
    assert_eq!(exit_code(&diff), 1);
}
