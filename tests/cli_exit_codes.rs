//! The `exageostat` binary's exit codes: a usage error exits 2 whether
//! `Args::parse` or a subcommand finds it, and a run that fails exits 1.

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

    std::fs::remove_dir_all(&dir).unwrap();
}
