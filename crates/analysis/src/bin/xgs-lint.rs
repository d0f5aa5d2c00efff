//! `xgs-lint` — walk every workspace source file and enforce the project
//! rule set (see `xgs_analysis::rules`), then build the whole-workspace
//! lock-acquisition graph (see `xgs_analysis::lockgraph`) and report any
//! cycle or declared-order inversion with its witness path.
//!
//! ```text
//! xgs-lint [--json] [--format text|json|sarif] [--root <dir>] [paths...]
//! ```
//!
//! With no paths, lints every `.rs` file under the workspace root
//! (default `.`), skipping only `target/` build output. The `vendor/`
//! dependency shims are linted like first-party code: they hold most of
//! the workspace's `unsafe` and raw syscalls, which is exactly the
//! surface the unsafe-audit rules exist for. Exit status is nonzero when
//! any finding — including an unjustified allow — survives.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xgs_analysis::lockgraph::analyze_files;
use xgs_analysis::rules::{lint_files, report_json, report_sarif, Finding, RULES};

fn main() -> ExitCode {
    let mut format = "text".to_string();
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => format = "json".to_string(),
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" || f == "sarif" => format = f,
                Some(f) => {
                    eprintln!("--format must be text, json, or sarif (got {f})");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format needs a value: text, json, or sarif");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: xgs-lint [--json] [--format text|json|sarif] [--root <dir>] [paths...]"
                );
                println!("rules:");
                for (name, summary) in RULES {
                    println!("  {name:<34} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        walk(&root, &mut paths);
        paths.sort();
    }

    let mut sources: Vec<(String, Vec<u8>)> = Vec::new();
    for path in &paths {
        let Ok(src) = std::fs::read(path) else {
            eprintln!("xgs-lint: cannot read {}", path.display());
            return ExitCode::from(2);
        };
        sources.push((workspace_relative(&root, path), src));
    }
    // Linted together, so a file's out-of-line `#[cfg(test)] mod name;`
    // marks the file it names as test code.
    let lint = lint_files(&sources);
    let allows = lint.justified_allows;
    let mut findings: Vec<Finding> = lint.findings;

    // The lock graph is a whole-workspace property: it only exists once
    // every file's acquisitions and calls are on the table.
    let graph = analyze_files(&sources);
    findings.extend(graph.findings);
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let files = sources.len();
    match format.as_str() {
        "json" => println!("{}", report_json(files, allows, &findings)),
        "sarif" => println!("{}", report_sarif(&findings)),
        _ => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "xgs-lint: {} file(s), {} finding(s), {} justified allow(s), {} lock edge(s), {} lock cycle(s)",
                files,
                findings.len(),
                allows,
                graph.edges.len(),
                graph.cycles.len(),
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Collect `.rs` files under `dir`, skipping build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative path with `/` separators, for the path-scoped rules
/// and stable report output.
fn workspace_relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy().replace('\\', "/");
    s.trim_start_matches("./").to_string()
}
