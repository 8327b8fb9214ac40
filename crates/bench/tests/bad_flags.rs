//! Argument errors of the bench binaries leave through the same one-line
//! `error:` exit as a failed check (status 1), never through a panic
//! (status 101). Arguments are parsed before any work starts, so these
//! runs are instant.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn bench binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_clean_exit(bin: &str, args: &[&str], mentions: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(1), "{args:?}: stderr {stderr:?}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        lines.len(),
        1,
        "{args:?}: one diagnostic line, got {stderr:?}"
    );
    assert!(lines[0].starts_with("error: "), "{stderr:?}");
    assert!(lines[0].contains(mentions), "{stderr:?}");
}

#[test]
fn bench_bad_numeric_flags_exit_cleanly() {
    let bench = env!("CARGO_BIN_EXE_bench");
    for flag in [
        "--scale",
        "--seed",
        "--max-tasks",
        "--members",
        "--sim-threads",
        "--budget-secs",
        "--sessions",
        "--tenants",
        "--max-sessions",
    ] {
        assert_clean_exit(bench, &[flag, "x"], flag);
    }
    assert_clean_exit(bench, &["--seed"], "--seed");
    assert_clean_exit(bench, &["--bogus"], "--bogus");
}

#[test]
fn resilience_bad_flags_exit_cleanly() {
    let resilience = env!("CARGO_BIN_EXE_resilience");
    for flag in ["--scale", "--seed"] {
        assert_clean_exit(resilience, &[flag, "x"], flag);
    }
    assert_clean_exit(resilience, &["--backend", "cloud"], "cloud");
}
