//! Resilience-sweep harness with built-in determinism checks, run by CI's
//! `resilience-smoke` job at reduced scale.
//!
//! ```text
//! cargo run --release -p entk-bench --bin resilience -- [OPTIONS]
//!
//!   --scale N     divide ensemble sizes by N            [default: 8]
//!   --seed S      sweep seed                            [default: 2016]
//!   --backend B   simulated | federated          [default: simulated]
//!   --out PATH    output path                [default: RESILIENCE.json]
//! ```
//!
//! A bad argument exits with status 1 and one `error:` line.
//!
//! Three checks must hold (the process asserts them, so CI fails loudly):
//!
//! 1. **Replay** — running the sweep twice with the same seed yields
//!    byte-identical JSON rows.
//! 2. **Zero-rate is free** — rate-0 rows with a fault injector installed
//!    equal the rows of a platform with no injector at all.
//! 3. **Parallel equals serial** — fanning the sweep across cores changes
//!    nothing about its output.
//!
//! `--backend federated` swaps the single-cluster sweep for the federated
//! two-cluster points (one member crash-heavy, one clean) and asserts the
//! replay and parallel checks on those rows; the zero-rate check is
//! specific to the task-failure injector and does not apply.

use entk_bench::{
    baseline_rows, federated_resilience_with, resilience, resilience_sweep_with, SweepRunner,
};
use serde_json::json;

/// One-line diagnostic + non-zero exit for argument errors and
/// determinism-check failures, so CI logs end with the reason instead of
/// a panic backtrace.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Parses a flag's value, or leaves through [`fail`] naming the flag.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(format!("{flag} needs a number, got {value:?}")))
}

struct Options {
    scale: usize,
    seed: u64,
    backend: String,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        scale: 8,
        seed: 2016,
        backend: "simulated".to_string(),
        out: "RESILIENCE.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--scale" => opts.scale = parse_flag("--scale", value("--scale")),
            "--seed" => opts.seed = parse_flag("--seed", value("--seed")),
            "--backend" => opts.backend = value("--backend"),
            "--out" => opts.out = value("--out"),
            other => fail(format!("unknown argument {other:?} (see module docs)")),
        }
    }
    if !matches!(opts.backend.as_str(), "simulated" | "federated") {
        fail(format!(
            "unknown backend {:?} (use \"simulated\" or \"federated\")",
            opts.backend
        ));
    }
    opts
}

/// The `--backend federated` mode: paired clean / crash-heavy federation
/// rows with the replay and parallel determinism checks.
fn run_federated(opts: &Options) {
    let seed = opts.seed;

    let serial = federated_resilience_with(&SweepRunner::serial(), seed);
    let replay = federated_resilience_with(&SweepRunner::serial(), seed);
    let replay_identical = serial == replay;
    if !replay_identical {
        fail("same seed must replay to byte-identical federated rows");
    }

    let parallel = federated_resilience_with(&SweepRunner::parallel(), seed);
    let parallel_identical = serial == parallel;
    if !parallel_identical {
        fail("parallel federated sweep diverged from serial rows");
    }

    for row in &serial {
        println!(
            "series={} mtbf={} {}",
            row.series,
            row.x,
            row.values
                .iter()
                .map(|(n, v)| format!("{n}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let out = json!({
        "version": 1,
        "backend": "federated",
        "seed": seed,
        "retries": resilience::FED_RETRIES,
        "crash_mtbf_secs": resilience::FED_CRASH_MTBF_SECS,
        "patterns": resilience::PATTERNS,
        "rows": serial,
        "checks": {
            "replay_identical": replay_identical,
            "parallel_identical": parallel_identical,
        },
    });
    let rendered = serde_json::to_string_pretty(&out).expect("serialize RESILIENCE.json");
    std::fs::write(&opts.out, rendered + "\n").expect("write RESILIENCE.json");
    println!("wrote {} (all determinism checks passed)", opts.out);
}

fn main() {
    let opts = parse_args();
    if opts.backend == "federated" {
        run_federated(&opts);
        return;
    }
    let (seed, scale) = (opts.seed, opts.scale);

    let serial = resilience_sweep_with(&SweepRunner::serial(), seed, scale);
    let replay = resilience_sweep_with(&SweepRunner::serial(), seed, scale);
    let rows_json = serde_json::to_string(&serial).expect("serialize rows");
    let replay_identical = rows_json == serde_json::to_string(&replay).expect("serialize rows");
    if !replay_identical {
        fail("same seed must replay to byte-identical rows");
    }

    let parallel = resilience_sweep_with(&SweepRunner::parallel(), seed, scale);
    let parallel_identical = serial == parallel;
    if !parallel_identical {
        fail("parallel sweep diverged from serial rows");
    }

    let baseline = baseline_rows(seed, scale);
    let zero_rows: Vec<_> = serial.iter().filter(|r| r.x == 0.0).cloned().collect();
    let zero_rate_matches_baseline = zero_rows == baseline;
    if !zero_rate_matches_baseline {
        fail("rate-0 rows with an injector must equal the no-injector baseline");
    }

    for row in &serial {
        println!(
            "series={} rate={} {}",
            row.series,
            row.x,
            row.values
                .iter()
                .map(|(n, v)| format!("{n}={v:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let out = json!({
        "version": 1,
        "backend": "simulated",
        "seed": seed,
        "scale": scale,
        "rates": resilience::RATES,
        "retries": resilience::RETRIES,
        "patterns": resilience::PATTERNS,
        "rows": serial,
        "checks": {
            "replay_identical": replay_identical,
            "parallel_identical": parallel_identical,
            "zero_rate_matches_baseline": zero_rate_matches_baseline,
        },
    });
    let rendered = serde_json::to_string_pretty(&out).expect("serialize RESILIENCE.json");
    std::fs::write(&opts.out, rendered + "\n").expect("write RESILIENCE.json");
    println!("wrote {} (all determinism checks passed)", opts.out);
}
