//! The repository benchmark: three workloads, end-to-end metrics, and a
//! traced per-layer ledger timed at the layers' public call boundaries.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --steady <runs> [--seed <first>] [--seconds <s>]
//! ```
//!
//! A run prints its detail lines, one `name value unit` line per metric,
//! and, last, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits non-zero when any output check fails. Steady
//! mode runs the workload in two sets of child runs on distinct seeds and
//! reports whether the sets agree within the bounds in `BENCHMARK.json`.

mod jsonl;
mod ledger;
mod outcome;
mod procfs;
mod sal;
mod serve;
mod session;
mod stats;
mod steady;

use outcome::{Budget, Outcome, END_TO_END, PER_LAYER};
use serve::{Serve, ServeKind};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve_sim", "serve_fed_fair", "local_sal"];

const USAGE: &str = "usage: entk-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     \x20      entk-perfbench --workload <name> --steady <runs> [--seed <n>] [--seconds <s>]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (first seed in steady mode).
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Steady mode: runs per set.
    pub steady: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        steady: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--steady" => parsed.steady = Some(value.parse().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if parsed.steady == Some(0) {
        return Err("--steady needs at least one run per set".into());
    }
    Ok(parsed)
}

/// Host cores: the evaluation workers of the serve engine and the local
/// backend's core slots.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(a: &Args) -> Outcome {
    let budget = Budget::new(a.seconds);
    match a.workload.as_str() {
        "local_sal" => session::run(&sal::Sal::new(a.seed, nproc()), budget, a.trace),
        "serve_sim" => Serve::new(ServeKind::Sim, a.seed, nproc()).run(budget, a.trace),
        "serve_fed_fair" => Serve::new(ServeKind::FedFair, a.seed, nproc()).run(budget, a.trace),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(runs) = args.steady {
        std::process::exit(steady::run(&args, runs));
    }
    let mut out = run_workload(&args);
    let catalogue = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, value) in out.metrics.clone() {
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is not finite"));
            out.metrics.insert(name, 0.0);
        }
    }
    println!(
        "workload {} seed {} trace {} cores {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("CHECK FAILED: {problem}");
        eprintln!("CHECK FAILED: {problem}");
    }
    for (name, unit) in catalogue {
        match out.metrics.get(name) {
            Some(v) => println!("{name} {v} {unit}"),
            None => println!("{name} 0 {unit} (layer not called)"),
        }
    }
    println!("{}", out.to_json(catalogue));
    std::process::exit(if out.problems.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve_sim --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_sim", 7, 20.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve_sim --trace 2").is_err());
        assert!(args("--workload serve_sim --seed").is_err());
        assert!(args("--workload serve_sim --bogus 1").is_err());
        assert!(args("--workload serve_sim --steady 0").is_err());
    }

    /// `BENCHMARK.json` names exactly this binary's workloads and metrics,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap_or_default().to_string(),
                        m["unit"].as_str().unwrap_or_default().to_string(),
                    )
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or_default())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
