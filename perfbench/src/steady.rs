//! Steadiness mode: two sets of untraced child runs on distinct seeds,
//! each end-to-end metric's median and quartiles per set, and whether the
//! sets agree within the bounds `BENCHMARK.json` fixes.

use crate::stats::{median, quartiles};
use crate::Args;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// An end-to-end metric's regression rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn rules() -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the working directory: {e}"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Rule {
                name: m["name"].as_str().ok_or("metric without name")?.to_string(),
                unit: m["unit"].as_str().unwrap_or_default().to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64().ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One child run's metric values, or why it produced none.
fn child(args: &Args, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawning run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("seed {seed}: no result line ({e})"))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!("seed {seed}: run failed its output checks"));
    }
    let metrics = result["metrics"]
        .as_object()
        .ok_or("result without metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v["value"].as_f64()?)))
        .collect())
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Runs the two sets and prints the comparison. Returns the exit code:
/// 0 when every run passed its checks, every spread but `setup_s`'s is
/// within its bound, and the second set's median is no worse than the
/// first's by more than the bound.
pub fn run(args: &Args, runs: usize) -> i32 {
    let rules = match rules() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
    for (s, set) in sets.iter_mut().enumerate() {
        for k in 0..runs {
            let seed = args.seed + (s * runs + k) as u64;
            match child(args, seed) {
                Ok(m) => {
                    eprintln!("set {} seed {seed}: {m:?}", s + 1);
                    set.push(m);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
    }
    println!(
        "steadiness of {}: two sets of {runs} runs, {} s each",
        args.workload, args.seconds
    );
    let mut ok = true;
    for rule in &rules {
        let values = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
            set.iter()
                .filter_map(|m| m.get(&rule.name).copied())
                .collect()
        };
        let (a, b) = (values(&sets[0]), values(&sets[1]));
        let (ma, mb) = (median(&a).unwrap_or(0.0), median(&b).unwrap_or(0.0));
        let change = if ma != 0.0 { mb / ma - 1.0 } else { 0.0 };
        let worse = if rule.lower_is_better {
            change
        } else {
            -change
        };
        let (sa, sb) = (spread(&a), spread(&b));
        let steady = rule.name == "setup_s" || (sa <= rule.bound && sb <= rule.bound);
        let agree = worse <= rule.bound;
        ok &= steady && agree;
        let quart = |v: &[f64]| quartiles(v).unwrap_or((0.0, 0.0));
        let (qa, qb) = (quart(&a), quart(&b));
        println!(
            "{:<24} {:>8} set1 {:.6} [{:.6}, {:.6}] spread {:.3} | set2 {:.6} [{:.6}, {:.6}] spread {:.3} | \
             change {:+.3} bound {:.2} spread/bound {:.2} {}",
            rule.name,
            rule.unit,
            ma,
            qa.0,
            qa.1,
            sa,
            mb,
            qb.0,
            qb.1,
            sb,
            change,
            rule.bound,
            sa.max(sb) / rule.bound,
            if steady && agree { "agree" } else { "DISAGREE" }
        );
    }
    println!("{}", if ok { "sets agree" } else { "sets disagree" });
    i32::from(!ok)
}
