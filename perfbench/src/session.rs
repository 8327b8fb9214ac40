//! The pass loop of `local_sal`, which runs one session per pass straight
//! through the resource handle's public calls: `ResourceHandle::local`,
//! `allocate`, `run`, `deallocate`.

use crate::ledger::{self, Ledger};
use crate::outcome::{Budget, Outcome, Pass, Window};
use crate::procfs::ProcSample;
use crate::sal::{Plan, Sal};
use crate::stats::{median, tail};
use entk_core::error::EntkError;
use entk_core::prelude::ExecutionReport;
use std::time::{Duration, Instant};

/// Set-ups timed on their own before each untraced pass, so `setup_s` is
/// a median of many, sampled across the whole run, even when a run holds
/// few passes.
const SETUPS_PER_PASS: usize = 50;

/// Timings and reports of one pass.
struct PassOut {
    setup: Duration,
    wall: Duration,
    /// Handle construction to deallocation: the loop the ledger closes over.
    total: Duration,
    run: ExecutionReport,
    fin: ExecutionReport,
    digest: String,
}

/// One session through the public calls, each booked in `l` under its
/// busy-time metric.
fn session(w: &Sal, l: &mut Ledger) -> Result<PassOut, EntkError> {
    let Plan {
        mut pattern,
        digest,
    } = w.plan();
    let t0 = Instant::now();
    let mut h = l.time("core.handle_new.busy_ms", || w.handle())?;
    l.time("core.allocate.busy_ms", || h.allocate())?;
    let t1 = Instant::now();
    let run = l.time("core.run.busy_ms", || h.run(pattern.as_mut()))?;
    let fin = l.time("core.deallocate.busy_ms", || h.deallocate())?;
    let wall = t1.elapsed();
    Ok(PassOut {
        setup: t1 - t0,
        wall,
        total: t0.elapsed(),
        run,
        digest: digest(&fin),
        fin,
    })
}

/// Checks one pass and folds it into the run's counts. Returns whether
/// the pass was correct.
fn check_pass(w: &Sal, out: &mut Outcome, p: &PassOut, first: &str) -> bool {
    let expected = w.expected_tasks();
    out.attempted += expected as u64;
    let tasks_ok = out.check(p.run.task_count() == expected, || {
        format!(
            "completed {} tasks, expected {expected}",
            p.run.task_count()
        )
    });
    let clean_ok = out.check(!p.fin.partial && p.fin.failed_tasks == 0, || {
        format!(
            "partial={} with {} failed tasks",
            p.fin.partial, p.fin.failed_tasks
        )
    });
    let repeat_ok = out.check(p.digest == first, || {
        format!("outputs differ across passes: {} vs {first}", p.digest)
    });
    let ok = tasks_ok && clean_ok && repeat_ok;
    out.failed += if ok {
        p.fin.failed_tasks as u64
    } else {
        expected as u64
    };
    ok
}

/// Host execution time of the tasks of `stage`.
fn exec_of(report: &ExecutionReport, stage: &str) -> Duration {
    report
        .tasks
        .iter()
        .filter(|t| t.stage == stage)
        .filter_map(|t| t.exec_duration())
        .map(|d| Duration::from_secs_f64(d.as_secs_f64()))
        .sum()
}

/// Runs the workload for the budget. Untraced: passes until the budget
/// is spent, reporting end-to-end metrics. Traced: untraced and traced
/// passes alternate (at least one of each), reporting per-layer metrics
/// per traced pass and the tracing overhead between the two kinds. Both
/// kinds time their four calls; only a traced pass keeps the ledger and
/// reads the reports' per-layer figures.
pub fn run(w: &Sal, budget: Budget, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut ledger = Ledger::default();
    let mut passes = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut traced_loop = Duration::ZERO;
    let mut proc_plain = ProcSample::default();
    let (mut md, mut analysis) = (Duration::ZERO, Duration::ZERO);
    let mut first_digest: Option<String> = None;
    loop {
        let is_traced = traced && passes.len() % 2 == 1;
        if !traced {
            if let Err(e) = time_setups(w, &mut setups) {
                out.problems.push(format!("set-up failed: {e}"));
                return out;
            }
        }
        let before = ProcSample::now();
        let result = if is_traced {
            session(w, &mut ledger)
        } else {
            session(w, &mut Ledger::default())
        };
        let p = match result {
            Ok(p) => p,
            Err(e) => {
                out.attempted += w.expected_tasks() as u64;
                out.failed += w.expected_tasks() as u64;
                out.problems.push(format!("pass failed: {e}"));
                break;
            }
        };
        let first = first_digest.get_or_insert_with(|| p.digest.clone()).clone();
        if !check_pass(w, &mut out, &p, &first) {
            break;
        }
        setups.push(p.setup);
        let wall_ms = p.wall.as_secs_f64() * 1e3;
        passes.push(Pass {
            wall: p.wall,
            latencies_ms: vec![wall_ms],
            windows: vec![Window {
                secs: p.wall.as_secs_f64(),
                tasks: p.run.task_count() as u64,
                sessions: 1,
                latency_p50_ms: wall_ms,
            }],
        });
        if is_traced {
            traced_walls.push(p.wall.as_secs_f64());
            traced_loop += p.total;
            md += exec_of(&p.run, "simulation");
            analysis += exec_of(&p.run, "analysis");
        } else {
            plain_walls.push(p.wall.as_secs_f64());
            let d = ProcSample::now().since(&before);
            proc_plain.user_s += d.user_s;
            proc_plain.sys_s += d.sys_s;
            proc_plain.ctx_switches += d.ctx_switches;
        }
        let step: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        let estimate = median(&step).unwrap_or(0.0);
        let need_traced = traced && traced_walls.is_empty();
        if !need_traced && !budget.fits(estimate) {
            break;
        }
    }
    if passes.is_empty() || (traced && traced_walls.is_empty()) {
        return out;
    }

    if !traced {
        out.summarize(&setups, &passes);
        return out;
    }
    let n = traced_walls.len() as f64;
    let per = |d: Duration| d.div_f64(n);
    for name in [
        "core.handle_new.busy_ms",
        "core.allocate.busy_ms",
        "core.run.busy_ms",
        "core.deallocate.busy_ms",
    ] {
        out.set_ms(name, per(ledger.busy(name)));
    }
    out.set_ms("kernels.md.exec_ms", per(md));
    out.set_ms("kernels.analysis.exec_ms", per(analysis));
    let plain_ms: Vec<f64> = plain_walls.iter().map(|w| w * 1e3).collect();
    let latency_tail = tail(&plain_ms).expect("a traced run makes an untraced pass");
    out.set("workload.record_latency_tail_ms", latency_tail.value);
    let plain = plain_walls.len() as f64;
    out.set("proc.user_cpu_s", proc_plain.user_s / plain);
    out.set("proc.sys_cpu_s", proc_plain.sys_s / plain);
    out.set("proc.ctx_switches", proc_plain.ctx_switches as f64 / plain);
    out.notes.extend(ledger.describe());
    let closure = ledger::closure(ledger.total(), traced_loop);
    out.set("core.ledger_closure", closure);
    out.check(ledger::closes(closure), || {
        format!("ledger closure {closure:.4} is not within 5% of 1")
    });
    let overhead = median(&traced_walls).unwrap_or(0.0) - median(&plain_walls).unwrap_or(0.0);
    out.set("bench.trace_overhead_ms", overhead * 1e3);
    out.notes.push(format!(
        "traced passes: {}, untraced passes: {}",
        traced_walls.len(),
        plain_walls.len()
    ));
    out
}

/// Times [`SETUPS_PER_PASS`] stand-alone set-ups: handle construction
/// and `allocate`.
fn time_setups(w: &Sal, setups: &mut Vec<Duration>) -> Result<(), EntkError> {
    for _ in 0..SETUPS_PER_PASS {
        let t0 = Instant::now();
        let mut h = w.handle()?;
        h.allocate()?;
        setups.push(t0.elapsed());
    }
    Ok(())
}
