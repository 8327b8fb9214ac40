//! What one benchmark run reports: the metric catalogue, the end-to-end
//! summary over a run's passes, and the result line.

use crate::procfs;
use crate::stats::{median, quartiles, tail, Tail};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("sessions_per_s", "1/s"),
    ("record_latency_p50_ms", "ms"),
    ("peak_rss_kib", "KiB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.run.busy_ms", "ms"),
    ("sim.events", "count"),
    ("sim.run_ns_per_event", "ns"),
    ("core.handle_new.busy_ms", "ms"),
    ("core.allocate.busy_ms", "ms"),
    ("core.deallocate.busy_ms", "ms"),
    ("sim.trace.snapshot.busy_ms", "ms"),
    ("sim.trace.to_jsonl.busy_ms", "ms"),
    ("sim.trace.bytes", "bytes"),
    ("workload.fnv64.busy_ms", "ms"),
    ("core.cross_check.busy_ms", "ms"),
    ("workload.source.busy_ms", "ms"),
    ("workload.source.pulls", "count"),
    ("workload.build_pattern.busy_ms", "ms"),
    ("workload.sink.busy_ms", "ms"),
    ("workload.sink.bytes", "bytes"),
    ("workload.sink.lines", "count"),
    ("workload.engine.excess_ms", "ms"),
    ("workload.record_latency_tail_ms", "ms"),
    ("workload.eval.parallel_eff", "ratio"),
    ("workload.eval.useful_frac", "ratio"),
    ("workload.peak_resident_sessions", "count"),
    ("workload.admission.rejected", "count"),
    ("kernels.md.exec_ms", "ms"),
    ("kernels.analysis.exec_ms", "ms"),
    ("core.entk_overhead_ms", "ms"),
    ("proc.user_cpu_s", "s"),
    ("proc.sys_cpu_s", "s"),
    ("proc.ctx_switches", "count"),
    ("core.ledger_closure", "ratio"),
    ("bench.trace_overhead_ms", "ms"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items attempted: tasks or sessions, over every pass.
    pub attempted: u64,
    /// Items that failed or degraded, plus every item of a pass whose
    /// output check failed.
    pub failed: u64,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (sample counts, quartiles).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output-check failure unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(problem());
        }
        ok
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        self.metrics.insert(name, value);
    }

    /// Sets a metric in milliseconds from a duration.
    pub fn set_ms(&mut self, name: &'static str, d: Duration) {
        self.set(name, d.as_secs_f64() * 1e3);
    }

    /// Fills the end-to-end metrics from a run's passes and every set-up
    /// timed in the run. `setup_s` is the median set-up. The rates and
    /// the record latency are taken over the run's windows (stretches of
    /// consecutive output, see [`Window`]): the upper quartile of the
    /// window rates and the lower quartile of the window latency medians.
    /// A shared host only ever slows a window, often for seconds at a
    /// time, so these quartiles read the program's speed in the least
    /// disturbed part of the run, while a change that slows every window
    /// moves them in full. The detail lines give the median, quartiles
    /// and sample counts.
    pub fn summarize(&mut self, setups: &[Duration], passes: &[Pass]) {
        let tails: Vec<Tail> = passes
            .iter()
            .map(|p| tail(&p.latencies_ms).expect("a pass records at least one latency"))
            .collect();
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        self.note_spread(
            "pass_wall_s",
            median(&walls).expect("a run makes a pass"),
            &walls,
        );
        let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
        let m = median(&setup_s).expect("a run times at least one set-up");
        self.set("setup_s", m);
        self.note_spread("setup_s", m, &setup_s);
        let windows: Vec<&Window> = passes.iter().flat_map(|p| &p.windows).collect();
        let over = |f: &dyn Fn(&Window) -> f64| windows.iter().map(|w| f(w)).collect::<Vec<f64>>();
        let series: [(&'static str, bool, Vec<f64>); 3] = [
            ("tasks_per_s", true, over(&|w| w.tasks as f64 / w.secs)),
            (
                "sessions_per_s",
                true,
                over(&|w| w.sessions as f64 / w.secs),
            ),
            ("record_latency_p50_ms", false, over(&|w| w.latency_p50_ms)),
        ];
        for (name, higher_is_better, values) in series {
            let m = median(&values).expect("a run makes a window");
            let v = match quartiles(&values) {
                Some((_, q3)) if higher_is_better => q3,
                Some((q1, _)) => q1,
                None => m,
            };
            self.set(name, v);
            let best = if higher_is_better { "q3" } else { "q1" };
            self.note_spread(
                &format!("{name} over windows (reported: {best})"),
                m,
                &values,
            );
        }
        // The tail is printed but not gated: on a shared host it swings
        // with every stall (see `workload.record_latency_tail_ms`).
        let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let name = format!(
            "record latency tail (each pass's p{} over n={} records)",
            tails[0].percentile, tails[0].samples
        );
        self.note_spread(&name, median(&tail_values).unwrap_or(0.0), &tail_values);
        self.set(
            "peak_rss_kib",
            procfs::vm_hwm_kib().expect("VmHWM readable from /proc/self/status") as f64,
        );
    }

    /// A detail line: a metric's median `m` and the quartiles of the
    /// `values` it was taken over.
    fn note_spread(&mut self, name: &str, m: f64, values: &[f64]) {
        let (q1, q3) = quartiles(values).unwrap_or((m, m));
        self.notes.push(format!(
            "{name}: median {m:.6} [q1 {q1:.6}, q3 {q3:.6}] n={}",
            values.len()
        ));
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric of `catalogue` with its unit. Metrics the run did not set
    /// (layers the workload never calls) read 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)]) -> Value {
        let mut metrics = Map::new();
        for (name, unit) in catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            metrics.insert((*name).to_string(), json!({ "value": value, "unit": unit }));
        }
        json!({
            "correct": self.problems.is_empty(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// One pass over a workload's input: set-up end to last output.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Latency of each record, ms.
    pub latencies_ms: Vec<f64>,
    /// The pass cut into consecutive stretches of output.
    pub windows: Vec<Window>,
}

/// A stretch of consecutive output within a pass: from the previous
/// window's last output (or the pass start) to its own last output.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Wall time of the stretch, seconds.
    pub secs: f64,
    /// Tasks of the records output in it.
    pub tasks: u64,
    /// Records output in it.
    pub sessions: u64,
    /// Median latency of those records, ms.
    pub latency_p50_ms: f64,
}

/// A run's time budget.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another step of `estimate` seconds still fits.
    pub fn fits(&self, estimate: f64) -> bool {
        self.start.elapsed().as_secs_f64() + estimate <= self.seconds
    }
}
