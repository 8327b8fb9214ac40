//! `local_sal`: an adaptive simulation-analysis loop of real `md.amber`
//! runs on the 2881-atom surrogate and a real `ana.coco` over their pooled
//! frames, on the local backend. The only workload that runs the MD and
//! analysis kernels and the local runtime's threads.

use entk_core::error::EntkError;
use entk_core::prelude::{
    ExecutionPattern, ExecutionReport, KernelCall, ResourceHandle, SimulationAnalysisLoop,
};
use entk_workload::{fnv64, session_seed};
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};

/// Simulations per iteration.
pub const SIMS: usize = 4;
/// Loop iterations.
pub const ITERATIONS: usize = 2;
/// MD steps per simulation: short, so that a pass (one rate window)
/// takes about half a second on two cores and a 30 s run holds about
/// fifty of them.
const STEPS: u64 = 20;
/// Frame interval of each simulation's trajectory.
const RECORD_EVERY: u64 = 5;

/// One pass's pattern, plus a digest of the pass's outputs that must
/// repeat exactly across passes of the same seed.
pub struct Plan {
    /// The pattern the pass runs.
    pub pattern: Box<dyn ExecutionPattern + Send>,
    /// Called once after the pass with the final session report.
    pub digest: Box<dyn FnOnce(&ExecutionReport) -> String>,
}

/// The workload for one seed on `cores` local cores.
pub struct Sal {
    seed: u64,
    cores: usize,
}

impl Sal {
    /// The workload whose inputs derive from `seed`.
    pub fn new(seed: u64, cores: usize) -> Self {
        Sal { seed, cores }
    }
}

impl Sal {
    /// Constructs the resource handle (`core.handle_new`).
    pub fn handle(&self) -> Result<ResourceHandle, EntkError> {
        Ok(ResourceHandle::local(self.cores))
    }

    /// A fresh pattern for one pass. Each iteration's CoCo pass proposes
    /// the next iteration's starting conformations; the digest is the
    /// sequence of proposals.
    pub fn plan(&self) -> Plan {
        let seed = self.seed;
        let starts: Arc<Mutex<Vec<Value>>> = Arc::default();
        let proposals: Arc<Mutex<Vec<u64>>> = Arc::default();
        let sim_starts = Arc::clone(&starts);
        let adapt_starts = Arc::clone(&starts);
        let adapt_log = Arc::clone(&proposals);
        let pattern = SimulationAnalysisLoop::new(
            ITERATIONS,
            SIMS,
            move |iter, idx| {
                let mut args = json!({
                    "steps": STEPS,
                    "record_every": RECORD_EVERY,
                    "seed": session_seed(seed, iter * SIMS + idx),
                });
                if let Some(start) = sim_starts.lock().expect("starts lock").get(idx) {
                    args["start"] = json!([start]);
                }
                KernelCall::new("md.amber", args)
            },
            |_, outs| {
                // Outputs arrive in completion order, which varies run to
                // run on the local backend; pool them in a fixed order so
                // CoCo's input, and so its proposals, repeat.
                let mut outs: Vec<&Value> = outs.iter().collect();
                outs.sort_by_cached_key(|o| o.to_string());
                let frames: Vec<Value> = outs
                    .iter()
                    .filter_map(|o| o["frames"].as_array())
                    .flatten()
                    .cloned()
                    .collect();
                vec![KernelCall::new(
                    "ana.coco",
                    json!({ "frames": frames, "n_new": SIMS, "grid": 8 }),
                )]
            },
        )
        .with_adaptivity(move |_, analysis| {
            let new_starts = analysis[0]["new_starts"].clone();
            adapt_log
                .lock()
                .expect("proposal log lock")
                .push(fnv64(new_starts.to_string().as_bytes()));
            *adapt_starts.lock().expect("starts lock") =
                new_starts.as_array().cloned().unwrap_or_default();
            SIMS
        });
        Plan {
            pattern: Box::new(pattern),
            digest: Box::new(move |_| {
                let log = proposals.lock().expect("proposal log lock");
                let fps: Vec<String> = log.iter().map(|fp| format!("{fp:016x}")).collect();
                format!("new_starts={}", fps.join(","))
            }),
        }
    }

    /// Tasks one pass must complete.
    pub fn expected_tasks(&self) -> usize {
        ITERATIONS * (SIMS + 1)
    }
}
