//! `serve_sim` and `serve_fed_fair`: session streams served end to end
//! through `ServiceEngine::run_streaming`, with the source and the sink
//! wrapped in shims that stamp each arrival's pull and each record's
//! emission. The traced run also replays every session serially through
//! the public calls the engine makes for it.

use crate::jsonl::{parse_record, parse_session, EmittedRecord};
use crate::ledger::{self, Ledger};
use crate::outcome::{Budget, Outcome, Pass, Window};
use crate::procfs::ProcSample;
use crate::stats::{median, tail};
use entk_core::error::EntkError;
use entk_core::prelude::{
    cross_check, ClusterSpec, FederatedConfig, ResourceConfig, ResourceHandle, SimulatedConfig,
};
use entk_sim::SimDuration;
use entk_workload::{
    fnv64, session_seed, ArrivalStream, EngineOptions, HotTenantTrace, SaturationMode, ServeStats,
    ServiceConfig, ServiceEngine, SessionArrival, StreamBackend, SyntheticTrace, WorkloadConfig,
    WorkloadGenerator,
};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups timed on their own before each pass, so `setup_s` is sampled
/// across the whole run.
const SETUPS_PER_PASS: usize = 4;

/// Largest cross-check error a session may show, seconds.
const MAX_CROSS_CHECK_ERR_SECS: f64 = 1e-6;

/// Arrival read-ahead window of the engine (its default).
const LOOKAHEAD: usize = 256;

/// Consecutive records per rate window: 0.05–0.2 s of output on two
/// cores, so a 30 s run holds a few hundred windows.
const WINDOW_RECORDS: usize = 500;

/// Which stream and service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// `SyntheticTrace` over 64 tenants, FIFO, 64 slots, simulated.
    Sim,
    /// `HotTenantTrace` over 16 light tenants, fair share (half-life
    /// 600 s), 4 slots, queue bound 8 with reject, federated:2.
    FedFair,
}

impl ServeKind {
    /// Sessions in one pass over the stream.
    pub fn sessions(self) -> usize {
        match self {
            ServeKind::Sim => 20_000,
            ServeKind::FedFair => 10_000,
        }
    }
}

/// The workload for one seed, served with `workers` evaluation threads.
pub struct Serve {
    kind: ServeKind,
    seed: u64,
    workers: usize,
}

/// The arrival-pull stamps of one pass.
#[derive(Debug, Default)]
struct PullLog {
    /// Pull instant of each arrival, in stream order (= session index).
    at: Vec<Instant>,
    /// Time inside the wrapped source (traced passes only).
    busy: Duration,
}

/// Wraps the stream handed to the engine, stamping every pull.
struct TimedSource {
    inner: Box<dyn ArrivalStream>,
    log: Arc<Mutex<PullLog>>,
    traced: bool,
}

impl ArrivalStream for TimedSource {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        let t0 = self.traced.then(Instant::now);
        let row = self.inner.next_arrival();
        let now = Instant::now();
        let mut log = self.log.lock().expect("pull log lock");
        if let Some(t0) = t0 {
            log.busy += now - t0;
        }
        if matches!(row, Ok(Some(_))) {
            log.at.push(now);
        }
        row
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

/// One record line reaching the sink.
#[derive(Debug, Clone, Copy)]
struct Emission {
    session: usize,
    tasks: u64,
    at: Instant,
}

/// A null sink that stamps each record line's arrival and counts bytes
/// and lines; traced, it also keeps each line's checked fields and its
/// own time inside `write`.
#[derive(Debug, Default)]
struct CountingSink {
    traced: bool,
    pending: Vec<u8>,
    emitted: Vec<Emission>,
    records: Vec<EmittedRecord>,
    bytes: u64,
    lines: u64,
    bad_lines: u64,
    busy: Duration,
}

impl CountingSink {
    fn line(&mut self, line: &[u8], now: Instant) {
        self.lines += 1;
        let text = std::str::from_utf8(line).unwrap_or("");
        match parse_session(text) {
            Some((session, tasks)) => self.emitted.push(Emission {
                session,
                tasks,
                at: now,
            }),
            None => self.bad_lines += 1,
        }
        if self.traced {
            match parse_record(text) {
                Some(r) => self.records.push(r),
                None => self.bad_lines += 1,
            }
        }
    }
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.bytes += buf.len() as u64;
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend_from_slice(buf);
        let mut start = 0;
        while let Some(off) = pending[start..].iter().position(|&b| b == b'\n') {
            self.line(&pending[start..start + off], now);
            start += off + 1;
        }
        pending.drain(..start);
        self.pending = pending;
        if self.traced {
            self.busy += now.elapsed();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One serve of the whole stream.
struct ServePass {
    setup: Duration,
    /// Set-up end: the pass's start.
    start: Instant,
    wall: Duration,
    stats: ServeStats,
    pulls: PullLog,
    sink: CountingSink,
    proc: ProcSample,
}

impl ServePass {
    /// Pull-to-sink latency of every record, in emission order, ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.sink
            .emitted
            .iter()
            .filter_map(|e| Some((e.at - *self.pulls.at.get(e.session)?).as_secs_f64() * 1e3))
            .collect()
    }

    /// The pass for the end-to-end summary.
    fn pass(&self) -> Pass {
        let latencies_ms = self.latencies_ms();
        let windows = windows(
            self.start,
            &self.sink.emitted,
            &latencies_ms,
            WINDOW_RECORDS,
        );
        Pass {
            wall: self.wall,
            latencies_ms,
            windows,
        }
    }
}

/// Cuts a pass's emissions into windows of `size` consecutive records
/// (the last one may be shorter), timed from the previous window's last
/// emission, or from `start` for the first. `latencies_ms` holds each
/// emission's latency, in the same order.
fn windows(start: Instant, emitted: &[Emission], latencies_ms: &[f64], size: usize) -> Vec<Window> {
    let mut from = start;
    emitted
        .chunks(size)
        .zip(latencies_ms.chunks(size))
        .map(|(records, latencies)| {
            let to = records.last().expect("chunks are never empty").at;
            let secs = (to - from).as_secs_f64();
            from = to;
            Window {
                secs,
                tasks: records.iter().map(|e| e.tasks).sum(),
                sessions: records.len() as u64,
                latency_p50_ms: median(latencies).expect("chunks are never empty"),
            }
        })
        .collect()
}

/// A replayed session's outputs.
struct Replayed {
    trace_fp: u64,
    events: u64,
    trace_bytes: usize,
    cc_err: f64,
    entk_overhead: Duration,
}

impl Serve {
    /// The workload for `kind` whose inputs derive from `seed`.
    pub fn new(kind: ServeKind, seed: u64, workers: usize) -> Self {
        Serve {
            kind,
            seed,
            workers,
        }
    }

    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        let n = self.kind.sessions();
        match self.kind {
            ServeKind::Sim => SyntheticTrace::new(self.seed, n, 64).stream(),
            ServeKind::FedFair => HotTenantTrace::new(self.seed, n, 16).stream(),
        }
    }

    fn config(&self) -> ServiceConfig {
        match self.kind {
            ServeKind::Sim => ServiceConfig::fifo(WorkloadConfig {
                seed: self.seed,
                slots: 64,
                backend: StreamBackend::Simulated,
                ..WorkloadConfig::default()
            }),
            ServeKind::FedFair => ServiceConfig {
                max_queue_depth: Some(8),
                saturation: SaturationMode::Reject,
                ..ServiceConfig::fair_share(
                    WorkloadConfig {
                        seed: self.seed,
                        slots: 4,
                        backend: StreamBackend::Federated { members: 2 },
                        ..WorkloadConfig::default()
                    },
                    600.0,
                )
            },
        }
    }

    /// `ServiceEngine::with_options` over a stamped source.
    fn engine(
        &self,
        workers: usize,
        log: &Arc<Mutex<PullLog>>,
        traced: bool,
    ) -> Result<ServiceEngine, EntkError> {
        let source: Box<dyn ArrivalStream> = Box::new(TimedSource {
            inner: self.stream()?,
            log: Arc::clone(log),
            traced,
        });
        ServiceEngine::with_options(
            self.config(),
            source,
            EngineOptions {
                lookahead: LOOKAHEAD,
                eval_workers: workers,
            },
        )
    }

    fn serve(&self, workers: usize, traced: bool) -> Result<ServePass, EntkError> {
        let log = Arc::new(Mutex::new(PullLog::default()));
        let before = ProcSample::now();
        let t0 = Instant::now();
        let engine = self.engine(workers, &log, traced)?;
        let t1 = Instant::now();
        let mut sink = CountingSink {
            traced,
            ..CountingSink::default()
        };
        let stats = engine.run_streaming(&mut sink)?;
        let wall = sink
            .emitted
            .last()
            .map_or_else(|| t1.elapsed(), |e| e.at - t1);
        let proc = ProcSample::now().since(&before);
        let pulls = std::mem::take(&mut *log.lock().expect("pull log lock"));
        Ok(ServePass {
            setup: t1 - t0,
            start: t1,
            wall,
            stats,
            pulls,
            sink,
            proc,
        })
    }

    /// Checks one serve against the stream and the first serve of the
    /// run, and folds it into the run's counts.
    fn check(&self, out: &mut Outcome, p: &ServePass, first: Option<&ServeStats>) -> bool {
        let n = self.kind.sessions();
        let s = &p.stats;
        out.attempted += n as u64;
        let mut seen = vec![false; n];
        let each_once = p.sink.emitted.len() == n
            && p.sink
                .emitted
                .iter()
                .all(|e| e.session < n && !std::mem::replace(&mut seen[e.session], true));
        let checks = [
            out.check(s.sessions == n && p.pulls.at.len() == n, || {
                format!(
                    "recorded {} of {n} sessions, pulled {}",
                    s.sessions,
                    p.pulls.at.len()
                )
            }),
            out.check(each_once && p.sink.bad_lines == 0, || {
                format!(
                    "sink saw {} records ({} malformed), not one per arrival",
                    p.sink.emitted.len(),
                    p.sink.bad_lines
                )
            }),
            out.check(
                p.sink.emitted.iter().map(|e| e.tasks).sum::<u64>() == s.total_tasks as u64,
                || {
                    format!(
                        "record lines count other tasks than the {} served",
                        s.total_tasks
                    )
                },
            ),
            out.check(s.failed_sessions == 0 && s.partial_sessions == 0, || {
                format!(
                    "{} failed and {} partial sessions",
                    s.failed_sessions, s.partial_sessions
                )
            }),
            out.check(
                s.max_cross_check_err_secs <= MAX_CROSS_CHECK_ERR_SECS,
                || format!("cross-check error {} s", s.max_cross_check_err_secs),
            ),
            out.check(
                first.is_none_or(|f| {
                    f.stream_fp == s.stream_fp && f.rejected_sessions == s.rejected_sessions
                }),
                || {
                    format!(
                        "stream_fp/rejected differ across serves: {} / {}",
                        s.stream_fp, s.rejected_sessions
                    )
                },
            ),
        ];
        let ok = checks.iter().all(|&c| c);
        out.failed += if ok {
            (s.failed_sessions + s.partial_sessions) as u64
        } else {
            n as u64
        };
        ok
    }

    /// The resource handle the engine builds for session `index`: the
    /// same configuration the service evaluates each session with.
    fn session_handle(
        &self,
        arrival: &SessionArrival,
        index: usize,
    ) -> Result<ResourceHandle, EntkError> {
        let cfg = self.config().stream;
        let seed = session_seed(cfg.seed, index);
        let walltime = SimDuration::from_secs(10_000_000);
        match cfg.backend {
            StreamBackend::Simulated => ResourceHandle::simulated(
                ResourceConfig::new(cfg.resource.clone(), arrival.cores, walltime),
                SimulatedConfig {
                    seed,
                    unit_failure_rate: cfg.unit_failure_rate,
                    fault: cfg.fault,
                    scheduler: cfg.scheduler.clone(),
                    ..Default::default()
                },
            ),
            StreamBackend::Federated { members } => ResourceHandle::federated(FederatedConfig {
                seed,
                clusters: (0..members)
                    .map(|_| ClusterSpec {
                        unit_failure_rate: cfg.unit_failure_rate,
                        ..ClusterSpec::new(cfg.resource.clone(), arrival.cores, walltime)
                    })
                    .collect(),
                fault: cfg.fault,
                scheduler: cfg.scheduler.clone(),
                ..FederatedConfig::default()
            }),
        }
    }

    /// Session `index` through the calls the engine makes for it, each
    /// booked in the ledger. Dropping the handle is booked as teardown
    /// (`core.deallocate.busy_ms`): the engine pays it inside the evaluation
    /// too.
    fn replay_one(
        &self,
        l: &mut Ledger,
        index: usize,
        arrival: &SessionArrival,
    ) -> Result<Replayed, EntkError> {
        let mut pattern = l.time("workload.build_pattern.busy_ms", || arrival.build_pattern())?;
        let mut handle = l.time("core.handle_new.busy_ms", || {
            self.session_handle(arrival, index)
        })?;
        l.time("core.allocate.busy_ms", || handle.allocate())?;
        let run = l.time("core.run.busy_ms", || handle.run(pattern.as_mut()))?;
        let mut report = l.time("core.deallocate.busy_ms", || handle.deallocate())?;
        report.pattern = run.pattern;
        let telemetry = l
            .time("sim.trace.snapshot.busy_ms", || {
                handle.telemetry().map(|t| t.snapshot())
            })
            .ok_or_else(|| EntkError::Runtime("session handle has no telemetry".into()))?;
        l.time("core.deallocate.busy_ms", || drop(handle));
        let cc = l.time("core.cross_check.busy_ms", || {
            cross_check(&report, &telemetry.tracer)
        });
        let jsonl = l.time("sim.trace.to_jsonl.busy_ms", || telemetry.tracer.to_jsonl());
        let trace_fp = l.time("workload.fnv64.busy_ms", || fnv64(jsonl.as_bytes()));
        Ok(Replayed {
            trace_fp,
            events: report.events,
            trace_bytes: jsonl.len(),
            cc_err: cc.max_abs_error_secs,
            entk_overhead: Duration::from_secs_f64(report.entk_overhead().as_secs_f64()),
        })
    }

    /// Replays the whole stream serially, checking every admitted
    /// session's fingerprint against the one the engine emitted. Returns
    /// the evaluation busy time: every booked call but the pulls.
    fn replay(&self, out: &mut Outcome, traced: &ServePass) -> Result<Duration, EntkError> {
        let mut emitted: Vec<Option<&EmittedRecord>> = vec![None; self.kind.sessions()];
        for r in &traced.sink.records {
            if let Some(slot) = emitted.get_mut(r.session) {
                *slot = Some(r);
            }
        }
        let mut l = Ledger::default();
        let mut source = self.stream()?;
        let (mut events, mut admitted_events, mut trace_bytes) = (0u64, 0u64, 0usize);
        let (mut entk_overhead, mut mismatches, mut max_cc) = (Duration::ZERO, 0usize, 0f64);
        let t0 = Instant::now();
        let mut index = 0;
        while let Some(arrival) = l.time("workload.source.busy_ms", || source.next_arrival())? {
            let r = self.replay_one(&mut l, index, &arrival)?;
            events += r.events;
            trace_bytes += r.trace_bytes;
            entk_overhead += r.entk_overhead;
            max_cc = max_cc.max(r.cc_err);
            match emitted.get(index).copied().flatten() {
                Some(e) if e.status == "rejected" => {}
                Some(e) if e.trace_fp == r.trace_fp => admitted_events += r.events,
                _ => mismatches += 1,
            }
            index += 1;
        }
        let loop_wall = t0.elapsed();
        out.check(mismatches == 0, || {
            format!("{mismatches} replayed sessions differ from the engine's trace_fp")
        });
        out.check(admitted_events == traced.stats.total_events, || {
            format!(
                "replay counts {admitted_events} events of admitted sessions, engine {}",
                traced.stats.total_events
            )
        });
        out.check(max_cc <= MAX_CROSS_CHECK_ERR_SECS, || {
            format!("replay cross-check error {max_cc} s")
        });
        for name in [
            "core.handle_new.busy_ms",
            "core.allocate.busy_ms",
            "core.run.busy_ms",
            "core.deallocate.busy_ms",
            "sim.trace.snapshot.busy_ms",
            "sim.trace.to_jsonl.busy_ms",
            "workload.fnv64.busy_ms",
            "core.cross_check.busy_ms",
            "workload.build_pattern.busy_ms",
        ] {
            out.set_ms(name, l.busy(name));
        }
        out.set("sim.events", events as f64);
        out.set(
            "sim.run_ns_per_event",
            l.busy("core.run.busy_ms").as_nanos() as f64 / events.max(1) as f64,
        );
        out.set("sim.trace.bytes", trace_bytes as f64);
        out.set_ms("core.entk_overhead_ms", entk_overhead);
        out.notes.extend(l.describe());
        let closure = ledger::closure(l.total(), loop_wall);
        out.set("core.ledger_closure", closure);
        out.check(ledger::closes(closure), || {
            format!("ledger closure {closure:.4} is not within 5% of 1")
        });
        Ok(l.total() - l.busy("workload.source.busy_ms"))
    }

    /// Untraced: serves the stream until the budget is spent, reporting
    /// end-to-end metrics. Traced: serves it untraced, traced and with one
    /// evaluation worker, and replays it, reporting per-layer metrics;
    /// this fixed sequence ignores the budget.
    pub fn run(&self, budget: Budget, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        match if traced {
            self.run_traced(&mut out)
        } else {
            self.run_plain(&mut out, budget)
        } {
            Ok(()) => {}
            Err(e) => {
                out.attempted += self.kind.sessions() as u64;
                out.failed += self.kind.sessions() as u64;
                out.problems.push(format!("serve failed: {e}"));
            }
        }
        out
    }

    fn run_plain(&self, out: &mut Outcome, budget: Budget) -> Result<(), EntkError> {
        let mut setups = Vec::new();
        let mut passes = Vec::new();
        let mut first: Option<ServeStats> = None;
        loop {
            for _ in 0..SETUPS_PER_PASS {
                let log = Arc::new(Mutex::new(PullLog::default()));
                let t0 = Instant::now();
                let engine = self.engine(self.workers, &log, false)?;
                setups.push(t0.elapsed());
                drop(engine);
            }
            let p = self.serve(self.workers, false)?;
            if !self.check(out, &p, first.as_ref()) {
                return Ok(());
            }
            setups.push(p.setup);
            passes.push(p.pass());
            first.get_or_insert(p.stats);
            let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
            if !budget.fits(median(&walls).unwrap_or(0.0) * 1.1) {
                break;
            }
        }
        out.summarize(&setups, &passes);
        Ok(())
    }

    fn run_traced(&self, out: &mut Outcome) -> Result<(), EntkError> {
        let plain = self.serve(self.workers, false)?;
        self.check(out, &plain, None);
        let traced = self.serve(self.workers, true)?;
        self.check(out, &traced, Some(&plain.stats));
        let eval_ms = self.replay(out, &traced)?.as_secs_f64() * 1e3;
        let single = self.serve(1, false)?;
        self.check(out, &single, Some(&plain.stats));

        let s = &traced.stats;
        out.set_ms("workload.source.busy_ms", traced.pulls.busy);
        out.set("workload.source.pulls", traced.pulls.at.len() as f64);
        out.set_ms("workload.sink.busy_ms", traced.sink.busy);
        out.set("workload.sink.bytes", traced.sink.bytes as f64);
        out.set("workload.sink.lines", traced.sink.lines as f64);
        out.set(
            "workload.peak_resident_sessions",
            s.peak_resident_sessions as f64,
        );
        out.set("workload.admission.rejected", s.rejected_sessions as f64);
        let pulled = traced.pulls.at.len().max(1) as f64;
        out.set(
            "workload.eval.useful_frac",
            (s.sessions - s.rejected_sessions) as f64 / pulled,
        );
        out.set(
            "workload.eval.parallel_eff",
            eval_ms / (self.workers as f64 * plain.wall.as_secs_f64() * 1e3),
        );
        out.set(
            "workload.engine.excess_ms",
            single.wall.as_secs_f64() * 1e3 - eval_ms,
        );
        let latency_tail = tail(&plain.latencies_ms()).expect("a serve emits records");
        out.set("workload.record_latency_tail_ms", latency_tail.value);
        out.set("proc.user_cpu_s", plain.proc.user_s);
        out.set("proc.sys_cpu_s", plain.proc.sys_s);
        out.set("proc.ctx_switches", plain.proc.ctx_switches as f64);
        out.set(
            "bench.trace_overhead_ms",
            (traced.wall.as_secs_f64() - plain.wall.as_secs_f64()) * 1e3,
        );
        out.notes.push(format!(
            "serve walls: untraced {:.3} s, traced {:.3} s, 1 worker {:.3} s; replay eval busy {:.3} s",
            plain.wall.as_secs_f64(),
            traced.wall.as_secs_f64(),
            single.wall.as_secs_f64(),
            eval_ms / 1e3
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_consecutive_records_and_time_from_the_last_emission() {
        let start = Instant::now();
        let at_ms = [100u64, 300, 400, 1000, 1500];
        let emitted: Vec<Emission> = at_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| Emission {
                session: i,
                tasks: i as u64 + 1,
                at: start + Duration::from_millis(ms),
            })
            .collect();
        let latencies = [5.0, 1.0, 3.0, 8.0, 2.0];
        let w = windows(start, &emitted, &latencies, 2);
        assert_eq!(w.len(), 3);
        let got: Vec<(f64, u64, u64, f64)> = w
            .iter()
            .map(|w| (w.secs, w.tasks, w.sessions, w.latency_p50_ms))
            .collect();
        assert_eq!(got, [(0.3, 3, 2, 3.0), (0.7, 7, 2, 5.5), (0.5, 5, 1, 2.0)]);
        assert!(windows(start, &[], &[], 2).is_empty());
    }
}
