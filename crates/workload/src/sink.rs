//! Report sinks: named, pluggable destinations for a served stream's
//! outputs, selected from the spec file's `"sinks"` list through the
//! [`entk_core::Registry`] machinery — the last leg of "one spec file
//! drives any grid".
//!
//! Three built-ins:
//!
//! * `jsonl` — appends every session row to a file as it is finalized
//!   (the streaming JSONL shape of the out-of-core serve path, now
//!   spec-selectable).
//! * `gauges` — replays the admission timeline at a fixed virtual-time
//!   period and writes one `{"t", "queue_depth", "in_service"}` JSONL row
//!   per sample.
//! * `summary` — writes the aggregated [`WorkloadReport`] as pretty JSON
//!   when the stream completes.
//!
//! Sinks observe records in emission (arrival) order and are driven by
//! [`dispatch`]; everything they write is deterministic, so two runs of
//! the same spec produce byte-identical sink files (asserted by the
//! `registry-smoke` CI job).

use crate::runner::{
    push_gauge_events, GaugeEvent, SessionRecord, WorkloadOutcome, WorkloadReport,
};
use entk_core::{params_required, EntkError, Registry};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::OnceLock;

/// A destination for the served stream's outputs. A sink sees every
/// finalized session exactly once, in emission order, then the final
/// aggregated report.
pub trait ReportSink: Send {
    /// Registered plugin name (used in error messages).
    fn name(&self) -> &'static str;

    /// One finalized session: the rendered stream-JSONL line (trailing
    /// newline included) plus the typed record it was rendered from.
    fn on_record(&mut self, line: &str, record: &SessionRecord) -> Result<(), EntkError>;

    /// The stream completed; write any buffered output and flush.
    fn finish(&mut self, report: &WorkloadReport) -> Result<(), EntkError>;
}

fn io_err(sink: &str, path: &str, e: std::io::Error) -> EntkError {
    EntkError::Runtime(format!("{sink} sink: {path}: {e}"))
}

fn create(sink: &str, path: &str) -> Result<BufWriter<File>, EntkError> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| io_err(sink, path, e))
}

// ------------------------------------------------------------------ jsonl

/// Streams session rows to a file as they are emitted.
pub struct JsonlSink {
    path: String,
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Opens (truncates) `path` for writing.
    pub fn create(path: impl Into<String>) -> Result<Self, EntkError> {
        let path = path.into();
        let out = create("jsonl", &path)?;
        Ok(JsonlSink { path, out })
    }
}

impl ReportSink for JsonlSink {
    fn name(&self) -> &'static str {
        "jsonl"
    }

    fn on_record(&mut self, line: &str, _record: &SessionRecord) -> Result<(), EntkError> {
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| io_err("jsonl", &self.path, e))
    }

    fn finish(&mut self, _report: &WorkloadReport) -> Result<(), EntkError> {
        self.out.flush().map_err(|e| io_err("jsonl", &self.path, e))
    }
}

// ----------------------------------------------------------------- gauges

/// Samples the queue-depth / in-service gauges every `period_secs` of
/// virtual time. Buffers at most three timeline steps per session, built
/// by the same function as the report's gauge series (exact microsecond
/// instants, ties finish → arrive → start), then renders the samples at
/// finish.
pub struct GaugesSink {
    path: String,
    out: BufWriter<File>,
    period_secs: f64,
    events: Vec<GaugeEvent>,
}

impl GaugesSink {
    /// Opens (truncates) `path`; samples every `period_secs` (> 0).
    pub fn create(path: impl Into<String>, period_secs: f64) -> Result<Self, EntkError> {
        if period_secs <= 0.0 || period_secs.is_nan() {
            return Err(EntkError::Usage(format!(
                "gauges sink: period_secs must be > 0, got {period_secs}"
            )));
        }
        let path = path.into();
        let out = create("gauges", &path)?;
        Ok(GaugesSink {
            path,
            out,
            period_secs,
            events: Vec::new(),
        })
    }
}

impl ReportSink for GaugesSink {
    fn name(&self) -> &'static str {
        "gauges"
    }

    fn on_record(&mut self, _line: &str, r: &SessionRecord) -> Result<(), EntkError> {
        push_gauge_events(&mut self.events, r);
        Ok(())
    }

    fn finish(&mut self, _report: &WorkloadReport) -> Result<(), EntkError> {
        self.events.sort_unstable();
        let period_us = (self.period_secs * 1e6).round().max(1.0) as u64;
        let (mut queued, mut running) = (0i64, 0i64);
        let mut next_tick = 0u64;
        let write_sample = |out: &mut BufWriter<File>, t_us: u64, q: i64, r: i64| {
            writeln!(
                out,
                "{{\"t\":{:.6},\"queue_depth\":{q},\"in_service\":{r}}}",
                t_us as f64 / 1e6
            )
        };
        for &(t, _, dq, dr) in &self.events {
            while next_tick < t {
                write_sample(&mut self.out, next_tick, queued, running)
                    .map_err(|e| io_err("gauges", &self.path, e))?;
                next_tick += period_us;
            }
            queued += dq;
            running += dr;
        }
        // One closing sample at the first tick at/after the last event, so
        // the series always ends back at zero depth.
        write_sample(&mut self.out, next_tick, queued, running)
            .map_err(|e| io_err("gauges", &self.path, e))?;
        self.out
            .flush()
            .map_err(|e| io_err("gauges", &self.path, e))
    }
}

// ---------------------------------------------------------------- summary

/// Writes the aggregated report as pretty JSON when the stream completes.
pub struct SummarySink {
    path: String,
    out: BufWriter<File>,
}

impl SummarySink {
    /// Opens (truncates) `path` for writing.
    pub fn create(path: impl Into<String>) -> Result<Self, EntkError> {
        let path = path.into();
        let out = create("summary", &path)?;
        Ok(SummarySink { path, out })
    }
}

impl ReportSink for SummarySink {
    fn name(&self) -> &'static str {
        "summary"
    }

    fn on_record(&mut self, _line: &str, _record: &SessionRecord) -> Result<(), EntkError> {
        Ok(())
    }

    fn finish(&mut self, report: &WorkloadReport) -> Result<(), EntkError> {
        let text = serde_json::to_string_pretty(report)
            .map_err(|e| EntkError::Runtime(format!("summary sink: {e}")))?;
        self.out
            .write_all(text.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .map_err(|e| io_err("summary", &self.path, e))
    }
}

// --------------------------------------------------------------- registry

/// Params of the `jsonl` and `summary` sink plugins.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PathParams {
    /// Output file path (created / truncated).
    path: String,
}

/// Params of the `gauges` sink plugin.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GaugesParams {
    /// Output file path (created / truncated).
    path: String,
    /// Virtual-time sampling period, seconds.
    #[serde(default = "default_period_secs")]
    period_secs: f64,
}

fn default_period_secs() -> f64 {
    60.0
}

/// The report-sink registry: every name a spec file's `"sinks"` list can
/// select. All built-ins require a `path` param, so there is no default
/// construction — an omitted params block is a usage error naming the sink.
pub fn sinks() -> &'static Registry<Box<dyn ReportSink>> {
    static TABLE: OnceLock<Registry<Box<dyn ReportSink>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r: Registry<Box<dyn ReportSink>> = Registry::new("report sink");
        r.register("jsonl", |_: &(), params| {
            let p: PathParams = params_required("report sink", "jsonl", params)?;
            Ok(Box::new(JsonlSink::create(p.path)?) as Box<dyn ReportSink>)
        });
        r.register("gauges", |_: &(), params| {
            let p: GaugesParams = params_required("report sink", "gauges", params)?;
            Ok(Box::new(GaugesSink::create(p.path, p.period_secs)?) as Box<dyn ReportSink>)
        });
        r.register("summary", |_: &(), params| {
            let p: PathParams = params_required("report sink", "summary", params)?;
            Ok(Box::new(SummarySink::create(p.path)?) as Box<dyn ReportSink>)
        });
        r
    })
}

/// Drives a served [`WorkloadOutcome`] through a set of sinks: every
/// record with its stream line from `outcome.jsonl`, in emission order,
/// then the report. Each line is the record's exact emitted bytes, so
/// sink output replays exactly.
pub fn dispatch(
    outcome: &WorkloadOutcome,
    sinks: &mut [Box<dyn ReportSink>],
) -> Result<(), EntkError> {
    let lines = outcome.jsonl.split_inclusive('\n');
    for (line, record) in lines.zip(&outcome.report.records) {
        for sink in sinks.iter_mut() {
            sink.on_record(line, record)?;
        }
    }
    for sink in sinks.iter_mut() {
        sink.finish(&outcome.report)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::WorkloadGenerator;
    use crate::trace::SyntheticTrace;
    use crate::{ServiceConfig, ServiceEngine, WorkloadConfig};
    use entk_core::ComponentSpec;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("entk-sink-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn outcome() -> WorkloadOutcome {
        let arrivals = SyntheticTrace::new(7, 6, 2).generate().unwrap();
        ServiceEngine::new(
            ServiceConfig::fifo(WorkloadConfig {
                slots: 2,
                ..WorkloadConfig::default()
            }),
            &arrivals,
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn jsonl_sink_replays_the_stream_bytes() {
        let out = outcome();
        let path = tmp("rows.jsonl");
        let mut sinks: Vec<Box<dyn ReportSink>> = vec![Box::new(JsonlSink::create(&path).unwrap())];
        dispatch(&out, &mut sinks).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, out.jsonl);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gauges_sink_samples_periodically_and_ends_drained() {
        let out = outcome();
        let path = tmp("gauges.jsonl");
        let mut sinks: Vec<Box<dyn ReportSink>> =
            vec![Box::new(GaugesSink::create(&path, 30.0).unwrap())];
        dispatch(&out, &mut sinks).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("t").is_some() && v.get("queue_depth").is_some());
        }
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["queue_depth"].as_i64(), Some(0));
        assert_eq!(last["in_service"].as_i64(), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_sink_writes_the_report_json() {
        let out = outcome();
        let path = tmp("summary.json");
        let mut sinks: Vec<Box<dyn ReportSink>> =
            vec![Box::new(SummarySink::create(&path).unwrap())];
        dispatch(&out, &mut sinks).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["sessions"].as_u64(), Some(out.report.sessions as u64));
        assert_eq!(v["stream_fp"].as_str(), Some(out.report.stream_fp.as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_registry_requires_params_and_lists_names() {
        let err = match sinks().build(&ComponentSpec::named("jsonl"), &()) {
            Err(e) => e,
            Ok(_) => panic!("params required"),
        };
        assert!(err.to_string().contains("requires params"), "{err}");
        let err = match sinks().build(&ComponentSpec::named("csv"), &()) {
            Err(e) => e,
            Ok(_) => panic!("unknown sink"),
        };
        let msg = err.to_string();
        for name in ["gauges", "jsonl", "summary"] {
            assert!(msg.contains(name), "{msg}");
        }
    }
}
