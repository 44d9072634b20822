//! In-memory host-time spans around the calls the benchmark makes into
//! each layer, exported as Chrome trace-event JSON when the run ends.
//!
//! Every span carries the id of the op it belongs to (the arrival index on
//! `svc_*`, the experiment index on `repro`, the schedule index on
//! `chaos_hunt`) and the name of its parent span, so a viewer can group
//! one arrival's live spans with the replayed spans it caused.

use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `service.submit`.
    pub name: &'static str,
    /// The parent span's name (`cell`, `pass` for roots).
    pub parent: &'static str,
    /// The op this span belongs to.
    pub id: u64,
    /// Trace lane: 1 = live loop, 2.. = one replay layer each.
    pub lane: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Collects spans up to a fixed budget (the export stays small; the
/// ledger's accumulators see every call regardless).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    budget: usize,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder keeping at most `budget` spans.
    pub fn new(budget: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            budget,
            spans: Vec::new(),
        }
    }

    /// Records the span `[start, end)` if the budget allows.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.budget {
            return;
        }
        self.spans.push(Span {
            name,
            parent,
            id,
            lane,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    #[cfg(test)]
    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome trace-event document: one `"X"` event per span (times in
    /// microseconds), plus process and thread names for each lane.
    pub fn to_chrome_trace(&self, workload: &str, lanes: &[&str]) -> String {
        let mut events = vec![format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"perfbench {workload}\"}}}}"
        )];
        for (i, lane) in lanes.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{lane}\"}}}}",
                i + 1
            ));
        }
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.lane,
                s.id,
                s.parent
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Validates `doc` with the repository's own trace validator and writes it
/// to `trace_<workload>.json` in the benchmark's output directory
/// (`$CARGO_TARGET_DIR/perfbench`, default `.bench_build/perfbench`).
/// Returns the written path.
pub fn export(workload: &str, doc: &str) -> Result<String, String> {
    let stats = lightwave_core::trace::validate::validate_chrome_trace(doc)?;
    if stats.complete == 0 {
        return Err("trace has no spans".into());
    }
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&base).join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_passes_the_repository_validator() {
        let mut r = Recorder::new(2);
        let t0 = Instant::now();
        r.record("arrival", "cell", 7, 1, t0, Instant::now());
        r.record("service.submit", "arrival", 7, 1, t0, Instant::now());
        r.record("dropped", "arrival", 7, 1, t0, Instant::now());
        assert_eq!(r.spans().len(), 2, "budget caps the recorder");
        let doc = r.to_chrome_trace("unit", &["live"]);
        let stats = lightwave_core::trace::validate::validate_chrome_trace(&doc).expect("valid");
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.metadata, 2);
        assert!(doc.contains("\"args\":{\"id\":7,\"parent\":\"arrival\"}"));
    }
}
