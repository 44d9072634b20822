//! The metric catalog, the result line, and the small statistics every
//! workload shares.
//!
//! The catalog is the single list of metric names the benchmark prints;
//! `BENCHMARK.json` at the repository root declares the same list (a test
//! keeps the two equal). Every run prints every metric of its kind: a
//! layer a workload never reaches reads 0, which is the measurement (the
//! layer was not called), not a placeholder.

use crate::cpus::Rotation;
use std::collections::BTreeMap;
use std::time::Instant;

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`), host time.
/// An "op" is one arrival on `svc_*`, one experiment on `repro`, and one
/// fault schedule on `chaos_hunt`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("op_p50_us", "us", "lower"),
    m("op_p99_us", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, from the traced run (`--trace 1`). `*_s` is host
/// seconds over one pass of the workload's input; the rest are counts,
/// ratios, or sim-time figures as their unit says.
pub const PER_LAYER: &[Metric] = &[
    // service (svc_*): live loop, timed around each call
    m("service.arrival_gen_s", "s", "lower"),
    m("service.advance_to_s", "s", "lower"),
    m("service.submit_s", "s", "lower"),
    m("service.drain_s", "s", "lower"),
    m("service.self_s", "s", "lower"),
    m("service.admitted", "count", "higher"),
    m("service.preempted", "count", "lower"),
    m("service.completed", "count", "higher"),
    m("service.rejected", "count", "lower"),
    m("service.admits_per_completion", "ratio", "lower"),
    m("service.admit_wait_p99_ms", "ms", "lower"),
    m("service.goodput_ratio", "ratio", "higher"),
    m("service.blocking_ratio", "ratio", "lower"),
    m("request_p999_us", "us", "lower"),
    m("request_samples", "count", "higher"),
    // superpod (svc_*): replayed from the logged ops
    m("superpod.new_s", "s", "lower"),
    m("superpod.compose_s", "s", "lower"),
    m("superpod.release_s", "s", "lower"),
    m("superpod.advance_s", "s", "lower"),
    m("superpod.self_s", "s", "lower"),
    m("superpod.composes", "count", "higher"),
    m("superpod.releases", "count", "higher"),
    // fabric (svc_*): replayed from each logged CommitReport
    m("fabric.commit_delta_s", "s", "lower"),
    m("fabric.advance_s", "s", "lower"),
    m("fabric.self_s", "s", "lower"),
    m("fabric.switches_touched", "count", "lower"),
    m("fabric.circuits_added", "count", "lower"),
    m("fabric.circuits_removed", "count", "lower"),
    // ocs (svc_*): replayed per switch
    m("ocs.apply_delta_s", "s", "lower"),
    m("ocs.advance_s", "s", "lower"),
    m("ocs.alignments", "count", "lower"),
    // telemetry (svc_*)
    m("telemetry.scope_observe_s", "s", "lower"),
    m("telemetry.campus_observe_s", "s", "lower"),
    m("telemetry.scrape_s", "s", "lower"),
    m("telemetry.events_folded", "count", "higher"),
    // repro: one span per experiment, plus the two kernels that dominate
    m("repro.fig10a_s", "s", "lower"),
    m("repro.fig10b_s", "s", "lower"),
    m("repro.fig11_s", "s", "lower"),
    m("repro.fig12_s", "s", "lower"),
    m("repro.fig13_s", "s", "lower"),
    m("repro.tab1_s", "s", "lower"),
    m("repro.tab2_s", "s", "lower"),
    m("repro.fig15a_s", "s", "lower"),
    m("repro.fig15b_s", "s", "lower"),
    m("repro.dcn1_s", "s", "lower"),
    m("repro.dcn2_s", "s", "lower"),
    m("repro.tabc1_s", "s", "lower"),
    m("repro.sched1_s", "s", "lower"),
    m("repro.deploy1_s", "s", "lower"),
    m("repro.ocs1_s", "s", "lower"),
    m("repro.ablate1_s", "s", "lower"),
    m("repro.ablate2_s", "s", "lower"),
    m("repro.ablate3_s", "s", "lower"),
    m("repro.hybrid1_s", "s", "lower"),
    m("repro.future1_s", "s", "lower"),
    m("repro.campus1_s", "s", "lower"),
    m("repro.timeline1_s", "s", "lower"),
    m("repro.refresh1_s", "s", "lower"),
    m("fec.inner_threshold_s", "s", "lower"),
    m("fec.inner_blocks", "count", "higher"),
    m("scheduler.pooled_s", "s", "lower"),
    m("scheduler.contiguous_s", "s", "lower"),
    m("scheduler.defrag_s", "s", "lower"),
    // chaos_hunt
    m("chaos.world_new_s", "s", "lower"),
    m("chaos.apply_check_s", "s", "lower"),
    m("chaos.events", "count", "higher"),
    m("chaos.composes", "count", "higher"),
    m("telemetry.alarms", "count", "higher"),
    m("trace.flight_dumps", "count", "higher"),
    // every workload
    m("unattributed_s", "s", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected by one run, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the catalog: a misspelt key would
    /// otherwise print as an unreached layer.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            find(name).is_some(),
            "metric {name:?} is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values.
    pub values: Values,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records an output check; a failing one makes the run incorrect
    /// (each distinct failure is kept once).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let problem = what();
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }

    /// The human-readable metric table for `catalog`.
    pub fn table(&self, catalog: &[Metric]) -> String {
        let mut out = String::new();
        for m in catalog {
            out.push_str(&format!(
                "  {:<34} {:>16} {}\n",
                m.name,
                fmt_num(self.values.get(m.name)),
                m.unit
            ));
        }
        out
    }

    /// The final result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics` (every metric of `catalog`).
    pub fn json_line(&self, catalog: &[Metric]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(self.values.get(m.name)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Nearest-rank quantile of an ascending-sorted sample (`q` in 0..=1).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A pass's host time cut into consecutive segments at fixed points of
/// its work (between two ops, say), so that segment `i` of every pass over
/// the same input covers the same work.
#[derive(Debug, Clone)]
pub struct Cuts {
    last: Instant,
    /// Seconds of each segment, in order.
    pub secs: Vec<f64>,
}

impl Cuts {
    /// Starts the first segment at `at`.
    pub fn new(at: Instant) -> Cuts {
        Cuts {
            last: at,
            secs: Vec::new(),
        }
    }

    /// Ends the current segment at `at` and starts the next one there.
    pub fn cut(&mut self, at: Instant) {
        self.secs
            .push(at.saturating_duration_since(self.last).as_secs_f64());
        self.last = at;
    }
}

/// Host measurements folded over passes that repeat identical work. The
/// shared machine can only slow a piece of work down, and it does so in
/// stretches that differ from CPU to CPU, so the fastest time of each
/// segment and of each op over the passes (which [`run_passes`] spreads
/// over the CPUs) is the least disturbed measurement of that piece. A
/// run's figures are built from those minima: a slow stretch moves them
/// only if it hits the same piece of work in every pass.
#[derive(Debug, Default)]
pub struct Fastest {
    /// Fastest seconds of each segment.
    segments: Vec<f64>,
    /// Fastest latency of each op in nanoseconds.
    lat: Vec<u64>,
    /// Each pass's ops per second, for the run's log.
    rates: Vec<f64>,
}

impl Fastest {
    /// Folds one pass: its segments, each op's latency in nanoseconds in
    /// `lat` (cleared for reuse), and its wall time.
    pub fn add(&mut self, segments: &[f64], lat: &mut Vec<u64>, wall: f64) -> Result<(), String> {
        let first = self.rates.is_empty();
        self.rates.push(lat.len().max(1) as f64 / wall);
        if !first && (segments.len() != self.segments.len() || lat.len() != self.lat.len()) {
            let e = format!(
                "pass {} has {} segments and {} ops, the first had {} and {}",
                self.rates.len(),
                segments.len(),
                lat.len(),
                self.segments.len(),
                self.lat.len()
            );
            lat.clear();
            return Err(e);
        }
        if first {
            self.segments = segments.to_vec();
            self.lat = std::mem::take(lat);
            return Ok(());
        }
        for (best, &s) in self.segments.iter_mut().zip(segments) {
            *best = best.min(s);
        }
        for (best, &l) in self.lat.iter_mut().zip(lat.iter()) {
            *best = (*best).min(l);
        }
        lat.clear();
        Ok(())
    }

    /// Passes folded so far.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Sets `ops_per_s` (ops over the sum of the fastest segments) and
    /// `op_p50_us` / `op_p99_us` (quantiles of the fastest op latencies).
    /// A pass that times no op of its own is one op, the whole pass: its
    /// latency is the sum of the fastest segments.
    pub fn finish(&self, v: &mut Values) {
        let total: f64 = self.segments.iter().sum();
        let (p50, p99) = if self.lat.is_empty() {
            (total * 1e6, total * 1e6)
        } else {
            let mut sorted = self.lat.clone();
            sorted.sort_unstable();
            (
                quantile(&sorted, 0.50) as f64 / 1e3,
                quantile(&sorted, 0.99) as f64 / 1e3,
            )
        };
        v.set("ops_per_s", self.lat.len().max(1) as f64 / total);
        v.set("op_p50_us", p50);
        v.set("op_p99_us", p99);
    }

    /// Each pass's rate, for the run's log.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// One pass over a workload's input, as [`run_passes`] sees it.
pub trait Pass {
    /// What the workload's users call `ops_per_s`, `op_p50_us` and
    /// `op_p99_us` (printed alongside them).
    const NAMES: [&'static str; 3];
    /// Host seconds the pass took.
    fn wall(&self) -> f64;
    /// The pass's host time in segments (see [`Cuts`]): the same number
    /// each pass, covering the same work.
    fn segments(&self) -> &[f64];
    /// Operations attempted (the unit `failed` counts).
    fn attempted(&self) -> u64;
    /// Operations that failed.
    fn failed(&self) -> u64;
    /// Digest of the simulated outputs.
    fn digest(&self) -> String;
    /// Records the pass's output checks.
    fn check(&self, out: &mut Outcome);
    /// Simulated figures, printed for the first pass.
    fn summary(&self) -> String;
}

/// The end-to-end run shared by every workload: passes over the
/// pre-generated input until `seconds` have elapsed (at least two), every
/// pass checked and its digest compared with the first pass's. `pass`
/// pushes each op's latency in nanoseconds, in the same order every pass;
/// the host figures are built from each segment's and op's fastest pass
/// (see [`Fastest`]), each pass on the next CPU in turn (see
/// [`crate::cpus`]).
pub fn run_passes<P: Pass>(
    setup_s: f64,
    seconds: f64,
    mut pass: impl FnMut(&mut Vec<u64>) -> P,
) -> Outcome {
    let mut out = Outcome::default();
    let mut fastest = Fastest::default();
    let mut lat = Vec::new();
    let mut wall = 0.0;
    let mut samples = 0;
    let mut first: Option<String> = None;
    let mut cpus = Rotation::new();
    while fastest.count() < 2 || wall < seconds {
        cpus.next();
        let p = pass(&mut lat);
        samples += lat.len();
        wall += p.wall();
        out.attempted += p.attempted();
        out.failed += p.failed();
        p.check(&mut out);
        if let Err(e) = fastest.add(p.segments(), &mut lat, p.wall()) {
            out.check(false, || e);
        }
        let d = p.digest();
        match &first {
            None => {
                println!("{}", p.summary());
                println!("digest {d}");
                first = Some(d);
            }
            Some(f) => out.check(*f == d, || {
                format!("pass {} digest {d} != {f}", fastest.count())
            }),
        }
    }
    drop(cpus);
    let v = &mut out.values;
    v.set("setup_s", setup_s);
    fastest.finish(v);
    v.set("peak_rss_mb", peak_rss_mb());
    let [rate, p50, p99] = P::NAMES;
    println!(
        "host: {rate} {:.4} 1/s | {p50} {:.3} us | {p99} {:.3} us | \
         fastest of {} passes per segment and op, {samples} latency samples; \
         {rate} per pass {:.1?}",
        v.get("ops_per_s"),
        v.get("op_p50_us"),
        v.get("op_p99_us"),
        fastest.count(),
        fastest.rates()
    );
    out
}

/// Times repeated set-ups until at least `repeats` have run and `seconds`
/// have passed, in blocks of an eighth of `seconds` (or of one set-up)
/// on each CPU in turn (see [`crate::cpus`]). Returns the median of the
/// set-ups on the CPU where that median is lowest. A run starts on a cold
/// core, so the repeats span enough time for the median to come from a
/// warm one.
pub fn time_setup(repeats: usize, seconds: f64, mut setup: impl FnMut()) -> f64 {
    const BLOCKS: f64 = 8.0;
    let mut cpus = Rotation::new();
    let mut times = vec![Vec::new(); cpus.count()];
    let start = Instant::now();
    let (mut count, mut turn, mut block_end) = (0, 0, 0.0);
    while count < repeats || start.elapsed().as_secs_f64() < seconds {
        if start.elapsed().as_secs_f64() >= block_end {
            cpus.next();
            turn += 1;
            block_end = start.elapsed().as_secs_f64() + seconds / BLOCKS;
        }
        let t = Instant::now();
        setup();
        let slot = (turn - 1) % times.len();
        times[slot].push(t.elapsed().as_secs_f64());
        count += 1;
    }
    times
        .into_iter()
        .filter(|t| !t.is_empty())
        .map(median)
        .fold(f64::INFINITY, f64::min)
}

/// Median of a small sample of seconds.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64-bit digest of simulated outputs, as 16 hex digits.
pub fn digest(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "illegal metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {:?}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(valid_name("repro.fig12_s"));
    }

    #[test]
    fn repro_metrics_cover_every_experiment() {
        for id in lightwave_bench::ALL_EXPERIMENTS {
            let name = format!("repro.{id}_s");
            assert!(find(&name).is_some(), "no per-layer metric for {id}");
        }
        let declared = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("repro."))
            .count();
        assert_eq!(declared, lightwave_bench::ALL_EXPERIMENTS.len());
    }

    struct Json(Content);

    impl<'de> serde::Deserialize<'de> for Json {
        fn from_content(content: &Content) -> Result<Json, serde::de::DeError> {
            Ok(Json(content.clone()))
        }
    }

    fn declared(doc: &Content, key: &str) -> Vec<(String, String, String)> {
        doc.field(key)
            .expect("key present")
            .as_seq(key)
            .expect("a list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.field(k).expect(k).as_str(k).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let Json(doc) = serde_json::from_str::<Json>(&text).expect("BENCHMARK.json parses");
        let ours = |c: &[Metric]| -> Vec<(String, String, String)> {
            c.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .field("workloads")
            .expect("workloads")
            .as_seq("workloads")
            .expect("a list")
            .iter()
            .map(|w| {
                w.field("name")
                    .expect("name")
                    .as_str("name")
                    .expect("str")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.values.set("ops_per_s", 1234.5);
        let line = o.json_line(END_TO_END);
        let Json(doc) = serde_json::from_str::<Json>(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map("result")
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str("key").expect("string key"))
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.field("metrics").expect("metrics");
        assert_eq!(
            metrics.as_map("metrics").expect("object").len(),
            END_TO_END.len()
        );
        o.check(false, || "broken".into());
        assert!(o.json_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn fastest_keeps_each_segment_and_op_minimum() {
        let mut f = Fastest::default();
        f.add(&[0.5, 0.25], &mut vec![300, 100], 1.0)
            .expect("first pass");
        f.add(&[0.25, 0.5], &mut vec![200, 400], 1.0)
            .expect("same shape");
        assert!(f.add(&[0.1], &mut vec![1, 1], 1.0).is_err());
        assert_eq!(f.count(), 3);
        let mut v = Values::default();
        f.finish(&mut v);
        assert_eq!(v.get("ops_per_s"), 2.0 / 0.5);
        assert_eq!(v.get("op_p50_us"), 0.1);
        assert_eq!(v.get("op_p99_us"), 0.2);

        // A pass that times no op of its own is one op: the whole pass.
        let mut whole = Fastest::default();
        whole.add(&[2.0, 1.0], &mut Vec::new(), 3.0).expect("first");
        whole
            .add(&[1.0, 2.0], &mut Vec::new(), 3.0)
            .expect("second");
        whole.finish(&mut v);
        assert_eq!(v.get("ops_per_s"), 0.5);
        assert_eq!(v.get("op_p50_us"), 2e6);
    }

    #[test]
    fn setup_runs_its_repeats_and_reports_a_median() {
        let mut calls = 0;
        let s = time_setup(5, 0.0, || {
            calls += 1;
            std::hint::black_box((0..1_000u64).sum::<u64>());
        });
        assert_eq!(calls, 5);
        assert!(s.is_finite() && s >= 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&xs, 1.0), 100);
        assert_eq!(quantile(&[7], 0.999), 7);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
