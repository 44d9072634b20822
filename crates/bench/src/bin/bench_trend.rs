//! Cross-PR throughput trajectory → a markdown table.
//!
//! Every perf PR pins a `BENCH_PR<N>.json` at the repo root: the early
//! ones in per-binary schemas (`lightwave/bench-prN/v1`, frozen history),
//! later ones as a `lightwave/bench/v1` report of the `bench` binary.
//! This tool merges them into one pivot table — rows are workload ids,
//! columns are PRs — so a regression that creeps in across PRs (each one
//! individually under its own gate) is visible at a glance. The table
//! is pinned as a regenerable block in `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run -p lightwave-bench --release --bin bench_trend            # stdout
//! cargo run -p lightwave-bench --release --bin bench_trend -- --out t # file
//! ```
//!
//! Caveat printed with the table: the per-PR numbers are wall-clock
//! measurements from *different* runs (possibly different machines),
//! so the trajectory is indicative; the enforced gates (the `bench`
//! report's `gates` table) are in-run ratios and are the numbers that
//! hard-fail.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The schema tag, read first to pick a parser.
#[derive(Debug, Deserialize)]
struct SchemaOnly {
    /// `lightwave/bench-prN/v1` or `lightwave/bench/v1`.
    schema: String,
}

/// `lightwave/bench-pr2/v1` workload: serial rate plus a parallel sweep.
#[derive(Debug, Deserialize)]
struct Pr2Workload {
    id: String,
    unit: String,
    serial_per_sec: f64,
}

/// `lightwave/bench-pr2/v1` file shape.
#[derive(Debug, Deserialize)]
struct Pr2File {
    workloads: Vec<Pr2Workload>,
}

/// Flat workload (every later schema): one wall-clock rate.
#[derive(Debug, Deserialize)]
struct FlatWorkload {
    id: String,
    unit: String,
    per_sec: f64,
}

/// Flat file shape (`lightwave/bench-pr5/v1` onward, `lightwave/bench/v1`).
#[derive(Debug, Deserialize)]
struct FlatFile {
    workloads: Vec<FlatWorkload>,
}

/// One parsed benchmark file.
struct PrBench {
    pr: u32,
    /// (workload id, unit, rate) in file order.
    rows: Vec<(String, String, f64)>,
}

fn parse(pr: u32, text: &str) -> Result<PrBench, String> {
    let tag: SchemaOnly =
        serde_json::from_str(text).map_err(|e| format!("BENCH_PR{pr}: no schema tag: {e}"))?;
    let rows = if tag.schema.starts_with("lightwave/bench-pr2/") {
        let f: Pr2File =
            serde_json::from_str(text).map_err(|e| format!("BENCH_PR{pr}: pr2 shape: {e}"))?;
        f.workloads
            .into_iter()
            .map(|w| (w.id, w.unit, w.serial_per_sec))
            .collect()
    } else {
        let f: FlatFile =
            serde_json::from_str(text).map_err(|e| format!("BENCH_PR{pr}: flat shape: {e}"))?;
        f.workloads
            .into_iter()
            .map(|w| (w.id, w.unit, w.per_sec))
            .collect()
    };
    Ok(PrBench { pr, rows })
}

fn human(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

fn render(benches: &[PrBench]) -> String {
    // Row order: first PR that reported a workload wins its position.
    let mut order: Vec<String> = Vec::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut cells: BTreeMap<(String, u32), f64> = BTreeMap::new();
    for b in benches {
        for (id, unit, rate) in &b.rows {
            if !order.contains(id) {
                order.push(id.clone());
            }
            units.entry(id.clone()).or_insert_with(|| unit.clone());
            cells.insert((id.clone(), b.pr), *rate);
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | unit |{} trend |",
        benches
            .iter()
            .map(|b| format!(" PR{} |", b.pr))
            .collect::<String>()
    );
    let _ = writeln!(
        out,
        "|---|---|{} ---|",
        benches.iter().map(|_| "---:|").collect::<String>()
    );
    for id in &order {
        let _ = write!(out, "| `{id}` | {} |", units[id]);
        let mut seen: Vec<f64> = Vec::new();
        for b in benches {
            match cells.get(&(id.clone(), b.pr)) {
                Some(&rate) => {
                    seen.push(rate);
                    let _ = write!(out, " {} |", human(rate));
                }
                None => {
                    let _ = write!(out, " — |");
                }
            }
        }
        let trend = match (seen.first(), seen.last()) {
            (Some(&first), Some(&last)) if seen.len() > 1 && first > 0.0 => {
                format!("{:.2}x", last / first)
            }
            _ => "—".to_string(),
        };
        let _ = writeln!(out, " {trend} |");
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let mut benches = Vec::new();
    for pr in 1..=64u32 {
        let path = format!("BENCH_PR{pr}.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match parse(pr, &text) {
            Ok(b) => benches.push(b),
            Err(e) => eprintln!("skipping {path}: {e}"),
        }
    }
    if benches.is_empty() {
        eprintln!("no BENCH_PR*.json found in the current directory");
        std::process::exit(1);
    }

    let mut doc = String::from(
        "Throughput trajectory across PR-pinned benchmark artifacts \
         (wall-clock rates from separate runs — indicative, not gated; \
         `trend` = last / first reported):\n\n",
    );
    doc.push_str(&render(&benches));

    print!("{doc}");
    if let Some(p) = out_path {
        std::fs::write(&p, &doc).expect("write trend table");
        println!("\nwrote {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn every_pinned_record_parses_with_unique_rows() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut schemas = BTreeSet::new();
        for entry in std::fs::read_dir(&root).expect("read repo root") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            let Some(pr) = name
                .strip_prefix("BENCH_PR")
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            let pr: u32 = pr.parse().expect("BENCH_PR<N>.json");
            let text = std::fs::read_to_string(root.join(&*name)).expect("read record");
            let bench = parse(pr, &text).unwrap_or_else(|e| panic!("skipping {name}: {e}"));
            assert!(!bench.rows.is_empty(), "{name}: no workloads");
            let ids: BTreeSet<&str> = bench.rows.iter().map(|r| r.0.as_str()).collect();
            assert_eq!(ids.len(), bench.rows.len(), "{name}: repeated workload id");
            let tag: SchemaOnly = serde_json::from_str(&text).expect("schema tag");
            schemas.insert(tag.schema);
        }
        assert!(
            schemas.contains("lightwave/bench/v1"),
            "no record in the standing schema: {schemas:?}"
        );
    }
}
