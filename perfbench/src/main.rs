//! The repository's standing benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload svc_production --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that gives the per-layer ledger, replays the
//! logged fabric transactions layer by layer, compares the output digest
//! with a `LIGHTWAVE_THREADS=2` run of the library's own driver, and
//! exports a Chrome trace. `--workload all` runs both for every workload.
//! The last line of a single-workload run is the JSON result; the exit
//! code is non-zero when any output check fails. See `README.md`.

mod chaos;
mod cpus;
mod metrics;
mod repro;
mod spans;
mod svc;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::{exit, Command, Stdio};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SvcProduction,
    SvcSingleCube,
    Repro,
    ChaosHunt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SvcProduction,
        Workload::SvcSingleCube,
        Workload::Repro,
        Workload::ChaosHunt,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcProduction => "svc_production",
            Workload::SvcSingleCube => "svc_single_cube",
            Workload::Repro => "repro",
            Workload::ChaosHunt => "chaos_hunt",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, seed: u64, seconds: f64, trace: bool) -> Outcome {
        let name = self.name();
        match (self, trace) {
            (Workload::SvcProduction, false) => svc::run(&svc::Spec::production(), seed, seconds),
            (Workload::SvcProduction, true) => {
                svc::run_traced(&svc::Spec::production(), seed, name)
            }
            (Workload::SvcSingleCube, false) => svc::run(&svc::Spec::single_cube(), seed, seconds),
            (Workload::SvcSingleCube, true) => {
                svc::run_traced(&svc::Spec::single_cube(), seed, name)
            }
            (Workload::Repro, false) => repro::run(seconds),
            (Workload::Repro, true) => repro::run_traced(seed, name),
            (Workload::ChaosHunt, false) => chaos::run(seed, seconds),
            (Workload::ChaosHunt, true) => chaos::run_traced(seed, name),
        }
    }

    /// The digest of the library's own driver for this workload, on the
    /// process's `LIGHTWAVE_THREADS` pool.
    fn library_digest(self, seed: u64) -> String {
        match self {
            Workload::SvcProduction => svc::library_digest(&svc::Spec::production(), seed),
            Workload::SvcSingleCube => svc::library_digest(&svc::Spec::single_cube(), seed),
            Workload::Repro => repro::library_digest(),
            Workload::ChaosHunt => chaos::library_digest(seed),
        }
    }
}

const USAGE: &str =
    "usage: perfbench --workload <svc_production|svc_single_cube|repro|chaos_hunt|all> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    /// `None` means every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest_only: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut digest_only = false;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if flag == "--digest-only" {
                digest_only = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if value == "all" => workload = Some(None),
                "--workload" => {
                    let w = Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?;
                    workload = Some(Some(w));
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            digest_only,
        })
    }
}

/// Runs this binary's library-driver digest for `workload` at
/// `LIGHTWAVE_THREADS=2` and requires it to equal `ours`.
pub fn check_digest_at_two_threads(out: &mut Outcome, workload: &str, seed: u64, ours: &str) {
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--digest-only",
            ])
            .env(lightwave_core::par::THREADS_ENV, "2")
            .stderr(Stdio::inherit())
            .output()
    });
    let theirs = match child {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .find_map(|l| l.strip_prefix("digest ").map(str::to_string))
            .unwrap_or_default(),
        Ok(o) => format!("<digest run failed: {}>", o.status),
        Err(e) => format!("<digest run did not start: {e}>"),
    };
    println!("digest at LIGHTWAVE_THREADS=2 (library driver): {theirs}");
    out.check(theirs == ours, || {
        format!("digest {ours} != {theirs} from the library driver at LIGHTWAVE_THREADS=2")
    });
}

/// Prints a ledger: each row's seconds and share of the traced wall time.
pub fn print_ledger(rows: &[(&str, f64)], wall: f64) {
    println!("ledger (traced live wall {wall:.6} s):");
    for (name, s) in rows {
        println!("  {name:<34} {s:>12.6} s {:>7.2}%", 100.0 * s / wall);
    }
}

/// Runs both modes of every workload as child processes; fails if any
/// child fails.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot locate own executable: {e}");
        exit(2)
    });
    let mut failed = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    trace,
                ])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{} --trace {trace}", w.name()));
            }
        }
    }
    if failed.is_empty() {
        println!("all workloads passed every output check");
        exit(0)
    }
    eprintln!("failed: {}", failed.join(", "));
    exit(1)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let Some(workload) = args.workload else {
        run_all(&args)
    };
    if args.digest_only {
        println!("digest {}", workload.library_digest(args.seed));
        return;
    }
    // Rates are per core: every measured run uses one worker.
    std::env::set_var(lightwave_core::par::THREADS_ENV, "1");
    println!(
        "== perfbench {} seed {} trace {} ==",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out = workload.run(args.seed, args.seconds, args.trace);
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", out.table(catalog));
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", out.json_line(catalog));
    if !out.correct() {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let raw: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        Args::parse(&raw)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload repro --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::Repro));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload all --seed 1")
            .expect("valid")
            .workload
            .is_none());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload repro --seed x").is_err());
        assert!(args("--workload repro --seed 1 --trace 2").is_err());
        assert!(args("--workload repro").is_err());
        assert!(args("--workload repro --seed 1 --seconds 0").is_err());
    }
}
