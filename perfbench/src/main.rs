//! midq wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpcd-reopt|sql-families|concurrent-skew> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! One run sets up the workload's database, drives it in a closed loop
//! for `--seconds`, checks every answer against an oracle, audits the
//! engine, and prints one `name = value unit` line per metric followed
//! by a JSON summary as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` records spans and
//! reports the per-layer metrics instead. `--tiny` shrinks every scale
//! for the benchmark's own self-test. The exit code is 0 only when
//! every answer matched its oracle and every audit was clean.

mod layers;
mod oracle;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Every size the workloads depend on, fixed per scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// TPC-D scale factor of tpcd-reopt.
    pub tpcd_sf: f64,
    /// TPC-D scale factor of concurrent-skew.
    pub skew_sf: f64,
    /// TPC-D scale factor of sql-families (smaller: its working set
    /// fits the buffer pool).
    pub sql_sf: f64,
    /// Data sets per run, each set up once; `setup_s` is the median
    /// set-up time.
    pub datasets: usize,
    /// Leading sql-families statements the simulated-cost and plan-cache
    /// counts are taken over, so they repeat exactly for one seed
    /// however many statements the wall clock allows.
    pub sql_prefix: u64,
    /// Repetitions of each per-layer probe (its median is reported).
    pub reps: usize,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            tpcd_sf: 0.012,
            skew_sf: 0.008,
            sql_sf: 0.004,
            datasets: 3,
            sql_prefix: 500,
            reps: 5,
        }
    }

    fn tiny() -> Scale {
        Scale {
            tpcd_sf: 0.002,
            skew_sf: 0.002,
            sql_sf: 0.001,
            datasets: 1,
            sql_prefix: 50,
            reps: 1,
        }
    }
}

/// What a run measured and whether it was correct.
#[derive(Debug, Default)]
pub struct Report {
    /// Statements issued.
    pub attempted: u64,
    /// Statements that errored or whose answer missed its oracle.
    pub failed: u64,
    /// Gate failures that are not statements: unclean audits and leaked
    /// broker bytes. Any of them fails the run.
    pub faults: Vec<String>,
    /// First few statement failures, for the log.
    pub errors: Vec<String>,
    /// Simulated-cost fingerprints that differed between identical
    /// set-ups of one seed.
    pub drift: Vec<String>,
    /// Informational `name = value` lines.
    pub notes: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, name: impl Into<String>, value: impl ToString) {
        self.notes.push((name.into(), value.to_string()));
    }

    /// Count one failed statement.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn fault(&mut self, what: String) {
        self.faults.push(what);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    /// The last line of standard output.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where runs leave snapshots and span files: inside the benchmark's
/// own directory, so a run writes nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::full();
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            scale = Scale::tiny();
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scale,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let run = match opts.workload.as_str() {
        "tpcd-reopt" => workloads::tpcd_reopt(&opts, &mut report),
        "sql-families" => workloads::sql_families(&opts, &mut report),
        "concurrent-skew" => workloads::concurrent_skew(&opts, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", opts.workload);
        return ExitCode::from(1);
    }
    if report.attempted == 0 {
        eprintln!("perfbench: {}: no statement ran", opts.workload);
        return ExitCode::from(1);
    }
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::from(1);
    }
    for (name, value) in &report.notes {
        println!("note   {name} = {value}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for d in &report.drift {
        println!("DRIFT  {d}");
    }
    for e in report.errors.iter().chain(&report.faults) {
        println!("FAILED {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
