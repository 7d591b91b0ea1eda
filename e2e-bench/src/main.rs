//! End-to-end benchmark of the CBMA reproduction, with a per-layer cost
//! ledger.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload round_4tag --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three closed-loop workloads (see README.md): `round_4tag`,
//! `rx_stream_10tag` and `campaign_fast`. With `--trace 0` a run prints
//! the end-to-end metrics; with `--trace 1` it prints the per-layer
//! ledger and writes a Perfetto trace of the benchmark's own spans. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The benchmark only calls public APIs of the `cbma` facade,
//! `cbma_bench` and `cbma_harness`; layers are timed by spans wrapped
//! around calls into them, never by instrumentation inside the crates.

mod campaign;
mod ledger;
mod round;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cbma::obs::json::JsonValue;

/// End-to-end metrics, printed by every `--trace 0` run: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("captures_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("fer", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run: (name, unit). A
/// layer a workload does not exercise reports 0 (see README.md).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("tag.transmit_us", "us"),
    ("tag.frames", "count"),
    ("channel.noise_us", "us"),
    ("channel.interference_us", "us"),
    ("channel.excitation_us", "us"),
    ("channel.fading_us", "us"),
    ("channel.delay_us", "us"),
    ("channel.mix_us", "us"),
    ("channel.combine_us", "us"),
    ("channel.samples", "count"),
    ("rx.receive_us", "us"),
    ("rx.frame_sync_us", "us"),
    ("rx.user_detect_us", "us"),
    ("rx.decode_us", "us"),
    ("rx.candidates", "count"),
    ("rx.decode_failures", "count"),
    ("rx.aliases_suppressed", "count"),
    ("rx.decode_yield", "ratio"),
    ("rx.runtime.busy_share", "ratio"),
    ("rx.runtime.steal_rate", "ratio"),
    ("rx.runtime.parks", "count"),
    ("rx.runtime.park_ms", "ms"),
    ("rx.runtime.stage_run_us_p50", "us"),
    ("rx.runtime.stage_wait_us_p50", "us"),
    ("sim.round_us", "us"),
    ("sim.unattributed_us", "us"),
    ("sim.unattributed_share", "ratio"),
    ("sim.ledger_closure", "ratio"),
    ("mac.power_control_s", "s"),
    ("harness.build_s", "s"),
    ("harness.point_s_p50", "s"),
    ("harness.point_s_max", "s"),
    ("harness.worker_busy_share", "ratio"),
    ("harness.manifest_ms", "ms"),
    ("harness.retries", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Where results, Perfetto traces and campaign checkpoints go, relative
/// to the directory the benchmark runs from.
pub const OUT_DIR: &str = ".e2e_out";

/// Workload names, in the order `--help` lists them.
const WORKLOADS: [&str; 3] = ["round_4tag", "rx_stream_10tag", "campaign_fast"];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Host facts recorded beside every number.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// CPUs available to this process.
    pub cpus: usize,
}

impl Host {
    fn detect() -> Host {
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (rounds, captures or campaign runs).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Worker threads the workload started (1 for the single-client
    /// round loop).
    pub workers: usize,
    /// Metric values by name (units come from the catalogs above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures for the detail file and the human-readable lines
    /// (quartiles, sample counts, per-workload figures such as `sim_rtf`).
    pub extras: BTreeMap<String, f64>,
    /// Correctness findings, one line each.
    pub problems: Vec<String>,
    /// Other lines for the human-readable output (artifact paths).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a failed check: counts it and keeps the first few reasons.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

fn usage() -> String {
    format!(
        "usage: cbma-e2e-bench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; valid: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed takes a u64, got {value:?}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=600, got {value:?}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Creates (if needed) and returns the output directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// Runs a set-up closure `reps` times and returns the value of the last
/// repetition with the median duration and every duration. Set-up is
/// repeated because a single cold set-up reads differently from run to
/// run.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous value first so repetitions start from the
        // same memory state.
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let median = stats::median(&times);
    (last.expect("at least one set-up"), median, times)
}

/// `{"<name>": {"value": v, "unit": u}, ...}` over a metric catalog.
fn metrics_json(catalog: &[(&str, &str)], result: &RunResult) -> JsonValue {
    let mut metrics = BTreeMap::new();
    for &(name, unit) in catalog {
        let mut m = BTreeMap::new();
        m.insert("value".to_string(), JsonValue::Float(result.metrics[name]));
        m.insert("unit".to_string(), JsonValue::Str(unit.to_string()));
        metrics.insert(name.to_string(), JsonValue::Object(m));
    }
    JsonValue::Object(metrics)
}

fn write_detail(
    args: &Args,
    host: Host,
    result: &RunResult,
    catalog: &[(&str, &str)],
    path: &Path,
) {
    let extras = result
        .extras
        .iter()
        .map(|(k, &v)| (k.clone(), JsonValue::Float(v)))
        .collect();
    let mut o = BTreeMap::new();
    o.insert("workload".into(), JsonValue::Str(args.workload.clone()));
    o.insert("seed".into(), JsonValue::UInt(args.seed));
    o.insert("seconds".into(), JsonValue::UInt(args.seconds.as_secs()));
    o.insert("trace".into(), JsonValue::Bool(args.trace));
    o.insert("cpus".into(), JsonValue::UInt(host.cpus as u64));
    o.insert("workers".into(), JsonValue::UInt(result.workers as u64));
    o.insert("attempted".into(), JsonValue::UInt(result.attempted));
    o.insert("failed".into(), JsonValue::UInt(result.failed));
    o.insert("metrics".into(), metrics_json(catalog, result));
    o.insert("extras".into(), JsonValue::Object(extras));
    let problems = result
        .problems
        .iter()
        .map(|p| JsonValue::Str(p.clone()))
        .collect();
    o.insert("problems".into(), JsonValue::Array(problems));
    let mut text = JsonValue::Object(o).to_json();
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let mut result = match args.workload.as_str() {
        "round_4tag" => round::run(&args),
        "rx_stream_10tag" => stream::run(&args, host),
        "campaign_fast" => campaign::run(&args, host),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    assert!(
        result.workers <= host.cpus,
        "{} started {} workers on {} CPUs",
        args.workload,
        result.workers,
        host.cpus
    );
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in result.metrics.keys() {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalog"
        );
    }
    for &(name, _) in catalog {
        // Per-layer metrics of a layer this workload does not run read 0;
        // every end-to-end metric must have been measured.
        if args.trace {
            result.metrics.entry(name).or_insert(0.0);
        } else {
            assert!(result.metrics.contains_key(name), "{name} was not measured");
        }
    }

    let detail = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    write_detail(&args, host, &result, catalog, &detail);

    println!(
        "# workload={} seed={} seconds={} trace={} cpus={} workers={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        host.cpus,
        result.workers
    );
    for &(name, unit) in catalog {
        println!("{name:<32} {:>16.6} {unit}", result.metrics[name]);
    }
    for (name, value) in &result.extras {
        println!("# {name} = {value}");
    }
    for note in &result.notes {
        println!("# {note}");
    }
    for problem in &result.problems {
        println!("# FAILED: {problem}");
    }
    println!("# detail: {}", detail.display());

    let mut o = BTreeMap::new();
    o.insert(
        "correct".to_string(),
        JsonValue::Bool(result.failed == 0 && result.attempted > 0),
    );
    o.insert(
        "attempted".to_string(),
        JsonValue::UInt(result.attempted.max(1)),
    );
    o.insert("failed".to_string(), JsonValue::UInt(result.failed));
    o.insert("metrics".to_string(), metrics_json(catalog, &result));
    println!("{}", JsonValue::Object(o).to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.as_object().expect("an object")[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("a metric object");
                let field = |k: &str| m[k].as_str().expect("a string").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(catalog(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(catalog(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(args("--workload round_4tag --seed 1 --seconds 20 --trace 0").is_ok());
        assert!(args("--workload nope --seed 1 --seconds 20 --trace 0").is_err());
        assert!(args("--workload round_4tag --seed x --seconds 20 --trace 0").is_err());
        assert!(args("--workload round_4tag --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload round_4tag --seed 1 --seconds 20 --trace 2").is_err());
        assert!(args("--workload round_4tag --seed 1 --seconds 20").is_err());
        assert!(args("--workload round_4tag --seed 1 --seconds 20 --trace 0 --extra 1").is_err());
    }
}
