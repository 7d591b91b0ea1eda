//! `campaign_fast`: `run_campaign` over the five built-in fast-tier
//! campaigns (fig8a, fig8b, fig9c, fig11, fig12), pass after pass, with
//! `workers = cpus` and checkpoints in a fresh directory per pass.
//!
//! Every point builder is wrapped: the wrapper times the build (engine
//! construction, plus Algorithm 1 power control in fig9c's `pc_on` arms)
//! and hands the engine a disabled event sink whose drop marks the end of
//! the job, since the harness drops each replicate's engine as soon as its
//! rounds are measured. A job is one (point, replicate); a point's time is
//! the sum of its replicates' jobs, which run back to back on one worker.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cbma::obs::{Event, Sink, SpanGuard, Tracer};
use cbma_harness::campaigns;
use cbma_harness::{
    run_campaign, Campaign, CampaignManifest, CampaignPoint, JobCtx, RunnerConfig, Tier,
};

use crate::stats::{describe, median, quantile, windowed_quantile};
use crate::{repeated_setup, Args, Host, RunResult};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run always times at least this many untraced passes, so the job
/// latency p95 has more than ten jobs beyond it.
const MIN_PASSES: usize = 3;
/// Span ring size for traced runs.
const TRACE_CAPACITY: usize = 1 << 14;

/// One finished job.
#[derive(Debug)]
struct JobRecord {
    campaign: &'static str,
    point: String,
    start: Instant,
    build: Duration,
    end: Instant,
}

type JobLog = Arc<Mutex<Vec<JobRecord>>>;

/// A sink that takes no events; dropping it (with its engine) logs the
/// job and closes the job's span.
#[derive(Debug)]
struct JobSink {
    record: Option<JobRecord>,
    span: Option<SpanGuard>,
    log: JobLog,
}

impl Sink for JobSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

impl Drop for JobSink {
    fn drop(&mut self) {
        if let Some(mut record) = self.record.take() {
            record.end = Instant::now();
            if let Ok(mut log) = self.log.lock() {
                log.push(record);
            }
        }
        drop(self.span.take());
    }
}

/// Wraps every point builder of `campaign` to log its jobs into `log`
/// (and record spans into `tracer`, when one is given).
fn instrument(campaign: &mut Campaign, log: &JobLog, tracer: &Option<Tracer>) {
    let name = campaign.name;
    let points = std::mem::take(&mut campaign.points);
    campaign.points = points
        .into_iter()
        .map(|point| wrap(name, point, log.clone(), tracer.clone()))
        .collect();
}

fn wrap(
    name: &'static str,
    point: CampaignPoint,
    log: JobLog,
    tracer: Option<Tracer>,
) -> CampaignPoint {
    let inner = point.builder;
    let label = point.label.clone();
    CampaignPoint {
        label: point.label,
        params: point.params,
        builder: Box::new(move |ctx: JobCtx| {
            let start = Instant::now();
            let span = tracer.as_ref().map(|t| {
                let mut span = t.span(t.new_trace(), None, "harness.job");
                span.set_arg(ctx.replicate as u64);
                span
            });
            let build_span = tracer
                .as_ref()
                .zip(span.as_ref())
                .map(|(t, job)| t.span(t.new_trace(), Some(job.id()), "harness.build"));
            let mut engine = inner(ctx);
            drop(build_span);
            let build = start.elapsed();
            engine.set_sink(Arc::new(JobSink {
                record: Some(JobRecord {
                    campaign: name,
                    point: label.clone(),
                    start,
                    build,
                    end: start,
                }),
                span,
                log: log.clone(),
            }));
            engine
        }),
    }
}

/// The five fast-tier campaigns, instrumented.
fn build_campaigns(log: &JobLog, tracer: &Option<Tracer>) -> Vec<Campaign> {
    let mut all = campaigns::all(Tier::Fast);
    for campaign in &mut all {
        instrument(campaign, log, tracer);
    }
    all
}

fn runner(seed: u64, workers: usize, checkpoints: Option<PathBuf>) -> RunnerConfig {
    RunnerConfig {
        workers,
        root_seed: seed,
        checkpoint_dir: checkpoints,
        live: None,
        streaming: None,
        ..RunnerConfig::default()
    }
}

/// Builds the campaigns and runs the first point of each once (one
/// replicate), so code tables, allocator arenas and worker threads exist
/// before timing.
fn setup(seed: u64, workers: usize, log: &JobLog) -> Vec<Campaign> {
    for mut warm in campaigns::all(Tier::Fast) {
        warm.points.truncate(1);
        warm.replicates = 1;
        run_campaign(&warm, &runner(seed, workers, None)).expect("warm-up campaign runs");
    }
    let built = build_campaigns(log, &None);
    log.lock().expect("job log lock").clear();
    built
}

/// Per-pass figures.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    campaign_wall_s: f64,
    rounds: u64,
    manifest_ms: Vec<f64>,
    jobs: Vec<JobRecord>,
}

fn run_pass(
    campaigns: &[Campaign],
    cfg_for: impl Fn(&str) -> RunnerConfig,
    log: &JobLog,
    tracer: &Option<Tracer>,
    manifests: &mut Vec<String>,
    result: &mut RunResult,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for campaign in campaigns {
        result.attempted += 1;
        let span = tracer
            .as_ref()
            .map(|t| t.span(t.new_trace(), None, "harness.campaign"));
        let t = Instant::now();
        let outcome = run_campaign(campaign, &cfg_for(campaign.name));
        pass.campaign_wall_s += t.elapsed().as_secs_f64();
        drop(span);
        let manifest: CampaignManifest = match outcome {
            Ok(m) => m,
            Err(e) => {
                result.fail(format!("{}: {e}", campaign.name));
                manifests.push(String::new());
                continue;
            }
        };
        let t = Instant::now();
        let json = manifest.to_json();
        pass.manifest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.rounds += manifest.points.iter().map(|p| p.totals.rounds).sum::<u64>();
        manifests.push(json);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.jobs = std::mem::take(&mut *log.lock().expect("job log lock"));
    pass
}

/// Frame error rate over every point of every manifest.
fn manifests_fer(manifests: &[String]) -> f64 {
    let (mut sent, mut delivered) = (0u64, 0u64);
    for json in manifests {
        if let Ok(m) = CampaignManifest::from_json(json) {
            for p in &m.points {
                sent += p.totals.frames_sent;
                delivered += p.totals.frames_delivered;
            }
        }
    }
    1.0 - delivered as f64 / sent.max(1) as f64
}

fn remove_dir(path: &Path) {
    if path.exists() {
        if let Err(e) = std::fs::remove_dir_all(path) {
            eprintln!("warning: could not remove {}: {e}", path.display());
        }
    }
}

pub fn run(args: &Args, host: Host) -> RunResult {
    let workers = host.cpus;
    let mut result = RunResult {
        workers,
        ..RunResult::default()
    };
    let log: JobLog = Arc::new(Mutex::new(Vec::new()));
    let (campaigns, setup_s, setup_times) =
        repeated_setup(SETUP_REPS, || setup(args.seed, workers, &log));
    // Traced passes run a second, span-recording copy of the campaigns.
    let tracer = args.trace.then(|| Tracer::new(TRACE_CAPACITY));
    let traced_campaigns = tracer.as_ref().map(|_| build_campaigns(&log, &tracer));
    let expected_jobs: usize = campaigns
        .iter()
        .map(|c| c.points.len() * c.replicates)
        .sum();

    let root = crate::out_dir().join(format!("campaign-checkpoints-{}", std::process::id()));
    let mut reference: Option<Vec<String>> = None;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // Read after the fixed minimum work, so a faster build that fits more
    // passes into the time does not read as a memory change.
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut index = 0usize;
    loop {
        let enough = if args.trace {
            !plain.is_empty() && !traced.is_empty()
        } else {
            plain.len() >= MIN_PASSES
        };
        if enough && start.elapsed() >= args.seconds {
            break;
        }
        let trace_this = args.trace && index % 2 == 1;
        let dir = root.join(format!("pass-{index}"));
        let cfg_for = |name: &str| runner(args.seed, workers, Some(dir.join(name)));
        let mut manifests = Vec::new();
        let pass = match (&traced_campaigns, trace_this) {
            (Some(list), true) => {
                run_pass(list, cfg_for, &log, &tracer, &mut manifests, &mut result)
            }
            _ => run_pass(
                &campaigns,
                cfg_for,
                &log,
                &None,
                &mut manifests,
                &mut result,
            ),
        };
        remove_dir(&dir);
        match &reference {
            None => reference = Some(manifests),
            Some(first) => {
                for (campaign, (a, b)) in campaigns.iter().zip(first.iter().zip(&manifests)) {
                    if a != b {
                        result.fail(format!(
                            "{}: manifest of pass {index} differs from pass 0",
                            campaign.name
                        ));
                    }
                }
            }
        }
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
            if plain.len() == MIN_PASSES {
                peak_rss = crate::peak_rss_mb();
            }
        }
        index += 1;
    }
    remove_dir(&root);
    let timed_s = start.elapsed().as_secs_f64();
    let fer = manifests_fer(reference.as_deref().unwrap_or_default());

    let pass_s: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = plain.iter().map(|p| p.rounds as f64 / p.wall_s).collect();
    let job_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| &p.jobs)
        .map(|j| (j.end - j.start).as_secs_f64() * 1e3)
        .collect();

    let extras = &mut result.extras;
    describe(extras, "setup_s", &setup_times);
    describe(extras, "campaign_s", &pass_s);
    describe(extras, "pass_captures_per_s", &rates);
    extras.insert("jobs_per_pass".into(), expected_jobs as f64);
    extras.insert("timed_s".into(), timed_s);

    if args.trace {
        layer_metrics(
            &mut result,
            &traced,
            &plain,
            workers,
            expected_jobs,
            reference.as_deref(),
        );
        if let Some(t) = &tracer {
            let path = crate::ledger::write_trace(t, &args.workload, args.seed);
            result
                .notes
                .push(format!("perfetto trace: {}", path.display()));
        }
    } else {
        let m = &mut result.metrics;
        m.insert("setup_s", setup_s);
        m.insert("captures_per_s", median(&rates));
        m.insert("latency_p50_ms", windowed_quantile(&job_ms, 0.5));
        m.insert("latency_p95_ms", windowed_quantile(&job_ms, 0.95));
        m.insert("fer", fer);
        m.insert("peak_rss_mb", peak_rss);
    }
    result
}

/// The harness, mac and manifest-derived rx rows from the traced passes.
fn layer_metrics(
    result: &mut RunResult,
    traced: &[Pass],
    plain: &[Pass],
    workers: usize,
    expected_jobs: usize,
    manifests: Option<&[String]>,
) {
    let m = &mut result.metrics;
    let passes = traced.len().max(1) as f64;
    let job_s = |j: &JobRecord| (j.end - j.start).as_secs_f64();

    let build_s: f64 = traced
        .iter()
        .flat_map(|p| &p.jobs)
        .map(|j| j.build.as_secs_f64())
        .sum();
    m.insert("harness.build_s", build_s / passes);

    // Point time: its replicates' jobs, summed per pass.
    let mut point_s = Vec::new();
    for pass in traced {
        let mut by_point: std::collections::BTreeMap<(&str, &str), f64> = Default::default();
        for j in &pass.jobs {
            *by_point.entry((j.campaign, j.point.as_str())).or_default() += job_s(j);
        }
        point_s.extend(by_point.into_values());
    }
    m.insert("harness.point_s_p50", median(&point_s));
    m.insert("harness.point_s_max", quantile(&point_s, 1.0));

    let busy: f64 = traced.iter().flat_map(|p| &p.jobs).map(job_s).sum();
    let wall: f64 = traced.iter().map(|p| p.campaign_wall_s).sum();
    m.insert(
        "harness.worker_busy_share",
        busy / (workers as f64 * wall.max(1e-9)),
    );
    let manifest_ms: Vec<f64> = traced.iter().flat_map(|p| p.manifest_ms.clone()).collect();
    m.insert(
        "harness.manifest_ms",
        manifest_ms.iter().sum::<f64>() / manifest_ms.len().max(1) as f64,
    );
    let jobs: usize = traced.iter().map(|p| p.jobs.len()).sum();
    m.insert(
        "harness.retries",
        jobs.saturating_sub(expected_jobs * traced.len()) as f64 / passes,
    );

    // Algorithm 1 runs inside fig9c's `pc_on` builders; the paired
    // `pc_off` builders construct the same deployments without it.
    let fig9c_build = |suffix: &str| -> f64 {
        traced
            .iter()
            .flat_map(|p| &p.jobs)
            .filter(|j| j.campaign == "fig9c" && j.point.ends_with(suffix))
            .map(|j| j.build.as_secs_f64())
            .sum()
    };
    m.insert(
        "mac.power_control_s",
        (fig9c_build("_pc_on") - fig9c_build("_pc_off")) / passes,
    );

    let traced_s: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let plain_s: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    m.insert(
        "obs.trace_overhead",
        median(&traced_s) / median(&plain_s).max(1e-9),
    );

    // Deterministic rx and tag counts from the manifests' embedded
    // metric snapshots (their timings are stripped).
    let mut counters = std::collections::BTreeMap::<String, u64>::new();
    for json in manifests.unwrap_or_default() {
        if let Ok(manifest) = CampaignManifest::from_json(json) {
            for (name, v) in manifest.merged_snapshot().counters {
                *counters.entry(name).or_default() += v;
            }
        }
    }
    let c = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let captures = c("cbma.rx.captures").max(1.0);
    m.insert("rx.candidates", c("cbma.rx.candidates") / captures);
    m.insert(
        "rx.decode_failures",
        c("cbma.rx.decode_failures") / captures,
    );
    m.insert(
        "rx.aliases_suppressed",
        c("cbma.rx.aliases_suppressed") / captures,
    );
    m.insert(
        "rx.decode_yield",
        c("cbma.rx.users_decoded") / c("cbma.rx.candidates").max(1.0),
    );
    m.insert(
        "tag.frames",
        c("cbma.sim.frames_sent") / c("cbma.sim.rounds").max(1.0),
    );
}
