//! `round_4tag`: one client calls `Engine::run_round` back to back on the
//! paper-default 4-tag deployment.
//!
//! The geometry is the `bench_summary` observability scenario, with every
//! tag at full power (`cbma_bench::scenario_at_full_power`): the random
//! boot impedance states would otherwise swing `fer` by a factor of two
//! from one seed to the next. A run issues its rounds round-robin over a
//! group of `DEPLOYMENTS` engines, each from its own channel seed derived
//! from `--seed`. Static carrier phases are frozen per seed, so one group
//! would still leave `fer` hinging on its draw: the `fer` window covers
//! `GROUPS` groups, each built and warmed up between passes, outside any
//! timing, while the previous group is dropped. No pool runs: the channel
//! layer (noise, fading, delay, mixing) and the receiver share one thread.

use std::time::Instant;

use cbma::obs::Tracer;
use cbma::prelude::*;
use cbma::Engine;
use cbma_bench::scenario_at_full_power;

use crate::ledger::{decisions, LayerSums, Replayer, RxSums, Spans};
use crate::stats::{describe, median, quantile, windowed_quantile};
use crate::{repeated_setup, Args, RunResult};

/// The `bench_summary` 4-tag geometry.
const POSITIONS: [(f64, f64); 4] = [(0.0, 0.35), (0.25, -0.40), (-0.30, 0.45), (0.40, 0.55)];
/// Engines (channel seeds) per group; one pass issues one round on each.
const DEPLOYMENTS: u64 = 64;
/// Groups the `fer` window spans; timing continues on the last one.
const GROUPS: u64 = 4;
/// Rounds per deployment run during set-up, before timing starts.
const WARMUP_ROUNDS: usize = 3;
/// Passes per group that `fer` and the delivery check cover; a run
/// always times at least `GROUPS` × this many.
const FER_PASSES: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Span ring size for traced runs (the most recent spans are kept).
const TRACE_CAPACITY: usize = 1 << 15;

fn deployment_seed(seed: u64, group: u64, d: u64) -> u64 {
    SeedSequence::new(seed).derive_indexed("round_4tag", group * DEPLOYMENTS + d)
}

/// Builds and warms up the engines of one group.
fn setup(seed: u64, group: u64) -> Vec<Engine> {
    (0..DEPLOYMENTS)
        .map(|d| {
            let positions = POSITIONS.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut engine = scenario_at_full_power(positions, deployment_seed(seed, group, d));
            engine.set_capture_iq(true);
            for _ in 0..WARMUP_ROUNDS {
                std::hint::black_box(engine.run_round());
            }
            engine
        })
        .collect()
}

/// Per-round delivered set and active count, for the delivery check.
type RoundRecord = (Vec<usize>, usize);

pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult {
        workers: 1,
        ..RunResult::default()
    };
    let (mut engines, setup_s, setup_times) = repeated_setup(SETUP_REPS, || setup(args.seed, 0));
    let fs = engines[0].scenario().phy.sample_rate.get();

    let tracer = args.trace.then(|| Tracer::new(TRACE_CAPACITY));
    let replayers_for = |engines: &[Engine], group: u64| -> Vec<Replayer> {
        if !args.trace {
            return Vec::new();
        }
        engines
            .iter()
            .zip(0..)
            .map(|(e, d)| {
                Replayer::new(e.scenario(), e.tags(), deployment_seed(args.seed, group, d))
            })
            .collect()
    };
    let mut group = 0;
    let mut replayers = replayers_for(&engines, group);
    let mut sums = LayerSums::default();
    let mut rx = RxSums::default();

    let mut latencies_ms = Vec::new();
    let mut traced_latencies_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let (mut air_s, mut busy_s) = (0.0, 0.0);
    let mut window: Vec<RoundRecord> = Vec::new();

    let window_passes = GROUPS as usize * FER_PASSES;
    // Read after the fixed minimum work, so a faster build that fits more
    // passes into the time does not read as a memory change.
    let mut peak_rss = 0.0;
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < window_passes || start.elapsed() < args.seconds {
        if pass > 0 && pass.is_multiple_of(FER_PASSES) && group + 1 < GROUPS {
            drop(std::mem::take(&mut engines));
            group += 1;
            engines = setup(args.seed, group);
            replayers = replayers_for(&engines, group);
        }
        // Traced runs interleave untraced passes (the overhead baseline)
        // with traced ones.
        let traced = tracer.as_ref().filter(|_| pass % 2 == 1);
        let pass_start = Instant::now();
        for (d, engine) in engines.iter_mut().enumerate() {
            let round = engine.rounds_run();
            let trace = traced.map(|tracer| {
                let trace = tracer.new_trace();
                (trace, tracer.span(trace, None, "sim.round"))
            });
            let t = Instant::now();
            let outcome = engine.run_round();
            let dt = t.elapsed().as_secs_f64();
            let trace = trace.map(|(trace, span)| {
                span.finish();
                trace
            });
            result.attempted += 1;
            let iq = outcome.iq.as_deref().unwrap_or_default();
            if traced.is_some() {
                traced_latencies_ms.push(dt * 1e3);
            } else {
                latencies_ms.push(dt * 1e3);
                air_s += iq.len() as f64 / fs;
                busy_s += dt;
            }
            if !outcome.delivered.iter().all(|i| outcome.active.contains(i)) {
                result.fail(format!(
                    "round {round}: delivered a tag that was not active"
                ));
            }
            if pass < window_passes {
                window.push((outcome.delivered.clone(), outcome.active.len()));
            }
            if let (Some(tracer), Some(trace)) = (traced, trace) {
                sums.rounds += 1;
                sums.round_ns += (dt * 1e9) as u64;
                rx.add(&outcome.report);
                let spans = Spans {
                    tracer: tracer.clone(),
                    trace,
                };
                let root = tracer.span(trace, None, "ledger.replay");
                let parent = Some(root.id());
                let replayer = &mut replayers[d];
                let payload_for = |tag| engine.payload_for(tag, round);
                if let Err(e) =
                    replayer.replay_sim(payload_for, &outcome, iq.len(), &mut sums, &spans, parent)
                {
                    result.fail(format!("round {round}: {e}"));
                }
                let replayed = replayer.replay_rx(iq, &mut sums, &spans, parent);
                if decisions(&replayed) != decisions(&outcome.report) {
                    result.fail(format!(
                        "round {round}: replayed receive decided differently from the engine"
                    ));
                }
                root.finish();
            }
        }
        if traced.is_none() {
            pass_rates.push(engines.len() as f64 / pass_start.elapsed().as_secs_f64());
        }
        pass += 1;
        if pass == window_passes {
            peak_rss = crate::peak_rss_mb();
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    drop(engines);
    drop(replayers);

    // Delivery check: fresh engines from the same seed must deliver the
    // same sets over the same rounds (not timed).
    let mut expected = Vec::with_capacity(window.len());
    for g in 0..GROUPS {
        let mut reference = setup(args.seed, g);
        for _ in 0..FER_PASSES {
            for engine in reference.iter_mut() {
                let outcome = engine.run_round();
                expected.push((outcome.delivered, outcome.active.len()));
            }
        }
    }
    let per_group = FER_PASSES * DEPLOYMENTS as usize;
    for (i, (got, want)) in window.iter().zip(&expected).enumerate() {
        if got != want {
            result.fail(format!(
                "group {}, pass {}, deployment {}: delivered {:?} of {}, the seed gives {:?} of {}",
                i / per_group,
                i % per_group / DEPLOYMENTS as usize,
                i % DEPLOYMENTS as usize,
                got.0,
                got.1,
                want.0,
                want.1
            ));
        }
    }
    let sent: usize = window.iter().map(|(_, n)| n).sum();
    let delivered: usize = window.iter().map(|(d, _)| d.len()).sum();
    let fer = 1.0 - delivered as f64 / sent.max(1) as f64;

    let extras = &mut result.extras;
    describe(extras, "setup_s", &setup_times);
    describe(extras, "pass_captures_per_s", &pass_rates);
    extras.insert("sim_rtf".into(), air_s / busy_s.max(1e-9));
    extras.insert("round_p50_ms".into(), median(&latencies_ms));
    extras.insert("round_p99_ms".into(), quantile(&latencies_ms, 0.99));
    extras.insert("rounds_timed".into(), latencies_ms.len() as f64);
    extras.insert("fer_rounds".into(), window.len() as f64);
    extras.insert("deployments".into(), (GROUPS * DEPLOYMENTS) as f64);
    extras.insert("timed_s".into(), timed_s);

    if let Some(tracer) = &tracer {
        let closure = sums.report(&mut result.metrics);
        rx.report(&mut result.metrics);
        result.metrics.insert(
            "obs.trace_overhead",
            median(&traced_latencies_ms) / median(&latencies_ms).max(1e-9),
        );
        if !(0.95..=1.05).contains(&closure) {
            result.fail(format!(
                "ledger closes at {closure:.3} of the traced round time, outside 5 %"
            ));
        }
        let path = crate::ledger::write_trace(tracer, &args.workload, args.seed);
        result
            .notes
            .push(format!("perfetto trace: {}", path.display()));
    } else {
        let m = &mut result.metrics;
        m.insert("setup_s", setup_s);
        m.insert("captures_per_s", median(&pass_rates));
        m.insert("latency_p50_ms", windowed_quantile(&latencies_ms, 0.5));
        m.insert("latency_p95_ms", windowed_quantile(&latencies_ms, 0.95));
        m.insert("fer", fer);
        m.insert("peak_rss_mb", peak_rss);
    }
    result
}
