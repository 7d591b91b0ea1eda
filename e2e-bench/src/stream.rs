//! `rx_stream_10tag`: 64 engine-realised 10-tag captures pushed as 64
//! streams through `RxFlowgraph` under the work-stealing scheduler, pass
//! after pass.
//!
//! Set-up (not timed) realises the captures with `Engine::set_capture_iq`
//! from the balanced, full-power 10-tag paper-default scenario, one round
//! on each of `CAPTURES` channel seeds derived from `--seed` (independent
//! draws keep `fer` steady from seed to seed), and decodes each
//! once with a sequential `Receiver::receive`: the decisions every pass
//! must reproduce. The timed part runs no tag or channel code, so it is
//! the control for sim-side changes; the rx kernels and the scheduler do
//! all of its work.

use std::time::Instant;

use cbma::obs::Tracer;
use cbma::prelude::*;
use cbma::rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
use cbma::rx::Receiver;
use cbma::tag::Tag;
use cbma::types::Iq;
use cbma_bench::{balanced_positions, scenario_at_full_power};

use crate::ledger::{codes, decisions, LayerSums, Replayer, RxSums, Spans};
use crate::stats::{describe, median, windowed_quantile};
use crate::{repeated_setup, Args, Host, RunResult};

/// Tags per capture.
const TAGS: usize = 10;
/// Captures per pass, each the first round of its own channel seed.
const CAPTURES: u64 = 64;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run always times at least this many untraced passes.
const MIN_PASSES: usize = 10;
/// Span ring size for traced runs.
const TRACE_CAPACITY: usize = 1 << 15;

/// One realised capture with its ground truth.
struct Capture {
    /// The engine's scenario and tags, for the ledger replay.
    scenario: Scenario,
    tags: Vec<Tag>,
    iq: Vec<Iq>,
    outcome: RoundOutcome,
    /// Transmitted payloads of the active tags, by tag id.
    truth: Vec<(usize, Vec<u8>)>,
    /// Decisions of the sequential receiver.
    oracle: Vec<(usize, Vec<u8>)>,
}

struct Setup {
    captures: Vec<Capture>,
    flow: RxFlowgraph,
    air_s: f64,
}

fn deployment_seed(seed: u64, d: u64) -> u64 {
    SeedSequence::new(seed).derive_indexed("rx_stream_10tag", d)
}

fn setup(seed: u64, workers: usize) -> Setup {
    let mut captures: Vec<Capture> = (0..CAPTURES)
        .map(|d| {
            let mut engine =
                scenario_at_full_power(balanced_positions(TAGS), deployment_seed(seed, d));
            engine.set_capture_iq(true);
            let round = engine.rounds_run();
            let mut outcome = engine.run_round();
            let iq = outcome.iq.take().expect("capture_iq is on");
            let truth = outcome
                .active
                .iter()
                .map(|&id| (id, engine.payload_for(id, round)))
                .collect();
            Capture {
                scenario: engine.scenario().clone(),
                tags: engine.tags().to_vec(),
                iq,
                outcome,
                truth,
                oracle: Vec::new(),
            }
        })
        .collect();
    let scenario = captures[0].scenario.clone();
    let mut oracle = Receiver::new(codes(&scenario), scenario.phy, scenario.rx_config);
    for capture in &mut captures {
        capture.oracle = decisions(&oracle.receive(&capture.iq));
    }
    let fs = scenario.phy.sample_rate.get();
    let air_s = captures.iter().map(|c| c.iq.len() as f64 / fs).sum();
    let mut flow = flowgraph(&scenario, workers);
    // One pass so the pool's per-worker receivers and scratch exist
    // before timing.
    flow.run(source(&captures))
        .expect("warm-up pass through the flowgraph");
    Setup {
        captures,
        flow,
        air_s,
    }
}

/// A flowgraph for captures of `scenario` on a pool of `workers`.
fn flowgraph(scenario: &Scenario, workers: usize) -> RxFlowgraph {
    let runtime = RuntimeConfig {
        scheduler: Scheduler::WorkStealing {
            workers,
            pin: false,
        },
        ..RuntimeConfig::default()
    };
    RxFlowgraph::new(codes(scenario), scenario.phy, scenario.rx_config, runtime)
}

/// Every capture on its own stream.
fn source(captures: &[Capture]) -> CaptureSource {
    let mut source = CaptureSource::new(RuntimeConfig::default().block_size);
    for (stream, capture) in captures.iter().enumerate() {
        source.push(stream, capture.iq.clone());
    }
    source
}

/// Frames delivered with the transmitted payload.
fn delivered(capture: &Capture, decided: &[(usize, Vec<u8>)]) -> usize {
    decided.iter().filter(|d| capture.truth.contains(d)).count()
}

pub fn run(args: &Args, host: Host) -> RunResult {
    let workers = host.cpus;
    let mut result = RunResult {
        workers,
        ..RunResult::default()
    };
    let (mut setup, setup_s, setup_times) =
        repeated_setup(SETUP_REPS, || setup(args.seed, workers));
    let captures = &setup.captures;
    let n = captures.len();

    // Traced passes run on a second flowgraph whose runtime metrics are
    // attached, so untraced passes carry no metric recording.
    let registry = MetricsRegistry::new();
    let tracer = args.trace.then(|| Tracer::new(TRACE_CAPACITY));
    let mut traced_flow = args.trace.then(|| {
        let mut flow = flowgraph(&captures[0].scenario, workers);
        flow.attach_metrics(&registry);
        flow.run(source(captures)).expect("warm-up pass");
        flow
    });

    let mut latencies_ms = Vec::new();
    let mut pass_rates = Vec::new();
    let mut pass_rtf = Vec::new();
    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut rx = RxSums::default();
    let (mut busy_ns, mut wall_ns, mut steals, mut local_hits, mut parks, mut park_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut traced_passes = 0u64;
    let mut fer = None;
    // Read after the fixed minimum work: the allocator's high-water mark
    // creeps up pass by pass, and a faster build fits more passes into the
    // time.
    let mut peak_rss = 0.0;

    let start = Instant::now();
    let mut pass = 0usize;
    while pass_rates.len() < MIN_PASSES || start.elapsed() < args.seconds {
        let traced = args.trace && pass % 2 == 1;
        let src = source(captures);
        let mut results = Vec::with_capacity(n);
        let mut done_ms = Vec::with_capacity(n);
        let span = tracer
            .as_ref()
            .filter(|_| traced)
            .map(|t| t.span(t.new_trace(), None, "rx.flowgraph_pass"));
        let flow = match (&mut traced_flow, traced) {
            (Some(flow), true) => flow,
            _ => &mut setup.flow,
        };
        let t0 = Instant::now();
        let run = flow.run_with_sink(src, |r| {
            done_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            results.push(r);
        });
        let dt = t0.elapsed().as_secs_f64();
        drop(span);
        pass += 1;
        let stats = match run {
            Ok(stats) => stats,
            Err(e) => {
                // A failed flowgraph fails the whole run.
                result.attempted += n as u64;
                for _ in 0..n {
                    result.fail(format!("flowgraph pass failed: {e}"));
                }
                break;
            }
        };
        result.attempted += n as u64;
        if results.len() != n {
            result.fail(format!("pass returned {} of {n} captures", results.len()));
        }
        let mut pass_delivered = 0;
        let mut pass_sent = 0;
        for r in &results {
            let Some(capture) = captures.get(r.stream) else {
                result.fail(format!("result for unknown stream {}", r.stream));
                continue;
            };
            let decided = decisions(&r.report);
            if r.seq != 0 || decided != capture.oracle {
                result.fail(format!(
                    "stream {}: flowgraph decided {:?}, sequential receive {:?}",
                    r.stream,
                    decided.iter().map(|d| d.0).collect::<Vec<_>>(),
                    capture.oracle.iter().map(|d| d.0).collect::<Vec<_>>()
                ));
            }
            pass_delivered += delivered(capture, &decided);
            pass_sent += capture.truth.len();
            if traced {
                rx.add(&r.report);
            }
        }
        fer.get_or_insert(1.0 - pass_delivered as f64 / pass_sent.max(1) as f64);
        if traced {
            traced_passes += 1;
            traced_pass_s.push(dt);
            busy_ns += stats.busy_ns;
            wall_ns += (dt * 1e9) as u64;
            steals += stats.steals;
            local_hits += stats.local_hits;
            parks += stats.parks;
            park_ns += stats.park_ns;
        } else {
            latencies_ms.extend_from_slice(&done_ms);
            pass_rates.push(n as f64 / dt);
            if pass_rates.len() == MIN_PASSES {
                peak_rss = crate::peak_rss_mb();
            }
            pass_rtf.push(setup.air_s / dt);
            pass_s.push(dt);
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let extras = &mut result.extras;
    describe(extras, "setup_s", &setup_times);
    describe(extras, "pass_captures_per_s", &pass_rates);
    describe(extras, "aggregate_rtf", &pass_rtf);
    extras.insert("captures_per_pass".into(), n as f64);
    extras.insert("passes_timed".into(), pass_rates.len() as f64);
    extras.insert("timed_s".into(), timed_s);

    if let Some(tracer) = &tracer {
        let m = &mut result.metrics;
        rx.report(m);
        // Pool time spent running stage bodies, per capture.
        m.insert(
            "rx.receive_us",
            busy_ns as f64 / rx.captures.max(1) as f64 / 1e3,
        );
        m.insert(
            "rx.runtime.busy_share",
            busy_ns as f64 / (workers as f64 * wall_ns.max(1) as f64),
        );
        m.insert(
            "rx.runtime.steal_rate",
            steals as f64 / (steals + local_hits).max(1) as f64,
        );
        let passes = traced_passes.max(1) as f64;
        m.insert("rx.runtime.parks", parks as f64 / passes);
        m.insert("rx.runtime.park_ms", park_ns as f64 / passes / 1e6);
        let snapshot = registry.snapshot();
        let p50_us = |name: &str| {
            snapshot
                .histograms
                .get(name)
                .and_then(|h| h.quantile(0.5))
                .map_or(0.0, |ns| ns as f64 / 1e3)
        };
        m.insert(
            "rx.runtime.stage_run_us_p50",
            p50_us("cbma.rx.runtime.stage_run_ns"),
        );
        // The work-stealing pool waits by parking workers, not by
        // blocking on ring pops.
        m.insert(
            "rx.runtime.stage_wait_us_p50",
            p50_us("cbma.rx.runtime.worker.park_ns"),
        );
        m.insert(
            "obs.trace_overhead",
            median(&traced_pass_s) / median(&pass_s).max(1e-9),
        );

        // Tag and channel cost of the set-up rounds that realised the
        // captures: they move `setup_s` here, never the timed passes.
        let mut sums = LayerSums::default();
        let trace = tracer.new_trace();
        let spans = Spans {
            tracer: tracer.clone(),
            trace,
        };
        let mut replay_errors = Vec::new();
        for (d, capture) in captures.iter().enumerate() {
            let root = tracer.span(trace, None, "ledger.replay");
            let mut replayer = Replayer::new(
                &capture.scenario,
                &capture.tags,
                deployment_seed(args.seed, d as u64),
            );
            let payload_for = |tag| {
                capture
                    .truth
                    .iter()
                    .find(|(id, _)| *id == tag)
                    .map(|(_, payload)| payload.clone())
                    .unwrap_or_default()
            };
            if let Err(e) = replayer.replay_sim(
                payload_for,
                &capture.outcome,
                capture.iq.len(),
                &mut sums,
                &spans,
                Some(root.id()),
            ) {
                replay_errors.push(format!("stream {d}: {e}"));
            }
            root.finish();
            sums.rounds += 1;
        }
        sums.report_sim_side(m);
        let path = crate::ledger::write_trace(tracer, &args.workload, args.seed);
        result
            .notes
            .push(format!("perfetto trace: {}", path.display()));
        for e in replay_errors {
            result.fail(e);
        }
    } else {
        let m = &mut result.metrics;
        m.insert("setup_s", setup_s);
        m.insert("captures_per_s", median(&pass_rates));
        m.insert("latency_p50_ms", windowed_quantile(&latencies_ms, 0.5));
        m.insert("latency_p95_ms", windowed_quantile(&latencies_ms, 0.95));
        m.insert("fer", fer.unwrap_or(1.0));
        m.insert("peak_rss_mb", peak_rss);
    }
    result
}
