//! The streaming receiver runtime: a pipelined rx flowgraph.
//!
//! [`Receiver::receive`] is a monolithic pass over one whole capture.
//! This module decomposes it into the four stages the paper's §III
//! receive chain already implies —
//!
//! ```text
//! SampleSource ─▶ frame-sync ─▶ user-detect ─▶ decode ─▶ SIC ─▶ sink
//!    (blocks)        ring           ring          ring     ring
//! ```
//!
//! — connected by bounded SPSC [`ring`]s, so stage N of capture *k*
//! overlaps stage N−1 of capture *k+1*. The scheduler is pluggable:
//!
//! * [`Scheduler::Inline`] runs every stage on the caller's thread, one
//!   block at a time — zero threads, zero rings, trivially
//!   deadlock-free; the reference for equivalence tests.
//! * [`Scheduler::ThreadPerStage`] gives each stage its own thread over
//!   the rings; ring capacity bounds in-flight memory (backpressure) and
//!   a panicking stage poisons the graph so [`RxFlowgraph::run`] returns
//!   a clean error instead of hanging.
//! * [`Scheduler::WorkStealing`] multiplexes *all* streams' stage
//!   activations over a fixed worker pool (local deques, LIFO pop, FIFO
//!   steal, park/unpark idle protocol, optional CPU pinning) — the
//!   serve-many-streams scheduler; see [`worksteal`].
//!
//! **Decision identity.** Both schedulers, at every block size, produce
//! reports *decision-identical* to [`Receiver::receive`] — same detected
//! users, decoded payload bytes, SIC recoveries, collisions and silence
//! calls. The per-stage seams are the receiver's own code paths
//! (`sync_capture`'s window math, the `Auto` detection path, the shared
//! decode/alias/probe phases, `apply_sic`), fed block-by-block through
//! carry-over state proven bit-identical to whole-buffer processing:
//! [`cbma_dsp::xcorr::RunningEnergy::extend`] for frame sync and
//! [`cbma_dsp::BatchStream`] for the overlap-save correlator tails. The
//! block-boundary equivalence suite
//! (`crates/rx/tests/streaming_equivalence.rs`) pins this for block
//! sizes 1, prime, power-of-two and whole-capture on both schedulers.
//!
//! Results leave through one in-order emitter (`InOrderEmitter`) on
//! every scheduler: per stream, in capture order, regardless of internal
//! pipelining.

pub mod affinity;
pub mod ring;
pub mod source;
pub mod worksteal;

pub use ring::{ring, Consumer, DepthProbe, Producer, RingError, RingWaker, TryPop, TryPush};
pub use source::{CaptureSource, SampleSource, SourceBlock};

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cbma_codes::PnCode;
use cbma_obs::trace::{SpanId, TraceId, Tracer};
use cbma_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cbma_tag::phy::PhyProfile;
use cbma_types::Iq;

use crate::frame_sync::SyncStream;
use crate::receiver::{Receiver, ReceiverConfig, RxReport, RxTelemetry, SyncOutcome, TraceCtx};
use crate::user_detect::DetectedUser;

/// How the flowgraph maps stages onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// All stages on the caller's thread, block by block; no rings.
    Inline,
    /// One thread per stage (plus the source), connected by bounded
    /// rings; captures pipeline through the stages.
    ThreadPerStage,
    /// A fixed pool of `workers` threads running every stream's stage
    /// activations as stealable tasks (see [`worksteal`]). `workers = 0`
    /// means one per available CPU; `pin` round-robins workers onto
    /// CPUs via [`affinity`].
    WorkStealing {
        /// Pool size (0 = auto: one worker per available CPU).
        workers: usize,
        /// Round-robin CPU affinity for the workers.
        pin: bool,
    },
}

impl Scheduler {
    /// The scheduler names [`Scheduler::parse`] accepts, for CLI errors.
    pub const VALID_NAMES: &'static str = "inline, threaded, worksteal[:N][:pin]";

    /// A short stable kind name (for test labels and span args).
    pub fn as_str(&self) -> &'static str {
        match self {
            Scheduler::Inline => "inline",
            Scheduler::ThreadPerStage => "thread-per-stage",
            Scheduler::WorkStealing { .. } => "worksteal",
        }
    }

    /// The full round-trippable CLI name (`parse(name()) == self`):
    /// `inline`, `threaded`, `worksteal`, `worksteal:4`, `worksteal:pin`,
    /// `worksteal:4:pin`.
    pub fn name(&self) -> String {
        match self {
            Scheduler::Inline => "inline".into(),
            Scheduler::ThreadPerStage => "threaded".into(),
            Scheduler::WorkStealing { workers, pin } => {
                let mut name = String::from("worksteal");
                if *workers > 0 {
                    name.push_str(&format!(":{workers}"));
                }
                if *pin {
                    name.push_str(":pin");
                }
                name
            }
        }
    }

    /// Parses a CLI scheduler name; `None` for anything not listed in
    /// [`Scheduler::VALID_NAMES`].
    pub fn parse(name: &str) -> Option<Scheduler> {
        match name {
            "inline" => return Some(Scheduler::Inline),
            "threaded" | "thread-per-stage" => return Some(Scheduler::ThreadPerStage),
            _ => {}
        }
        let rest = name.strip_prefix("worksteal")?;
        let (workers, pin) = match rest {
            "" => (0, false),
            ":pin" => (0, true),
            _ => {
                let spec = rest.strip_prefix(':')?;
                let (count, pin) = match spec.strip_suffix(":pin") {
                    Some(count) => (count, true),
                    None => (spec, false),
                };
                (count.parse::<usize>().ok()?, pin)
            }
        };
        Some(Scheduler::WorkStealing { workers, pin })
    }

    /// Resolves a `workers` request: 0 (auto) becomes one worker per
    /// available CPU, anything else is clamped to ≥ 1.
    pub fn effective_workers(workers: usize) -> usize {
        if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        }
    }
}

/// Tunable runtime parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Samples per source block (clamped to ≥ 1). Any value yields
    /// identical decisions; it only moves the latency/overhead
    /// trade-off.
    pub block_size: usize,
    /// Capacity of each inter-stage ring (clamped to ≥ 1). Total
    /// in-flight captures are bounded by roughly 4·capacity + 4.
    pub ring_capacity: usize,
    /// Stage-to-thread mapping.
    pub scheduler: Scheduler,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            block_size: 4096,
            ring_capacity: 4,
            scheduler: Scheduler::ThreadPerStage,
        }
    }
}

/// The pipeline stages, for fault injection and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Frame synchronization (energy edges, per block).
    Sync,
    /// User detection (preamble correlation, per capture).
    Detect,
    /// Candidate decode / alias resolution / probe fallback.
    Decode,
    /// Successive interference cancellation.
    Sic,
}

impl StageKind {
    /// The stage's short name as it appears in span labels and errors.
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Sync => "sync",
            StageKind::Detect => "detect",
            StageKind::Decode => "decode",
            StageKind::Sic => "sic",
        }
    }
}

/// Deterministic fault injection for the runtime's failure-path tests.
#[derive(Debug, Clone, Copy, Default)]
struct FaultPlan {
    /// Panic inside the given stage when it completes the capture with
    /// this seq.
    panic_at: Option<(StageKind, u64)>,
}

impl FaultPlan {
    #[inline]
    fn trip(&self, stage: StageKind, seq: u64) {
        if self.panic_at == Some((stage, seq)) {
            panic!("injected fault: {} stage at capture {seq}", stage.name());
        }
    }
}

/// The flowgraph failed: a stage panicked (or the pipeline was torn
/// down); the message names the stage and cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowgraphError {
    /// Human-readable failure description.
    pub message: String,
}

impl std::fmt::Display for FlowgraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flowgraph failed: {}", self.message)
    }
}

impl std::error::Error for FlowgraphError {}

/// Counters and ring diagnostics from one [`RxFlowgraph::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Source blocks consumed.
    pub blocks: u64,
    /// Captures completed through the whole pipeline.
    pub captures: u64,
    /// High-water depth per ring, in pipeline order (source→sync,
    /// sync→detect, detect→decode, decode→sic, sic→sink). Empty on the
    /// inline scheduler, which has no rings. On the work-stealing
    /// scheduler each entry is the max across streams at that position.
    pub ring_max_depth: Vec<usize>,
    /// Work-stealing pool: tasks taken from another queue (a victim's
    /// deque or the injector). Zero on the other schedulers.
    pub steals: u64,
    /// Work-stealing pool: tasks popped from the worker's own deque.
    pub local_hits: u64,
    /// Work-stealing pool: times a worker parked for lack of work.
    pub parks: u64,
    /// Work-stealing pool: total nanoseconds workers spent parked.
    pub park_ns: u64,
    /// Work-stealing pool: total nanoseconds workers spent running
    /// stage bodies (utilization = busy_ns / (workers · wall time)).
    pub busy_ns: u64,
}

/// Results plus stats from one [`RxFlowgraph::run`].
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every capture's report, per stream in capture order.
    pub results: Vec<StreamResult>,
    /// Runtime diagnostics.
    pub stats: RunStats,
}

/// One processed capture, tagged with its stream and per-stream sequence
/// number.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// The stream the capture was submitted under.
    pub stream: usize,
    /// Per-stream submission index (0-based).
    pub seq: u64,
    /// The receiver's report for the capture.
    pub report: RxReport,
}

/// In-order `(stream, seq)` emission for every scheduler's sink:
/// completions are buffered in whatever order the stages finish and
/// leave per stream in submission order.
#[derive(Debug, Default)]
pub(crate) struct InOrderEmitter {
    /// Next seq to emit per stream.
    emit_next: Vec<u64>,
    /// Out-of-order completions awaiting their predecessors.
    reorder: BTreeMap<(usize, u64), RxReport>,
}

impl InOrderEmitter {
    /// Buffers one completion until its per-stream predecessors emit.
    pub(crate) fn insert(&mut self, stream: usize, seq: u64, report: RxReport) {
        if self.emit_next.len() <= stream {
            self.emit_next.resize(stream + 1, 0);
        }
        self.reorder.insert((stream, seq), report);
    }

    /// Moves every in-order entry out of the reorder buffer, in
    /// `(stream, seq)` order.
    pub(crate) fn take_ready(&mut self) -> Vec<StreamResult> {
        let mut out = Vec::new();
        for stream in 0..self.emit_next.len() {
            while let Some(report) = self.reorder.remove(&(stream, self.emit_next[stream])) {
                out.push(StreamResult {
                    stream,
                    seq: self.emit_next[stream],
                    report,
                });
                self.emit_next[stream] += 1;
            }
        }
        out
    }
}

/// Registered metric handles for the runtime (see
/// [`RxFlowgraph::attach_metrics`]).
#[derive(Clone)]
struct RuntimeMetrics {
    stage_run_ns: Histogram,
    stage_wait_ns: Histogram,
    blocks: Counter,
    captures: Counter,
    ring_depth: Gauge,
    steal_count: Counter,
    local_hit: Counter,
    worker_park_ns: Histogram,
    pool_utilization: Gauge,
}

impl RuntimeMetrics {
    fn register(registry: &MetricsRegistry) -> RuntimeMetrics {
        RuntimeMetrics {
            stage_run_ns: registry.histogram("cbma.rx.runtime.stage_run_ns"),
            stage_wait_ns: registry.histogram("cbma.rx.runtime.stage_wait_ns"),
            blocks: registry.counter("cbma.rx.runtime.blocks"),
            captures: registry.counter("cbma.rx.runtime.captures"),
            ring_depth: registry.gauge("cbma.rx.runtime.ring_depth"),
            steal_count: registry.counter("cbma.rx.runtime.worker.steal_count"),
            local_hit: registry.counter("cbma.rx.runtime.worker.local_hit"),
            worker_park_ns: registry.histogram("cbma.rx.runtime.worker.park_ns"),
            pool_utilization: registry.gauge("cbma.rx.runtime.pool_utilization"),
        }
    }
}

/// Per-stage observability: span context plus timer handles. Cheap to
/// build per run; all fields are `Arc`-backed clones.
#[derive(Clone, Default)]
struct StageObs {
    ctx: Option<(Tracer, TraceId, SpanId)>,
    run_ns: Option<Histogram>,
    wait_ns: Option<Histogram>,
}

impl StageObs {
    /// Times `f` as a `stage_run` span (arg = capture seq) and histogram
    /// sample.
    fn run<T>(&self, seq: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let mut span = self
            .ctx
            .as_ref()
            .map(|(t, tr, parent)| t.span(*tr, Some(*parent), "stage_run"));
        if let Some(span) = span.as_mut() {
            span.set_arg(seq);
        }
        let out = f();
        drop(span);
        if let Some(h) = &self.run_ns {
            h.record_duration(start.elapsed());
        }
        out
    }

    /// Times `f` (a blocking ring pop) as a `stage_wait` span and
    /// histogram sample.
    fn wait<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let span = self
            .ctx
            .as_ref()
            .map(|(t, tr, parent)| t.span(*tr, Some(*parent), "stage_wait"));
        let out = f();
        drop(span);
        if let Some(h) = &self.wait_ns {
            h.record_duration(start.elapsed());
        }
        out
    }
}

/// A capture that finished frame synchronization.
struct SyncedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    outcome: SyncOutcome,
    telemetry: RxTelemetry,
}

/// A synced capture with its per-code detection candidates.
struct DetectedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    outcome: SyncOutcome,
    telemetry: RxTelemetry,
    candidates: Vec<Vec<DetectedUser>>,
}

/// A decoded capture awaiting SIC.
struct DecodedCapture {
    stream: usize,
    seq: u64,
    samples: Vec<Iq>,
    report: RxReport,
}

/// In-progress per-capture frame-sync state.
struct InflightSync {
    stream: SyncStream,
    samples: Vec<Iq>,
    sync_ns: u64,
}

impl InflightSync {
    /// Opens frame-sync accumulation for one capture.
    fn begin(receiver: &Receiver) -> InflightSync {
        InflightSync {
            stream: receiver.frame_sync().stream(),
            samples: Vec::new(),
            sync_ns: 0,
        }
    }

    /// Feeds one block through the streaming comparator while
    /// accumulating the capture.
    fn absorb(&mut self, samples: &[Iq]) {
        let start = Instant::now();
        self.stream.push_block(samples);
        self.samples.extend_from_slice(samples);
        self.sync_ns += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Closes the capture: the global edge decision and window math,
    /// exactly as the monolithic path computes them.
    fn complete(self, receiver: &Receiver, stream: usize, seq: u64) -> SyncedCapture {
        let start = Instant::now();
        let edge = self.stream.finish(receiver.frame_sync());
        let outcome = receiver.outcome_for_edge(edge, self.samples.len());
        let telemetry = RxTelemetry {
            frame_sync_ns: self.sync_ns + start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            ..RxTelemetry::default()
        };
        SyncedCapture {
            stream,
            seq,
            samples: self.samples,
            outcome,
            telemetry,
        }
    }
}

/// Stage 1's body for a single-stream chain (the work-stealing layout,
/// where blocks of one stream arrive strictly in order so one in-flight
/// capture suffices): absorbs `block`, returning the synced capture once
/// its last block lands.
fn sync_block(
    receiver: &Receiver,
    carry: &mut Option<InflightSync>,
    block: SourceBlock,
    fault: &FaultPlan,
) -> Option<SyncedCapture> {
    let inflight = carry.get_or_insert_with(|| InflightSync::begin(receiver));
    inflight.absorb(&block.samples);
    if !block.last {
        return None;
    }
    fault.trip(StageKind::Sync, block.seq);
    let inflight = carry.take().expect("just inserted");
    Some(inflight.complete(receiver, block.stream, block.seq))
}

/// Stage 2's body: user detection over the synced search window, fed to
/// the overlap-save engine block by block.
fn detect_capture(
    receiver: &mut Receiver,
    block_size: usize,
    mut cap: SyncedCapture,
    fault: &FaultPlan,
) -> DetectedCapture {
    fault.trip(StageKind::Detect, cap.seq);
    let mut candidates = Vec::new();
    if let SyncOutcome::Window(start, end) = cap.outcome {
        receiver.detect_window_streamed(
            &cap.samples,
            start,
            end,
            block_size,
            &mut cap.telemetry,
            None,
        );
        candidates = std::mem::take(receiver.candidates_mut());
    }
    DetectedCapture {
        stream: cap.stream,
        seq: cap.seq,
        samples: cap.samples,
        outcome: cap.outcome,
        telemetry: cap.telemetry,
        candidates,
    }
}

/// Stage 3's body: candidate decode, global alias resolution and the
/// probe fallback — the monolithic pipeline's decode phases, unchanged.
fn decode_capture(
    receiver: &mut Receiver,
    cap: DetectedCapture,
    fault: &FaultPlan,
) -> DecodedCapture {
    fault.trip(StageKind::Decode, cap.seq);
    if matches!(cap.outcome, SyncOutcome::Window(..)) {
        receiver.stage_candidates(&cap.candidates);
    }
    let report = receiver.finish_outcome(&cap.samples, cap.outcome, cap.telemetry, None);
    DecodedCapture {
        stream: cap.stream,
        seq: cap.seq,
        samples: cap.samples,
        report,
    }
}

/// Stage 4's body: successive interference cancellation. Runs on *every*
/// report (like the monolithic path — `apply_sic` itself is a no-op when
/// SIC is disabled), so telemetry like `sic_iterations` matches exactly.
fn sic_capture(receiver: &mut Receiver, mut cap: DecodedCapture, fault: &FaultPlan) -> StreamResult {
    fault.trip(StageKind::Sic, cap.seq);
    let trace: TraceCtx = None;
    receiver.apply_sic(&cap.samples, &mut cap.report, trace);
    StreamResult {
        stream: cap.stream,
        seq: cap.seq,
        report: cap.report,
    }
}

/// Stage 1: incremental frame synchronization. The only stage that works
/// per *block*; it accumulates the capture while running the per-sample
/// energy comparator and prefix sums, and decides (globally, exactly as
/// the monolithic path does) when the capture's last block arrives.
/// Keyed by `(stream, seq)` because blocks of different streams may
/// interleave through the single pipeline.
struct SyncStage {
    receiver: Receiver,
    inflight: HashMap<(usize, u64), InflightSync>,
}

impl SyncStage {
    fn on_block(&mut self, block: SourceBlock, fault: &FaultPlan) -> Option<SyncedCapture> {
        let key = (block.stream, block.seq);
        let entry = self
            .inflight
            .entry(key)
            .or_insert_with(|| InflightSync::begin(&self.receiver));
        entry.absorb(&block.samples);
        if !block.last {
            return None;
        }
        fault.trip(StageKind::Sync, block.seq);
        let inflight = self.inflight.remove(&key).expect("just inserted");
        Some(inflight.complete(&self.receiver, block.stream, block.seq))
    }
}

/// Stage 2: user detection (see [`detect_capture`]).
struct DetectStage {
    receiver: Receiver,
    block_size: usize,
}

impl DetectStage {
    fn on_capture(&mut self, cap: SyncedCapture, fault: &FaultPlan) -> DetectedCapture {
        detect_capture(&mut self.receiver, self.block_size, cap, fault)
    }
}

/// Stage 3: decode (see [`decode_capture`]).
struct DecodeStage {
    receiver: Receiver,
}

impl DecodeStage {
    fn on_capture(&mut self, cap: DetectedCapture, fault: &FaultPlan) -> DecodedCapture {
        decode_capture(&mut self.receiver, cap, fault)
    }
}

/// Stage 4: SIC (see [`sic_capture`]).
struct SicStage {
    receiver: Receiver,
}

impl SicStage {
    fn on_capture(&mut self, cap: DecodedCapture, fault: &FaultPlan) -> StreamResult {
        sic_capture(&mut self.receiver, cap, fault)
    }
}

/// The pipelined streaming receiver (see the module docs).
///
/// # Examples
///
/// ```
/// use cbma_codes::{CodeFamily, GoldFamily};
/// use cbma_rx::runtime::{CaptureSource, RuntimeConfig, RxFlowgraph, Scheduler};
/// use cbma_rx::ReceiverConfig;
/// use cbma_tag::phy::PhyProfile;
/// use cbma_types::Iq;
///
/// let codes = GoldFamily::new(5)?.codes(2)?;
/// let mut flow = RxFlowgraph::new(
///     codes,
///     PhyProfile::paper_default(),
///     ReceiverConfig::default(),
///     RuntimeConfig { block_size: 512, ring_capacity: 2, scheduler: Scheduler::ThreadPerStage },
/// );
/// let source = CaptureSource::single_stream(512, vec![vec![Iq::ZERO; 2000]]);
/// let out = flow.run(source).expect("no stage fails");
/// assert_eq!(out.results.len(), 1);
/// assert!(!out.results[0].report.frame_detected);
/// # Ok::<(), cbma_types::CbmaError>(())
/// ```
pub struct RxFlowgraph {
    sync: SyncStage,
    detect: DetectStage,
    decode: DecodeStage,
    sic: SicStage,
    /// Worker-local receivers for the work-stealing pool, grown on
    /// demand and reused across runs. Each worker thread borrows one:
    /// the stage seams are per-capture stateless (scratch arenas are
    /// cleared per use), so which receiver runs a capture's stage never
    /// changes a decision.
    pool_receivers: Vec<Receiver>,
    codes: Vec<PnCode>,
    phy: PhyProfile,
    config: ReceiverConfig,
    runtime: RuntimeConfig,
    tracer: Option<Tracer>,
    metrics: Option<RuntimeMetrics>,
    fault: FaultPlan,
}

impl RxFlowgraph {
    /// Builds the flowgraph: one [`Receiver`] per stage (each stage
    /// thread owns a private scratch arena — no locking on the hot
    /// path), sharing the code set.
    ///
    /// # Panics
    ///
    /// Panics on invalid receiver parameters (see [`Receiver::new`]).
    pub fn new(
        codes: Vec<PnCode>,
        phy: PhyProfile,
        config: ReceiverConfig,
        runtime: RuntimeConfig,
    ) -> RxFlowgraph {
        let block_size = runtime.block_size.max(1);
        RxFlowgraph {
            sync: SyncStage {
                receiver: Receiver::new(codes.clone(), phy, config),
                inflight: HashMap::new(),
            },
            detect: DetectStage {
                receiver: Receiver::new(codes.clone(), phy, config),
                block_size,
            },
            decode: DecodeStage {
                receiver: Receiver::new(codes.clone(), phy, config),
            },
            sic: SicStage {
                receiver: Receiver::new(codes.clone(), phy, config),
            },
            pool_receivers: Vec::new(),
            codes,
            phy,
            config,
            runtime,
            tracer: None,
            metrics: None,
            fault: FaultPlan::default(),
        }
    }

    /// Attaches a span tracer: each run records a `flowgraph` root with
    /// per-stage `sync_stage` / `detect_stage` / `decode_stage` /
    /// `sic_stage` children, under which every capture contributes
    /// `stage_wait` (ring pop) and `stage_run` (arg = capture seq)
    /// spans.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Attaches a metrics registry: runs record `cbma.rx.runtime.*`
    /// stage timers, block/capture counters and the ring high-water
    /// gauge. These are volatile (scheduling-dependent) — keep them off
    /// registries that feed deterministic manifests.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RuntimeMetrics::register(registry));
    }

    /// The runtime configuration the flowgraph was built with.
    #[inline]
    pub fn runtime_config(&self) -> RuntimeConfig {
        self.runtime
    }

    /// Arms a one-shot injected panic in `stage` at capture `seq` (test
    /// hook for the failure-path suite).
    #[doc(hidden)]
    pub fn inject_panic(&mut self, stage: StageKind, seq: u64) {
        self.fault.panic_at = Some((stage, seq));
    }

    /// Runs `source` to exhaustion and returns every capture's report,
    /// per stream in capture order, plus run stats.
    ///
    /// # Errors
    ///
    /// [`FlowgraphError`] if a stage panicked (thread-per-stage
    /// scheduler): the pipeline is poisoned, drained and joined — never
    /// left hanging. On the inline scheduler a stage panic propagates to
    /// the caller directly.
    pub fn run<S: SampleSource + Send>(&mut self, source: S) -> Result<RunOutput, FlowgraphError> {
        let mut results = Vec::new();
        let stats = self.run_with_sink(source, |r| results.push(r))?;
        Ok(RunOutput { results, stats })
    }

    /// Like [`RxFlowgraph::run`], but hands each in-order result to
    /// `sink` as soon as it is available — the backpressure boundary: a
    /// slow sink throttles the whole pipeline back to the source instead
    /// of queueing unboundedly.
    pub fn run_with_sink<S: SampleSource + Send>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
    ) -> Result<RunStats, FlowgraphError> {
        // Faults are one-shot: taking the plan here means a run that
        // failed (by injection) leaves the flowgraph reusable.
        let fault = std::mem::take(&mut self.fault);
        match self.runtime.scheduler {
            Scheduler::Inline => self.run_inline(source, sink, fault),
            Scheduler::ThreadPerStage => self.run_threaded(source, sink, fault),
            Scheduler::WorkStealing { workers, pin } => {
                self.run_worksteal(source, sink, fault, workers, pin)
            }
        }
    }

    /// Builds the per-stage observability contexts (and the guards whose
    /// lifetime scopes the run).
    fn stage_obs(&self) -> (Option<cbma_obs::trace::SpanGuard>, Vec<StageObs>, [Option<cbma_obs::trace::SpanGuard>; 4]) {
        let ctx = self.tracer.as_ref().map(|t| (t.clone(), t.new_trace()));
        let root = ctx.as_ref().map(|(t, tr)| t.span(*tr, None, "flowgraph"));
        let root_id = root.as_ref().map(|s| s.id());
        let names = ["sync_stage", "detect_stage", "decode_stage", "sic_stage"];
        let mut guards: [Option<cbma_obs::trace::SpanGuard>; 4] = [None, None, None, None];
        let mut obs = Vec::with_capacity(4);
        for (i, name) in names.into_iter().enumerate() {
            guards[i] = ctx.as_ref().map(|(t, tr)| t.span(*tr, root_id, name));
            obs.push(StageObs {
                ctx: ctx
                    .as_ref()
                    .zip(guards[i].as_ref())
                    .map(|((t, tr), g)| (t.clone(), *tr, g.id())),
                run_ns: self.metrics.as_ref().map(|m| m.stage_run_ns.clone()),
                wait_ns: self.metrics.as_ref().map(|m| m.stage_wait_ns.clone()),
            });
        }
        (root, obs, guards)
    }

    /// Records end-of-run totals into the attached metrics.
    fn record_stats(&self, stats: &RunStats) {
        if let Some(metrics) = &self.metrics {
            metrics.blocks.add(stats.blocks);
            metrics.captures.add(stats.captures);
            for &depth in &stats.ring_max_depth {
                metrics.ring_depth.max(depth as f64);
            }
            metrics.steal_count.add(stats.steals);
            metrics.local_hit.add(stats.local_hits);
        }
    }

    fn run_inline<S: SampleSource>(
        &mut self,
        mut source: S,
        mut sink: impl FnMut(StreamResult),
        fault: FaultPlan,
    ) -> Result<RunStats, FlowgraphError> {
        let (_root, obs, _guards) = self.stage_obs();
        let mut stats = RunStats::default();
        let mut emitter = InOrderEmitter::default();
        while let Some(block) = source.next_block() {
            stats.blocks += 1;
            let seq = block.seq;
            let synced = obs[0].run(seq, || self.sync.on_block(block, &fault));
            if let Some(cap) = synced {
                let det = obs[1].run(seq, || self.detect.on_capture(cap, &fault));
                let dec = obs[2].run(seq, || self.decode.on_capture(det, &fault));
                let res = obs[3].run(seq, || self.sic.on_capture(dec, &fault));
                stats.captures += 1;
                emitter.insert(res.stream, res.seq, res.report);
                for r in emitter.take_ready() {
                    sink(r);
                }
            }
        }
        self.record_stats(&stats);
        Ok(stats)
    }

    fn run_worksteal<S: SampleSource + Send>(
        &mut self,
        source: S,
        sink: impl FnMut(StreamResult),
        fault: FaultPlan,
        workers: usize,
        pin: bool,
    ) -> Result<RunStats, FlowgraphError> {
        let workers = Scheduler::effective_workers(workers);
        while self.pool_receivers.len() < workers {
            self.pool_receivers
                .push(Receiver::new(self.codes.clone(), self.phy, self.config));
        }
        let (stats, failure) = worksteal::run(
            worksteal::PoolParams {
                receivers: &mut self.pool_receivers[..workers],
                block_size: self.runtime.block_size.max(1),
                ring_capacity: self.runtime.ring_capacity.max(1),
                pin,
                tracer: self.tracer.as_ref(),
                metrics: self.metrics.as_ref(),
                fault,
            },
            source,
            sink,
        );
        self.record_stats(&stats);
        match failure {
            Some(err) => Err(err),
            None => Ok(stats),
        }
    }

    fn run_threaded<S: SampleSource + Send>(
        &mut self,
        mut source: S,
        mut sink: impl FnMut(StreamResult),
        fault: FaultPlan,
    ) -> Result<RunStats, FlowgraphError> {
        let cap = self.runtime.ring_capacity.max(1);
        let (_root, obs, _guards) = self.stage_obs();

        let (blk_tx, blk_rx) = ring::<SourceBlock>(cap);
        let (syn_tx, syn_rx) = ring::<SyncedCapture>(cap);
        let (det_tx, det_rx) = ring::<DetectedCapture>(cap);
        let (dec_tx, dec_rx) = ring::<DecodedCapture>(cap);
        let (res_tx, res_rx) = ring::<StreamResult>(cap);
        let probes = (
            blk_rx.probe(),
            syn_rx.probe(),
            det_rx.probe(),
            dec_rx.probe(),
            res_rx.probe(),
        );

        let sync = &mut self.sync;
        let detect = &mut self.detect;
        let decode = &mut self.decode;
        let sic = &mut self.sic;

        let mut stats = RunStats::default();
        let mut failure: Option<FlowgraphError> = None;

        std::thread::scope(|scope| {
            let source_handle = scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(block) = source.next_block() {
                        if blk_tx.push(block).is_err() {
                            break;
                        }
                    }
                }));
                if let Err(payload) = r {
                    blk_tx.poison(format!("source panicked: {}", panic_message(payload)));
                }
            });

            let sync_obs = obs[0].clone();
            let sync_handle = scope.spawn(move || {
                let mut blocks = 0u64;
                let r = catch_unwind(AssertUnwindSafe(|| -> Result<(), RingError> {
                    loop {
                        match sync_obs.wait(|| blk_rx.pop())? {
                            None => return Ok(()),
                            Some(block) => {
                                blocks += 1;
                                let seq = block.seq;
                                if let Some(cap) =
                                    sync_obs.run(seq, || sync.on_block(block, &fault))
                                {
                                    syn_tx.push(cap)?;
                                }
                            }
                        }
                    }
                }));
                settle_stage("sync", r, &syn_tx);
                blocks
            });

            let detect_obs = obs[1].clone();
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| -> Result<(), RingError> {
                    loop {
                        match detect_obs.wait(|| syn_rx.pop())? {
                            None => return Ok(()),
                            Some(cap) => {
                                let out =
                                    detect_obs.run(cap.seq, || detect.on_capture(cap, &fault));
                                det_tx.push(out)?;
                            }
                        }
                    }
                }));
                settle_stage("detect", r, &det_tx);
            });

            let decode_obs = obs[2].clone();
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| -> Result<(), RingError> {
                    loop {
                        match decode_obs.wait(|| det_rx.pop())? {
                            None => return Ok(()),
                            Some(cap) => {
                                let out =
                                    decode_obs.run(cap.seq, || decode.on_capture(cap, &fault));
                                dec_tx.push(out)?;
                            }
                        }
                    }
                }));
                settle_stage("decode", r, &dec_tx);
            });

            let sic_obs = obs[3].clone();
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| -> Result<(), RingError> {
                    loop {
                        match sic_obs.wait(|| dec_rx.pop())? {
                            None => return Ok(()),
                            Some(cap) => {
                                let out = sic_obs.run(cap.seq, || sic.on_capture(cap, &fault));
                                res_tx.push(out)?;
                            }
                        }
                    }
                }));
                settle_stage("sic", r, &res_tx);
            });

            // The caller's thread is the sink: pop in completion order,
            // emit in (stream, seq) order.
            let res_rx = res_rx;
            let mut emitter = InOrderEmitter::default();
            loop {
                match res_rx.pop() {
                    Ok(Some(r)) => {
                        stats.captures += 1;
                        emitter.insert(r.stream, r.seq, r.report);
                        for r in emitter.take_ready() {
                            sink(r);
                        }
                    }
                    Ok(None) => break,
                    Err(RingError::Poisoned(message)) => {
                        failure = Some(FlowgraphError { message });
                        break;
                    }
                    Err(RingError::Disconnected) => {
                        failure = Some(FlowgraphError {
                            message: "pipeline disconnected".into(),
                        });
                        break;
                    }
                }
            }
            // Dropping the sink ring unblocks a poisoned pipeline's
            // upstream stages; the scope then joins every thread (no
            // leaks, no hangs) before we return.
            drop(res_rx);
            stats.blocks = sync_handle.join().unwrap_or(0);
            let _ = source_handle.join();
        });

        stats.ring_max_depth = vec![
            probes.0.max_depth(),
            probes.1.max_depth(),
            probes.2.max_depth(),
            probes.3.max_depth(),
            probes.4.max_depth(),
        ];
        self.record_stats(&stats);
        match failure {
            Some(err) => Err(err),
            None => Ok(stats),
        }
    }
}

impl std::fmt::Debug for RxFlowgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxFlowgraph")
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

/// Converts a stage body's exit into ring state: clean finishes let the
/// producer's `Drop` end the stream, poisoning (from upstream or a
/// panic) propagates downstream with the original message, and a
/// disconnected downstream just exits (the disconnect cascades via the
/// dropped consumer).
fn settle_stage<T>(
    name: &'static str,
    result: std::thread::Result<Result<(), RingError>>,
    out: &Producer<T>,
) {
    match result {
        Ok(Ok(())) | Ok(Err(RingError::Disconnected)) => {}
        Ok(Err(RingError::Poisoned(message))) => out.poison(message),
        Err(payload) => out.poison(format!(
            "{name} stage panicked: {}",
            panic_message(payload)
        )),
    }
}

/// Best-effort panic payload stringification.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbma_codes::{CodeFamily, GoldFamily};

    fn flowgraph(scheduler: Scheduler) -> RxFlowgraph {
        let codes = GoldFamily::new(5).unwrap().codes(2).unwrap();
        RxFlowgraph::new(
            codes,
            PhyProfile::paper_default(),
            ReceiverConfig::default(),
            RuntimeConfig {
                block_size: 256,
                ring_capacity: 2,
                scheduler,
            },
        )
    }

    #[test]
    fn scheduler_names_round_trip() {
        let all = [
            Scheduler::Inline,
            Scheduler::ThreadPerStage,
            Scheduler::WorkStealing {
                workers: 0,
                pin: false,
            },
            Scheduler::WorkStealing {
                workers: 0,
                pin: true,
            },
            Scheduler::WorkStealing {
                workers: 4,
                pin: false,
            },
            Scheduler::WorkStealing {
                workers: 16,
                pin: true,
            },
        ];
        for s in all {
            assert_eq!(Scheduler::parse(&s.name()), Some(s), "{}", s.name());
        }
        // The legacy long form still parses.
        assert_eq!(
            Scheduler::parse("thread-per-stage"),
            Some(Scheduler::ThreadPerStage)
        );
        for bad in [
            "",
            "coalesced",
            "worksteal:",
            "worksteal:x",
            "worksteal:4:pin:extra",
            "worksteal::pin",
            "worksteal:pin:4",
        ] {
            assert_eq!(Scheduler::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn silence_flows_through_every_scheduler() {
        for scheduler in [
            Scheduler::Inline,
            Scheduler::ThreadPerStage,
            Scheduler::WorkStealing {
                workers: 2,
                pin: false,
            },
        ] {
            let mut flow = flowgraph(scheduler);
            let source =
                CaptureSource::single_stream(256, vec![vec![Iq::ZERO; 1500], Vec::new()]);
            let out = flow.run(source).expect("clean run");
            assert_eq!(out.results.len(), 2, "{scheduler:?}");
            assert_eq!(out.stats.captures, 2);
            assert!(out.results.iter().all(|r| !r.report.frame_detected));
            assert_eq!(
                out.results.iter().map(|r| r.seq).collect::<Vec<_>>(),
                vec![0, 1]
            );
        }
    }

    #[test]
    fn reruns_reuse_the_flowgraph() {
        let mut flow = flowgraph(Scheduler::ThreadPerStage);
        for _ in 0..2 {
            let source = CaptureSource::single_stream(100, vec![vec![Iq::ZERO; 900]]);
            let out = flow.run(source).expect("clean run");
            assert_eq!(out.results.len(), 1);
            assert_eq!(out.stats.blocks, 9);
        }
    }
}
