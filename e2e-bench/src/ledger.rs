//! The per-layer cost ledger: replays a realised round's layer calls on
//! equivalent inputs, one public call at a time, inside benchmark-side
//! spans.
//!
//! `Engine::run_round` realises the tag and channel layers in a private
//! function, so they cannot be timed in place. The replay rebuilds the
//! same work from public pieces: the engine's tags and
//! `Engine::payload_for`, the round's `SignalMeta` (amplitude, phase,
//! delay), the scenario's public channel models, and the captured IQ.
//! Random draws (noise, fading taps) come from the benchmark's own
//! generator, so the replayed samples differ from the captured ones, but
//! every call does the same amount of work: the replayed capture must have
//! exactly the captured length, or the replay counts as failed.

use std::time::Instant;

use cbma::channel::{Mixer, TagSignal};
use cbma::codes::PnCode;
use cbma::dsp::resample::{fit_length, fractional_delay};
use cbma::obs::{SpanId, TraceId, Tracer};
use cbma::rx::{Receiver, RxReport};
use cbma::tag::Tag;
use cbma::types::{Iq, SeedSequence};
use cbma::{RoundOutcome, Scenario};
use rand::rngs::StdRng;

/// Noise-only samples `Engine::run_round`'s mixer appends after the
/// burst.
const MIXER_TAIL: usize = 64;

/// Nanosecond sums per layer over the replayed rounds.
#[derive(Debug, Default, Clone)]
pub struct LayerSums {
    pub rounds: u64,
    pub tag_transmit_ns: u64,
    pub frames: u64,
    pub noise_ns: u64,
    pub interference_ns: u64,
    pub excitation_ns: u64,
    pub fading_ns: u64,
    pub delay_ns: u64,
    pub mix_ns: u64,
    pub combine_ns: u64,
    pub samples: u64,
    pub rx_receive_ns: u64,
    /// Sum of the measured `Engine::run_round` times of the same rounds.
    pub round_ns: u64,
}

impl LayerSums {
    /// The channel layer's total: every replayed channel call.
    pub fn channel_ns(&self) -> u64 {
        self.noise_ns
            + self.interference_ns
            + self.excitation_ns
            + self.fading_ns
            + self.delay_ns
            + self.mix_ns
    }

    /// Tag + channel + rx: the attributed part of a round.
    pub fn attributed_ns(&self) -> u64 {
        self.tag_transmit_ns + self.channel_ns() + self.rx_receive_ns
    }

    fn us(&self, ns: u64) -> f64 {
        ns as f64 / self.rounds.max(1) as f64 / 1e3
    }

    /// Writes the tag and channel rows (per round, in µs) into `metrics`.
    pub fn report_sim_side(&self, metrics: &mut std::collections::BTreeMap<&'static str, f64>) {
        let n = self.rounds.max(1) as f64;
        let us = |ns: u64| self.us(ns);
        metrics.insert("tag.transmit_us", us(self.tag_transmit_ns));
        metrics.insert("tag.frames", self.frames as f64 / n);
        metrics.insert("channel.noise_us", us(self.noise_ns));
        metrics.insert("channel.interference_us", us(self.interference_ns));
        metrics.insert("channel.excitation_us", us(self.excitation_ns));
        metrics.insert("channel.fading_us", us(self.fading_ns));
        metrics.insert("channel.delay_us", us(self.delay_ns));
        metrics.insert("channel.mix_us", us(self.mix_ns));
        metrics.insert("channel.combine_us", us(self.combine_ns));
        metrics.insert("channel.samples", self.samples as f64 / n);
    }

    /// Writes every row of [`LayerSums::report_sim_side`] plus the rx
    /// replay and the sim rows: the measured round, the unattributed
    /// remainder and the ledger closure. Returns the closure (attributed +
    /// non-negative remainder over the measured round time).
    pub fn report(&self, metrics: &mut std::collections::BTreeMap<&'static str, f64>) -> f64 {
        self.report_sim_side(metrics);
        metrics.insert("rx.receive_us", self.us(self.rx_receive_ns));
        let round = self.us(self.round_ns);
        let attributed = self.us(self.attributed_ns());
        let unattributed = round - attributed;
        metrics.insert("sim.round_us", round);
        metrics.insert("sim.unattributed_us", unattributed);
        metrics.insert("sim.unattributed_share", unattributed / round.max(1e-9));
        let closure = (attributed + unattributed.max(0.0)) / round.max(1e-9);
        metrics.insert("sim.ledger_closure", closure);
        closure
    }
}

/// Opens span `name`, runs `f`, adds its wall time to `acc`.
pub fn timed<T>(
    spans: &Spans,
    parent: Option<SpanId>,
    name: &'static str,
    acc: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let span = spans.tracer.span(spans.trace, parent, name);
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    span.finish();
    out
}

/// The tracer and trace id a replay records into.
pub struct Spans {
    pub tracer: Tracer,
    pub trace: TraceId,
}

/// The spreading codes an engine built from `scenario` assigns to its
/// tags (code `i` to tag `i`).
pub fn codes(scenario: &Scenario) -> Vec<PnCode> {
    scenario
        .family
        .build()
        .and_then(|family| family.codes(scenario.n_tags()))
        .expect("the engine was built from this scenario's code family")
}

/// Replays rounds of one engine.
pub struct Replayer {
    scenario: Scenario,
    tags: Vec<Tag>,
    receiver: Receiver,
    rng: StdRng,
}

impl Replayer {
    /// A replayer for an engine built from `scenario` with `tags`: it
    /// keeps its own copies of both, and a receiver built from the same
    /// codes, PHY and configuration.
    pub fn new(scenario: &Scenario, tags: &[Tag], seed: u64) -> Replayer {
        Replayer {
            scenario: scenario.clone(),
            tags: tags.to_vec(),
            receiver: Receiver::new(codes(scenario), scenario.phy, scenario.rx_config),
            rng: SeedSequence::new(seed).rng("ledger-replay"),
        }
    }

    /// Replays the tag and channel layers of a round whose realised
    /// outcome is `outcome`, whose capture had `captured_len` samples, and
    /// in which tag `i` sent `payload_for(i)`.
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the replayed capture length
    /// differs from the captured one (the replay did different work).
    #[allow(clippy::too_many_arguments)]
    pub fn replay_sim(
        &mut self,
        payload_for: impl Fn(usize) -> Vec<u8>,
        outcome: &RoundOutcome,
        captured_len: usize,
        sums: &mut LayerSums,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let scenario = &self.scenario;
        let phy = scenario.phy;
        let rng = &mut self.rng;

        let mut signals = Vec::with_capacity(outcome.signal_meta.len());
        for meta in &outcome.signal_meta {
            let payload = payload_for(meta.tag);
            let tag = &mut self.tags[meta.tag];
            let envelope = timed(
                spans,
                parent,
                "tag.transmit",
                &mut sums.tag_transmit_ns,
                || tag.transmit(payload, &phy),
            )
            .map_err(|e| format!("replayed transmit failed: {e}"))?;
            let taps = timed(spans, parent, "channel.fading", &mut sums.fading_ns, || {
                scenario.multipath.realize(rng)
            });
            signals.push(TagSignal {
                envelope,
                amplitude: meta.amplitude,
                phase: meta.phase,
                taps,
                delay_samples: meta.delay_samples,
                freq_offset_rad_per_sample: 0.0,
            });
        }
        sums.frames += signals.len() as u64;

        let mixer = Mixer {
            noise: scenario.noise,
            bandwidth: phy.sample_rate,
            excitation: scenario.excitation,
            interference: scenario.interference,
            lead_in: 4 * scenario.rx_config.energy_window.max(32),
            tail: MIXER_TAIL,
        };
        let combined = timed(
            spans,
            parent,
            "channel.combine",
            &mut sums.combine_ns,
            || mixer.combine(rng, &signals),
        );
        if combined.len() != captured_len {
            return Err(format!(
                "replayed capture has {} samples, the engine's had {captured_len}",
                combined.len()
            ));
        }
        drop(combined);

        // The same work again, one channel call at a time.
        let total = captured_len;
        let mut buf = timed(spans, parent, "channel.noise", &mut sums.noise_ns, || {
            scenario.noise.samples(rng, total, phy.sample_rate)
        });
        timed(
            spans,
            parent,
            "channel.interference",
            &mut sums.interference_ns,
            || {
                let waveform = scenario.interference.waveform(rng, total);
                for (b, x) in buf.iter_mut().zip(waveform) {
                    *b += x;
                }
            },
        );
        let mask = timed(
            spans,
            parent,
            "channel.excitation",
            &mut sums.excitation_ns,
            || scenario.excitation.availability_mask(rng, total),
        );
        for sig in &signals {
            let tap_tail = sig.taps.taps().iter().map(|(d, _)| *d).max().unwrap_or(0);
            let extent = sig.delay_samples.ceil() as usize + sig.envelope.len() + tap_tail;
            let padded = timed(spans, parent, "channel.mix", &mut sums.mix_ns, || {
                let step = Iq::phasor(sig.freq_offset_rad_per_sample);
                let mut phasor = Iq::phasor(sig.phase);
                let clean: Vec<Iq> = sig
                    .envelope
                    .iter()
                    .map(|&e| {
                        let sample = phasor.scale(e * sig.amplitude);
                        phasor *= step;
                        sample
                    })
                    .collect();
                fit_length(&clean, extent)
            });
            let faded = timed(spans, parent, "channel.fading", &mut sums.fading_ns, || {
                sig.taps.apply(&padded)
            });
            let delayed = timed(spans, parent, "channel.delay", &mut sums.delay_ns, || {
                fractional_delay(&faded, sig.delay_samples)
            });
            timed(spans, parent, "channel.mix", &mut sums.mix_ns, || {
                for (k, s) in delayed.into_iter().enumerate() {
                    let pos = mixer.lead_in + k;
                    if pos < buf.len() {
                        buf[pos] += s.scale(mask[pos]);
                    }
                }
            });
        }
        if let Some(adc) = scenario.adc {
            timed(spans, parent, "channel.mix", &mut sums.mix_ns, || {
                adc.quantize(rng, &mut buf)
            });
        }
        std::hint::black_box(&buf);
        sums.samples += total as u64;
        Ok(())
    }

    /// Replays the rx layer: `Receiver::receive` on the captured IQ.
    pub fn replay_rx(
        &mut self,
        iq: &[Iq],
        sums: &mut LayerSums,
        spans: &Spans,
        parent: Option<SpanId>,
    ) -> RxReport {
        let receiver = &mut self.receiver;
        timed(spans, parent, "rx.receive", &mut sums.rx_receive_ns, || {
            receiver.receive(iq)
        })
    }
}

/// A capture's decisions: decoded tag ids with their payload bytes,
/// sorted by id.
pub fn decisions(report: &RxReport) -> Vec<(usize, Vec<u8>)> {
    let mut out: Vec<(usize, Vec<u8>)> = report
        .frames()
        .into_iter()
        .map(|(id, frame)| (id, frame.payload().to_vec()))
        .collect();
    out.sort();
    out
}

/// Rx-layer counts summed over captures.
#[derive(Debug, Default, Clone)]
pub struct RxSums {
    pub captures: u64,
    pub frame_sync_ns: u64,
    pub user_detect_ns: u64,
    pub decode_ns: u64,
    pub candidates: u64,
    pub decode_failures: u64,
    pub aliases: u64,
    pub frames: u64,
}

impl RxSums {
    /// Adds one capture's report telemetry.
    pub fn add(&mut self, report: &RxReport) {
        let t = &report.telemetry;
        self.captures += 1;
        self.frame_sync_ns += t.frame_sync_ns;
        self.user_detect_ns += t.user_detect_ns;
        self.decode_ns += t.decode_ns;
        self.candidates += t.candidates_evaluated as u64;
        self.decode_failures += t.decode_failures as u64;
        self.aliases += t.aliases_suppressed as u64;
        self.frames += report.frames().len() as u64;
    }

    /// Writes the rx stage rows (per capture) into `metrics`.
    pub fn report(&self, metrics: &mut std::collections::BTreeMap<&'static str, f64>) {
        let n = self.captures.max(1) as f64;
        metrics.insert("rx.frame_sync_us", self.frame_sync_ns as f64 / n / 1e3);
        metrics.insert("rx.user_detect_us", self.user_detect_ns as f64 / n / 1e3);
        metrics.insert("rx.decode_us", self.decode_ns as f64 / n / 1e3);
        metrics.insert("rx.candidates", self.candidates as f64 / n);
        metrics.insert("rx.decode_failures", self.decode_failures as f64 / n);
        metrics.insert("rx.aliases_suppressed", self.aliases as f64 / n);
        metrics.insert(
            "rx.decode_yield",
            self.frames as f64 / self.candidates.max(1) as f64,
        );
    }
}

/// Writes the Perfetto (Chrome trace-event) export of `tracer` for this
/// run and returns its path.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> std::path::PathBuf {
    let path = crate::out_dir().join(format!("trace-{workload}-seed{seed}.json"));
    if let Err(e) = std::fs::write(&path, tracer.chrome_trace(None)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}
