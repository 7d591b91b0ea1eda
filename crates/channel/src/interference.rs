//! Ambient interference: WiFi CSMA/CA bursts and Bluetooth FHSS hops.
//!
//! §VII-C.3 / Fig. 12: WiFi and Bluetooth interference degrade the packet
//! reception rate only slightly, because "Bluetooth is based on
//! frequency-hopping spread spectrum and WiFi transmission is based on
//! CSMA/CA with random backup, so the channel is not always occupied."
//! Both properties are modelled here:
//!
//! * **WiFi** occupies the channel in bursts with idle backoff gaps; the
//!   fraction of airtime used is the `traffic_load`.
//! * **Bluetooth** hops pseudo-randomly over 79 1-MHz channels every slot;
//!   only the hops that land inside the receiver's band interfere
//!   (`overlap_probability`).
//!
//! During an active interval the interferer contributes noise-like complex
//! samples at the configured received power, drawn like the receiver noise
//! with the ziggurat normal sampler.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cbma_types::units::Dbm;
use cbma_types::Iq;

use crate::ziggurat::Ziggurat;

/// The interference source present in the environment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InterferenceKind {
    /// A clean channel.
    None,
    /// A WiFi transmitter sharing the band, using CSMA/CA.
    Wifi {
        /// Fraction of airtime occupied, in [0, 1].
        traffic_load: f64,
        /// Mean packet (busy-burst) duration in samples.
        mean_burst_samples: usize,
    },
    /// A Bluetooth piconet hopping across 79 channels.
    Bluetooth {
        /// Probability that a hop lands inside the receiver band
        /// (≈ band-overlap/79 channels).
        overlap_probability: f64,
        /// Hop slot duration in samples (625 µs at the sample rate).
        slot_samples: usize,
    },
}

/// An interference generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// The source kind and its medium-access behaviour.
    pub kind: InterferenceKind,
    /// Received interference power while the source is active in-band.
    pub active_power: Dbm,
}

impl InterferenceModel {
    /// No interference.
    pub fn none() -> InterferenceModel {
        InterferenceModel {
            kind: InterferenceKind::None,
            active_power: Dbm::new(f64::NEG_INFINITY),
        }
    }

    /// A typical office WiFi neighbour: 30 % airtime, bursts of the given
    /// length, received at `active_power`.
    pub fn wifi(active_power: Dbm, mean_burst_samples: usize) -> InterferenceModel {
        InterferenceModel {
            kind: InterferenceKind::Wifi {
                traffic_load: 0.3,
                mean_burst_samples,
            },
            active_power,
        }
    }

    /// A Bluetooth piconet: 20-of-79-channel overlap with a 20 MHz
    /// receiver band, hopping every `slot_samples`.
    pub fn bluetooth(active_power: Dbm, slot_samples: usize) -> InterferenceModel {
        InterferenceModel {
            kind: InterferenceKind::Bluetooth {
                overlap_probability: 20.0 / 79.0,
                slot_samples,
            },
            active_power,
        }
    }

    /// Fraction of samples expected to carry interference.
    pub fn expected_duty(&self) -> f64 {
        match self.kind {
            InterferenceKind::None => 0.0,
            InterferenceKind::Wifi { traffic_load, .. } => traffic_load.clamp(0.0, 1.0),
            InterferenceKind::Bluetooth {
                overlap_probability,
                ..
            } => overlap_probability.clamp(0.0, 1.0),
        }
    }

    /// Generates `n` samples of interference (zeros while inactive).
    pub fn waveform<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Iq> {
        let sigma = (self.active_power.to_watts().get() / 2.0).sqrt();
        let zig = Ziggurat::get();
        let active = |rng: &mut R| Iq::new(zig.sample(rng), zig.sample(rng)).scale(sigma);
        match self.kind {
            InterferenceKind::None => vec![Iq::ZERO; n],
            InterferenceKind::Wifi {
                traffic_load,
                mean_burst_samples,
            } => {
                let load = traffic_load.clamp(0.0, 1.0);
                if load == 0.0 {
                    return vec![Iq::ZERO; n];
                }
                if load >= 1.0 {
                    return (0..n).map(|_| active(rng)).collect();
                }
                let mut out = Vec::with_capacity(n);
                let mean_on = mean_burst_samples.max(1) as f64;
                let mean_off = if load >= 1.0 {
                    0.0
                } else {
                    mean_on * (1.0 - load) / load
                };
                let mut on = rng.gen_bool(load);
                while out.len() < n {
                    let mean = if on { mean_on } else { mean_off.max(1.0) };
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let len = ((-mean * u.ln()).ceil().max(1.0) as usize).min(n - out.len());
                    for _ in 0..len {
                        out.push(if on { active(rng) } else { Iq::ZERO });
                    }
                    on = !on;
                }
                out
            }
            InterferenceKind::Bluetooth {
                overlap_probability,
                slot_samples,
            } => {
                let p = overlap_probability.clamp(0.0, 1.0);
                let slot = slot_samples.max(1);
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let in_band = rng.gen_bool(p);
                    let len = slot.min(n - out.len());
                    for _ in 0..len {
                        out.push(if in_band { active(rng) } else { Iq::ZERO });
                    }
                }
                out
            }
        }
    }
}

impl Default for InterferenceModel {
    fn default() -> InterferenceModel {
        InterferenceModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_all_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = InterferenceModel::none().waveform(&mut rng, 100);
        assert_eq!(w.len(), 100);
        assert!(w.iter().all(|s| s.power() == 0.0));
        assert_eq!(InterferenceModel::none().expected_duty(), 0.0);
    }

    #[test]
    fn wifi_duty_matches_traffic_load() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = InterferenceModel::wifi(Dbm::new(-60.0), 500);
        let w = model.waveform(&mut rng, 500_000);
        let busy = w.iter().filter(|s| s.power() > 0.0).count() as f64 / w.len() as f64;
        assert!((busy - 0.3).abs() < 0.05, "busy fraction {busy}");
    }

    #[test]
    fn wifi_active_power_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = InterferenceModel::wifi(Dbm::new(-60.0), 500);
        let w = model.waveform(&mut rng, 500_000);
        let active: Vec<f64> = w.iter().map(|s| s.power()).filter(|&p| p > 0.0).collect();
        let mean = active.iter().sum::<f64>() / active.len() as f64;
        let expected = Dbm::new(-60.0).to_watts().get();
        assert!(
            (mean / expected - 1.0).abs() < 0.1,
            "active power {mean:e} vs {expected:e}"
        );
    }

    #[test]
    fn bluetooth_hops_in_slots() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = InterferenceModel::bluetooth(Dbm::new(-55.0), 250);
        let w = model.waveform(&mut rng, 100_000);
        // Activity only changes at slot boundaries: within each 250-sample
        // slot, either all samples are active or none.
        for slot in w.chunks(250) {
            let active = slot.iter().filter(|s| s.power() > 0.0).count();
            assert!(active == 0 || active == slot.len());
        }
        let duty = w.iter().filter(|s| s.power() > 0.0).count() as f64 / w.len() as f64;
        assert!((duty - 20.0 / 79.0).abs() < 0.08, "duty {duty}");
    }

    #[test]
    fn waveform_length_is_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 999] {
            assert_eq!(
                InterferenceModel::wifi(Dbm::new(-60.0), 100)
                    .waveform(&mut rng, n)
                    .len(),
                n
            );
            assert_eq!(
                InterferenceModel::bluetooth(Dbm::new(-60.0), 100)
                    .waveform(&mut rng, n)
                    .len(),
                n
            );
        }
    }

    #[test]
    fn full_load_wifi_is_always_busy() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = InterferenceModel {
            kind: InterferenceKind::Wifi {
                traffic_load: 1.0,
                mean_burst_samples: 100,
            },
            active_power: Dbm::new(-50.0),
        };
        let w = model.waveform(&mut rng, 10_000);
        let busy = w.iter().filter(|s| s.power() > 0.0).count();
        assert_eq!(busy, 10_000);
    }
}
