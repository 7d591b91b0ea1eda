//! Integration: receiver robustness against degenerate and hostile
//! inputs — a decoder must never panic on garbage.

use cbma::codes::{CodeFamily, TwoNcFamily};
use cbma::prelude::*;
use cbma::rx::{DecoderKind, Receiver, ReceiverConfig};
use cbma::tag::PhyProfile;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn receiver(kind: DecoderKind, sic: usize) -> Receiver {
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
    let config = ReceiverConfig {
        decoder_kind: kind,
        sic_passes: sic,
        ..ReceiverConfig::default()
    };
    Receiver::new(codes, phy, config)
}

#[test]
fn empty_and_tiny_buffers_are_handled() {
    for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
        let mut rx = receiver(kind, 1);
        for len in [0usize, 1, 7, 63, 200] {
            let report = rx.receive(&vec![Iq::ZERO; len]);
            assert!(report.ack.is_empty(), "{kind:?} len {len}: {report:?}");
        }
    }
}

#[test]
fn pure_noise_produces_no_valid_frames() {
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
        let mut rx = receiver(kind, 1);
        for trial in 0..5 {
            let buf: Vec<Iq> = (0..20_000)
                .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            let report = rx.receive(&buf);
            assert!(
                report.ack.is_empty(),
                "{kind:?} trial {trial}: noise decoded as {:?}",
                report.frames()
            );
        }
    }
}

#[test]
fn impulsive_garbage_is_survivable() {
    // Spikes, steps, and saturated runs — the energy detector and
    // correlators must not panic or false-decode.
    let mut rx = receiver(DecoderKind::Coherent, 2);
    let mut buf = vec![Iq::ZERO; 8000];
    for i in (0..8000).step_by(97) {
        buf[i] = Iq::new(1e6, -1e6);
    }
    for s in buf.iter_mut().skip(4000).take(500) {
        *s = Iq::new(f64::MAX / 1e10, 0.0);
    }
    let report = rx.receive(&buf);
    assert!(report.ack.is_empty());
}

#[test]
fn non_finite_samples_never_surface_as_correlations() {
    // One Inf or NaN sample turns every correlation lag that covers it
    // non-finite. Detection must reject those lags on every path (peak
    // picking and the probe fallback), so a reported user always carries
    // a finite correlation.
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
    let mut tag = cbma::tag::Tag::new(1, Point::ORIGIN, codes[1].clone());
    let env = tag.transmit(b"non-finite".to_vec(), &phy).unwrap();
    let mut frame = vec![Iq::ZERO; 400];
    frame.extend(env.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    frame.extend(vec![Iq::ZERO; 64]);

    for kind in [DecoderKind::Coherent, DecoderKind::Envelope] {
        let mut rx = receiver(kind, 1);
        for bad in [Iq::new(f64::INFINITY, 0.0), Iq::new(f64::NAN, f64::NAN)] {
            for at in [40, 200, env.len() / 2] {
                let mut buf = frame.clone();
                buf[400 + at] = bad;
                let report = rx.receive(&buf);
                for user in &report.users {
                    assert!(
                        user.detection.correlation.is_finite(),
                        "{kind:?} {bad:?} at {at}: {:?}",
                        user.detection
                    );
                }
            }
        }
    }
}

#[test]
fn truncated_frames_report_truncation_not_garbage() {
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
    let mut tag = cbma::tag::Tag::new(0, Point::ORIGIN, codes[0].clone());
    let env = tag.transmit(vec![0xEE; 30], &phy).unwrap();
    let mut buf = vec![Iq::ZERO; 400];
    buf.extend(env.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    // Cut the frame off mid-payload.
    buf.truncate(400 + env.len() / 2);

    let mut rx = receiver(DecoderKind::Coherent, 0);
    let report = rx.receive(&buf);
    assert!(!report.ack.acknowledges(0), "truncated frame must not ACK");
}

#[test]
fn receiver_is_pure_across_calls() {
    // The receiver holds no hidden mutable state: the same buffer gives
    // the same report any number of times, interleaved with other work.
    let phy = PhyProfile::paper_default();
    let codes = TwoNcFamily::new(4).unwrap().codes(4).unwrap();
    let mut tag = cbma::tag::Tag::new(2, Point::ORIGIN, codes[2].clone());
    let env = tag.transmit(b"idempotent".to_vec(), &phy).unwrap();
    let mut buf = vec![Iq::ZERO; 400];
    buf.extend(env.iter().map(|&e| Iq::new(0.01 * e, 0.0)));
    buf.extend(vec![Iq::ZERO; 64]);

    let mut rx = receiver(DecoderKind::Coherent, 1);
    let first = rx.receive(&buf);
    let mut rng = StdRng::seed_from_u64(1);
    let noise: Vec<Iq> = (0..5000)
        .map(|_| Iq::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let _ = rx.receive(&noise);
    let second = rx.receive(&buf);
    assert_eq!(first, second);
}

#[test]
fn engine_rejects_nonsense_scenarios_gracefully() {
    // Zero tags.
    assert!(Engine::new(Scenario::paper_default(vec![])).is_err());
    // Chip rate beyond the receiver's sampling capacity.
    let mut s = Scenario::paper_default(vec![Point::ORIGIN]);
    s.phy.chip_rate = Hertz::from_mhz(100.0);
    assert!(Engine::new(s).is_err());
    // More tags than the code family can serve.
    let mut s = Scenario::paper_default(vec![Point::ORIGIN; 40]);
    s.family = FamilyKind::Gold { degree: 5 };
    assert!(Engine::new(s).is_err());
}

#[test]
fn extreme_payload_sizes_work_end_to_end() {
    for payload_len in [0usize, 1, 126] {
        let mut s = Scenario::clean(vec![Point::new(0.0, 0.4)]);
        s.payload_len = payload_len;
        let mut engine = Engine::new(s).unwrap();
        engine.tags_mut()[0].set_impedance(ImpedanceState::Open);
        let stats = engine.run_rounds(3);
        assert_eq!(
            stats.total_delivered(),
            3,
            "payload {payload_len}: {stats:?}"
        );
    }
}
