//! Radio-channel models replacing the paper's office testbed.
//!
//! The paper evaluates CBMA on real hardware in a 4 m × 6 m office
//! (§VII-A). This crate substitutes that environment with physics-faithful
//! models (see DESIGN.md for the substitution table):
//!
//! * [`friis`] — the backscatter link budget of paper Eq. 1, including the
//!   |ΔΓ|²/4 reflection term tuned by the tag's impedance state, used both
//!   for signal synthesis and by the node-selection scheme (Fig. 5),
//! * [`shadowing`] — log-distance path loss with log-normal shadowing for
//!   the "challenging indoor scenarios" variability,
//! * [`multipath`] — Rician tap-delay-line small-scale fading,
//! * [`awgn`] — thermal-plus-leakage noise floor, drawn with a ziggurat
//!   normal sampler (per-deployment and per-frame draws keep Box–Muller;
//!   see DESIGN.md),
//! * [`clock`] — per-tag timing offsets and drift, the asynchrony of
//!   Fig. 11,
//! * [`excitation`] — continuous-tone vs intermittent-OFDM excitation
//!   (Fig. 12 case iv),
//! * [`interference`] — WiFi CSMA/CA bursts and Bluetooth FHSS hops
//!   (Fig. 12 cases ii/iii),
//! * [`mixer`] — superposes every tag's chip waveform, fading, delay,
//!   interference and noise into the receiver's IQ stream.
//!
//! # Examples
//!
//! ```
//! use cbma_channel::friis::BackscatterLink;
//! use cbma_types::geometry::Point;
//!
//! let link = BackscatterLink::paper_default();
//! let p = link.received_power(
//!     Point::from_cm(-50.0, 0.0), // excitation source
//!     Point::new(0.0, 0.3),       // tag
//!     Point::from_cm(50.0, 0.0),  // receiver
//! );
//! assert!(p.get() < 0.0, "backscatter power is far below 1 mW");
//! ```

pub mod awgn;
pub mod clock;
pub mod excitation;
pub mod friis;
pub mod frontend;
pub mod interference;
pub mod mixer;
pub mod multipath;
pub mod shadowing;
mod ziggurat;

pub use awgn::NoiseModel;
pub use clock::ClockModel;
pub use excitation::{Excitation, ExcitationKind};
pub use friis::{BackscatterLink, Sideband};
pub use frontend::AdcModel;
pub use interference::{InterferenceKind, InterferenceModel};
pub use mixer::{Mixer, TagSignal};
pub use multipath::MultipathModel;
pub use shadowing::ShadowingModel;
