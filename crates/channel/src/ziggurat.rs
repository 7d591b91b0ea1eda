//! Ziggurat sampler for the bulk Gaussian sample streams.
//!
//! Receiver noise ([`NoiseModel::samples`](crate::NoiseModel::samples))
//! and interference bursts
//! ([`InterferenceModel::waveform`](crate::InterferenceModel::waveform))
//! draw two independent normals for every sample of a capture, tens of
//! thousands per round. Box–Muller ([`gaussian`](crate::shadowing::gaussian))
//! spends a `ln`, a `cos` and a `sqrt` on each. The 256-layer ziggurat of
//! Marsaglia & Tsang (2000) covers the density e^(−x²/2) with 255
//! equal-area horizontal layers plus a base strip of the same area that
//! holds the tail beyond [`R`]. About 98.5 % of draws land strictly inside a
//! layer and cost one `u64` draw and one table compare; the rest take the
//! wedge test (one `exp`) or the tail (two `ln`).
//!
//! The layer tables are computed once from [`R`] and [`V`] and shared by
//! every stream; all randomness comes from the caller's generator, so a
//! seeded stream stays reproducible.

use std::sync::OnceLock;

use rand::Rng;

/// Number of layers, including the base strip.
const LAYERS: usize = 256;

/// Right edge of the base strip's rectangle; the tail starts here.
const R: f64 = 3.654_152_885_361_009;

/// Area of every layer (and of the base strip, tail included):
/// R·e^(−R²/2) + ∫_R^∞ e^(−t²/2) dt.
const V: f64 = 4.928_673_233_974_658e-3;

/// Bits 0..52 of a draw: the mantissa of the uniform.
const MANTISSA: u64 = (1 << 52) - 1;

/// Exponent bits of 2.0: with a random mantissa the float is uniform in
/// [2, 4).
const EXP_TWO: u64 = 0x4000_0000_0000_0000;

/// The unnormalised normal density e^(−x²/2).
#[inline]
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Layer edges and their densities.
///
/// `x[i]` is the right edge of layer `i`; `x[0] = V / f(R)` is the width
/// a rectangle of the base strip's area would have, `x[1] = R` and the
/// edges shrink to `x[256] = 0`. `f[i]` is `e^(−x[i]²/2)`.
pub(crate) struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    /// The shared tables, built on first use.
    pub(crate) fn get() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }

    fn build() -> Ziggurat {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / density(R);
        x[1] = R;
        for i in 1..LAYERS - 1 {
            x[i + 1] = Ziggurat::next_edge(x[i]);
        }
        // The recurrence closes at the top of the density: the last edge
        // is 0 up to rounding (see `layer_table_closes`).
        x[LAYERS] = 0.0;
        let f = x.map(density);
        Ziggurat { x, f }
    }

    /// The edge above a layer whose right edge is `x`: the layer has area
    /// `V`, so its top sits at density f(x) + V/x.
    fn next_edge(x: f64) -> f64 {
        (-2.0 * (V / x + density(x)).ln()).sqrt()
    }

    /// Draws one standard-normal sample.
    #[inline]
    pub(crate) fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits >> 56) as usize;
            // Uniform in [-1, 1) from the low 52 bits.
            let u = f64::from_bits(EXP_TWO | (bits & MANTISSA)) - 3.0;
            let x = u * self.x[i];
            if x.abs() < self.x[i + 1] {
                return x;
            }
            if i == 0 {
                return tail(rng, u < 0.0);
            }
            // Wedge: the point lies right of the layer's inner rectangle;
            // accept it if a uniform height falls under the density.
            let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.gen::<f64>();
            if y < density(x) {
                return x;
            }
        }
    }
}

/// Draws from the tail beyond [`R`] (Marsaglia 1964), negated when
/// `negative`.
#[cold]
fn tail<G: Rng + ?Sized>(rng: &mut G, negative: bool) -> f64 {
    loop {
        // 1 − [0, 1) is (0, 1], so both logarithms are finite.
        let a = -(1.0 - rng.gen::<f64>()).ln() / R;
        let b = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * b > a * a {
            return if negative { -(R + a) } else { R + a };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DRAWS: usize = 2_000_000;

    fn draws(seed: u64, n: usize) -> Vec<f64> {
        let zig = Ziggurat::get();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| zig.sample(&mut rng)).collect()
    }

    /// `(k, P(|X| > k), relative tolerance)` for a standard normal; each
    /// tolerance is about four standard errors at `DRAWS` samples.
    const TAILS: [(f64, f64, f64); 4] = [
        (1.0, 0.317_310_507_862_914, 0.01),
        (2.0, 0.045_500_263_896_358, 0.03),
        (3.0, 0.002_699_796_063_260, 0.08),
        (4.0, 0.000_063_342_483_666, 0.35),
    ];

    #[test]
    fn moments_match_standard_normal() {
        let xs = draws(1, DRAWS);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let kurtosis = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        assert!(mean.abs() < 0.003, "mean {mean}");
        assert!((var - 1.0).abs() < 0.005, "variance {var}");
        assert!((kurtosis - 3.0).abs() < 0.03, "kurtosis {kurtosis}");
    }

    #[test]
    fn tail_masses_match_standard_normal() {
        let xs = draws(2, DRAWS);
        for (k, expected, tolerance) in TAILS {
            let beyond = xs.iter().filter(|x| x.abs() > k).count() as f64 / xs.len() as f64;
            assert!(
                (beyond / expected - 1.0).abs() < tolerance,
                "P(|x| > {k}) = {beyond:e}, expected {expected:e}"
            );
        }
    }

    #[test]
    fn base_strip_tail_is_reached_and_lands_beyond_r() {
        // Only the tail branch returns |x| > R: every layer and the base
        // strip's rectangle end at or inside R. P(|X| > R) ≈ 2.6e-4.
        let xs = draws(3, DRAWS);
        let beyond = xs.iter().filter(|x| x.abs() > R).count() as f64 / xs.len() as f64;
        assert!(
            (beyond / 2.58e-4 - 1.0).abs() < 0.15,
            "tail mass {beyond:e}"
        );
        assert!(xs.iter().any(|&x| x > R) && xs.iter().any(|&x| x < -R));

        let mut rng = StdRng::seed_from_u64(4);
        for negative in [false, true] {
            for _ in 0..10_000 {
                let x = tail(&mut rng, negative);
                assert!(x.abs() > R && (x < 0.0) == negative, "tail draw {x}");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(draws(5, 10_000), draws(5, 10_000));
        assert_ne!(draws(5, 100), draws(6, 100));
    }

    #[test]
    fn layer_table_closes() {
        let zig = Ziggurat::get();
        // One more step of the recurrence from the last computed edge
        // lands on the top of the density: its argument is 1, so the edge
        // is 0 up to rounding.
        let top = V / zig.x[LAYERS - 1] + density(zig.x[LAYERS - 1]);
        assert!(
            (top - 1.0).abs() < 1e-12,
            "recurrence ends at density {top}"
        );
        // Edges shrink strictly, and every layer has area V.
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]));
        for i in 1..LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!((area / V - 1.0).abs() < 1e-9, "layer {i} area {area:e}");
        }
        assert!((zig.x[0] * zig.f[1] / V - 1.0).abs() < 1e-12);
    }
}
