//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples per window of [`windowed_quantile`]: enough for its 95th
/// percentile to have more than ten samples beyond it.
const WINDOW: usize = 256;

/// The median, over consecutive windows of `WINDOW` samples in time order
/// (a short tail joins the last window), of each window's `q`-quantile. A
/// burst of host noise moves only the windows it falls in, so tail
/// percentiles stay comparable between runs on a shared host.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    let full = (samples.len() / WINDOW).max(1);
    let per_window: Vec<f64> = (0..full)
        .map(|w| {
            let end = if w + 1 == full {
                samples.len()
            } else {
                (w + 1) * WINDOW
            };
            quantile(&samples[w * WINDOW..end], q)
        })
        .collect();
    median(&per_window)
}

/// Adds `<name>.q1`, `<name>.median`, `<name>.q3` and `<name>.n` to the
/// extras map, so every reported median travels with its spread.
pub fn describe(extras: &mut std::collections::BTreeMap<String, f64>, name: &str, samples: &[f64]) {
    extras.insert(format!("{name}.q1"), quantile(samples, 0.25));
    extras.insert(format!("{name}.median"), median(samples));
    extras.insert(format!("{name}.q3"), quantile(samples, 0.75));
    extras.insert(format!("{name}.n"), samples.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_burst_in_one_window() {
        let mut xs = vec![1.0; 3 * WINDOW + 10];
        for x in &mut xs[..WINDOW / 2] {
            *x = 100.0;
        }
        assert_eq!(windowed_quantile(&xs, 0.95), 1.0);
        assert_eq!(quantile(&xs[..WINDOW], 0.95), 100.0);
        assert_eq!(windowed_quantile(&xs[WINDOW..WINDOW + 10], 1.0), 1.0);
        assert_eq!(windowed_quantile(&[], 0.5), 0.0);
    }
}
