//! Regression: every overlap-save path shares one carry-over
//! normalization for ragged final blocks.
//!
//! A window whose length is not a multiple of the FFT block leaves a
//! final block shorter than the transform; each engine must zero-pad it
//! through the same `load_block` helper so the one-shot batch pass, the
//! chunk-fed [`BatchStream`], and the multi-window fallback (mixed
//! window sizes route through `fallback_multi` →
//! `BatchCorrelator::correlate_iq_into`) all produce
//! **bit-identical** correlation rows — especially the rows of the last
//! window, whose tail is the ragged one.

use cbma_dsp::{BatchCorrelator, BatchScratch, MultiWindowCorrelator, WindowScratch};
use cbma_types::Iq;

fn signal(n: usize, seed: u64) -> Vec<Iq> {
    (0..n)
        .map(|i| {
            let t = i as f64 + seed as f64 * 0.61;
            Iq::new((0.29 * t).sin() + 0.15, (0.173 * t).cos() - 0.08)
        })
        .collect()
}

fn references(k: usize, l: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            (0..l)
                .map(|i| if (i * 5 + c * 3) % 4 < 2 { 1.0 } else { -1.0 })
                .collect()
        })
        .collect()
}

fn assert_rows_bit_identical(got: &[Iq], want: &[Iq], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: row length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.re.to_bits(), g.im.to_bits()),
            (w.re.to_bits(), w.im.to_bits()),
            "{label}: lag {i}"
        );
    }
}

/// The last window of a mixed-size multi-window batch ends in a ragged
/// final block. Its correlation rows must be bit-identical across the
/// one-shot pass, the streamed pass under several chunkings, and the
/// multi-window fallback.
#[test]
fn ragged_final_block_rows_are_bit_identical_across_paths() {
    let refs = references(3, 64);
    let batch = BatchCorrelator::new(&refs);
    let multi = MultiWindowCorrelator::new(&refs);

    // Window lengths chosen so the batch mixes block specs (forcing the
    // fallback path) and the last window needs a multi-block walk whose
    // final block is ragged (1731 is far from any power of two).
    let bufs: Vec<Vec<Iq>> = vec![signal(100, 1), signal(2000, 2), signal(1731, 3)];
    let windows: Vec<&[Iq]> = bufs.iter().map(|b| b.as_slice()).collect();

    let mut ws = WindowScratch::new();
    multi.correlate_iq_multi(&windows, &mut ws);

    for (w, window) in windows.iter().enumerate() {
        // One-shot reference rows.
        let mut one_shot = BatchScratch::new();
        batch.correlate_iq_into(window, &mut one_shot);

        for k in 0..batch.num_codes() {
            assert_rows_bit_identical(
                ws.row(w, k),
                one_shot.code(k),
                &format!("fallback window {w} code {k}"),
            );
        }

        // Streamed rows, under chunkings that misalign with the FFT
        // block every way the runtime can: single samples, a prime, a
        // power of two, and the whole window at once.
        for chunk in [1usize, 251, 512, window.len().max(1)] {
            let mut streamed = BatchScratch::new();
            let mut stream = batch.begin_stream(window.len(), &mut streamed);
            for block in window.chunks(chunk) {
                stream.feed(&batch, block, &mut streamed);
            }
            stream.finish(&batch, &mut streamed);
            assert_eq!(streamed.lags(), one_shot.lags());
            for k in 0..batch.num_codes() {
                assert_rows_bit_identical(
                    streamed.code(k),
                    one_shot.code(k),
                    &format!("stream chunk {chunk} window {w} code {k}"),
                );
            }
        }
    }
}

/// Degenerate windows: shorter than the reference (zero lags) and
/// exactly the reference length (one lag) stream safely.
#[test]
fn degenerate_streams_match_one_shot() {
    let refs = references(2, 32);
    let batch = BatchCorrelator::new(&refs);
    for n in [0usize, 1, 31, 32, 33] {
        let window = signal(n, 7);
        let mut want = BatchScratch::new();
        batch.correlate_iq_into(&window, &mut want);
        let mut got = BatchScratch::new();
        let mut stream = batch.begin_stream(n, &mut got);
        for block in window.chunks(3) {
            stream.feed(&batch, block, &mut got);
        }
        stream.finish(&batch, &mut got);
        assert_eq!(got.lags(), want.lags(), "n={n}");
        for k in 0..batch.num_codes() {
            assert_rows_bit_identical(got.code(k), want.code(k), &format!("n={n} code {k}"));
        }
    }
}
