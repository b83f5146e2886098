//! Fast-kernel benchmarks: each rewritten correlation kernel against the
//! naive formulation it replaced, so the speedups stay measured.
//!
//! Emit machine-readable results with
//! `BENCH_JSON_OUT=$PWD/BENCH_kernels.json cargo bench -p msc-bench --bench fast_kernels`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use msc_dsp::corr::{
    complex_sliding_corr, dc_estimate, normalized_corr, periodic_sliding_corr, quantized_corr,
    sign_quantize, sliding_corr_direct, sliding_corr_fft, sliding_energy, PackedBits,
};

/// Deterministic pseudo-random test signal (no rand dependency in the
/// timed path).
fn test_signal(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// The pre-rewrite sliding correlation: one full `normalized_corr` per
/// offset, re-deriving window statistics every time.
fn sliding_corr_naive(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let (n, l) = (signal.len(), template.len());
    (0..=n - l).map(|off| normalized_corr(&signal[off..off + l], template)).collect()
}

fn bench_packed(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_corr_120");
    let a = test_signal(120, 1);
    let b = test_signal(120, 2);
    let (qa, qb) = (sign_quantize(&a, 0.0), sign_quantize(&b, 0.0));
    group.bench_function("scalar", |bench| {
        bench.iter(|| quantized_corr(black_box(&qa), black_box(&qb)))
    });
    let (pa, pb) = (PackedBits::from_signs(&qa), PackedBits::from_signs(&qb));
    group.bench_function("bitpacked", |bench| bench.iter(|| black_box(&pa).corr(black_box(&pb))));
    // The per-window path the matcher runs: quantize + pack + correlate
    // against a cached pre-packed template.
    let dc = dc_estimate(&a);
    group.bench_function("quantize_pack_corr", |bench| {
        bench.iter(|| PackedBits::from_signal(black_box(&a), dc).corr_norm(black_box(&pb)))
    });
    group.finish();
}

fn bench_sliding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliding_corr_4000x120");
    let signal = test_signal(4000, 3);
    let template = test_signal(120, 4);
    group.bench_function("naive_per_offset", |bench| {
        bench.iter(|| sliding_corr_naive(black_box(&signal), black_box(&template)))
    });
    group.bench_function("prefix_sum", |bench| {
        bench.iter(|| sliding_corr_direct(black_box(&signal), black_box(&template)))
    });
    group.finish();
}

fn bench_fft_sliding(c: &mut Criterion) {
    let mut group = c.benchmark_group("sliding_corr_8192x512");
    let signal = test_signal(8192, 5);
    let template = test_signal(512, 6);
    group.bench_function("prefix_sum_direct", |bench| {
        bench.iter(|| sliding_corr_direct(black_box(&signal), black_box(&template)))
    });
    group.bench_function("fft", |bench| {
        bench.iter(|| sliding_corr_fft(black_box(&signal), black_box(&template)))
    });
    group.finish();
}

fn bench_stf_sync(c: &mut Criterion) {
    // The 802.11n L-STF sync's correlate + energy step on one overlay
    // packet as the link cells carry it (5,840 samples): the 160-tap
    // FFT matched filter over the whole buffer, against the 16-tap
    // periodic form over the 4000 offsets the sync scans.
    use msc_core::overlay::{params_for, Mode};
    use msc_phy::protocol::Protocol;
    let link = msc_rx::WifiNOverlayLink::new(params_for(Protocol::WifiN, Mode::Mode1));
    let carrier = link.make_carrier(&[1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0]);
    let samples = carrier.samples();
    assert_eq!(samples.len(), 5840, "link-cell packet length");
    // The L-STF opens the frame: ten copies of its 16-sample period.
    let (probe, period) = (&samples[..160], &samples[..16]);
    let mut group = c.benchmark_group("stf_sync_5840");
    group.bench_function("fft_matched_filter", |bench| {
        bench.iter(|| {
            let accs = complex_sliding_corr(black_box(samples), probe);
            (accs, sliding_energy(samples, 160))
        })
    });
    group.bench_function("periodic_16tap", |bench| {
        bench.iter(|| {
            let accs = periodic_sliding_corr(black_box(samples), period, 10, 4000);
            (accs, sliding_energy(&samples[..4000 + 159], 160))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_packed, bench_sliding, bench_fft_sliding, bench_stf_sync
}
criterion_main!(benches);
