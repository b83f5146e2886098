//! Property-based equivalence between the fast correlation kernels and
//! their reference formulations: whatever inputs arrive, the bit-packed,
//! prefix-sum, and FFT paths must agree with the scalar / per-offset /
//! direct code they replaced.

use msc_dsp::corr::{
    complex_sliding_corr, normalized_corr, periodic_sliding_corr, quantized_corr, sign_quantize,
    sliding_corr, sliding_corr_direct, sliding_corr_fft, PackedBits,
};
use msc_dsp::Complex64;
use proptest::prelude::*;

/// The pre-rewrite sliding correlation: a full `normalized_corr` per
/// offset, re-deriving window statistics each time.
fn sliding_corr_naive(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let l = template.len();
    (0..=signal.len() - l).map(|off| normalized_corr(&signal[off..off + l], template)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_corr_matches_scalar_quantized(
        raw_a in prop::collection::vec(-1.0f64..1.0, 1..300),
        raw_b in prop::collection::vec(-1.0f64..1.0, 1..300),
        dc in -0.5f64..0.5,
        tie_at in any::<prop::sample::Index>(),
    ) {
        let l = raw_a.len().min(raw_b.len());
        let mut a = raw_a[..l].to_vec();
        let b = &raw_b[..l];
        // Force an exact tie so the x == dc contract is exercised, not
        // just sampled (a uniform draw never hits it).
        a[tie_at.index(l)] = dc;
        let (qa, qb) = (sign_quantize(&a, dc), sign_quantize(b, dc));
        let scalar = quantized_corr(&qa, &qb);
        let packed = PackedBits::from_signal(&a, dc).corr(&PackedBits::from_signal(b, dc));
        prop_assert_eq!(scalar, packed);
        // Packing pre-quantized signs is the same as packing the signal.
        prop_assert_eq!(PackedBits::from_signs(&qa).corr(&PackedBits::from_signs(&qb)), packed);
    }

    #[test]
    fn prefix_sum_sliding_matches_naive(
        signal in prop::collection::vec(-1.0f64..1.0, 64..400),
        template in prop::collection::vec(-1.0f64..1.0, 2..64),
    ) {
        let fast = sliding_corr_direct(&signal, &template);
        let naive = sliding_corr_naive(&signal, &template);
        prop_assert_eq!(fast.len(), naive.len());
        for (off, (f, n)) in fast.iter().zip(&naive).enumerate() {
            prop_assert!((f - n).abs() <= 1e-9, "offset {}: {} vs {}", off, f, n);
        }
    }

    #[test]
    fn fft_sliding_matches_direct(
        signal in prop::collection::vec(-1.0f64..1.0, 128..1024),
        template in prop::collection::vec(-1.0f64..1.0, 32..128),
    ) {
        let direct = sliding_corr_direct(&signal, &template);
        let fft = sliding_corr_fft(&signal, &template);
        prop_assert_eq!(fft.len(), direct.len());
        for (off, (f, d)) in fft.iter().zip(&direct).enumerate() {
            prop_assert!((f - d).abs() <= 1e-9, "offset {}: {} vs {}", off, f, d);
        }
    }

    #[test]
    fn overlap_save_convolution_matches_direct(
        re in prop::collection::vec(-1.0f64..1.0, 64..1200),
        im in prop::collection::vec(-1.0f64..1.0, 64..1200),
        taps in prop::collection::vec(-1.0f64..1.0, 2..160),
    ) {
        let n = re.len().min(im.len());
        let signal: Vec<Complex64> =
            re[..n].iter().zip(&im[..n]).map(|(&r, &i)| msc_dsp::Complex64::new(r, i)).collect();
        let fir = msc_dsp::Fir::new(taps);
        let direct = fir.convolve_direct(&signal);
        let fast = fir.convolve_overlap_save(&signal);
        prop_assert_eq!(fast.len(), direct.len());
        for (k, (f, d)) in fast.iter().zip(&direct).enumerate() {
            prop_assert!((*f - *d).abs() <= 1e-9, "sample {}: {:?} vs {:?}", k, f, d);
        }
    }

    #[test]
    fn dispatching_sliding_corr_agrees_with_naive(
        signal in prop::collection::vec(-1.0f64..1.0, 64..600),
        template in prop::collection::vec(-1.0f64..1.0, 2..96),
    ) {
        // Whatever path the heuristic picks, the answer is the same.
        let auto = sliding_corr(&signal, &template);
        let naive = sliding_corr_naive(&signal, &template);
        for (off, (a, n)) in auto.iter().zip(&naive).enumerate() {
            prop_assert!((a - n).abs() <= 1e-9, "offset {}: {} vs {}", off, a, n);
        }
    }

    #[test]
    fn periodic_sliding_corr_matches_full_probe(
        re in prop::collection::vec(-1.0f64..1.0, 200..1200),
        im in prop::collection::vec(-1.0f64..1.0, 200..1200),
        period in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..24),
        reps in 1usize..12,
        n_out in 0usize..1400,
    ) {
        // An exactly periodic probe: `reps` copies of `period`. The
        // periodic kernel must agree with the full-probe correlation on
        // every offset it returns, and return min(n_out, offsets).
        let n = re.len().min(im.len());
        let samples: Vec<Complex64> =
            re[..n].iter().zip(&im[..n]).map(|(&r, &i)| Complex64::new(r, i)).collect();
        let period: Vec<Complex64> = period.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let probe: Vec<Complex64> = period.iter().cycle().take(period.len() * reps).copied().collect();
        let full = complex_sliding_corr(&samples, &probe);
        let fast = periodic_sliding_corr(&samples, &period, reps, n_out);
        prop_assert_eq!(fast.len(), n_out.min(full.len()));
        for (off, (f, d)) in fast.iter().zip(&full).enumerate() {
            prop_assert!((*f - *d).abs() <= 1e-9, "offset {}: {:?} vs {:?}", off, f, d);
        }
    }
}
