//! Batched in-place channel kernels for the multi-trial SoA engine.
//!
//! The Monte-Carlo engine materializes N independent trials of one cell
//! into a batch of IQ lanes and pushes the whole batch through the
//! uplink channel in one pass per stage: normalize, flat fading, AWGN
//! (and, for impaired cells, a carrier frequency shift). Each lane owns
//! its own RNG stream, so per-trial randomness is identical to the
//! one-trial-at-a-time path — the batch only changes the loop order and
//! the instruction mix.
//!
//! Two implementations back every kernel:
//!
//! * a **scalar** path that is `to_bits`-identical to applying the
//!   single-trial functions ([`crate::awgn::add_noise`],
//!   [`Fading::apply_flat`], `IqBuf::freq_shift_in_place`) lane by
//!   lane, and
//! * an **AVX2+FMA** path (runtime-detected through
//!   [`msc_dsp::simd::avx2_available`], the same pattern as the FFT
//!   butterfly) whose results stay within `1e-12` of the scalar path.
//!
//! The AVX2 AWGN kernel keeps the RNG draws scalar and in-order — the
//! uniforms for four Box–Muller samples are buffered and only the
//! transcendental math (`ln`, `sin`/`cos`) is vectorized — so the RNG
//! stream consumed per lane is exactly the legacy stream. The gain
//! multiply in the fading kernel and the rotation multiply in the
//! freq-shift kernel reuse the FFT butterfly's `addsub` complex-product
//! recipe, which reproduces `Complex64: Mul` bit-for-bit.

use crate::awgn::{add_noise, complex_gaussian};
use crate::fading::Fading;
use msc_dsp::{Complex64, IqBuf};
use rand::Rng;

/// Normalizes every lane to unit mean power, matching the per-trial
/// `mean_power` + `scale` sequence bit-for-bit (the reduction is kept
/// scalar; it is a tiny fraction of the channel cost).
pub fn normalize_batch(lanes: &mut [IqBuf]) {
    for lane in lanes.iter_mut() {
        let p = lane.mean_power();
        if p > 0.0 {
            lane.scale(1.0 / p.sqrt());
        }
    }
}

/// Applies flat fading to every lane, drawing one gain per lane from
/// that lane's RNG (same draw order as [`Fading::apply_flat`]).
pub fn fading_batch<R: Rng>(fading: Fading, rngs: &mut [R], lanes: &mut [IqBuf]) {
    assert_eq!(rngs.len(), lanes.len(), "one RNG stream per lane");
    for (rng, lane) in rngs.iter_mut().zip(lanes.iter_mut()) {
        if matches!(fading, Fading::None) {
            continue;
        }
        let h = fading.sample(rng);
        if h == Complex64::ONE {
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if msc_dsp::simd::avx_available() {
            // Bit-identical to the scalar multiply (addsub recipe).
            unsafe { avx::mul_by_gain(lane.samples_mut(), h) };
            continue;
        }
        for s in lane.samples_mut() {
            *s *= h;
        }
    }
}

/// Adds AWGN of total power `noise_power` to every lane, one lane RNG
/// each. Scalar path is `to_bits`-identical to [`add_noise`] per lane;
/// the AVX2 path consumes the identical RNG stream and lands within
/// `1e-12` per sample.
pub fn add_noise_batch<R: Rng>(rngs: &mut [R], lanes: &mut [IqBuf], noise_power: f64) {
    assert_eq!(rngs.len(), lanes.len(), "one RNG stream per lane");
    if noise_power <= 0.0 {
        return; // matches add_noise: no RNG consumption
    }
    for (rng, lane) in rngs.iter_mut().zip(lanes.iter_mut()) {
        #[cfg(target_arch = "x86_64")]
        if msc_dsp::simd::avx2_available() {
            add_noise_lane_avx2(rng, lane.samples_mut(), noise_power);
            continue;
        }
        add_noise(rng, lane, noise_power);
    }
}

/// Frequency-shifts every lane by `delta_hz` in place. Scalar path is
/// `to_bits`-identical to `IqBuf::freq_shift_in_place`; the AVX2 path
/// computes the same per-sample phase (`step * n`, both exact f64
/// products) and differs only through the vectorized `sin`/`cos`
/// (≤ 1e-12 per sample).
pub fn freq_shift_batch(lanes: &mut [IqBuf], delta_hz: f64) {
    if delta_hz == 0.0 {
        return;
    }
    for lane in lanes.iter_mut() {
        #[cfg(target_arch = "x86_64")]
        if msc_dsp::simd::avx2_available() {
            let step = std::f64::consts::TAU * delta_hz / lane.rate().as_hz();
            unsafe { avx::freq_shift(lane.samples_mut(), step) };
            continue;
        }
        lane.freq_shift_in_place(delta_hz);
    }
}

/// Box–Muller AWGN over one lane with scalar in-order RNG draws and
/// AVX2 transcendentals. Four uniform pairs are buffered per vector
/// step; the tail (< 4 samples) falls back to [`complex_gaussian`].
#[cfg(target_arch = "x86_64")]
fn add_noise_lane_avx2<R: Rng>(rng: &mut R, samples: &mut [Complex64], sigma2: f64) {
    let amp = (sigma2 / 2.0).sqrt();
    let quads = samples.len() / 4;
    let mut u1 = [0.0f64; 4];
    let mut u2 = [0.0f64; 4];
    for q in 0..quads {
        for k in 0..4 {
            u1[k] = rng.gen_range(1e-12..1.0);
            u2[k] = rng.gen_range(0.0..1.0);
        }
        unsafe { avx::noise_quad(&u1, &u2, amp, &mut samples[4 * q..4 * q + 4]) };
    }
    for s in &mut samples[4 * quads..] {
        *s += complex_gaussian(rng, sigma2);
    }
}

/// Scalar reference paths, exposed for the equivalence tests: apply the
/// single-trial kernels lane by lane in batch order.
#[cfg(test)]
fn add_noise_batch_scalar<R: Rng>(rngs: &mut [R], lanes: &mut [IqBuf], noise_power: f64) {
    if noise_power <= 0.0 {
        return;
    }
    for (rng, lane) in rngs.iter_mut().zip(lanes.iter_mut()) {
        add_noise(rng, lane, noise_power);
    }
}

/// AVX/AVX2 inner loops. Safety: every function is `target_feature`
/// gated and only reached behind [`msc_dsp::simd`] runtime probes.
#[cfg(target_arch = "x86_64")]
mod avx {
    use msc_dsp::Complex64;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `lane[i] *= h` using the FFT butterfly's addsub recipe:
    /// `re = a.re·h.re − a.im·h.im`, `im = a.im·h.re + a.re·h.im` —
    /// the same two products and one (commuted) addition as
    /// `Complex64: Mul`, hence bit-identical.
    #[target_feature(enable = "avx")]
    pub unsafe fn mul_by_gain(samples: &mut [Complex64], h: Complex64) {
        let wr = _mm256_set1_pd(h.re);
        let wi = _mm256_set1_pd(h.im);
        let n2 = samples.len() / 2 * 2;
        let p = samples.as_mut_ptr() as *mut f64;
        let mut i = 0usize;
        while i < n2 {
            let b = _mm256_loadu_pd(p.add(2 * i)); // [re0, im0, re1, im1]
            let bs = _mm256_permute_pd(b, 0b0101); // [im0, re0, im1, re1]
            let y = _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
            _mm256_storeu_pd(p.add(2 * i), y);
            i += 2;
        }
        if n2 < samples.len() {
            let s = samples[n2];
            samples[n2] = s * h;
        }
    }

    /// `ln` over four doubles in `(0, 1]` (normal, positive): exponent
    /// extraction plus an `atanh` series on `t = (m−1)/(m+1)`.
    /// Truncation error ≤ 4.4e-13 absolute over the Box–Muller input
    /// range; well inside the 1e-12 kernel-equivalence budget.
    // Constants quoted at fdlibm's printed precision; they round to
    // the intended f64 bit patterns (the hi/lo split is the point).
    #[allow(clippy::excessive_precision)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn ln_pd(x: __m256d) -> __m256d {
        const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
        const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
        let one = _mm256_set1_pd(1.0);
        let xi = _mm256_castpd_si256(x);
        // Unbiased exponent as f64 via the 2^52 magic-number trick.
        let exp_raw = _mm256_srli_epi64::<52>(xi);
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000u64 as i64);
        let e = _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(exp_raw, magic)),
            _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0),
        );
        // Mantissa in [1, 2); fold into [1/√2, √2) so t stays small.
        let mant = _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFFu64 as i64);
        let m = _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(xi, mant),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000u64 as i64),
        ));
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(m, _mm256_set1_pd(std::f64::consts::SQRT_2));
        let m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), gt);
        let e = _mm256_add_pd(e, _mm256_and_pd(gt, one));
        // atanh series: ln m = 2t·(1 + w/3 + w²/5 + … + w⁷/15), w = t².
        let t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let w = _mm256_mul_pd(t, t);
        let mut poly = _mm256_set1_pd(1.0 / 15.0);
        for c in [1.0 / 13.0, 1.0 / 11.0, 1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0] {
            poly = _mm256_fmadd_pd(poly, w, _mm256_set1_pd(c));
        }
        let two_t = _mm256_add_pd(t, t);
        let ln_m = _mm256_fmadd_pd(_mm256_mul_pd(two_t, w), poly, two_t);
        // ln x = e·LN2_HI + ln m + e·LN2_LO (e ≤ 40 ⇒ e·LN2_HI exact).
        let r = _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_LO), ln_m);
        _mm256_fmadd_pd(e, _mm256_set1_pd(LN2_HI), r)
    }

    /// Four-way `sin`/`cos` with two-term Cody–Waite reduction and the
    /// fdlibm kernel polynomials; accurate to ~1e-15 for the phase
    /// magnitudes the channel produces (|θ| ≲ 1e4).
    // PIO2_HI is the high word of the Cody–Waite π/2 split, not a
    // stand-in for FRAC_PI_2; all constants keep fdlibm's printed
    // precision so they round to the intended bit patterns.
    #[allow(clippy::approx_constant, clippy::excessive_precision)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sincos_pd(theta: __m256d) -> (__m256d, __m256d) {
        const PIO2_HI: f64 = 1.570_796_326_794_896_558_00e+00;
        const PIO2_LO: f64 = 6.123_233_995_736_766_036e-17;
        const S: [f64; 6] = [
            -1.666_666_666_666_663_243_48e-01,
            8.333_333_333_322_489_461_24e-03,
            -1.984_126_982_985_794_931_34e-04,
            2.755_731_370_707_006_767_89e-06,
            -2.505_076_025_340_686_341_95e-08,
            1.589_690_995_211_550_102_21e-10,
        ];
        const C: [f64; 6] = [
            4.166_666_666_666_660_190_37e-02,
            -1.388_888_888_887_410_957_49e-03,
            2.480_158_728_947_672_941_78e-05,
            -2.755_731_435_139_066_330_35e-07,
            2.087_572_321_298_174_827_90e-09,
            -1.135_964_755_778_819_482_65e-11,
        ];
        let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_pd(theta, _mm256_set1_pd(std::f64::consts::FRAC_2_PI)),
        );
        let x = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_HI), theta);
        let x = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_LO), x);
        // Quadrant: low bits of (k + 1.5·2^52); 2^51 ≡ 0 (mod 4) keeps
        // negative k correct.
        let q = _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(6_755_399_441_055_744.0)));
        let swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(q, _mm256_set1_epi64x(1)),
            _mm256_set1_epi64x(1),
        ));
        let two = _mm256_set1_epi64x(2);
        let sin_sign = _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_and_si256(q, two)));
        let cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64::<62>(_mm256_and_si256(
            _mm256_add_epi64(q, _mm256_set1_epi64x(1)),
            two,
        )));
        let z = _mm256_mul_pd(x, x);
        let mut sp = _mm256_set1_pd(S[5]);
        for c in [S[4], S[3], S[2], S[1], S[0]] {
            sp = _mm256_fmadd_pd(sp, z, _mm256_set1_pd(c));
        }
        let sin_x = _mm256_fmadd_pd(_mm256_mul_pd(x, z), sp, x);
        let mut cp = _mm256_set1_pd(C[5]);
        for c in [C[4], C[3], C[2], C[1], C[0]] {
            cp = _mm256_fmadd_pd(cp, z, _mm256_set1_pd(c));
        }
        let cos_x = _mm256_fmadd_pd(
            _mm256_mul_pd(z, z),
            cp,
            _mm256_fnmadd_pd(z, _mm256_set1_pd(0.5), _mm256_set1_pd(1.0)),
        );
        let sin_base = _mm256_blendv_pd(sin_x, cos_x, swap);
        let cos_base = _mm256_blendv_pd(cos_x, sin_x, swap);
        (_mm256_xor_pd(sin_base, sin_sign), _mm256_xor_pd(cos_base, cos_sign))
    }

    /// Adds four Box–Muller samples (uniforms pre-drawn in RNG order)
    /// to four consecutive complex samples.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn noise_quad(u1: &[f64; 4], u2: &[f64; 4], amp: f64, out: &mut [Complex64]) {
        debug_assert_eq!(out.len(), 4);
        let u1v = _mm256_loadu_pd(u1.as_ptr());
        let u2v = _mm256_loadu_pd(u2.as_ptr());
        let r = _mm256_mul_pd(
            _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln_pd(u1v))),
            _mm256_set1_pd(amp),
        );
        let (s, c) = sincos_pd(_mm256_mul_pd(_mm256_set1_pd(std::f64::consts::TAU), u2v));
        let re = _mm256_mul_pd(r, c);
        let im = _mm256_mul_pd(r, s);
        // Interleave [re_k] / [im_k] into (re, im) pair order.
        let lo = _mm256_unpacklo_pd(re, im); // [re0, im0, re2, im2]
        let hi = _mm256_unpackhi_pd(re, im); // [re1, im1, re3, im3]
        let ab = _mm256_permute2f128_pd::<0x20>(lo, hi);
        let cd = _mm256_permute2f128_pd::<0x31>(lo, hi);
        let p = out.as_mut_ptr() as *mut f64;
        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), ab));
        _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), cd));
    }

    /// In-place frequency shift: per-sample phase `step·n` (exact, same
    /// product as the scalar path) with vectorized `sin`/`cos`, applied
    /// through the bit-exact addsub complex multiply.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn freq_shift(samples: &mut [Complex64], step: f64) {
        let n4 = samples.len() / 4 * 4;
        let stepv = _mm256_set1_pd(step);
        let p = samples.as_mut_ptr() as *mut f64;
        let mut n = 0usize;
        while n < n4 {
            let idx = _mm256_set_pd((n + 3) as f64, (n + 2) as f64, (n + 1) as f64, n as f64);
            let (s, c) = sincos_pd(_mm256_mul_pd(stepv, idx));
            // Interleave into two [c, s, c, s] rotation vectors.
            let lo = _mm256_unpacklo_pd(c, s); // [c0, s0, c2, s2]
            let hi = _mm256_unpackhi_pd(c, s); // [c1, s1, c3, s3]
            let w01 = _mm256_permute2f128_pd::<0x20>(lo, hi);
            let w23 = _mm256_permute2f128_pd::<0x31>(lo, hi);
            for (off, w) in [(0usize, w01), (2usize, w23)] {
                let wr = _mm256_movedup_pd(w); // [c, c, c, c] per pair
                let wi = _mm256_permute_pd(w, 0b1111); // [s, s, s, s] per pair
                let b = _mm256_loadu_pd(p.add(2 * (n + off)));
                let bs = _mm256_permute_pd(b, 0b0101);
                let y = _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
                _mm256_storeu_pd(p.add(2 * (n + off)), y);
            }
            n += 4;
        }
        for (i, s) in samples.iter_mut().enumerate().skip(n4) {
            *s = s.rotate(step * i as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_dsp::rate::SampleRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lane(seed: u64, n: usize) -> IqBuf {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = IqBuf::empty(SampleRate::hz(8_000_000.0));
        for _ in 0..n {
            buf.push(Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)));
        }
        buf
    }

    fn lanes(n_lanes: usize, n: usize) -> Vec<IqBuf> {
        (0..n_lanes).map(|l| lane(0x5eed + l as u64, n)).collect()
    }

    fn rngs(n_lanes: usize) -> Vec<StdRng> {
        (0..n_lanes).map(|l| StdRng::seed_from_u64(0xabc + l as u64)).collect()
    }

    fn max_err(a: &IqBuf, b: &IqBuf) -> f64 {
        a.samples()
            .iter()
            .zip(b.samples())
            .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
            .fold(0.0, f64::max)
    }

    #[test]
    fn normalize_batch_is_bit_identical_to_per_lane() {
        let mut batched = lanes(3, 257);
        let mut legacy = lanes(3, 257);
        normalize_batch(&mut batched);
        for lane in legacy.iter_mut() {
            let p = lane.mean_power();
            if p > 0.0 {
                lane.scale(1.0 / p.sqrt());
            }
        }
        for (a, b) in batched.iter().zip(&legacy) {
            for (x, y) in a.samples().iter().zip(b.samples()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn fading_batch_matches_per_lane_apply_flat_bitwise() {
        for fading in [Fading::None, Fading::los(), Fading::nlos(), Fading::Rayleigh] {
            let mut batched = lanes(4, 201);
            let mut legacy = lanes(4, 201);
            let mut r1 = rngs(4);
            let mut r2 = rngs(4);
            fading_batch(fading, &mut r1, &mut batched);
            for (rng, lane) in r2.iter_mut().zip(legacy.iter_mut()) {
                fading.apply_flat(rng, lane.samples_mut());
            }
            for (a, b) in batched.iter().zip(&legacy) {
                for (x, y) in a.samples().iter().zip(b.samples()) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "fading {fading:?}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "fading {fading:?}");
                }
            }
            // RNG streams must end in the same state.
            for (a, b) in r1.iter_mut().zip(r2.iter_mut()) {
                assert_eq!(a.gen_range(0.0f64..1.0).to_bits(), b.gen_range(0.0f64..1.0).to_bits());
            }
        }
    }

    #[test]
    fn noise_batch_tracks_scalar_within_1e12_same_rng_stream() {
        let mut batched = lanes(3, 515); // odd tail exercises the scalar fallback
        let mut legacy = lanes(3, 515);
        let mut r1 = rngs(3);
        let mut r2 = rngs(3);
        add_noise_batch(&mut r1, &mut batched, 0.37);
        add_noise_batch_scalar(&mut r2, &mut legacy, 0.37);
        for (a, b) in batched.iter().zip(&legacy) {
            assert!(max_err(a, b) <= 1e-12, "err {}", max_err(a, b));
        }
        for (a, b) in r1.iter_mut().zip(r2.iter_mut()) {
            assert_eq!(a.gen_range(0.0f64..1.0).to_bits(), b.gen_range(0.0f64..1.0).to_bits());
        }
        // Zero power consumes no RNG, matching add_noise.
        let mut quiet = lanes(2, 64);
        let mut rq = rngs(2);
        add_noise_batch(&mut rq, &mut quiet, 0.0);
        let mut rq_ref = rngs(2);
        for (a, b) in rq.iter_mut().zip(rq_ref.iter_mut()) {
            assert_eq!(a.gen_range(0.0f64..1.0).to_bits(), b.gen_range(0.0f64..1.0).to_bits());
        }
    }

    #[test]
    fn noise_batch_moments_are_sane() {
        let mut l = lanes(1, 40_000);
        for s in l[0].samples_mut() {
            *s = Complex64::new(0.0, 0.0);
        }
        let mut r = rngs(1);
        let sigma2 = 0.5;
        add_noise_batch(&mut r, &mut l, sigma2);
        let n = l[0].len() as f64;
        let mean: f64 = l[0].samples().iter().map(|s| s.re + s.im).sum::<f64>() / (2.0 * n);
        let power: f64 = l[0].samples().iter().map(|s| s.norm_sqr()).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((power - sigma2).abs() < 0.02, "power {power}");
    }

    #[test]
    fn freq_shift_batch_tracks_scalar_within_1e12() {
        let mut batched = lanes(2, 1003);
        let mut legacy = lanes(2, 1003);
        freq_shift_batch(&mut batched, -31_250.0);
        for lane in legacy.iter_mut() {
            lane.freq_shift_in_place(-31_250.0);
        }
        for (a, b) in batched.iter().zip(&legacy) {
            assert!(max_err(a, b) <= 1e-12, "err {}", max_err(a, b));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_noise_quad_matches_complex_gaussian_within_1e12() {
        if !msc_dsp::simd::avx2_available() {
            return;
        }
        // Compare the vector transcendentals against libm across many
        // uniform pairs, including u1 near both ends of (0, 1).
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let mut u1 = [0.0f64; 4];
            let mut u2 = [0.0f64; 4];
            for k in 0..4 {
                u1[k] = rng.gen_range(1e-12..1.0);
                u2[k] = rng.gen_range(0.0..1.0);
            }
            let mut out = [Complex64::new(0.0, 0.0); 4];
            unsafe { avx::noise_quad(&u1, &u2, 0.7, &mut out) };
            for k in 0..4 {
                let r = (-2.0 * u1[k].ln()).sqrt() * 0.7;
                let theta = std::f64::consts::TAU * u2[k];
                let want = Complex64::new(r * theta.cos(), r * theta.sin());
                assert!(
                    (out[k].re - want.re).abs() <= 1e-12 && (out[k].im - want.im).abs() <= 1e-12,
                    "u1={} u2={} got={:?} want={:?}",
                    u1[k],
                    u2[k],
                    out[k],
                    want
                );
            }
        }
    }
}
