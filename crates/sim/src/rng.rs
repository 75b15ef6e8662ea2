//! Deterministic pseudo-random number generation.
//!
//! Simulation noise (compute-time jitter, bandwidth wobble, the
//! ByteScheduler auto-tuner's exploration) must be reproducible across runs
//! and platforms, so we carry our own tiny generators instead of threading
//! `rand` through the hot path:
//!
//! * [`SplitMix64`] — the canonical 64-bit seeder/stream-splitter,
//! * [`Xoshiro256StarStar`] — the general-purpose generator, seeded from a
//!   `SplitMix64` stream per Blackman & Vigna's recommendation.
//!
//! Both are `Copy`-free but `Clone`-able plain structs; cloning forks the
//! stream, which tests use to verify determinism.

/// SplitMix64: fast, tiny, passes BigCrush; used to seed other generators
/// and to derive independent sub-streams from a single experiment seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256**: the recommended general-purpose 64-bit generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 so correlated integer seeds still give
    /// well-distributed internal states.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        // Xoshiro's all-zero state is absorbing; SplitMix64 output is never
        // all-zero across four consecutive draws for any seed, but guard
        // anyway.
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Derive an independent generator for a named sub-stream.
    ///
    /// Used to give each simulated component (every worker's GPU jitter, the
    /// bandwidth wobble process, ...) its own stream so adding a component
    /// never perturbs the draws seen by existing ones.
    pub fn substream(&self, tag: u64) -> Self {
        let mut sm = SplitMix64::new(self.s[0] ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Xoshiro256StarStar { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased
    /// enough for simulation noise; not for cryptography).
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A standard-normal draw: Box–Muller on one `(u1, u2)` pair, one value
    /// per call (the pair's sine half is not kept), with one libm `ln` and
    /// `cos` each. To fill a buffer, use its batch sibling
    /// [`Xoshiro256StarStar::fill_gaussian_f32`], which gives the same
    /// values bit for bit at vector speed.
    pub fn next_gaussian(&mut self) -> f64 {
        let (u1, u2) = self.box_muller_pair();
        box_muller(u1, u2)
    }

    /// The uniforms of one Box–Muller draw: `u1` redrawn until it is above
    /// `EPSILON` (so its `ln` is finite), then `u2`.
    #[inline]
    fn box_muller_pair(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.next_f64();
            if u1 > f64::EPSILON {
                return (u1, self.next_f64());
            }
        }
    }

    /// Fill `out` with `(self.next_gaussian() * scale) as f32` per element,
    /// in order — bit for bit those values, and the generator left where
    /// those calls leave it.
    ///
    /// On an AVX2+FMA host it draws four uniform pairs at a time, in
    /// order, evaluates them in four vector lanes with polynomial `ln` and
    /// `cos`, and keeps each fast value only where it provably rounds to
    /// the `f32` the scalar expression gives; the few others are recomputed
    /// by that expression (the `gauss` module's doc derives the bound).
    /// The last `len % 4` values, other hosts, and a `scale` that is zero,
    /// not finite, or of magnitude outside `[2^-500, 2^500]` take the
    /// scalar calls.
    pub fn fill_gaussian_f32(&mut self, scale: f64, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if gauss::fast_scale(scale) && gauss::available() {
            // SAFETY: `available` found both features the kernel enables.
            unsafe { gauss::fill(self, scale, out) };
            return;
        }
        for v in out {
            *v = (self.next_gaussian() * scale) as f32;
        }
    }

    /// A multiplicative jitter factor `max(lo, 1 + stddev·N(0,1))`.
    ///
    /// Compute and network times in the cluster simulation are perturbed by
    /// this to model the run-to-run variance visible in the paper's
    /// timeline figures; `lo` (e.g. 0.5) keeps a pathological tail draw from
    /// producing a negative or absurdly small time.
    pub fn jitter(&mut self, stddev: f64, lo: f64) -> f64 {
        (1.0 + stddev * self.next_gaussian()).max(lo)
    }
}

/// Box–Muller's one expression: the reference [`Xoshiro256StarStar::next_gaussian`]
/// returns and the batch kernel falls back to.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The batch Box–Muller kernel behind [`Xoshiro256StarStar::fill_gaussian_f32`],
/// AVX2+FMA four lanes at a time.
///
/// Per lane it computes `q' = fast(u1, u2)·scale`, an approximation of the
/// reference `v = fl(fl(box_muller(u1, u2))·scale)`, and keeps `q' as f32`
/// only when `fl(q' − δ)` and `fl(q' + δ)` round to the same `f32` bit
/// pattern, with `δ = B·|q'|`. Round-to-nearest is monotone, so every `f64`
/// between those two ends rounds to that `f32` too — `v` included, as long
/// as `|q' − v|` stays below `δ` less the rounding of `q' ± δ`
/// (≤ 2^-52·|q'|). Every other lane is recomputed by [`box_muller`].
///
/// **The bound.** Write `u = 2^-53` and `G = √(−2 ln u1)·cos x` exactly,
/// where `x = fl(TAU·u2)` in both paths (the same multiply). Relative
/// errors against `G·scale`, to first order, counting a rounding per
/// multiply and add (an FMA rounds once where the count has two):
///
/// * *`ln u1`, fast.* `u1 = m·2^e` with `m ∈ [√½, √2)` is exact (bit
///   fields). `s = (m − 1)/(m + 1)` is within 2u (`m − 1` is exact by
///   Sterbenz), `|s| ≤ 0.1716`, `z = s² ≤ 0.02944`. `ln m = 2s·A(z)`, `A`
///   the atanh series `Σ z^j/(2j+1)` to `j = 8`: truncation
///   `≤ z^9/19/(1 − z) < 2^-49.9`; Estrin's scheme adds ≤ 2u (every term
///   is positive and `A ∈ [1, 1.0101]`). So `ln m` is within 5u + 2^-49.9.
///   For `e = 0` that is `ln u1`; for `e ≤ −1`, `|ln m| ≤ 0.3466 ≤ |ln u1|`,
///   and adding `e·LN2_LO` and the exact `e·LN2_HI` costs 2.1u more:
///   `η_L ≤ 7.1u + 2^-49.9 < 2^-49`.
/// * *`cos x`, fast.* `x = q·π/2 + r` with `q = 2j + 1` odd,
///   `j = round(x/π − ½)`, `|r| ≤ π/2` (plus the rounding of `x/π`), and
///   `cos x = ∓sin r` for even/odd `j`. With π/2 in 33-bit pieces
///   `P1, P2, P3` plus `P3T` (fdlibm's; their sum is π/2 to 2^-160), each
///   `q·Pi` is exact and the four subtractions cost ≤ u of their results.
///   Where `|r| ≥ 0.78` that is ≤ 4u of `r`. Where `r` is small,
///   `x − q·P1` is exact (Sterbenz) and the later results exceed `|r|` by
///   at most `|q|·(P3 + P3T) ≤ 1.1e-20`, against `|r| ≥ 6.1e-17` (no
///   double lies nearer π/2 or 3π/2): again ≤ 4u. `sin r = r·S(r²)`, `S`
///   the series to `r^19`: truncation `≤ z^10/21!/(2/π) < 2^-51.8` for
///   `z = r² ≤ 2.47`; Estrin's rounding ≤ 6.5u (its partial sums total
///   ≤ 1.47 against `S ≥ 2/π`), and `z`'s 9u error moves `S` by ≤ 4.6u.
///   With the product by `r`: `η_C ≤ 18.4u < 2^-48.8`.
/// * *The products.* `√` is correctly rounded (`η_L/2 + u`), then two
///   multiplies (2u). Fast path: `F ≤ 25u + 2^-50.9 < 2^-48`.
/// * *The reference.* The same shape over libm's `ln` and `cos`. glibc's
///   manual tabulates their known maximum errors at 1 ulp on x86-64
///   (≤ 2^-52 relative); taken at 64 ulp each, the reference is within
///   `2^-47 + 2^-46 + 3u < 2^-45.4` of `G·scale`.
///
/// So `|q' − v| < 2^-45·|q'|`, and `B = 2^-44` leaves twice that after the
/// `q' ± δ` roundings. A lane falls back when one of `f32`'s rounding
/// boundaries lies within `δ` of `q'`: a share of about `2·B·2^23`, a few
/// per million. Scales of magnitude in `[2^-500, 2^500]` keep every
/// intermediate a normal `f64` (`|G| ∈ [10^-24, 8.6]`), which the relative
/// bounds assume.
#[cfg(target_arch = "x86_64")]
mod gauss {
    use super::{box_muller, Xoshiro256StarStar};
    use std::arch::x86_64::*;
    use std::f64::consts::{FRAC_1_PI, SQRT_2, TAU};

    /// The filter's relative half-width (the module doc's `B`).
    const B: f64 = 1.0 / (1u64 << 44) as f64;

    /// Whether `scale` keeps the module doc's bound: a magnitude in
    /// `[2^-500, 2^500]`, so no intermediate is subnormal or infinite.
    pub(super) fn fast_scale(scale: f64) -> bool {
        (f64::from_bits(0x20b0 << 48)..=f64::from_bits(0x5f30 << 48)).contains(&scale.abs())
    }

    /// Whether the host runs the kernel: AVX2 and FMA.
    #[inline]
    pub(super) fn available() -> bool {
        // Caches in an atomic after the first probe.
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// `ln 2` as an exact-product high part (`e·LN2_HI` is exact for
    /// `|e| ≤ 2^11`) plus the rest (fdlibm's split).
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    /// π/2 in 33-bit pieces (`q·P1`, `q·P2`, `q·P3` are exact for the
    /// odd `|q| ≤ 5` that occur) plus the tail (fdlibm's split).
    const P1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const P2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
    const P3: f64 = f64::from_bits(0x3ba3_198a_2e00_0000);
    const P3T: f64 = f64::from_bits(0x397b_839a_2520_49c1);
    /// `1.5·2^52`: adding it rounds a small value to the nearest integer,
    /// which lands in the sum's low mantissa bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 0x3ff0_0000_0000_0000;

    /// `atanh(s)/s = Σ z^j/(2j+1)`, `z = s²`, lowest power first.
    const LN: [f64; 9] = [
        1.0,
        1.0 / 3.0,
        1.0 / 5.0,
        1.0 / 7.0,
        1.0 / 9.0,
        1.0 / 11.0,
        1.0 / 13.0,
        1.0 / 15.0,
        1.0 / 17.0,
    ];
    /// `sin(r)/r = Σ (−z)^j/(2j+1)!`, `z = r²`, lowest power first.
    const SIN: [f64; 10] = [
        1.0,
        -1.0 / 6.0,
        1.0 / 120.0,
        -1.0 / 5_040.0,
        1.0 / 362_880.0,
        -1.0 / 39_916_800.0,
        1.0 / 6_227_020_800.0,
        -1.0 / 1_307_674_368_000.0,
        1.0 / 355_687_428_096_000.0,
        -1.0 / 121_645_100_408_832_000.0,
    ];

    /// [`super::Xoshiro256StarStar::fill_gaussian_f32`] on a host with
    /// AVX2 and FMA ([`available`]), for a `scale` that passes
    /// [`fast_scale`]. The scalar pair draws of one group and the vector
    /// arithmetic of the one before have no dependency on each other, so
    /// the core overlaps them.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fill(rng: &mut Xoshiro256StarStar, scale: f64, out: &mut [f32]) {
        let mut groups = out.chunks_exact_mut(4);
        for out in &mut groups {
            let (mut u1, mut u2) = ([0.0; 4], [0.0; 4]);
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = rng.box_muller_pair();
            }
            group(u1, u2, scale, out.try_into().unwrap());
        }
        for v in groups.into_remainder() {
            *v = (rng.next_gaussian() * scale) as f32;
        }
    }

    /// Evaluate `out[l] = (box_muller(u1[l], u2[l]) * scale) as f32`
    /// through the filtered fast path and return how many lanes fell back
    /// to the scalar expression. `u1 ∈ (EPSILON, 1)`, `u2 ∈ [0, 1)`, and
    /// `scale` passes [`fast_scale`].
    ///
    /// # Safety
    ///
    /// The host must have AVX2 and FMA ([`available`]).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn group(
        u1: [f64; 4],
        u2: [f64; 4],
        scale: f64,
        out: &mut [f32; 4],
    ) -> usize {
        let g = _mm256_mul_pd(
            radius4(_mm256_loadu_pd(u1.as_ptr())),
            cos4(_mm256_loadu_pd(u2.as_ptr())),
        );
        let q = _mm256_mul_pd(g, set(scale));
        let abs = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let d = _mm256_mul_pd(_mm256_and_pd(q, abs), set(B));
        let lo = _mm256_cvtpd_ps(_mm256_sub_pd(q, d));
        let hi = _mm256_cvtpd_ps(_mm256_add_pd(q, d));
        let same = _mm_cmpeq_epi32(_mm_castps_si128(lo), _mm_castps_si128(hi));
        let same = _mm_movemask_ps(_mm_castsi128_ps(same));
        _mm_storeu_ps(out.as_mut_ptr(), lo);
        if same == 0b1111 {
            return 0;
        }
        let mut fallbacks = 0;
        for l in 0..4 {
            if same >> l & 1 == 0 {
                fallbacks += 1;
                out[l] = (box_muller(u1[l], u2[l]) * scale) as f32;
            }
        }
        fallbacks
    }

    /// The fast path's `f64` per lane, before the scale and filter.
    ///
    /// # Safety
    ///
    /// The host must have AVX2 and FMA ([`available`]).
    #[cfg(test)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fast(u1: [f64; 4], u2: [f64; 4]) -> [f64; 4] {
        let g = _mm256_mul_pd(
            radius4(_mm256_loadu_pd(u1.as_ptr())),
            cos4(_mm256_loadu_pd(u2.as_ptr())),
        );
        let mut out = [0.0; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), g);
        out
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn set(v: f64) -> __m256d {
        _mm256_set1_pd(v)
    }

    /// `Σ c[i]·z^i` on four lanes by Estrin's scheme: pairs
    /// `c[2i] + c[2i+1]·z`, then pairs of those by `z²`, `z⁴`, … — a
    /// dependency chain of depth `log2(c.len())` rather than Horner's
    /// `c.len() − 1`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn estrin<const N: usize>(z: __m256d, c: &[f64; N]) -> __m256d {
        let (mut t, mut n, mut zp) = ([z; N], N, z);
        for (t, &c) in t.iter_mut().zip(c) {
            *t = set(c);
        }
        while n > 1 {
            let m = n.div_ceil(2);
            for i in 0..m {
                t[i] = if 2 * i + 1 < n {
                    _mm256_fmadd_pd(t[2 * i + 1], zp, t[2 * i])
                } else {
                    t[2 * i]
                };
            }
            zp = _mm256_mul_pd(zp, zp);
            n = m;
        }
        t[0]
    }

    /// `√(−2 ln u1)` on four lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn radius4(u1: __m256d) -> __m256d {
        let one = set(1.0);
        // ln u1 = e·ln 2 + ln m, m ∈ [√½, √2): ln m = 2·atanh(s).
        let bits = _mm256_castpd_si256(u1);
        let mant = _mm256_and_si256(bits, _mm256_set1_epi64x(MANTISSA as i64));
        let m = _mm256_castsi256_pd(_mm256_or_si256(mant, _mm256_set1_epi64x(ONE as i64)));
        // The biased exponent as 2^52 + its value, exactly.
        let exp = _mm256_srli_epi64::<52>(bits);
        let exp = _mm256_or_si256(exp, _mm256_set1_epi64x(0x4330_0000_0000_0000));
        let big = _mm256_cmp_pd::<_CMP_GT_OQ>(m, set(SQRT_2));
        let m = _mm256_blendv_pd(m, _mm256_mul_pd(m, set(0.5)), big);
        let e = _mm256_sub_pd(_mm256_castsi256_pd(exp), set(((1u64 << 52) + 1023) as f64));
        let e = _mm256_add_pd(e, _mm256_and_pd(big, one));
        let s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let lnm = _mm256_mul_pd(_mm256_add_pd(s, s), estrin(_mm256_mul_pd(s, s), &LN));
        let ln = _mm256_fmadd_pd(e, set(LN2_HI), _mm256_fmadd_pd(e, set(LN2_LO), lnm));
        _mm256_sqrt_pd(_mm256_mul_pd(ln, set(-2.0)))
    }

    /// `cos(TAU·u2)` on four lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cos4(u2: __m256d) -> __m256d {
        let one = set(1.0);
        // cos x = ±sin r, x = (2j + 1)·π/2 + r, |r| ≤ π/2.
        let x = _mm256_mul_pd(u2, set(TAU));
        let t = _mm256_sub_pd(_mm256_mul_pd(x, set(FRAC_1_PI)), set(0.5));
        let jr = _mm256_add_pd(t, set(ROUND));
        let q = _mm256_fmadd_pd(set(2.0), _mm256_sub_pd(jr, set(ROUND)), one);
        let r = _mm256_fnmadd_pd(q, set(P1), x);
        let r = _mm256_fnmadd_pd(q, set(P2), r);
        let r = _mm256_fnmadd_pd(q, set(P3), r);
        let r = _mm256_fnmadd_pd(q, set(P3T), r);
        let sin = _mm256_mul_pd(r, estrin(_mm256_mul_pd(r, r), &SIN));
        // cos(x) = −sin r for even j (bit 0 of `jr`), +sin r for odd.
        let odd = _mm256_castsi256_pd(_mm256_slli_epi64::<63>(_mm256_castpd_si256(jr)));
        _mm256_xor_pd(sin, _mm256_xor_pd(odd, set(-0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_across_clones() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = a.clone();
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent_of_parent_draws() {
        let parent = Xoshiro256StarStar::new(7);
        let mut s1 = parent.substream(1);
        let mut s1_again = parent.substream(1);
        let mut s2 = parent.substream(2);
        assert_eq!(s1.next_u64(), s1_again.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Xoshiro256StarStar::new(5);
        for _ in 0..10_000 {
            let x = r.uniform(3.0, 8.0);
            assert!((3.0..8.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_hits_all_residues() {
        let mut r = Xoshiro256StarStar::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.next_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut r = Xoshiro256StarStar::new(2024);
        let n = 100_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.next_gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// What `fill_gaussian_f32` must equal: the scalar calls, in order.
    fn scalar_fill(rng: &mut Xoshiro256StarStar, scale: f64, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| ((rng.next_gaussian() * scale) as f32).to_bits())
            .collect()
    }

    fn batch_fill(rng: &mut Xoshiro256StarStar, scale: f64, n: usize) -> Vec<u32> {
        let mut out = vec![f32::NAN; n];
        rng.fill_gaussian_f32(scale, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// The batch draw is the scalar loop, bit for bit, and leaves the
        /// generator where the loop does: over seeds, He scales `(2/n)^½`,
        /// and lengths off the chunk size.
        #[test]
        fn fill_gaussian_matches_the_scalar_loop(
            seed in 0u64..u64::MAX,
            fan_in in 1u32..4096,
            len in 0usize..1100,
        ) {
            let scale = (2.0 / fan_in as f64).sqrt();
            let (mut a, mut b) = (Xoshiro256StarStar::new(seed), Xoshiro256StarStar::new(seed));
            prop_assert_eq!(scalar_fill(&mut a, scale, len), batch_fill(&mut b, scale, len));
            prop_assert_eq!(a, b);
        }
    }

    /// A zero, tiny, huge, infinite or NaN scale takes the scalar path, a
    /// negative one the fast path; each matches the scalar loop.
    #[test]
    fn fill_gaussian_at_odd_scales_is_the_scalar_loop() {
        for scale in [0.0, -0.0, 1e-300, 1e300, f64::INFINITY, f64::NAN, -0.5] {
            let (mut a, mut b) = (Xoshiro256StarStar::new(8), Xoshiro256StarStar::new(8));
            assert_eq!(
                scalar_fill(&mut a, scale, 300),
                batch_fill(&mut b, scale, 300)
            );
            assert_eq!(a, b, "scale {scale}");
        }
    }

    /// A `u1` at or below `EPSILON` is redrawn, taking a third word: a
    /// state whose next word is 0 (so `u1 = 0`) must shift the batch's
    /// later pairs as it shifts the scalar calls'.
    #[test]
    fn a_redrawn_u1_shifts_the_batch_as_it_shifts_the_calls() {
        for n in [10, 300] {
            let zero_next = Xoshiro256StarStar { s: [7, 0, 9, 11] };
            let (mut a, mut b) = (zero_next.clone(), zero_next);
            assert_eq!(scalar_fill(&mut a, 0.1, n), batch_fill(&mut b, 0.1, n));
            assert_eq!(a, b, "length {n}");
        }
    }

    /// Pairs at the edges of the kernel's domain, passed to its four-lane
    /// fn directly: `u1` just above `EPSILON` and just below 1, `u2` at 0,
    /// ¼, ½, ¾ and one ulp either side — where the cosine is ±1 or
    /// nearly 0. Every lane must give the scalar expression's `f32`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_kernel_matches_at_the_domain_edges() {
        if !gauss::available() {
            println!("no AVX2+FMA: the batch draw is the scalar loop here");
            return;
        }
        let u1s = [
            f64::EPSILON.next_up(),
            3.0 / (1u64 << 53) as f64,
            0.5,
            1.0f64.next_down(),
        ];
        let mut u2s = vec![];
        for c in [0.0, 0.25, 0.5, 0.75] {
            u2s.extend([f64::next_down(c), c, f64::next_up(c)]);
        }
        let pairs: Vec<(f64, f64)> = u1s
            .iter()
            .flat_map(|&a| u2s.iter().map(move |&b| (a, b)))
            .collect();
        for scale in [1.0, 0.03, (2.0f64 / 3.0).sqrt()] {
            for four in pairs.chunks_exact(4) {
                let (u1, u2) = (
                    [0, 1, 2, 3].map(|l| four[l].0),
                    [0, 1, 2, 3].map(|l| four[l].1),
                );
                let mut out = [f32::NAN; 4];
                // SAFETY: `available` found both features the kernel enables.
                let fallbacks = unsafe { gauss::group(u1, u2, scale, &mut out) };
                for l in 0..4 {
                    let want = (box_muller(u1[l], u2[l]) * scale) as f32;
                    assert_eq!(
                        out[l].to_bits(),
                        want.to_bits(),
                        "{:?} at scale {scale}",
                        four[l]
                    );
                }
                assert!(fallbacks <= 4);
            }
        }
    }

    /// 10^8 draws through the kernel's four-lane fn: no lane differs from
    /// the scalar expression, at most 10^-4 of them fall back, and the fast
    /// path's largest relative error against the libm reference stays
    /// inside the `2^-45` the module doc derives (the filter allows
    /// `2^-44`). Prints what it saw (`--nocapture`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(debug_assertions, ignore = "10^8 draws; release tier")]
    fn a_hundred_million_draws_match_with_rare_fallbacks() {
        if !gauss::available() {
            println!("no AVX2+FMA: the batch draw is the scalar loop here");
            return;
        }
        const DRAWS: usize = 100_000_000;
        let mut rng = Xoshiro256StarStar::new(2026);
        let (mut mismatches, mut fallbacks, mut worst) = (0usize, 0usize, 0.0f64);
        for g in 0..DRAWS / 4 {
            let scale = (2.0 / (1 + g / 64 % 4096) as f64).sqrt();
            let (mut u1, mut u2) = ([0.0; 4], [0.0; 4]);
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = rng.box_muller_pair();
            }
            let mut out = [0.0f32; 4];
            // SAFETY: `available` found both features the kernel enables.
            fallbacks += unsafe { gauss::group(u1, u2, scale, &mut out) };
            // SAFETY: as above.
            let fast = unsafe { gauss::fast(u1, u2) };
            for l in 0..4 {
                let v = box_muller(u1[l], u2[l]) * scale;
                mismatches += usize::from((v as f32).to_bits() != out[l].to_bits());
                let q = fast[l] * scale;
                worst = worst.max(((q - v) / q).abs());
            }
        }
        let share = fallbacks as f64 / DRAWS as f64;
        println!(
            "{DRAWS} draws: {mismatches} mismatches, {fallbacks} fallbacks ({share:.2e}), \
             largest fast-path error 2^{:.2} (bound 2^-45)",
            worst.log2()
        );
        assert_eq!(mismatches, 0);
        assert!(share <= 1e-4, "fallback share {share}");
        assert!(
            worst < (-45f64).exp2(),
            "fast-path error 2^{}",
            worst.log2()
        );
    }

    #[test]
    fn jitter_floor_holds() {
        let mut r = Xoshiro256StarStar::new(3);
        for _ in 0..10_000 {
            let j = r.jitter(0.5, 0.25);
            assert!(j >= 0.25);
        }
    }
}
