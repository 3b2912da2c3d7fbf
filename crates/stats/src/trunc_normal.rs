//! The truncated normal noise distribution `R(σ)` (paper §V-A).
//!
//! The obfuscation algorithms perturb edge probabilities by a stochastic
//! amount `r_e` drawn from a distribution "with density function proportional
//! to the normal distribution, with mean 0 and variance σ²", truncated to a
//! bounded interval so the perturbed probability stays meaningful. Following
//! Boldi et al. (VLDB 2012), the mass is restricted to `[0, 1]`: the noise is
//! a *magnitude* in probability space; the direction is supplied by the
//! perturbation rule (max-entropy `p + (1-2p)·r`, or a random sign for the
//! unguided variant).
//!
//! Accuracy: `erf` is fdlibm's rational approximation, ≤1 ulp. The tests
//! below hold it to ≤2 ulp of published values, to ≤4e-15 absolute of a
//! Maclaurin-series / continued-fraction reference on [−7, 7], and to ≤2
//! ulp across each branch point. `normal_quantile` round-trips
//! `normal_cdf` to ≤1e-15 absolute on p ∈ {0.001, …, 0.999}.

use rand::Rng;

/// Density ∝ `exp(-x² / (2σ²))` on the interval `[lo, hi]`.
///
/// Sampling is via inverse-transform on the (erf-based) normal CDF, which is
/// exact up to `erf`/`erfinv` accuracy and — unlike rejection sampling —
/// consumes exactly one uniform variate per draw, which keeps common-random-
/// number experiment designs aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    sigma: f64,
    lo: f64,
    hi: f64,
    /// `hi ≤ 0`: the interval lies in the lower tail, where Φ underflows
    /// towards 0, so the CDF values below are those of the mirror interval
    /// `[−hi, −lo]`, and [`TruncatedNormal::inverse_cdf`] reflects back.
    reflected: bool,
    /// Φ₀,σ at the lower end of the (possibly mirrored) interval, cached.
    cdf_lo: f64,
    /// Φ₀,σ span of the (possibly mirrored) interval, cached.
    cdf_span: f64,
}

impl TruncatedNormal {
    /// Half-normal on `[0, 1]`: the paper's `R(σ)` noise magnitude.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn half_unit(sigma: f64) -> Self {
        Self::new(sigma, 0.0, 1.0)
    }

    /// General truncation to `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `sigma <= 0`, `sigma` is non-finite, or `lo >= hi`.
    pub fn new(sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite, got {sigma}"
        );
        assert!(lo < hi, "invalid truncation interval [{lo}, {hi}]");
        let reflected = hi <= 0.0;
        let (a, b) = if reflected { (-hi, -lo) } else { (lo, hi) };
        let cdf = |x: f64| normal_cdf(x / sigma);
        let cdf_lo = cdf(a);
        let cdf_span = cdf(b) - cdf_lo;
        Self {
            sigma,
            lo,
            hi,
            reflected,
            cdf_lo,
            cdf_span,
        }
    }

    /// The shape parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inverse_cdf(rng.gen::<f64>())
    }

    /// Quantile function: maps `u ∈ [0, 1]` to the sample value.
    ///
    /// Exposed so that experiments can reuse a single uniform stream across
    /// σ values (common random numbers). An interval with `hi ≤ 0` is sampled
    /// as the mirror of its reflection: `new(σ, −b, −a).inverse_cdf(u)` is
    /// `−new(σ, a, b).inverse_cdf(1 − u)`.
    pub fn inverse_cdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if self.reflected {
            -self.upper_inverse_cdf(1.0 - u, -self.hi, -self.lo)
        } else {
            self.upper_inverse_cdf(u, self.lo, self.hi)
        }
    }

    /// Inverse CDF on `[lo, hi]` with `hi > 0`, the interval the cached
    /// CDF values describe.
    fn upper_inverse_cdf(&self, u: f64, lo: f64, hi: f64) -> f64 {
        if self.cdf_span <= f64::EPSILON {
            // Degenerate truncation (σ ≪ lo, or an interval far narrower
            // than σ): all mass at `lo`, the end nearest the mode.
            return lo;
        }
        let target = self.cdf_lo + u * self.cdf_span;
        let x = self.sigma * normal_quantile(target);
        x.clamp(lo, hi)
    }
}

/// Standard normal CDF via `erf`.
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Elements per block of [`half_unit_quantiles`]: small enough that a
/// block's scratch lives on the stack, large enough that each stage's
/// independent iterations overlap in the pipeline.
pub const QUANTILE_BLOCK: usize = 64;

/// `out[i] = TruncatedNormal::half_unit(sigma[i]).inverse_cdf(u[i])`, bit
/// for bit, for a whole slice at once.
///
/// The scalar path is one long dependency chain per element (two `erf`s,
/// an `exp`, a tail `ln` and about six divisions). Here each block of
/// [`QUANTILE_BLOCK`] elements runs that chain stage by stage — the
/// standardized upper end, its `erf`, the CDF span and target, Acklam's
/// rational, the `erf` of the Halley argument, then the Halley step and
/// the clamp — so the iterations of a stage are independent and overlap.
/// Every element keeps the scalar path's operations in the scalar path's
/// order: the stages share [`acklam`] and [`halley`] with
/// [`normal_quantile`], and Φ(0) is the constant ½ that the scalar path
/// computes (`erf(+0)` is `+0`). The special cases match too: a span of at
/// most `f64::EPSILON` gives 0, and a target that rounds to 1 gives +∞,
/// which the clamp turns into 1.
///
/// # Panics
/// Panics if the slices differ in length, or (as `half_unit` does) if a σ
/// is not strictly positive and finite.
pub fn half_unit_quantiles(sigma: &[f64], u: &[f64], out: &mut [f64]) {
    assert_eq!(sigma.len(), u.len(), "one quantile per sigma");
    assert_eq!(sigma.len(), out.len(), "one output per sigma");
    let blocks = sigma
        .chunks(QUANTILE_BLOCK)
        .zip(u.chunks(QUANTILE_BLOCK))
        .zip(out.chunks_mut(QUANTILE_BLOCK));
    for ((sigma, u), out) in blocks {
        half_unit_block(sigma, u, out);
    }
}

/// One block of [`half_unit_quantiles`], at most [`QUANTILE_BLOCK`] long.
fn half_unit_block(sigma: &[f64], u: &[f64], out: &mut [f64]) {
    let n = sigma.len();
    let mut span = [0.0; QUANTILE_BLOCK];
    let mut target = [0.0; QUANTILE_BLOCK];
    let mut x = [0.0; QUANTILE_BLOCK];
    let mut erf_x = [0.0; QUANTILE_BLOCK];
    let (span, target, x, erf_x) = (
        &mut span[..n],
        &mut target[..n],
        &mut x[..n],
        &mut erf_x[..n],
    );
    // 1. The interval's upper end, standardized for erf: (1/σ)/√2.
    for (s, &sigma) in span.iter_mut().zip(sigma) {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite, got {sigma}"
        );
        *s = 1.0 / sigma / std::f64::consts::SQRT_2;
    }
    // 2. Its erf.
    for s in span.iter_mut() {
        *s = erf(*s);
    }
    // 3. The span Φ(1/σ) − Φ(0) and the target Φ(0) + u·span.
    for ((s, t), &u) in span.iter_mut().zip(target.iter_mut()).zip(u) {
        *s = 0.5 * (1.0 + *s) - 0.5;
        *t = 0.5 + u.clamp(0.0, 1.0) * *s;
    }
    // 4. Acklam's estimate of the standard quantile (∞ for a target of 1;
    // the span ≥ 0, so a target is never below ½).
    for (x, &t) in x.iter_mut().zip(target.iter()) {
        *x = if t >= 1.0 { f64::INFINITY } else { acklam(t) };
    }
    // 5. The erf of the Halley step's argument.
    for (e, &x) in erf_x.iter_mut().zip(x.iter()) {
        *e = erf(x / std::f64::consts::SQRT_2);
    }
    // 6. The Halley step, the scaling by σ and the clamp to [0, 1].
    for i in 0..n {
        out[i] = if span[i] <= f64::EPSILON {
            0.0
        } else {
            let z = if target[i] >= 1.0 {
                f64::INFINITY
            } else {
                halley(x[i], target[i], erf_x[i])
            };
            (sigma[i] * z).clamp(0.0, 1.0)
        };
    }
}

/// Standard normal quantile (inverse CDF), Acklam's rational approximation
/// refined with one Halley step: `normal_cdf(normal_quantile(p))` is within
/// 1e-15 of `p` (the `quantile_inverts_cdf` test pins it on 0.001–0.999).
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    let x = acklam(p);
    halley(x, p, erf(x / std::f64::consts::SQRT_2))
}

/// Acklam's rational approximation of the standard normal quantile at
/// `p ∈ (0, 1)`, accurate to about 1.15e-9 relative.
fn acklam(p: f64) -> f64 {
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// One Halley refinement step of an estimate `x` of the standard normal
/// quantile at `p`, given `erf_x = erf(x/√2)` (so Φ(x) = ½(1 + erf_x)).
fn halley(x: f64, p: f64, erf_x: f64) -> f64 {
    let e = 0.5 * (1.0 + erf_x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Error function: a port of fdlibm's `s_erf.c` (Sun Microsystems,
/// freely redistributable), ≤1 ulp. The branches split on the high word
/// of |x|, as fdlibm does:
///
/// * |x| < 0.84375: `x + x·R(x²)/S(x²)`;
/// * |x| < 1.25: `erx + P(s)/Q(s)` with `s = |x| − 1` (`erx` is erf(1)
///   rounded to single precision);
/// * |x| < 1/0.35 and |x| < 6: `1 − erfc(|x|)`, where
///   `erfc(x) = exp(−x² − 0.5625 + R(1/x²)/S(1/x²)) / x` with a rational
///   of its own per branch, and `−x²` split so that it is exact;
/// * |x| ≥ 6: ±1 (erfc(6) ≈ 2e-17 is below half an ulp of 1).
pub(crate) fn erf(x: f64) -> f64 {
    // fdlibm's coefficients, each written in the shortest decimal form
    // that parses to the same double; each denominator leads with its
    // constant term 1.
    const ERX: f64 = 0.8450629115104675;
    // 2/√π − 1 and 8 times it, for tiny |x|.
    const EFX: f64 = 0.1283791670955126;
    const EFX8: f64 = 1.0270333367641007;
    // |x| < 0.84375.
    const PP: [f64; 5] = [
        0.12837916709551256,
        -0.3250421072470015,
        -0.02848174957559851,
        -0.005770270296489442,
        -2.3763016656650163e-05,
    ];
    const QQ: [f64; 6] = [
        1.0,
        0.39791722395915535,
        0.0650222499887673,
        0.005081306281875766,
        0.00013249473800432164,
        -3.960228278775368e-06,
    ];
    // 0.84375 ≤ |x| < 1.25.
    const PA: [f64; 7] = [
        -0.0023621185607526594,
        0.41485611868374833,
        -0.3722078760357013,
        0.31834661990116175,
        -0.11089469428239668,
        0.035478304325618236,
        -0.002166375594868791,
    ];
    const QA: [f64; 7] = [
        1.0,
        0.10642088040084423,
        0.540397917702171,
        0.07182865441419627,
        0.12617121980876164,
        0.01363708391202905,
        0.011984499846799107,
    ];
    // 1.25 ≤ |x| < 1/0.35.
    const RA: [f64; 8] = [
        -0.009864944034847148,
        -0.6938585727071818,
        -10.558626225323291,
        -62.375332450326006,
        -162.39666946257347,
        -184.60509290671104,
        -81.2874355063066,
        -9.814329344169145,
    ];
    const SA: [f64; 9] = [
        1.0,
        19.651271667439257,
        137.65775414351904,
        434.56587747522923,
        645.3872717332679,
        429.00814002756783,
        108.63500554177944,
        6.570249770319282,
        -0.0604244152148581,
    ];
    // 1/0.35 ≤ |x| < 6.
    const RB: [f64; 7] = [
        -0.0098649429247001,
        -0.799283237680523,
        -17.757954917754752,
        -160.63638485582192,
        -637.5664433683896,
        -1025.0951316110772,
        -483.5191916086514,
    ];
    const SB: [f64; 8] = [
        1.0,
        30.33806074348246,
        325.7925129965739,
        1536.729586084437,
        3199.8582195085955,
        2553.0504064331644,
        474.52854120695537,
        -22.44095244658582,
    ];

    let ix = (x.to_bits() >> 32) as u32 & 0x7fff_ffff;
    if ix >= 0x7ff0_0000 {
        // NaN stays NaN; erf(±∞) = ±1.
        return if x.is_nan() { x } else { x.signum() };
    }
    if ix < 0x3feb_0000 {
        // |x| < 0.84375.
        if ix < 0x3e30_0000 {
            // |x| < 2⁻²⁸: erf(x) = 2x/√π to within an ulp; subnormals
            // are scaled up first so the product does not underflow.
            return if ix < 0x0080_0000 {
                0.125 * (8.0 * x + EFX8 * x)
            } else {
                x + EFX * x
            };
        }
        let z = x * x;
        return x + x * (poly(z, &PP) / poly(z, &QQ));
    }
    if ix < 0x3ff4_0000 {
        // 0.84375 ≤ |x| < 1.25.
        let s = x.abs() - 1.0;
        let p_over_q = poly(s, &PA) / poly(s, &QA);
        return if x >= 0.0 {
            ERX + p_over_q
        } else {
            -ERX - p_over_q
        };
    }
    if ix >= 0x4018_0000 {
        // |x| ≥ 6.
        return x.signum();
    }
    let a = x.abs();
    let s = 1.0 / (a * a);
    let r_over_s = if ix < 0x4006_db6e {
        // |x| < 1/0.35.
        poly(s, &RA) / poly(s, &SA)
    } else {
        poly(s, &RB) / poly(s, &SB)
    };
    // z is |x| with the low 32 bits cleared, so z·z is exact and
    // (z − a)(z + a) carries the rest of −a².
    let z = f64::from_bits(a.to_bits() & 0xffff_ffff_0000_0000);
    let erfc = (-z * z - 0.5625).exp() * ((z - a) * (z + a) + r_over_s).exp() / a;
    if x >= 0.0 {
        1.0 - erfc
    } else {
        erfc - 1.0
    }
}

/// `c[0] + x·(c[1] + x·(c[2] + …))`, evaluated innermost first (fdlibm's
/// operation order, so the port keeps its rounding).
fn poly(x: f64, c: &[f64]) -> f64 {
    let (last, rest) = c.split_last().expect("at least one coefficient");
    rest.iter().rev().fold(*last, |acc, &ci| ci + x * acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference `erf`: Maclaurin series for |x| ≤ 2, continued fraction
    /// above, ~1e-14 accurate and independent of the rational port.
    fn series_erf(x: f64) -> f64 {
        if x < 0.0 {
            return -series_erf(-x);
        }
        if x == 0.0 {
            return 0.0;
        }
        if x > 6.5 {
            return 1.0; // erfc < 4e-20, below f64 resolution of 1 - erfc
        }
        if x <= 2.0 {
            // erf(x) = (2/√π) Σ_{n≥0} (−1)ⁿ x^{2n+1} / (n! (2n+1))
            let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
            let x2 = x * x;
            let mut term = x;
            let mut sum = x;
            let mut n = 1.0;
            loop {
                term *= -x2 / n;
                let add = term / (2.0 * n + 1.0);
                sum += add;
                if add.abs() < 1e-17 * sum.abs() {
                    break;
                }
                n += 1.0;
            }
            two_over_sqrt_pi * sum
        } else {
            1.0 - series_erfc_large(x)
        }
    }

    /// erfc(x) for x > 2 via the Laplace continued fraction (A&S 7.1.14):
    /// √π·e^{x²}·erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + …)))))
    /// — partial numerators aₙ = (n−1)/2 for n ≥ 2 (a₁ = 1), denominators
    /// x — evaluated with the modified Lentz algorithm.
    fn series_erfc_large(x: f64) -> f64 {
        let tiny = 1e-300;
        let mut f: f64 = tiny; // b0 = 0
        let mut c: f64 = f;
        let mut d: f64 = 0.0;
        for n in 1..400 {
            let a = if n == 1 { 1.0 } else { (n as f64 - 1.0) / 2.0 };
            d = x + a * d;
            if d.abs() < tiny {
                d = tiny;
            }
            c = x + a / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = c * d;
            f *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        (-x * x).exp() / std::f64::consts::PI.sqrt() * f
    }

    /// Distance in units in the last place between two finite doubles of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `[−7, 7]` in steps of 1/8192: every branch, densely.
    fn grid() -> impl Iterator<Item = f64> {
        (-7 * 8192..=7 * 8192).map(|i| i as f64 / 8192.0)
    }

    /// Where the port switches branch: |x| = 2⁻²⁸, 0.84375, 1.25, the high
    /// word of 1/0.35 (0x4006DB6E, just above 1/0.35 = 2.857142857…) and 6.
    const BRANCH_POINTS: [f64; 5] = [
        3.725290298461914e-9,
        0.84375,
        1.25,
        f64::from_bits(0x4006_db6e_0000_0000),
        6.0,
    ];

    #[test]
    fn erf_matches_retired_series() {
        for x in grid() {
            let (got, want) = (erf(x), series_erf(x));
            assert!((got - want).abs() <= 4e-15, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn erf_reference_values() {
        assert_eq!(erf(0.0), 0.0);
        for (x, want) in [
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ] {
            assert!(ulps(erf(x), want) <= 2, "erf({x}) = {} vs {want}", erf(x));
            assert!(ulps(erf(-x), -want) <= 2, "erf({}) = {}", -x, erf(-x));
        }
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn erf_is_odd_and_monotone() {
        let mut prev = -1.0;
        for x in grid() {
            let y = erf(x);
            assert_eq!(erf(-x).to_bits(), (-y).to_bits(), "x={x}");
            assert!(y >= prev, "erf({x}) = {y} < {prev}");
            prev = y;
        }
    }

    #[test]
    fn erf_is_continuous_across_its_branches() {
        for t in BRANCH_POINTS {
            let below = f64::from_bits(t.to_bits() - 1);
            assert!(
                ulps(erf(below), erf(t)) <= 2,
                "across {t}: {} vs {}",
                erf(below),
                erf(t)
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() <= 1e-15,
                "p={p}, z={z}, cdf={}",
                normal_cdf(z)
            );
        }
    }

    /// (σ, u) pairs where the block form could part from the scalar path:
    /// σ from 1e-9 to 3 (the clamp GenObf applies) densely enough that
    /// erf(1/(σ√2)) runs through every branch, σ small enough that
    /// Φ(1/σ) rounds to 1, σ large enough that the CDF span falls to
    /// `f64::EPSILON` or below; u on a grid plus 0, ½ and 1 − 2⁻⁵³.
    fn quantile_grid() -> (Vec<f64>, Vec<f64>) {
        let mut sigmas: Vec<f64> = (0..=400)
            .map(|i| 1e-9 * (3e9f64).powf(i as f64 / 400.0))
            .collect();
        sigmas.extend([1e-9, 0.1, 0.2475, 0.566, 0.838, 3.0, 1e15, 1e17, 1e300]);
        let mut us: Vec<f64> = (0..=64).map(|i| i as f64 / 64.0).collect();
        us.extend([0.0, 0.5, 1.0 - f64::EPSILON / 2.0, 1e-300, 0.999, 0.9999999]);
        let (mut s, mut u) = (Vec::new(), Vec::new());
        for &sigma in &sigmas {
            for &v in &us {
                s.push(sigma);
                u.push(v);
            }
        }
        (s, u)
    }

    fn assert_block_matches_scalar(sigma: &[f64], u: &[f64]) {
        let mut out = vec![f64::NAN; sigma.len()];
        half_unit_quantiles(sigma, u, &mut out);
        for i in 0..sigma.len() {
            let want = TruncatedNormal::half_unit(sigma[i]).inverse_cdf(u[i]);
            assert_eq!(
                out[i].to_bits(),
                want.to_bits(),
                "sigma={} u={}: {} vs {want}",
                sigma[i],
                u[i],
                out[i]
            );
        }
    }

    /// Which of erf's branches `x` takes: 0 for |x| < 2⁻²⁸, then one more
    /// per branch point passed, up to 5 for |x| ≥ 6.
    fn erf_branch(x: f64) -> usize {
        let ix = (x.to_bits() >> 32) as u32 & 0x7fff_ffff;
        [
            0x3e30_0000,
            0x3feb_0000,
            0x3ff4_0000,
            0x4006_db6e,
            0x4018_0000,
        ]
        .iter()
        .filter(|&&t| ix >= t)
        .count()
    }

    #[test]
    fn block_quantiles_match_scalar_bit_for_bit() {
        let (sigma, u) = quantile_grid();
        assert!(sigma.len() % QUANTILE_BLOCK != 0);
        // Both erf stages, between them, take every branch.
        let mut seen = [false; 6];
        for (&s, &u) in sigma.iter().zip(&u) {
            seen[erf_branch(1.0 / s / std::f64::consts::SQRT_2)] = true;
            let target = 0.5 + u * (normal_cdf(1.0 / s) - 0.5);
            if target < 1.0 {
                seen[erf_branch(acklam(target) / std::f64::consts::SQRT_2)] = true;
            }
        }
        assert_eq!(seen, [true; 6]);
        assert_block_matches_scalar(&sigma, &u);
        // Every block length around the block size, from every offset
        // class of the grid.
        for len in [0, 1, 63, 64, 65] {
            for start in [0, 7, 500, sigma.len() - len] {
                assert_block_matches_scalar(&sigma[start..start + len], &u[start..start + len]);
            }
        }
    }

    #[test]
    fn block_quantiles_cover_the_special_cases() {
        // Φ(1/σ) rounds to 1, so the span is exactly ½ and u = 1 − 2⁻⁵³
        // gives a target that rounds to 1: +∞, clamped to 1.
        let u = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(erf(1.0 / 0.1 / std::f64::consts::SQRT_2), 1.0);
        assert_eq!(0.5 + u * 0.5, 1.0);
        let mut out = [f64::NAN; 3];
        half_unit_quantiles(&[0.1, 1e17, 3.0], &[u, 0.5, 0.0], &mut out);
        assert_eq!(out, [1.0, 0.0, 0.0]);
        // Φ(0) is ½ exactly.
        assert_eq!(normal_cdf(0.0), 0.5);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn block_quantiles_reject_nonpositive_sigma() {
        half_unit_quantiles(&[0.3, 0.0], &[0.5, 0.5], &mut [0.0; 2]);
    }

    #[test]
    fn quantile_median_is_zero() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_respect_bounds() {
        let d = TruncatedNormal::half_unit(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x), "sample {x} out of [0,1]");
        }
    }

    #[test]
    fn small_sigma_concentrates_near_zero() {
        let d = TruncatedNormal::half_unit(0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        // Half-normal mean is σ·sqrt(2/π) ≈ 0.0399 for σ = 0.05.
        assert!((mean - 0.05 * (2.0 / std::f64::consts::PI).sqrt()).abs() < 0.01);
    }

    #[test]
    fn large_sigma_spreads_mass() {
        let d = TruncatedNormal::half_unit(10.0);
        let mut rng = StdRng::seed_from_u64(3);
        // With σ ≫ 1 the truncated density is nearly uniform on [0,1]:
        // mean ≈ 0.5.
        let mean: f64 = (0..4000).map(|_| d.sample(&mut rng)).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn monotone_quantile() {
        let d = TruncatedNormal::half_unit(0.4);
        let mut prev = -1.0;
        for i in 0..=100 {
            let q = d.inverse_cdf(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
        assert!((d.inverse_cdf(0.0) - 0.0).abs() < 1e-9);
        assert!((d.inverse_cdf(1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_sigma() {
        let _ = TruncatedNormal::half_unit(0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_interval() {
        let _ = TruncatedNormal::new(1.0, 0.5, 0.5);
    }

    #[test]
    fn lower_tail_interval_mirrors_its_reflection() {
        // Deep in the tail the CDF span underflows and all mass sits at
        // the end nearest the mode, on either side of it.
        for u in [0.01, 0.5, 0.99] {
            assert_eq!(TruncatedNormal::new(1.0, -10.0, -9.0).inverse_cdf(u), -9.0);
            assert_eq!(TruncatedNormal::new(1.0, 9.0, 10.0).inverse_cdf(u), 9.0);
        }
        // Tail intervals (degenerate and not) and intervals near the mode,
        // including the half-unit interval itself.
        for (sigma, a, b) in [
            (1.0, 9.0, 10.0),
            (1.0, 5.0, 6.0),
            (0.1, 0.5, 0.7),
            (0.3, 0.0, 1.0),
            (1.0, 0.2, 0.9),
            (3.0, 0.0, 1.0),
        ] {
            let (up, down) = (
                TruncatedNormal::new(sigma, a, b),
                TruncatedNormal::new(sigma, -b, -a),
            );
            for i in 0..=64 {
                let u = i as f64 / 64.0;
                assert_eq!(
                    down.inverse_cdf(u).to_bits(),
                    (-up.inverse_cdf(1.0 - u)).to_bits(),
                    "sigma={sigma} [{a}, {b}] u={u}"
                );
            }
            assert_eq!((down.lo(), down.hi()), (-b, -a));
        }
    }

    #[test]
    fn accessors() {
        let d = TruncatedNormal::new(0.7, 0.1, 0.9);
        assert_eq!(d.sigma(), 0.7);
        assert_eq!(d.lo(), 0.1);
        assert_eq!(d.hi(), 0.9);
    }
}
