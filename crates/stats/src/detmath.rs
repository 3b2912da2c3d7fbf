//! `exp` and `ln` in pure Rust, so that the release path's bits do not
//! depend on the host's libm.
//!
//! glibc picks an FMA or a non-FMA `exp` at run time depending on the CPU,
//! and musl and macOS round differently on rare inputs. A one-ulp
//! difference in an entropy that sits exactly at log₂k flips a vertex of
//! the anonymity check, so everything that feeds a release — the
//! truncated-normal noise, the entropy sweep and its threshold, the KDE
//! kernel — calls these functions instead of `f64::exp` and `f64::ln`
//! (the workspace's `clippy.toml` enforces it).
//!
//! Both are ports of fdlibm 5.3 (Sun Microsystems, freely
//! redistributable): `e_exp.c` and `e_log.c`, whose published error is
//! below 1 ulp. Rust never contracts `a * b + c` into a fused
//! multiply-add, and nothing here dispatches on CPU features, so every
//! host computes the same bits; the `outputs_are_pinned` test holds that
//! on any host. The slice forms give the scalar forms' bits.
//!
//! Against the host's libm (glibc 2.36, x86-64) the ignored `ulp_audit`
//! test, over 10⁷ inputs per range the code uses, found at most 1 ulp:
//! `exp` on [−745, 709.78) and [−40, 1), `ln` on (0, 1), [1, 10³) and
//! over every positive double, subnormals included.

/// 2⁵⁴, to scale a subnormal argument of `ln` into the normal range.
const TWO54: f64 = f64::from_bits(0x4350_0000_0000_0000);
/// ln 2 split so that `k·LN2_HI` is exact for |k| < 2¹¹: its high part
/// carries 33 significant bits.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `eˣ`, a port of fdlibm's `e_exp.c` (< 1 ulp).
///
/// The argument is reduced to `x = k·ln2 + r` with |r| ≤ ½ln2, `eʳ` comes
/// from a degree-5 minimax rational in `r²`, and `k` goes into the
/// exponent. Overflow gives +∞ and underflow 0 (subnormal results are
/// rounded once); `exp(NaN)` is NaN, `exp(−∞)` is 0.
pub fn exp(x: f64) -> f64 {
    const O_THRESHOLD: f64 = f64::from_bits(0x4086_2e42_fefa_39ef);
    const U_THRESHOLD: f64 = f64::from_bits(0xc087_4910_d52d_3051);
    const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    /// 2⁻¹⁰⁰⁰.
    const TWO_M1000: f64 = f64::from_bits(0x0170_0000_0000_0000);
    const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
    const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
    const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
    const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
    const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);

    let hx = (x.to_bits() >> 32) as u32;
    let negative = hx >> 31 != 0;
    let hx = hx & 0x7fff_ffff;
    if hx >= 0x4086_2e42 {
        // |x| ≥ 709.78…
        if hx >= 0x7ff0_0000 {
            // NaN stays NaN; e^±∞ = {∞, 0}.
            return if x.is_nan() {
                x
            } else if negative {
                0.0
            } else {
                x
            };
        }
        if x > O_THRESHOLD {
            return f64::INFINITY;
        }
        if x < U_THRESHOLD {
            return 0.0;
        }
    }
    // Argument reduction: x = k·ln2 + (hi − lo).
    let (hi, lo, k, r) = if hx > 0x3fd6_2e42 {
        // |x| > ½ln2.
        let (hi, lo, k) = if hx < 0x3ff0_a2b2 {
            // |x| < 1.5·ln2: k = ±1.
            if negative {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            // t·LN2_HI is exact here.
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        (hi, lo, k, hi - lo)
    } else if hx < 0x3e30_0000 {
        // |x| < 2⁻²⁸: eˣ rounds to 1 + x.
        return 1.0 + x;
    } else {
        (0.0, 0.0, 0, x)
    };
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    if k == 0 {
        return 1.0 - ((r * c) / (c - 2.0) - r);
    }
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    if k >= -1021 {
        with_exponent_added(y, k)
    } else {
        // A subnormal result: scale by 2^(k+1000), then by 2⁻¹⁰⁰⁰, so the
        // result is rounded once.
        with_exponent_added(y, k + 1000) * TWO_M1000
    }
}

/// `y·2ᵏ` by adding `k` to `y`'s biased exponent; `y` is normal and the
/// result is too.
#[inline]
fn with_exponent_added(y: f64, k: i32) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((i64::from(k) << 52) as u64))
}

/// The natural logarithm, a port of fdlibm's `e_log.c` (< 1 ulp).
///
/// With `x = 2ᵏ·(1 + f)` and `√2/2 < 1 + f < √2`, `ln(1 + f)` comes from
/// `s = f/(2 + f)` and a degree-14 minimax polynomial in `s`, and
/// `k·ln2` is added in two parts. `ln(±0)` is −∞, `ln` of a negative
/// number or NaN is NaN, `ln(+∞)` is +∞, and `ln(1)` is exactly +0.
pub fn ln(x: f64) -> f64 {
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

    let mut x = x;
    let mut hx = (x.to_bits() >> 32) as i32;
    let lx = x.to_bits() as u32;
    let mut k = 0i32;
    if hx < 0x0010_0000 {
        // x < 2⁻¹⁰²², or negative.
        if (hx & 0x7fff_ffff) as u32 | lx == 0 {
            return f64::NEG_INFINITY;
        }
        if hx < 0 {
            return f64::NAN;
        }
        // Subnormal: scale up.
        k -= 54;
        x *= TWO54;
        hx = (x.to_bits() >> 32) as i32;
    }
    if hx >= 0x7ff0_0000 {
        return x + x;
    }
    k += (hx >> 20) - 1023;
    let hx = hx & 0x000f_ffff;
    let i = (hx + 0x95f64) & 0x0010_0000;
    // Normalize x or x/2 into [√2/2, √2).
    let x = f64::from_bits(
        (u64::from((hx | (i ^ 0x3ff0_0000)) as u32) << 32) | (x.to_bits() & 0xffff_ffff),
    );
    k += i >> 20;
    let f = x - 1.0;
    let dk = f64::from(k);
    if (0x000f_ffff & (2 + hx)) < 3 {
        // |f| < 2⁻²⁰.
        if f == 0.0 {
            return if k == 0 {
                0.0
            } else {
                dk * LN2_HI + dk * LN2_LO
            };
        }
        let r = f * f * (0.5 - 0.333_333_333_333_333_3 * f);
        return if k == 0 {
            f - r
        } else {
            dk * LN2_HI - ((r - dk * LN2_LO) - f)
        };
    }
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    if ((hx - 0x6147a) | (0x6b851 - hx)) > 0 {
        let hfsq = 0.5 * f * f;
        if k == 0 {
            f - (hfsq - s * (hfsq + r))
        } else {
            dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
        }
    } else if k == 0 {
        f - s * (f - r)
    } else {
        dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f)
    }
}

/// `out[i] = exp(xs[i])`, bit for bit.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn exp_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "one output per input");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = exp(x);
    }
}

/// `out[i] = ln(xs[i])`, bit for bit.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn ln_into(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "one output per input");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = ln(x);
    }
}

// The tests compare against the host's libm, which the release path may
// not call.
#[allow(clippy::disallowed_methods)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSequence;
    use proptest::prelude::*;
    use rand::Rng;

    /// Distance in units in the last place between two finite doubles of
    /// the same sign (0 when both are the same NaN class or equal).
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b || (a.is_nan() && b.is_nan()) {
            return 0;
        }
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    const MIN_SUBNORMAL: f64 = f64::from_bits(1);

    #[test]
    fn exp_hard_cases() {
        assert_eq!(exp(0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0f64.to_bits());
        assert!(exp(f64::NAN).is_nan());
        // Tiny arguments, subnormals included: 1 + x.
        for x in [
            MIN_SUBNORMAL,
            -MIN_SUBNORMAL,
            1e-300,
            f64::MIN_POSITIVE,
            3e-9,
        ] {
            assert_eq!(exp(x), 1.0 + x, "x={x}");
        }
        // Near overflow: the largest finite result, then +∞.
        let o = f64::from_bits(0x4086_2e42_fefa_39ef);
        assert!(exp(o).is_finite());
        assert_eq!(exp(o), f64::MAX.min(exp(o)));
        assert_eq!(exp(f64::from_bits(o.to_bits() + 1)), f64::INFINITY);
        assert_eq!(exp(1000.0), f64::INFINITY);
        // Near underflow: normal down to 2⁻¹⁰²², subnormal below, then 0.
        assert!(exp(-708.0).is_normal());
        let sub = exp(-740.0);
        assert!(sub > 0.0 && !sub.is_normal(), "{sub}");
        assert_eq!(exp(-745.2), 0.0);
        assert_eq!(exp(-1000.0), 0.0);
        assert_eq!(exp(f64::from_bits(0xc087_4910_d52d_3051)), MIN_SUBNORMAL);
        // Every result is within 1 ulp of libm at these points.
        for x in [1.0, -1.0, 0.5, 0.3465, 1.0397, -20.0, 100.0, 709.0, -707.0] {
            assert!(
                ulps(exp(x), x.exp()) <= 1,
                "x={x}: {} vs {}",
                exp(x),
                x.exp()
            );
        }
    }

    #[test]
    fn ln_hard_cases() {
        assert_eq!(ln(1.0).to_bits(), 0f64.to_bits());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(-0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(f64::NEG_INFINITY).is_nan());
        assert!(ln(-1.0).is_nan());
        assert!(ln(-MIN_SUBNORMAL).is_nan());
        assert!(ln(f64::NAN).is_nan());
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        // Subnormals, the smallest normal and the largest finite value.
        for x in [
            MIN_SUBNORMAL,
            2.0 * MIN_SUBNORMAL,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 - f64::EPSILON / 2.0,
            1.0 + f64::EPSILON,
            0.999_999_9,
            1.000_000_1,
        ] {
            assert!(ulps(ln(x), x.ln()) <= 1, "x={x}: {} vs {}", ln(x), x.ln());
        }
    }

    /// Entropy terms at p = 1/k: `ln` of the reciprocal is the negated
    /// `ln` of k to within an ulp, and `ln` of the integer k itself is
    /// within an ulp of libm.
    #[test]
    fn entropy_terms_at_one_over_k() {
        for k in 2..=1024u32 {
            let k = f64::from(k);
            assert!(ulps(ln(k), k.ln()) <= 1, "k={k}");
            let p = 1.0 / k;
            assert!(ulps(ln(p), p.ln()) <= 1, "p=1/{k}");
            assert!(ulps(-ln(p), ln(k)) <= 2, "p=1/{k}");
        }
    }

    /// Exact powers of two give exact multiples of ln 2's two parts.
    #[test]
    fn ln_of_powers_of_two() {
        for e in -1074..=1023 {
            let x = 2f64.powi(e);
            assert!(ulps(ln(x), x.ln()) <= 1, "2^{e}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        /// The slice forms give the scalar forms' bits, on any input
        /// (NaNs, infinities and subnormals from raw bit patterns).
        #[test]
        fn slice_forms_match_scalar(
            raw in proptest::collection::vec(any::<u64>(), 0..80),
            scaled in proptest::collection::vec(-800.0f64..800.0, 0..80),
        ) {
            let mut xs: Vec<f64> = raw.into_iter().map(f64::from_bits).collect();
            xs.extend(scaled);
            let mut out = vec![0.0; xs.len()];
            exp_into(&xs, &mut out);
            let want: Vec<f64> = xs.iter().map(|&x| exp(x)).collect();
            prop_assert_eq!(bits(&out), bits(&want));
            ln_into(&xs, &mut out);
            let want: Vec<f64> = xs.iter().map(|&x| ln(x)).collect();
            prop_assert_eq!(bits(&out), bits(&want));
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fnv1a(hash: u64, x: f64) -> u64 {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    /// 10⁶ seeded inputs per function over the ranges the code uses.
    fn pinned_inputs(name: &str) -> Vec<f64> {
        let mut rng = SeedSequence::new(24).rng(name);
        (0..1_000_000)
            .map(|i| match i % 4 {
                // Kernel, erf and quantile tails: e^−(…) of moderate size.
                0 => rng.gen_range(-40.0..1.0),
                // The whole finite range of either function.
                1 => rng.gen_range(-745.0..709.0),
                // Probabilities and pmf weights, down to subnormals.
                2 => rng.gen::<f64>() * 2f64.powi(-rng.gen_range(0..1075i32)),
                // Raw positive doubles.
                _ => f64::from_bits(rng.gen::<u64>() >> 1),
            })
            .collect()
    }

    /// A portable pin of both functions' bits: the hash is the same on
    /// every host, whatever its libm, CPU features or compiler flags.
    #[test]
    fn outputs_are_pinned() {
        let xs = pinned_inputs("detmath-exp");
        let hash = xs.iter().fold(FNV_OFFSET, |h, &x| fnv1a(h, exp(x)));
        assert_eq!(hash, 2175452533344406829, "exp");
        let xs = pinned_inputs("detmath-ln");
        let hash = xs.iter().fold(FNV_OFFSET, |h, &x| fnv1a(h, ln(x)));
        assert_eq!(hash, 7783050939684045044, "ln");
    }

    /// Maximum ulp error against the host's libm over ≥10⁷ inputs per
    /// function, across the ranges the code uses. Run with
    /// `cargo test --release -p chameleon-stats detmath -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "10⁷ inputs per function; run in release"]
    fn ulp_audit() {
        const N: usize = 10_000_000;
        let mut rng = SeedSequence::new(7).rng("ulp-audit");
        let mut report = |name: &str, f: fn(f64) -> f64, g: fn(f64) -> f64, lo: f64, hi: f64| {
            let mut worst = (0u64, 0.0);
            for _ in 0..N {
                let x = rng.gen_range(lo..hi);
                let (a, b) = (f(x), g(x));
                if b == 0.0 || !b.is_finite() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}({x})");
                    continue;
                }
                let u = ulps(a, b);
                if u > worst.0 {
                    worst = (u, x);
                }
            }
            println!("{name} on [{lo}, {hi}): max {} ulp at {}", worst.0, worst.1);
            assert!(worst.0 <= 1, "{name}: {} ulp at {}", worst.0, worst.1);
        };
        report("exp", exp, f64::exp, -745.0, 709.78);
        report("exp", exp, f64::exp, -40.0, 1.0);
        report("ln", ln, f64::ln, 0.0, 1.0);
        report("ln", ln, f64::ln, 1.0, 1e3);
        // Every binade of the positive doubles, subnormals included.
        let mut worst = 0;
        for _ in 0..N {
            let x = f64::from_bits(rng.gen_range(1..0x7ff0_0000_0000_0000u64));
            worst = worst.max(ulps(ln(x), x.ln()));
        }
        println!("ln over all positive doubles: max {worst} ulp");
        assert!(worst <= 1);
    }
}
