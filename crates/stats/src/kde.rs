//! Gaussian-kernel density estimation for commonness/uniqueness scores.
//!
//! Paper Definition 4 (after Boldi et al.): the θ-commonness of a property
//! value ω is `C_θ(ω) = Σ_u φ_{0,θ}(d(ω, P(u)))` — a Gaussian KDE evaluated
//! at ω over all vertices' property values — and the θ-uniqueness is
//! `U_θ(ω) = 1 / C_θ(ω)`. Chameleon sets θ = σ_G, the standard deviation of
//! the property values in the input uncertain graph (paper §V-C).
//!
//! The scores at the support points are evaluated by linear binning (Wand
//! 1994, "Fast computation of multivariate kernel estimators"), not by the
//! O(n²) pairwise sum:
//!
//! 1. each value is placed on a grid of spacing δ = θ/256, its unit weight
//!    split linearly between the two neighbouring cells;
//! 2. the cell weights are convolved with Gaussian weights computed once
//!    per integer cell offset (a Toeplitz matrix), out to the offset where
//!    the kernel underflows to zero (≈38.6θ);
//! 3. each value's commonness is read back by linear interpolation between
//!    its two cells.
//!
//! Only occupied cells are stored, in sorted order, and values more than
//! the kernel's reach apart fall into separate clusters with their own grid
//! origin, so memory is O(n) for any value range or bandwidth. The tests
//! hold the binned scores to a relative error of 1e-4 against the exact
//! pairwise sum, kept as a test-only reference; the error scales as δ².
//! The result depends only on the multiset of values: equal values get
//! bit-equal scores, and the vertex order does not change a bit.

use std::sync::OnceLock;

/// Grid cells per bandwidth θ: the grid spacing is δ = θ / 256. Chosen for
/// the error bound: θ/64 measured 3.7e-4 relative error on Pareto-tailed
/// hub degrees, θ/128 9.5e-5, θ/256 2.1e-5 (DESIGN.md §3).
const CELLS_PER_THETA: u32 = 256;

/// Floor on commonness so that the uniqueness of a value far from every
/// support point stays finite.
const MIN_COMMONNESS: f64 = 1e-300;

/// Unnormalized kernel weight `exp(−d²δ²/2θ²)` for every cell offset
/// `d = 0, 1, …` up to the last one that does not underflow to zero. The
/// table is the same for every bandwidth, since offsets are in units of
/// θ/[`CELLS_PER_THETA`].
fn kernel_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let c = f64::from(CELLS_PER_THETA);
        let inv2c2 = 1.0 / (2.0 * c * c);
        (0u32..)
            .map(|d| (-f64::from(d) * f64::from(d) * inv2c2).exp())
            .take_while(|&w| w > 0.0)
            .collect()
    })
}

/// A Gaussian kernel density / commonness estimator over scalar property
/// values (expected degrees in the paper).
#[derive(Debug, Clone)]
pub struct GaussianKde {
    points: Vec<f64>,
    theta: f64,
    norm: f64,
}

impl GaussianKde {
    /// Builds the estimator with explicit bandwidth `theta`.
    ///
    /// # Panics
    /// Panics if `theta` is not strictly positive and finite.
    pub fn new(points: Vec<f64>, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta > 0.0,
            "bandwidth must be positive, got {theta}"
        );
        let norm = 1.0 / (theta * (2.0 * std::f64::consts::PI).sqrt());
        Self {
            points,
            theta,
            norm,
        }
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the estimator holds no support points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Evaluates uniqueness at every support point (the per-vertex scores
    /// `U^v` of Algorithm 3 line 1) by linear binning: O(n log n) to sort
    /// plus one multiply-add per pair of occupied cells within the
    /// kernel's reach. See the module docs for the method and its error.
    pub fn uniqueness_at_support(&self) -> Vec<f64> {
        let n = self.points.len();
        let table = kernel_table();
        let reach = (table.len() - 1) as u64;
        let delta = self.theta / f64::from(CELLS_PER_THETA);

        // Sorting makes every floating-point sum below run in value order,
        // which is what makes the scores independent of vertex order (tied
        // values add identical terms, so their relative order is moot).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| self.points[a].total_cmp(&self.points[b]));

        // Occupied cells as (index, weight), in ascending index order. A
        // value beyond the kernel's reach of the previous one restarts the
        // grid at its own position, `reach + 1` cells past the last occupied
        // one, so no kernel weight links the two groups and indices stay
        // below n·(reach + 3) whatever the value range.
        let mut cells: Vec<(u64, f64)> = Vec::with_capacity(2 * n);
        // Per vertex: slot of its lower cell, and its interpolation weight.
        let mut slot = vec![0usize; n];
        let mut frac = vec![0.0f64; n];
        let mut base = 0u64;
        let mut origin = 0.0;
        let mut prev = 0.0;
        for &v in &order {
            let x = self.points[v];
            let mut pos = (x - origin) / delta;
            if cells.is_empty() || pos - prev > (reach + 2) as f64 {
                base = cells.last().map_or(0, |&(last, _)| last + reach + 1);
                origin = x;
                pos = 0.0;
            }
            prev = pos;
            let j = pos.floor();
            let f = pos - j;
            let j = base + j as u64;
            // Values arrive sorted, so the last two cells are the previous
            // value's pair (j', j' + 1) with j' <= j.
            match cells.last() {
                Some(&(last, _)) if last == j + 1 => {}
                Some(&(last, _)) if last == j => cells.push((j + 1, 0.0)),
                _ => cells.extend([(j, 0.0), (j + 1, 0.0)]),
            }
            let lower = cells.len() - 2;
            cells[lower].1 += 1.0 - f;
            cells[lower + 1].1 += f;
            slot[v] = lower;
            frac[v] = f;
        }

        // Convolve the cell weights with the kernel table over a sliding
        // window of the cells within reach.
        let (mut lo, mut hi) = (0, 0);
        let smoothed: Vec<f64> = cells
            .iter()
            .map(|&(ia, _)| {
                while cells[lo].0 + reach < ia {
                    lo += 1;
                }
                while hi < cells.len() && cells[hi].0 <= ia + reach {
                    hi += 1;
                }
                cells[lo..hi]
                    .iter()
                    .map(|&(ib, w)| w * table[ia.abs_diff(ib) as usize])
                    .sum()
            })
            .collect();

        slot.iter()
            .zip(&frac)
            .map(|(&s, &f)| {
                let c = self.norm * ((1.0 - f) * smoothed[s] + f * smoothed[s + 1]);
                1.0 / c.max(MIN_COMMONNESS)
            })
            .collect()
    }
}

/// The exact O(n²) evaluation of Definition 4, kept as the reference the
/// binned scores are tested against.
#[cfg(test)]
impl GaussianKde {
    /// θ-commonness `C_θ(ω) = Σ_u φ_{0,θ}(ω − x_u)` (unnormalized KDE, as in
    /// the paper: the kernel values are summed, not averaged).
    fn commonness(&self, omega: f64) -> f64 {
        let inv2t2 = 1.0 / (2.0 * self.theta * self.theta);
        self.points
            .iter()
            .map(|&x| {
                let d = omega - x;
                self.norm * (-d * d * inv2t2).exp()
            })
            .sum()
    }

    /// θ-uniqueness `U_θ(ω) = 1 / C_θ(ω)`, with the same floor on
    /// commonness as the binned path.
    fn uniqueness(&self, omega: f64) -> f64 {
        1.0 / self.commonness(omega).max(MIN_COMMONNESS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_datasets::{brightkite_like, dblp_like, ppi_like};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The error bound the binned evaluation is held to.
    const MAX_REL_ERROR: f64 = 1e-4;

    /// Largest relative deviation of the binned scores from the exact
    /// reference, over the support points with index `i % stride == 0`.
    fn max_rel_error_strided(points: &[f64], theta: f64, stride: usize) -> f64 {
        let kde = GaussianKde::new(points.to_vec(), theta);
        let binned = kde.uniqueness_at_support();
        assert_eq!(binned.len(), points.len());
        points
            .iter()
            .zip(&binned)
            .step_by(stride)
            .map(|(&x, &b)| {
                let exact = kde.uniqueness(x);
                ((b - exact) / exact).abs()
            })
            .fold(0.0, f64::max)
    }

    fn max_rel_error(points: &[f64], theta: f64) -> f64 {
        max_rel_error_strided(points, theta, 1)
    }

    /// θ = scale·σ, as `chameleon_core::uniqueness` picks it.
    fn sd_bandwidth(points: &[f64], scale: f64) -> f64 {
        let sd = crate::Summary::from_slice(points).population_std_dev();
        if sd > 1e-12 {
            sd * scale
        } else {
            scale
        }
    }

    fn assert_within_bound(what: &str, points: &[f64], theta: f64) {
        let err = max_rel_error(points, theta);
        assert!(
            err <= MAX_REL_ERROR,
            "{what}: max relative error {err:e} exceeds {MAX_REL_ERROR:e}"
        );
    }

    /// Pareto-distributed values with tail index `alpha`: a bulk near 1
    /// and hubs many bandwidths out.
    fn pareto(n: usize, alpha: f64, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (1.0 - rng.gen_range(0.0..1.0f64)).powf(-1.0 / alpha))
            .collect()
    }

    #[test]
    fn synthetic_datasets_are_within_bound() {
        for seed in 1..=3 {
            for (name, g) in [
                ("dblp", dblp_like(1500, seed)),
                ("brightkite", brightkite_like(1500, seed)),
                ("ppi", ppi_like(1500, seed)),
            ] {
                let values = g.expected_degrees();
                for scale in [1.0, 0.25, 4.0] {
                    let what = format!("{name} seed {seed} scale {scale}");
                    assert_within_bound(&what, &values, sd_bandwidth(&values, scale));
                }
            }
        }
    }

    #[test]
    fn heavy_tailed_hubs_are_within_bound() {
        for seed in 0..3 {
            for alpha in [1.1, 1.5, 2.5] {
                let values = pareto(2000, alpha, seed);
                for scale in [1.0, 0.25, 4.0] {
                    let what = format!("pareto({alpha}) seed {seed} scale {scale}");
                    assert_within_bound(&what, &values, sd_bandwidth(&values, scale));
                }
            }
        }
    }

    #[test]
    fn single_value_is_exact() {
        let kde = GaussianKde::new(vec![3.7], 0.9);
        assert_eq!(kde.uniqueness_at_support(), vec![kde.uniqueness(3.7)]);
    }

    #[test]
    fn all_equal_values_are_exact_and_bit_equal() {
        for theta in [1.0, 1e-6, 1e6] {
            let kde = GaussianKde::new(vec![12.25; 300], theta);
            let scores = kde.uniqueness_at_support();
            let exact = kde.uniqueness(12.25);
            assert!(((scores[0] - exact) / exact).abs() < 1e-12);
            assert!(scores.iter().all(|s| s.to_bits() == scores[0].to_bits()));
        }
    }

    #[test]
    fn far_apart_clusters_are_within_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let values: Vec<f64> = (0..1000)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 1e6 };
                base + rng.gen_range(0.0..10.0)
            })
            .collect();
        for scale in [1.0, 1e-5] {
            assert_within_bound("clusters", &values, scale * 5.0);
        }
        // θ = σ_G: each cluster is a fraction of a cell wide.
        assert_within_bound("clusters at sigma", &values, sd_bandwidth(&values, 1.0));
    }

    #[test]
    fn tiny_bandwidth_stays_linear_and_within_bound() {
        // At θ = 1e-6·σ the values span ~10¹⁰ cells; only the occupied
        // ones may be stored. Check a sample of the points against the
        // exact reference (each exact row is O(n)).
        let values = brightkite_like(20_000, 3).expected_degrees();
        let theta = sd_bandwidth(&values, 1e-6);
        let err = max_rel_error_strided(&values, theta, 97);
        assert!(err <= MAX_REL_ERROR, "max relative error {err:e}");
    }

    #[test]
    fn equal_values_get_bit_equal_scores_in_any_order() {
        let mut values = pareto(500, 1.5, 9);
        let dupes: Vec<f64> = values.iter().step_by(3).copied().collect();
        values.extend(dupes);
        let scores = GaussianKde::new(values.clone(), 0.8).uniqueness_at_support();
        for (i, &x) in values.iter().enumerate() {
            for (j, &y) in values.iter().enumerate() {
                if x == y {
                    assert_eq!(scores[i].to_bits(), scores[j].to_bits());
                }
            }
        }
        let mut reversed = values.clone();
        reversed.reverse();
        let rev_scores = GaussianKde::new(reversed, 0.8).uniqueness_at_support();
        for (i, &s) in scores.iter().enumerate() {
            assert_eq!(s.to_bits(), rev_scores[values.len() - 1 - i].to_bits());
        }
    }

    #[test]
    fn common_value_has_low_uniqueness() {
        // Many nodes with degree 3, one with degree 50.
        let mut pts = vec![3.0; 99];
        pts.push(50.0);
        let scores = GaussianKde::new(pts, 1.0).uniqueness_at_support();
        assert!(scores[99] > 10.0 * scores[0]);
    }

    #[test]
    fn commonness_is_kernel_sum() {
        let kde = GaussianKde::new(vec![0.0], 1.0);
        let expected = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((kde.commonness(0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_estimator() {
        let kde = GaussianKde::new(vec![], 1.0);
        assert!(kde.is_empty());
        assert_eq!(kde.len(), 0);
        assert!(kde.uniqueness_at_support().is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_zero_bandwidth() {
        let _ = GaussianKde::new(vec![1.0], 0.0);
    }

    #[test]
    fn kernel_table_reaches_underflow() {
        let table = kernel_table();
        assert_eq!(table[0], 1.0);
        assert!(table.windows(2).all(|w| w[1] <= w[0]));
        // exp underflows near 38.6θ.
        let reach = (table.len() - 1) as f64 / f64::from(CELLS_PER_THETA);
        assert!((38.0..39.0).contains(&reach), "reach {reach}θ");
    }

    proptest! {
        #[test]
        fn binned_scores_match_reference(
            pts in proptest::collection::vec(0.0f64..100.0, 1..120),
            scale in 0.05f64..5.0
        ) {
            let theta = sd_bandwidth(&pts, scale);
            let err = max_rel_error(&pts, theta);
            prop_assert!(err <= MAX_REL_ERROR, "max relative error {:e}", err);
            for s in GaussianKde::new(pts, theta).uniqueness_at_support() {
                prop_assert!(s > 0.0 && s.is_finite());
            }
        }

        #[test]
        fn farther_values_are_more_unique(
            base in 0.0f64..10.0
        ) {
            let mut pts = vec![base; 20];
            pts.push(base + 0.5);
            pts.push(base + 5.0);
            let scores = GaussianKde::new(pts, 1.0).uniqueness_at_support();
            prop_assert!(scores[21] > scores[20]);
        }
    }
}
