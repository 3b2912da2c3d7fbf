//! Structural metrics of uncertain graphs (paper §VI-A).
//!
//! Apart from the expected average degree, which has a closed form
//! (`UncertainGraph::expected_average_degree`), every metric is an
//! expectation over possible worlds, approximated by Monte-Carlo sampling
//! exactly as in the paper: "we create a number of random instances of an
//! uncertain graph, and we compute the expected value of each metric using
//! the average of the sampled graphs".
//!
//! * [`distance`] — average distance & diameter via per-world BFS.
//! * [`clustering`] — expected global clustering coefficient.
//! * [`distribution`] — distribution-level distances (total variation,
//!   earth mover's, Kolmogorov–Smirnov) between sampled degree laws.

pub mod clustering;
pub mod distance;
pub mod distribution;

/// Relative error `|measured − reference| / reference` with the convention
/// that a zero reference yields 0 when both are zero and +∞ otherwise.
/// This is the "ratio of absolute difference against the original" the
/// paper reports for every metric (§VI-A).
pub fn relative_error(reference: f64, measured: f64) -> f64 {
    if reference == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::relative_error;

    #[test]
    fn basic_ratio() {
        assert!((relative_error(10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((relative_error(10.0, 8.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
    }

    #[test]
    fn zero_reference_conventions() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn negative_reference_uses_magnitude() {
        assert!((relative_error(-4.0, -5.0) - 0.25).abs() < 1e-12);
    }
}
