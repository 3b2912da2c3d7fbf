//! The method variants compared in the paper's evaluation (Table II).
//!
//! | Method | Uncertainty-aware | Reliability-oriented | Anonymity-oriented |
//! |--------|-------------------|----------------------|--------------------|
//! | Rep-An | —                 | —                    | ✓                  |
//! | RSME   | ✓                 | ✓                    | ✓                  |
//! | ME     | ✓                 | —                    | ✓                  |
//! | RS     | ✓                 | ✓                    | —                  |
//!
//! *Reliability-oriented* means edge selection down-weights vertices with
//! high reliability relevance (VRR) so that perturbation avoids
//! structurally critical edges. *Anonymity-oriented* means the max-entropy
//! perturbation rule `p̃ = p + (1−2p)·r` steers noise toward the
//! entropy-increasing direction (paper §V-F). The Rep-An baseline lives in
//! the `chameleon-baseline` crate; it is uncertainty-*unaware*.

use crate::perturb::PerturbStrategy;

/// Chameleon method variant (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Full Chameleon: reliability-sensitive selection + max-entropy
    /// perturbation.
    Rsme,
    /// Reliability-sensitive selection with *unguided* (random-direction)
    /// perturbation.
    Rs,
    /// Uniqueness-only selection with max-entropy perturbation.
    Me,
}

impl Method {
    /// All variants, in the paper's reporting order.
    pub const ALL: [Method; 3] = [Method::Rsme, Method::Rs, Method::Me];

    /// True when edge selection is guided by reliability relevance (the
    /// "Reliability-oriented" column).
    pub fn reliability_oriented(&self) -> bool {
        matches!(self, Method::Rsme | Method::Rs)
    }

    /// True when perturbation uses the max-entropy rule (the
    /// "Anonymity-oriented" column).
    pub(crate) fn anonymity_oriented(&self) -> bool {
        matches!(self, Method::Rsme | Method::Me)
    }

    /// The perturbation strategy this variant applies.
    pub fn perturbation(&self) -> PerturbStrategy {
        if self.anonymity_oriented() {
            PerturbStrategy::MaxEntropy
        } else {
            PerturbStrategy::Unguided
        }
    }

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Rsme => "RSME",
            Method::Rs => "RS",
            Method::Me => "ME",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "RSME" => Ok(Method::Rsme),
            "RS" => Ok(Method::Rs),
            "ME" => Ok(Method::Me),
            other => Err(format!(
                "unknown method {other:?} (expected RSME, RS or ME)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_capability_matrix() {
        assert!(Method::Rsme.reliability_oriented());
        assert!(Method::Rsme.anonymity_oriented());
        assert!(Method::Rs.reliability_oriented());
        assert!(!Method::Rs.anonymity_oriented());
        assert!(!Method::Me.reliability_oriented());
        assert!(Method::Me.anonymity_oriented());
    }

    #[test]
    fn perturbation_mapping() {
        assert_eq!(Method::Rsme.perturbation(), PerturbStrategy::MaxEntropy);
        assert_eq!(Method::Me.perturbation(), PerturbStrategy::MaxEntropy);
        assert_eq!(Method::Rs.perturbation(), PerturbStrategy::Unguided);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for m in Method::ALL {
            let parsed: Method = m.name().parse().unwrap();
            assert_eq!(parsed, m);
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!("rsme".parse::<Method>().unwrap(), Method::Rsme);
        assert!("bogus".parse::<Method>().is_err());
    }
}
