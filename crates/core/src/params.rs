//! Mining parameters (Section 2.1 of the paper).
//!
//! CAP mining is controlled by four user-facing parameters whose effect on
//! the number of discovered CAPs the paper spells out:
//!
//! * **evolving rate ε** — changes smaller than ε do not count as evolution;
//! * **distance threshold η** — two sensors closer than η kilometres are
//!   "spatially close";
//! * **maximum number of CAP attributes μ** — CAPs may involve at most μ
//!   distinct attributes;
//! * **minimum support ψ** — members of a CAP must co-evolve at ψ or more
//!   timestamps.
//!
//! [`MiningParams`] also carries the knobs that the paper mentions in
//! passing: whether linear segmentation is applied, whether the
//! "multiple distinct attributes" restriction is enforced ("this restriction
//! can be easily removed"), and a safety bound on CAP size for the
//! exhaustive search.
//!
//! This module is also the one place that decides when two settings are
//! the same: [`MiningParams`] compares and hashes exactly the values the
//! pipeline reads, and [`Extraction`] is the part steps (1)+(2) read.

use crate::error::MiningError;
use std::hash::{Hash, Hasher};

/// The parameter set of one CAP-mining request, and the identity of a
/// mining point. Also the cache key (Section 3.3): two requests with equal
/// parameters and equal dataset name hit the same cache entry.
///
/// Equality and hashing cover exactly the values the pipeline reads:
/// floats compare by bit pattern, and the segmentation tolerance counts
/// only when segmentation is effective (see [`Extraction`]).
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// Evolving rate ε: minimum absolute change between consecutive
    /// timestamps for the change to count as evolution.
    pub epsilon: f64,
    /// Distance threshold η in kilometres.
    pub eta_km: f64,
    /// Maximum number of distinct attributes in a CAP (μ).
    pub mu: usize,
    /// Minimum support ψ: minimum number of co-evolving timestamps.
    pub psi: usize,
    /// Minimum number of distinct attributes (2 by default; 1 disables the
    /// "different attributes" restriction the paper says can be removed).
    pub min_attributes: usize,
    /// Whether to apply the linear-segmentation smoothing step.
    pub segmentation: bool,
    /// Segmentation error tolerance, as a fraction of the series' value
    /// range (only used when `segmentation` is true).
    pub segmentation_error: f64,
    /// Upper bound on the number of sensors in one CAP. MISCELA itself has
    /// no such bound; this is an implementation safeguard against synthetic
    /// datasets with degenerate all-correlated clusters. `None` removes the
    /// bound.
    pub max_sensors: Option<usize>,
    /// Maximum delay (in grid steps) for the time-delayed extension
    /// (DPD 2020). `0` mines only simultaneous CAPs, as in the EDBT demo.
    pub max_delay: usize,
}

impl Default for MiningParams {
    fn default() -> Self {
        MiningParams {
            epsilon: 0.5,
            eta_km: 1.0,
            mu: 3,
            psi: 10,
            min_attributes: 2,
            segmentation: true,
            segmentation_error: 0.02,
            max_sensors: Some(5),
            max_delay: 0,
        }
    }
}

impl MiningParams {
    /// Creates the default parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the evolving rate ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the distance threshold η (kilometres).
    pub fn with_eta_km(mut self, eta_km: f64) -> Self {
        self.eta_km = eta_km;
        self
    }

    /// Sets the maximum number of distinct attributes μ.
    pub fn with_mu(mut self, mu: usize) -> Self {
        self.mu = mu;
        self
    }

    /// Sets the minimum support ψ.
    pub fn with_psi(mut self, psi: usize) -> Self {
        self.psi = psi;
        self
    }

    /// Sets the minimum number of distinct attributes (1 removes the
    /// multiple-attribute restriction).
    pub fn with_min_attributes(mut self, min_attributes: usize) -> Self {
        self.min_attributes = min_attributes;
        self
    }

    /// Enables or disables the linear-segmentation step.
    pub fn with_segmentation(mut self, enabled: bool) -> Self {
        self.segmentation = enabled;
        self
    }

    /// Sets the segmentation error tolerance (fraction of the value range).
    pub fn with_segmentation_error(mut self, error: f64) -> Self {
        self.segmentation_error = error;
        self
    }

    /// Sets (or removes) the CAP size safeguard.
    pub fn with_max_sensors(mut self, max_sensors: Option<usize>) -> Self {
        self.max_sensors = max_sensors;
        self
    }

    /// Sets the maximum delay for time-delayed CAP mining.
    pub fn with_max_delay(mut self, max_delay: usize) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), MiningError> {
        if self.epsilon < 0.0 || self.epsilon.is_nan() {
            return Err(MiningError::InvalidParameter {
                name: "epsilon",
                message: format!("must be >= 0, got {}", self.epsilon),
            });
        }
        if self.eta_km <= 0.0 || self.eta_km.is_nan() {
            return Err(MiningError::InvalidParameter {
                name: "eta_km",
                message: format!("must be > 0, got {}", self.eta_km),
            });
        }
        if self.mu < 1 {
            return Err(MiningError::InvalidParameter {
                name: "mu",
                message: "must be at least 1".to_string(),
            });
        }
        if self.psi < 1 {
            return Err(MiningError::InvalidParameter {
                name: "psi",
                message: "must be at least 1".to_string(),
            });
        }
        if self.min_attributes < 1 || self.min_attributes > self.mu {
            return Err(MiningError::InvalidParameter {
                name: "min_attributes",
                message: format!(
                    "must be between 1 and mu ({}), got {}",
                    self.mu, self.min_attributes
                ),
            });
        }
        if let Some(max) = self.max_sensors {
            if max < 2 {
                return Err(MiningError::InvalidParameter {
                    name: "max_sensors",
                    message: "must be at least 2 when set".to_string(),
                });
            }
        }
        if !(0.0..=1.0).contains(&self.segmentation_error) {
            return Err(MiningError::InvalidParameter {
                name: "segmentation_error",
                message: format!("must be in [0, 1], got {}", self.segmentation_error),
            });
        }
        Ok(())
    }

    /// What steps (1)+(2) read of this setting.
    pub fn extraction(&self) -> Extraction {
        Extraction::new(self.epsilon, self.segmentation, self.segmentation_error)
    }

    /// The text form of the identity, stored with each persisted result:
    /// shortest round-trip floats, normalized like `Eq`, so equal
    /// parameters give equal text and (NaN payloads aside, which no valid
    /// setting holds) unequal parameters give unequal text.
    pub fn signature(&self) -> String {
        let (x, eta_bits, mu, psi, min_attributes, max_sensors, max_delay) = self.identity();
        let seg = x
            .tolerance()
            .map_or_else(|| "off".to_string(), |t| format!("{t:?}"));
        let maxs = max_sensors.map_or_else(|| "none".to_string(), |m| m.to_string());
        format!(
            "eps={:?};eta={:?};mu={mu};psi={psi};minattr={min_attributes};seg={seg};maxs={maxs};delay={max_delay}",
            x.epsilon(),
            f64::from_bits(eta_bits),
        )
    }

    /// The values `Eq`, `Hash` and the signature compare. Every field is
    /// named here and every value is named in `signature`, so a new field
    /// cannot be left out of the identity, or out of its text, by accident.
    fn identity(&self) -> (Extraction, u64, usize, usize, usize, Option<usize>, usize) {
        let MiningParams {
            epsilon,
            eta_km,
            mu,
            psi,
            min_attributes,
            segmentation,
            segmentation_error,
            max_sensors,
            max_delay,
        } = *self;
        (
            Extraction::new(epsilon, segmentation, segmentation_error),
            eta_km.to_bits(),
            mu,
            psi,
            min_attributes,
            max_sensors,
            max_delay,
        )
    }
}

impl PartialEq for MiningParams {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for MiningParams {}

impl Hash for MiningParams {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

/// What steps (1)+(2) read of a parameter setting: the evolving rate ε and,
/// when segmentation is effective (enabled with a positive tolerance), the
/// segmentation tolerance. Both are held as bit patterns, so it compares
/// and hashes exactly and keys extraction caches and sweep classes
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extraction {
    epsilon_bits: u64,
    tolerance_bits: Option<u64>,
}

impl Extraction {
    /// The extraction of a setting with evolving rate `epsilon`, the
    /// segmentation flag and tolerance. An ineffective tolerance (flag off,
    /// or tolerance not positive) is dropped.
    pub fn new(epsilon: f64, segmentation: bool, tolerance: f64) -> Self {
        Extraction {
            epsilon_bits: epsilon.to_bits(),
            tolerance_bits: (segmentation && tolerance > 0.0).then_some(tolerance.to_bits()),
        }
    }

    /// The evolving rate ε.
    fn epsilon(self) -> f64 {
        f64::from_bits(self.epsilon_bits)
    }

    /// The segmentation tolerance, when segmentation is effective.
    pub(crate) fn tolerance(self) -> Option<f64> {
        self.tolerance_bits.map(f64::from_bits)
    }

    /// The same extraction with ε cleared: what step (1) alone reads.
    pub(crate) fn without_epsilon(self) -> Extraction {
        Extraction {
            epsilon_bits: 0,
            ..self
        }
    }

    /// The smallest change that counts as evolution: ε, or the smallest
    /// positive subnormal when ε is not positive, so that `d >= threshold`
    /// holds exactly when `d > 0` (and `-d >= threshold` exactly when
    /// `d < 0`) for every `f64`, subnormals and NaN included.
    /// `f64::MIN_POSITIVE` would miss subnormal changes.
    pub(crate) fn threshold(self) -> f64 {
        let epsilon = self.epsilon();
        if epsilon > 0.0 {
            epsilon
        } else {
            f64::from_bits(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(MiningParams::default().validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let p = MiningParams::new()
            .with_epsilon(0.2)
            .with_eta_km(2.5)
            .with_mu(4)
            .with_psi(20)
            .with_min_attributes(1)
            .with_segmentation(false)
            .with_max_sensors(None)
            .with_max_delay(3);
        assert_eq!(p.epsilon, 0.2);
        assert_eq!(p.eta_km, 2.5);
        assert_eq!(p.mu, 4);
        assert_eq!(p.psi, 20);
        assert_eq!(p.min_attributes, 1);
        assert!(!p.segmentation);
        assert_eq!(p.max_sensors, None);
        assert_eq!(p.max_delay, 3);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(MiningParams::new().with_epsilon(-1.0).validate().is_err());
        assert!(MiningParams::new()
            .with_epsilon(f64::NAN)
            .validate()
            .is_err());
        assert!(MiningParams::new().with_eta_km(0.0).validate().is_err());
        assert!(MiningParams::new().with_mu(0).validate().is_err());
        assert!(MiningParams::new().with_psi(0).validate().is_err());
        assert!(MiningParams::new()
            .with_min_attributes(0)
            .validate()
            .is_err());
        assert!(MiningParams::new()
            .with_mu(2)
            .with_min_attributes(3)
            .validate()
            .is_err());
        assert!(MiningParams::new()
            .with_max_sensors(Some(1))
            .validate()
            .is_err());
        assert!(MiningParams::new()
            .with_segmentation_error(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn identity_is_stable_and_distinguishes() {
        let a = MiningParams::default();
        let b = MiningParams::default();
        assert_eq!(a, b);
        assert_eq!(a.signature(), b.signature());
        let c = MiningParams::default().with_psi(11);
        assert_ne!(a, c);
        assert_ne!(a.signature(), c.signature());
        let d = MiningParams::default().with_max_sensors(None);
        assert_ne!(a, d);
        assert_ne!(a.signature(), d.signature());
    }

    #[test]
    fn threshold_is_epsilon_or_the_smallest_subnormal() {
        let x = |eps: f64| Extraction::new(eps, false, 0.0).threshold();
        assert_eq!(x(0.5), 0.5);
        for eps in [0.0, -0.0, -1.0, f64::NAN] {
            assert_eq!(x(eps).to_bits(), 1);
        }
    }
}
