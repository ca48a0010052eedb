use crate::{Result, SegHdcError};

/// Position-encoding variant (§III-1 of the paper, Fig. 3).
///
/// Each variant's [`code`](Self::code) is its byte in codebook snapshots,
/// in request frames and in the server's routing hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionEncoding {
    /// Row and column flips share the same bit range (Fig. 3a). Distances
    /// between positions on the same diagonal collapse to zero — shown in
    /// the paper as the *wrong* way to encode positions.
    Uniform = 0,
    /// Row flips use the first half of the vector, column flips the second
    /// half (Fig. 3b); distances follow the Manhattan distance exactly.
    Manhattan = 1,
    /// Manhattan encoding with the flip unit scaled by `α` (Fig. 3c, Eq. 5),
    /// allowing finer-grained distances.
    DecayManhattan = 2,
    /// Decay Manhattan encoding where `β` consecutive rows/columns share a
    /// block and distances are computed between blocks (Fig. 3d, Eq. 6).
    /// This is the encoding used by SegHDC in the paper's evaluation.
    BlockDecayManhattan = 3,
    /// Independent random hypervector per row and per column — the **RPos**
    /// ablation of Table I.
    Random = 4,
}

impl PositionEncoding {
    /// The variant's byte code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The variant whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::Uniform,
            1 => Self::Manhattan,
            2 => Self::DecayManhattan,
            3 => Self::BlockDecayManhattan,
            4 => Self::Random,
            _ => return None,
        })
    }
}

/// Colour-encoding variant (§III-2 of the paper).
///
/// Each variant's [`code`](Self::code) is its byte in codebook snapshots,
/// in request frames and in the server's routing hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorEncoding {
    /// Level encoding whose Hamming distances follow the Manhattan distance
    /// of the 8-bit intensity values, one concatenated chunk per channel.
    Manhattan = 0,
    /// Independent random hypervector per intensity value — the **RColor**
    /// ablation of Table I.
    Random = 1,
}

impl ColorEncoding {
    /// The variant's byte code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The variant whose [`code`](Self::code) is `code`, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Self::Manhattan,
            1 => Self::Random,
            _ => return None,
        })
    }
}

/// Full configuration of the SegHDC algorithm a [`crate::SegEngine`]
/// runs.
///
/// The defaults correspond to the paper's Table I setup for the DSB2018
/// dataset: `d = 10 000`, `α = 0.2`, `β = 26`, `γ = 1`, two clusters and ten
/// K-Means iterations.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), seghdc::SegHdcError> {
/// use seghdc::SegHdcConfig;
/// let config = SegHdcConfig::builder()
///     .dimension(800)
///     .alpha(1.0)
///     .iterations(3)
///     .build()?;
/// assert_eq!(config.dimension, 800);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegHdcConfig {
    /// Hypervector dimensionality `d`.
    pub dimension: usize,
    /// Flip-unit scale `α` of the decay Manhattan position encoding (Eq. 5).
    ///
    /// The flip unit is `⌊α · d / (2 · n)⌋` bits per step along an axis of
    /// `n` pixels, so once an image axis exceeds `α · d / 2` pixels it
    /// floors to 0 and positions along that axis stop contributing (at the
    /// default α = 0.2 and d = 2048, any axis over 204 pixels).
    pub alpha: f64,
    /// Block size `β` of the block-decay position encoding (Eq. 6).
    pub beta: usize,
    /// Colour-weighting factor `γ` applied to colour flips (§III-3).
    pub gamma: usize,
    /// Number of K-Means clusters.
    pub clusters: usize,
    /// Number of K-Means iterations.
    pub iterations: usize,
    /// Position-encoding variant.
    pub position_encoding: PositionEncoding,
    /// Colour-encoding variant.
    pub color_encoding: ColorEncoding,
    /// Seed for every random codebook in the pipeline.
    pub seed: u64,
    /// Whether to record the label map after every clustering iteration
    /// (needed for the Fig. 8 reproduction; costs one label map per
    /// iteration).
    pub record_snapshots: bool,
}

impl SegHdcConfig {
    /// Returns a builder initialised with the paper's default parameters.
    pub fn builder() -> SegHdcConfigBuilder {
        SegHdcConfigBuilder::new()
    }

    /// Configuration used in the paper for the DSB2018 dataset
    /// (Table I row: `α = 0.2`, `β = 26`, `γ = 1`, 2 clusters).
    pub fn dsb2018() -> Self {
        SegHdcConfigBuilder::new()
            .beta(26)
            .clusters(2)
            .build()
            .expect("preset parameters are valid")
    }

    /// Configuration used in the paper for the BBBC005 dataset
    /// (`α = 0.2`, `β = 21`, `γ = 1`, 2 clusters).
    pub fn bbbc005() -> Self {
        SegHdcConfigBuilder::new()
            .beta(21)
            .clusters(2)
            .build()
            .expect("preset parameters are valid")
    }

    /// Configuration used in the paper for the MoNuSeg dataset
    /// (`α = 0.2`, `β = 26`, `γ = 1`, 3 clusters).
    pub fn monuseg() -> Self {
        SegHdcConfigBuilder::new()
            .beta(26)
            .clusters(3)
            .build()
            .expect("preset parameters are valid")
    }

    /// Configuration used in the paper's Table II latency measurement on the
    /// DSB2018 sample image (`d = 800`, 3 iterations, `α = 1`).
    pub fn edge_dsb2018() -> Self {
        SegHdcConfigBuilder::new()
            .dimension(800)
            .alpha(1.0)
            .beta(26)
            .iterations(3)
            .clusters(2)
            .build()
            .expect("preset parameters are valid")
    }

    /// Configuration used in the paper's Table II latency measurement on the
    /// BBBC005 sample image (`d = 2000`, 3 iterations, `α = 0.8`).
    pub fn edge_bbbc005() -> Self {
        SegHdcConfigBuilder::new()
            .dimension(2000)
            .alpha(0.8)
            .beta(21)
            .iterations(3)
            .clusters(2)
            .build()
            .expect("preset parameters are valid")
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.dimension < 64 {
            return Err(SegHdcError::InvalidConfig {
                message: format!(
                    "hypervector dimension must be at least 64, got {}",
                    self.dimension
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha <= 0.0 {
            return Err(SegHdcError::InvalidConfig {
                message: format!("alpha must be in (0, 1], got {}", self.alpha),
            });
        }
        if self.beta == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "beta (block size) must be at least 1".to_string(),
            });
        }
        if self.gamma == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "gamma must be at least 1".to_string(),
            });
        }
        if self.clusters < 2 {
            return Err(SegHdcError::InvalidConfig {
                message: format!("at least 2 clusters are required, got {}", self.clusters),
            });
        }
        if self.iterations == 0 {
            return Err(SegHdcError::InvalidConfig {
                message: "at least one clustering iteration is required".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for SegHdcConfig {
    fn default() -> Self {
        SegHdcConfigBuilder::new()
            .build()
            .expect("default parameters are valid")
    }
}

/// Builder for [`SegHdcConfig`].
///
/// Every setter has a sensible default taken from the paper, so only the
/// parameters under study need to be specified.
#[derive(Debug, Clone)]
pub struct SegHdcConfigBuilder {
    config: SegHdcConfig,
}

impl SegHdcConfigBuilder {
    /// Creates a builder with the paper's default parameters
    /// (`d = 10 000`, `α = 0.2`, `β = 26`, `γ = 1`, 2 clusters, 10
    /// iterations, block-decay position encoding, cosine distance).
    pub fn new() -> Self {
        Self {
            config: SegHdcConfig {
                dimension: 10_000,
                alpha: 0.2,
                beta: 26,
                gamma: 1,
                clusters: 2,
                iterations: 10,
                position_encoding: PositionEncoding::BlockDecayManhattan,
                color_encoding: ColorEncoding::Manhattan,
                seed: 0,
                record_snapshots: false,
            },
        }
    }

    /// Sets the hypervector dimensionality `d`.
    pub fn dimension(mut self, dimension: usize) -> Self {
        self.config.dimension = dimension;
        self
    }

    /// Sets the flip-unit scale `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the block size `β`.
    pub fn beta(mut self, beta: usize) -> Self {
        self.config.beta = beta;
        self
    }

    /// Sets the colour weighting `γ`.
    pub fn gamma(mut self, gamma: usize) -> Self {
        self.config.gamma = gamma;
        self
    }

    /// Sets the number of clusters.
    pub fn clusters(mut self, clusters: usize) -> Self {
        self.config.clusters = clusters;
        self
    }

    /// Sets the number of clustering iterations.
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.config.iterations = iterations;
        self
    }

    /// Sets the position-encoding variant.
    pub fn position_encoding(mut self, encoding: PositionEncoding) -> Self {
        self.config.position_encoding = encoding;
        self
    }

    /// Sets the colour-encoding variant.
    pub fn color_encoding(mut self, encoding: ColorEncoding) -> Self {
        self.config.color_encoding = encoding;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables or disables per-iteration label snapshots.
    pub fn record_snapshots(mut self, record: bool) -> Self {
        self.config.record_snapshots = record;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SegHdcError::InvalidConfig`] if any parameter is outside its
    /// valid domain.
    pub fn build(self) -> Result<SegHdcConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for SegHdcConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = SegHdcConfig::default();
        assert_eq!(config.dimension, 10_000);
        assert!((config.alpha - 0.2).abs() < 1e-12);
        assert_eq!(config.gamma, 1);
        assert_eq!(config.iterations, 10);
        assert_eq!(
            config.position_encoding,
            PositionEncoding::BlockDecayManhattan
        );
    }

    #[test]
    fn dataset_presets_follow_table_one() {
        assert_eq!(SegHdcConfig::bbbc005().beta, 21);
        assert_eq!(SegHdcConfig::bbbc005().clusters, 2);
        assert_eq!(SegHdcConfig::dsb2018().beta, 26);
        assert_eq!(SegHdcConfig::monuseg().clusters, 3);
    }

    #[test]
    fn edge_presets_follow_table_two() {
        let dsb = SegHdcConfig::edge_dsb2018();
        assert_eq!(dsb.dimension, 800);
        assert_eq!(dsb.iterations, 3);
        assert!((dsb.alpha - 1.0).abs() < 1e-12);
        let bbbc = SegHdcConfig::edge_bbbc005();
        assert_eq!(bbbc.dimension, 2000);
        assert!((bbbc.alpha - 0.8).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides_individual_fields() {
        let config = SegHdcConfig::builder()
            .dimension(512)
            .alpha(0.5)
            .beta(2)
            .gamma(3)
            .clusters(4)
            .iterations(7)
            .position_encoding(PositionEncoding::Random)
            .color_encoding(ColorEncoding::Random)
            .seed(1234)
            .record_snapshots(true)
            .build()
            .unwrap();
        assert_eq!(config.dimension, 512);
        assert_eq!(config.beta, 2);
        assert_eq!(config.gamma, 3);
        assert_eq!(config.clusters, 4);
        assert_eq!(config.iterations, 7);
        assert_eq!(config.position_encoding, PositionEncoding::Random);
        assert_eq!(config.color_encoding, ColorEncoding::Random);
        assert_eq!(config.seed, 1234);
        assert!(config.record_snapshots);
    }

    #[test]
    fn encoding_codes_round_trip_and_unknown_codes_are_none() {
        for code in 0..=u8::MAX {
            match PositionEncoding::from_code(code) {
                Some(encoding) => assert_eq!(encoding.code(), code),
                None => assert!(code > 4, "{code}"),
            }
            match ColorEncoding::from_code(code) {
                Some(encoding) => assert_eq!(encoding.code(), code),
                None => assert!(code > 1, "{code}"),
            }
        }
    }

    #[test]
    fn validation_rejects_out_of_domain_values() {
        assert!(SegHdcConfig::builder().dimension(10).build().is_err());
        assert!(SegHdcConfig::builder().alpha(0.0).build().is_err());
        assert!(SegHdcConfig::builder().alpha(1.5).build().is_err());
        assert!(SegHdcConfig::builder().beta(0).build().is_err());
        assert!(SegHdcConfig::builder().gamma(0).build().is_err());
        assert!(SegHdcConfig::builder().clusters(1).build().is_err());
        assert!(SegHdcConfig::builder().iterations(0).build().is_err());
    }
}
