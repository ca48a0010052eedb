//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the SegHDC paper.
//!
//! Each binary (`table1`, `table2`, `figure3`, `figure6`, `figure7a`,
//! `figure7b`, `figure8`) prints the rows or series of the corresponding
//! table/figure. By default the harnesses run a **scaled** workload (smaller
//! images, fewer samples and a lower hypervector dimension) so the whole
//! suite finishes in minutes on a laptop; pass `--full` to run at the
//! paper's original scale. `EXPERIMENTS.md` records both the paper values
//! and the values measured with the scaled defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_json;

use cnn_baseline::{KimConfig, KimSegmenter};
use imaging::{metrics, LabelMap};
use seghdc::{ColorEncoding, PositionEncoding, SegEngine, SegHdcConfig, SegmentRequest};
use synthdata::DatasetProfile;

/// Scale at which an experiment harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 16×16 images, one sample, minimal dimensions — a seconds-long sanity
    /// pass used by the binary smoke tests.
    Tiny,
    /// Reduced image sizes / sample counts / dimensions; finishes in minutes.
    Quick,
    /// The paper's original image sizes and parameters.
    Full,
}

impl Scale {
    /// Parses the scale from command-line arguments (`--full` selects
    /// [`Scale::Full`], `--tiny` selects [`Scale::Tiny`], everything else
    /// defaults to [`Scale::Quick`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else if std::env::args().any(|a| a == "--tiny") {
            Scale::Tiny
        } else {
            Scale::Quick
        }
    }
}

/// The three evaluation datasets of the paper, with the image size used at
/// the given scale.
pub fn dataset_profiles(scale: Scale) -> Vec<DatasetProfile> {
    let profiles = vec![
        DatasetProfile::bbbc005_like(),
        DatasetProfile::dsb2018_like(),
        DatasetProfile::monuseg_like(),
    ];
    match scale {
        Scale::Full => profiles,
        Scale::Quick => profiles.into_iter().map(|p| p.scaled(96, 96)).collect(),
        Scale::Tiny => profiles.into_iter().map(|p| p.scaled(16, 16)).collect(),
    }
}

/// Number of images evaluated per dataset at the given scale.
pub fn samples_per_dataset(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1,
        Scale::Quick => 4,
        Scale::Full => 20,
    }
}

/// SegHDC configuration for a dataset profile, following Table I's
/// hyper-parameters (`α = 0.2`, `γ = 1`, `β = 21/26`, 2 or 3 clusters), with
/// the dimension reduced in quick and tiny modes.
pub fn seghdc_config_for(profile: &DatasetProfile, scale: Scale) -> SegHdcConfig {
    let mut config = if profile.name.starts_with("BBBC005") {
        SegHdcConfig::bbbc005()
    } else if profile.name.starts_with("MoNuSeg") {
        SegHdcConfig::monuseg()
    } else {
        SegHdcConfig::dsb2018()
    };
    match scale {
        Scale::Full => {}
        Scale::Quick => {
            config.dimension = 2000;
            config.iterations = 5;
            // β scales with the image: the paper's 21/26 blocks on ~256-pixel
            // axes correspond to ~8 blocks on a 96-pixel axis.
            config.beta = (config.beta * 96 / 256).max(1);
        }
        Scale::Tiny => {
            config.dimension = 256;
            config.iterations = 2;
            config.beta = (config.beta * 16 / 256).max(1);
        }
    }
    config
}

/// CNN-baseline configuration at the given scale.
pub fn baseline_config_for(scale: Scale) -> KimConfig {
    match scale {
        Scale::Tiny => KimConfig::tiny(),
        Scale::Quick => KimConfig::evaluation(),
        Scale::Full => KimConfig::reference(),
    }
}

/// Which segmentation method a Table I column refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The CNN baseline of Kim et al. (column "BL").
    CnnBaseline,
    /// SegHDC with random position hypervectors (column "RPos").
    RandomPosition,
    /// SegHDC with random colour hypervectors (column "RColor").
    RandomColor,
    /// The full SegHDC pipeline.
    SegHdc,
}

impl Method {
    /// All Table I columns in presentation order.
    pub fn all() -> [Method; 4] {
        [
            Method::CnnBaseline,
            Method::RandomPosition,
            Method::RandomColor,
            Method::SegHdc,
        ]
    }

    /// The column label used in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Method::CnnBaseline => "BL [16]",
            Method::RandomPosition => "RPos",
            Method::RandomColor => "RColor",
            Method::SegHdc => "SegHDC",
        }
    }
}

/// The SegHDC configuration a Table I column runs with: the base
/// configuration for the `SegHDC` column and the random-codebook ablations
/// for `RPos`/`RColor` (`None` for the CNN baseline).
fn seghdc_variant_for(method: Method, base: &SegHdcConfig) -> Option<SegHdcConfig> {
    match method {
        Method::CnnBaseline => None,
        Method::SegHdc => Some(base.clone()),
        Method::RandomPosition => Some(SegHdcConfig {
            position_encoding: PositionEncoding::Random,
            ..base.clone()
        }),
        Method::RandomColor => Some(SegHdcConfig {
            color_encoding: ColorEncoding::Random,
            ..base.clone()
        }),
    }
}

/// Runs one method over a whole batch of images and returns one matched
/// binary IoU per image.
///
/// Every SegHDC-family method goes through one [`SegEngine`] batch
/// request, so codebooks are derived **once per image shape** for the whole
/// batch (via the engine's persistent codebook cache) instead of once per
/// image — this is the entry point all experiment binaries route their
/// segmentations through. The CNN baseline trains per image by
/// construction and is run in a loop.
///
/// # Errors
///
/// Returns a boxed error if segmentation or scoring fails, or if `images`
/// and `truths` disagree in length.
pub fn evaluate_method_batch(
    method: Method,
    images: &[imaging::DynamicImage],
    truths: &[LabelMap],
    seghdc_config: &SegHdcConfig,
    baseline_config: &KimConfig,
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    if images.len() != truths.len() {
        return Err(format!("{} images but {} ground truths", images.len(), truths.len()).into());
    }
    let predictions: Vec<LabelMap> = match seghdc_variant_for(method, seghdc_config) {
        Some(config) => SegEngine::new(config)?
            .run(&SegmentRequest::batch(images).whole_image())?
            .outputs
            .into_iter()
            .map(|output| output.label_map)
            .collect(),
        None => {
            let mut maps = Vec::with_capacity(images.len());
            for image in images {
                maps.push(
                    KimSegmenter::new(baseline_config.clone())?
                        .segment(image)?
                        .label_map,
                );
            }
            maps
        }
    };
    predictions
        .iter()
        .zip(truths)
        .map(|(prediction, truth)| Ok(metrics::matched_binary_iou(prediction, &truth.to_binary())?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthdata::SyntheticDataset;

    #[test]
    fn quick_profiles_are_smaller_than_full_profiles() {
        let quick = dataset_profiles(Scale::Quick);
        let full = dataset_profiles(Scale::Full);
        assert_eq!(quick.len(), 3);
        assert_eq!(full.len(), 3);
        for (q, f) in quick.iter().zip(&full) {
            assert!(q.width < f.width);
            assert_eq!(q.name, f.name);
        }
        assert!(samples_per_dataset(Scale::Quick) < samples_per_dataset(Scale::Full));
    }

    #[test]
    fn per_dataset_configs_follow_table_one() {
        let full = dataset_profiles(Scale::Full);
        let bbbc = seghdc_config_for(&full[0], Scale::Full);
        let dsb = seghdc_config_for(&full[1], Scale::Full);
        let monu = seghdc_config_for(&full[2], Scale::Full);
        assert_eq!(bbbc.beta, 21);
        assert_eq!(dsb.beta, 26);
        assert_eq!(monu.clusters, 3);
        // Quick mode shrinks the dimension but keeps the cluster counts.
        let quick = seghdc_config_for(&full[2], Scale::Quick);
        assert_eq!(quick.clusters, 3);
        assert!(quick.dimension < monu.dimension);
        quick.validate().unwrap();
    }

    #[test]
    fn tiny_scale_shrinks_everything_further() {
        let tiny = dataset_profiles(Scale::Tiny);
        assert!(tiny.iter().all(|p| p.width == 16 && p.height == 16));
        assert_eq!(samples_per_dataset(Scale::Tiny), 1);
        for profile in &tiny {
            let config = seghdc_config_for(profile, Scale::Tiny);
            assert!(config.dimension <= 256);
            config.validate().unwrap();
        }
        assert_eq!(
            baseline_config_for(Scale::Tiny).feature_channels,
            KimConfig::tiny().feature_channels
        );
    }

    #[test]
    fn batch_evaluation_matches_single_image_evaluation() {
        let profile = DatasetProfile::bbbc005_like().scaled(24, 24);
        let dataset = SyntheticDataset::new(profile.clone(), 9, 2).unwrap();
        let mut config = seghdc_config_for(&profile, Scale::Tiny);
        config.dimension = 512;
        let mut images = Vec::new();
        let mut truths = Vec::new();
        for index in 0..2 {
            let sample = dataset.sample(index).unwrap();
            images.push(sample.image);
            truths.push(sample.ground_truth);
        }
        let batch = evaluate_method_batch(
            Method::SegHdc,
            &images,
            &truths,
            &config,
            &KimConfig::tiny(),
        )
        .unwrap();
        assert_eq!(batch.len(), 2);
        for (index, score) in batch.iter().enumerate() {
            let single = evaluate_method_batch(
                Method::SegHdc,
                &images[index..=index],
                &truths[index..=index],
                &config,
                &KimConfig::tiny(),
            )
            .unwrap();
            assert_eq!(single, [*score], "image {index}");
        }
        // Length mismatches are rejected.
        assert!(evaluate_method_batch(
            Method::SegHdc,
            &images,
            &truths[..1],
            &config,
            &KimConfig::tiny()
        )
        .is_err());
    }

    #[test]
    fn method_labels_match_the_paper_columns() {
        let labels: Vec<&str> = Method::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["BL [16]", "RPos", "RColor", "SegHDC"]);
    }

    #[test]
    fn evaluate_method_runs_seghdc_on_a_tiny_sample() {
        let profile = DatasetProfile::bbbc005_like().scaled(48, 48);
        let dataset = SyntheticDataset::new(profile.clone(), 3, 1).unwrap();
        let sample = dataset.sample(0).unwrap();
        let mut config = seghdc_config_for(&profile, Scale::Quick);
        config.dimension = 1000;
        config.iterations = 3;
        let scores = evaluate_method_batch(
            Method::SegHdc,
            std::slice::from_ref(&sample.image),
            std::slice::from_ref(&sample.ground_truth),
            &config,
            &KimConfig::tiny(),
        )
        .unwrap();
        let [iou] = scores[..] else {
            panic!("one image gives one score, not {}", scores.len());
        };
        assert!((0.0..=1.0).contains(&iou));
        assert!(
            iou > 0.5,
            "SegHDC should segment the easy profile well: {iou}"
        );
    }
}
