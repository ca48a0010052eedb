use crate::{Result, SynthError};

/// Statistical description of a synthetic nuclei dataset.
///
/// A profile captures the parameters that determine how hard an image is to
/// segment: size, number and size of nuclei, contrast between nuclei and
/// background, illumination gradient, sensor noise, background texture and
/// whether nuclei may touch. The three presets approximate the evaluation
/// datasets of the SegHDC paper.
///
/// # Example
///
/// ```rust
/// let profile = synthdata::DatasetProfile::bbbc005_like();
/// assert_eq!(profile.channels, 1);
/// assert!(profile.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Human readable name, printed by the experiment harnesses.
    pub name: String,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// 1 (grayscale) or 3 (RGB-like stain rendering).
    pub channels: usize,
    /// Minimum number of nuclei per image.
    pub min_nuclei: usize,
    /// Maximum number of nuclei per image.
    pub max_nuclei: usize,
    /// Minimum nucleus radius in pixels.
    pub min_radius: f64,
    /// Maximum nucleus radius in pixels.
    pub max_radius: f64,
    /// Mean background intensity (0-255).
    pub background_level: u8,
    /// Mean nucleus intensity (0-255). Larger gap to `background_level`
    /// means higher contrast and easier segmentation.
    pub nucleus_level: u8,
    /// Per-nucleus intensity jitter (+/-, in gray levels).
    pub nucleus_level_jitter: u8,
    /// Strength of the linear illumination gradient added to the background.
    pub gradient_strength: f64,
    /// Standard deviation of the additive Gaussian sensor noise.
    pub noise_sigma: f64,
    /// Amplitude (0-255) of the value-noise tissue texture.
    pub texture_amplitude: f64,
    /// Cell size in pixels of the value-noise texture.
    pub texture_cell: f64,
    /// Gaussian blur applied after rendering (point-spread-function width).
    pub blur_sigma: f64,
    /// Whether nuclei are allowed to overlap/touch (MoNuSeg-style density).
    pub allow_overlap: bool,
    /// Eccentricity range: maximum ratio between ellipse radii.
    pub max_eccentricity: f64,
}

impl DatasetProfile {
    /// Profile approximating **BBBC005** (Broad Bioimage Benchmark
    /// Collection): large 520×696 single-channel images of well-separated,
    /// bright synthetic cells on a dark, clean background.
    pub fn bbbc005_like() -> Self {
        Self {
            name: "BBBC005-like".to_string(),
            width: 696,
            height: 520,
            channels: 1,
            min_nuclei: 12,
            max_nuclei: 24,
            min_radius: 11.0,
            max_radius: 20.0,
            background_level: 18,
            nucleus_level: 205,
            nucleus_level_jitter: 20,
            gradient_strength: 12.0,
            noise_sigma: 4.0,
            texture_amplitude: 0.0,
            texture_cell: 32.0,
            blur_sigma: 1.2,
            allow_overlap: false,
            max_eccentricity: 1.4,
        }
    }

    /// Profile approximating **DSB2018** (2018 Data Science Bowl
    /// `stage1_train`): 256×320 three-channel fluorescence images with
    /// moderate noise, uneven illumination and variable nucleus brightness.
    pub fn dsb2018_like() -> Self {
        Self {
            name: "DSB2018-like".to_string(),
            width: 320,
            height: 256,
            channels: 3,
            min_nuclei: 10,
            max_nuclei: 30,
            min_radius: 6.0,
            max_radius: 14.0,
            background_level: 28,
            nucleus_level: 170,
            nucleus_level_jitter: 45,
            gradient_strength: 30.0,
            noise_sigma: 9.0,
            texture_amplitude: 10.0,
            texture_cell: 48.0,
            blur_sigma: 1.0,
            allow_overlap: false,
            max_eccentricity: 1.8,
        }
    }

    /// Profile approximating **MoNuSeg** (multi-organ nucleus segmentation
    /// challenge): H&E-stained tissue rendered as three channels, densely
    /// packed touching nuclei, strong tissue texture and low contrast. This
    /// is the hardest profile and yields the lowest IoU scores for every
    /// method, as in the paper.
    pub fn monuseg_like() -> Self {
        Self {
            name: "MoNuSeg-like".to_string(),
            width: 256,
            height: 256,
            channels: 3,
            min_nuclei: 90,
            max_nuclei: 150,
            min_radius: 3.0,
            max_radius: 6.0,
            background_level: 150,
            nucleus_level: 80,
            nucleus_level_jitter: 35,
            gradient_strength: 20.0,
            noise_sigma: 14.0,
            texture_amplitude: 50.0,
            texture_cell: 8.0,
            blur_sigma: 0.8,
            allow_overlap: true,
            max_eccentricity: 2.0,
        }
    }

    /// Profile approximating a full **microscopy scan**: a 1024×1024
    /// single-channel stitched-objective capture with many well-separated
    /// bright nuclei on a dark, lightly vignetted background. This is the
    /// large-image workload the streaming tiled segmenter (seghdc's tiled
    /// execution mode) exists for — the whole-image hypervector
    /// matrix of a scan this size does not fit on the paper's target edge
    /// devices.
    pub fn microscopy_scan_like() -> Self {
        Self {
            name: "MicroscopyScan".to_string(),
            width: 1024,
            height: 1024,
            channels: 1,
            min_nuclei: 45,
            max_nuclei: 90,
            min_radius: 11.0,
            max_radius: 22.0,
            background_level: 16,
            nucleus_level: 210,
            nucleus_level_jitter: 18,
            gradient_strength: 10.0,
            noise_sigma: 3.0,
            texture_amplitude: 0.0,
            texture_cell: 64.0,
            blur_sigma: 1.0,
            allow_overlap: false,
            max_eccentricity: 1.5,
        }
    }

    /// Returns a copy of the profile with a different image size, scaling
    /// the nucleus count with the image area so density stays comparable.
    ///
    /// The experiment harnesses use this to run statistically faithful but
    /// cheaper versions of the paper's workloads on small images.
    pub fn scaled(&self, width: usize, height: usize) -> Self {
        let area_ratio = (width * height) as f64 / (self.width * self.height) as f64;
        let scale = |n: usize| ((n as f64 * area_ratio).round() as usize).max(1);
        // Nuclei must stay well inside even very small target images, so the
        // radius range is capped at a third of the shorter side.
        let radius_cap = (width.min(height) as f64 / 3.0).max(1.0);
        let max_radius = self.max_radius.min(radius_cap);
        let min_radius = self.min_radius.min(max_radius);
        Self {
            name: self.name.clone(),
            width,
            height,
            min_nuclei: scale(self.min_nuclei),
            max_nuclei: scale(self.max_nuclei).max(scale(self.min_nuclei) + 1),
            min_radius,
            max_radius,
            ..self.clone()
        }
    }

    /// Validates that the profile parameters are internally consistent.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidProfile`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.width == 0 || self.height == 0 {
            return Err(SynthError::InvalidProfile {
                message: "image dimensions must be non-zero".to_string(),
            });
        }
        if self.channels != 1 && self.channels != 3 {
            return Err(SynthError::InvalidProfile {
                message: format!("channels must be 1 or 3, got {}", self.channels),
            });
        }
        if self.min_nuclei == 0 || self.max_nuclei < self.min_nuclei {
            return Err(SynthError::InvalidProfile {
                message: "nucleus count range must be non-empty and at least 1".to_string(),
            });
        }
        if !(self.min_radius > 0.0 && self.max_radius >= self.min_radius) {
            return Err(SynthError::InvalidProfile {
                message: "nucleus radius range must be positive and ordered".to_string(),
            });
        }
        if self.max_radius * 2.0 > self.width.min(self.height) as f64 {
            return Err(SynthError::InvalidProfile {
                message: "nuclei must fit inside the image".to_string(),
            });
        }
        if self.noise_sigma < 0.0 || self.texture_amplitude < 0.0 || self.gradient_strength < 0.0 {
            return Err(SynthError::InvalidProfile {
                message: "noise, texture and gradient strengths must be non-negative".to_string(),
            });
        }
        if self.max_eccentricity < 1.0 {
            return Err(SynthError::InvalidProfile {
                message: "max eccentricity must be >= 1".to_string(),
            });
        }
        Ok(())
    }

    /// Absolute contrast between nucleus and background mean levels.
    pub fn contrast(&self) -> u8 {
        self.nucleus_level.abs_diff(self.background_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_image_shapes() {
        let bbbc = DatasetProfile::bbbc005_like();
        assert_eq!((bbbc.width, bbbc.height, bbbc.channels), (696, 520, 1));
        let dsb = DatasetProfile::dsb2018_like();
        assert_eq!((dsb.width, dsb.height, dsb.channels), (320, 256, 3));
        let monu = DatasetProfile::monuseg_like();
        assert_eq!(monu.channels, 3);
        for p in [bbbc, dsb, monu] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn microscopy_scan_profile_is_a_valid_large_single_channel_workload() {
        let scan = DatasetProfile::microscopy_scan_like();
        assert_eq!((scan.width, scan.height, scan.channels), (1024, 1024, 1));
        scan.validate().unwrap();
        // High contrast and clean background: the streaming equivalence
        // harness relies on this profile segmenting cleanly.
        assert!(scan.contrast() > 150);
        assert!(!scan.allow_overlap);
        // Scaled-down variants stay valid (used by benches and smoke tests).
        scan.scaled(256, 256).validate().unwrap();
        scan.scaled(16, 16).validate().unwrap();
    }

    #[test]
    fn difficulty_ordering_of_presets() {
        // MoNuSeg-like must be the lowest-contrast, most cluttered profile,
        // BBBC005-like the cleanest — this is what produces the paper's
        // score ordering.
        let bbbc = DatasetProfile::bbbc005_like();
        let dsb = DatasetProfile::dsb2018_like();
        let monu = DatasetProfile::monuseg_like();
        assert!(bbbc.contrast() > dsb.contrast());
        assert!(dsb.contrast() > monu.contrast());
        assert!(monu.noise_sigma >= dsb.noise_sigma);
        assert!(monu.texture_amplitude > dsb.texture_amplitude);
        assert!(bbbc.texture_amplitude == 0.0);
        assert!(monu.allow_overlap);
        assert!(!bbbc.allow_overlap);
    }

    #[test]
    fn scaled_preserves_density_roughly() {
        let full = DatasetProfile::dsb2018_like();
        let small = full.scaled(64, 64);
        small.validate().unwrap();
        assert_eq!(small.width, 64);
        let full_density = full.max_nuclei as f64 / (full.width * full.height) as f64;
        let small_density = small.max_nuclei as f64 / (64.0 * 64.0);
        assert!((full_density / small_density).abs() < 3.0);
        assert!(small.min_nuclei >= 1);
    }

    #[test]
    fn validation_rejects_inconsistent_profiles() {
        let mut p = DatasetProfile::dsb2018_like();
        p.channels = 2;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.min_nuclei = 10;
        p.max_nuclei = 5;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.min_radius = -1.0;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.max_radius = 4000.0;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.noise_sigma = -0.5;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.max_eccentricity = 0.5;
        assert!(p.validate().is_err());

        let mut p = DatasetProfile::dsb2018_like();
        p.width = 0;
        assert!(p.validate().is_err());
    }
}
