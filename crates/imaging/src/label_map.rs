use crate::{GrayImage, ImagingError, Result};
use std::collections::BTreeMap;

/// A per-pixel integer label map — the output format of every segmenter in
/// this workspace and the storage format for ground-truth masks.
///
/// Label `0` conventionally means *background*; any non-zero value is a
/// cluster or instance identifier. Unsupervised methods emit arbitrary
/// cluster ids, which [`crate::metrics`] later matches against ground-truth
/// classes.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), imaging::ImagingError> {
/// use imaging::LabelMap;
/// let mut map = LabelMap::new(3, 3)?;
/// map.set(1, 1, 2)?;
/// assert_eq!(map.get(1, 1)?, 2);
/// assert_eq!(map.label_histogram().get(&2), Some(&1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelMap {
    width: usize,
    height: usize,
    labels: Vec<u32>,
}

impl LabelMap {
    /// Creates an all-background (label 0) map.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        Ok(Self {
            width,
            height,
            labels: vec![0; width * height],
        })
    }

    /// Wraps an existing row-major label buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::EmptyImage`] for zero dimensions and
    /// [`ImagingError::BufferSizeMismatch`] if `labels.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, labels: Vec<u32>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(ImagingError::EmptyImage);
        }
        if labels.len() != width * height {
            return Err(ImagingError::BufferSizeMismatch {
                expected: width * height,
                actual: labels.len(),
            });
        }
        Ok(Self {
            width,
            height,
            labels,
        })
    }

    /// Builds a binary (0/1) label map by thresholding a grayscale image:
    /// pixels strictly greater than `threshold` become foreground (label 1).
    pub fn from_threshold(image: &GrayImage, threshold: u8) -> Self {
        let labels = image
            .as_raw()
            .iter()
            .map(|&v| u32::from(v > threshold))
            .collect();
        Self {
            width: image.width(),
            height: image.height(),
            labels,
        }
    }

    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Borrow of the underlying row-major label buffer.
    pub fn as_raw(&self) -> &[u32] {
        &self.labels
    }

    /// Mutable borrow of the underlying row-major label buffer.
    pub fn as_raw_mut(&mut self) -> &mut [u32] {
        &mut self.labels
    }

    /// The underlying row-major label buffer, moved out of the map.
    pub fn into_raw(self) -> Vec<u32> {
        self.labels
    }

    fn check_bounds(&self, x: usize, y: usize) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(ImagingError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(())
    }

    /// Returns the label at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// map.
    pub fn get(&self, x: usize, y: usize) -> Result<u32> {
        self.check_bounds(x, y)?;
        Ok(self.labels[y * self.width + x])
    }

    /// Sets the label at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ImagingError::OutOfBounds`] if the coordinate is outside the
    /// map.
    pub fn set(&mut self, x: usize, y: usize, label: u32) -> Result<()> {
        self.check_bounds(x, y)?;
        self.labels[y * self.width + x] = label;
        Ok(())
    }

    /// Returns the set of distinct labels present, with their pixel counts.
    pub fn label_histogram(&self) -> BTreeMap<u32, usize> {
        let mut hist = BTreeMap::new();
        for &label in &self.labels {
            *hist.entry(label).or_insert(0) += 1;
        }
        hist
    }

    /// Number of distinct labels present.
    pub fn distinct_labels(&self) -> usize {
        self.label_histogram().len()
    }

    /// Number of pixels whose label is non-zero (foreground pixels).
    pub fn foreground_pixels(&self) -> usize {
        self.labels.iter().filter(|&&l| l != 0).count()
    }

    /// Converts every non-zero label to `1`, producing an instance-agnostic
    /// binary mask (the representation IoU is computed on in the paper).
    pub fn to_binary(&self) -> LabelMap {
        LabelMap {
            width: self.width,
            height: self.height,
            labels: self.labels.iter().map(|&l| u32::from(l != 0)).collect(),
        }
    }

    /// Returns a copy with the labels remapped through `mapping`. Labels not
    /// present in `mapping` become background (0).
    pub fn remap(&self, mapping: &BTreeMap<u32, u32>) -> LabelMap {
        LabelMap {
            width: self.width,
            height: self.height,
            labels: self
                .labels
                .iter()
                .map(|l| mapping.get(l).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// Whether this map and `other` induce the same **partition** of the
    /// pixels — equal up to a relabelling (the label mapping between them
    /// is functional in both directions).
    ///
    /// This is the equivalence that matters when comparing unsupervised
    /// segmentations, whose cluster ids are arbitrary: the streaming tiled
    /// segmenter's output is checked against the whole-image path with it.
    /// Maps of different shapes are never permutations of each other.
    pub fn is_permutation_of(&self, other: &LabelMap) -> bool {
        if self.width != other.width || self.height != other.height {
            return false;
        }
        let mut forward: BTreeMap<u32, u32> = BTreeMap::new();
        let mut backward: BTreeMap<u32, u32> = BTreeMap::new();
        for (&a, &b) in self.labels.iter().zip(&other.labels) {
            if *forward.entry(a).or_insert(b) != b || *backward.entry(b).or_insert(a) != a {
                return false;
            }
        }
        true
    }

    /// Renders the label map as a grayscale image for inspection: background
    /// stays black and labels are spread evenly over the 8-bit range.
    pub fn to_gray_visualization(&self) -> GrayImage {
        let labels: Vec<u32> = {
            let mut keys: Vec<u32> = self.label_histogram().keys().copied().collect();
            keys.retain(|&l| l != 0);
            keys
        };
        let step = if labels.is_empty() {
            0
        } else {
            255 / labels.len() as u32
        };
        let lut: BTreeMap<u32, u8> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, (255 - step * i as u32).min(255) as u8))
            .collect();
        let data = self
            .labels
            .iter()
            .map(|l| if *l == 0 { 0 } else { lut[l] })
            .collect();
        GrayImage::from_raw(self.width, self.height, data)
            .expect("label map dimensions are valid image dimensions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(matches!(LabelMap::new(0, 4), Err(ImagingError::EmptyImage)));
        assert!(LabelMap::from_raw(2, 2, vec![0; 3]).is_err());
        assert!(LabelMap::from_raw(2, 2, vec![0; 4]).is_ok());
        let labels = vec![4, 0, 1, 2];
        let map = LabelMap::from_raw(2, 2, labels.clone()).unwrap();
        assert_eq!(map.into_raw(), labels);
    }

    #[test]
    fn get_set_and_bounds() {
        let mut map = LabelMap::new(2, 2).unwrap();
        map.set(1, 0, 7).unwrap();
        assert_eq!(map.get(1, 0).unwrap(), 7);
        assert!(map.get(2, 0).is_err());
        assert!(map.set(0, 2, 1).is_err());
    }

    #[test]
    fn histogram_counts_every_label() {
        let map = LabelMap::from_raw(2, 2, vec![0, 1, 1, 5]).unwrap();
        let hist = map.label_histogram();
        assert_eq!(hist[&0], 1);
        assert_eq!(hist[&1], 2);
        assert_eq!(hist[&5], 1);
        assert_eq!(map.distinct_labels(), 3);
        assert_eq!(map.foreground_pixels(), 3);
    }

    #[test]
    fn binary_collapse_and_remap() {
        let map = LabelMap::from_raw(2, 2, vec![0, 3, 9, 9]).unwrap();
        assert_eq!(map.to_binary().as_raw(), &[0, 1, 1, 1]);
        let mut mapping = BTreeMap::new();
        mapping.insert(3u32, 1u32);
        mapping.insert(9u32, 2u32);
        assert_eq!(map.remap(&mapping).as_raw(), &[0, 1, 2, 2]);
    }

    #[test]
    fn permutation_equivalence_is_relabelling_not_equality() {
        let map = LabelMap::from_raw(2, 2, vec![0, 1, 1, 2]).unwrap();
        let renamed = LabelMap::from_raw(2, 2, vec![7, 3, 3, 0]).unwrap();
        assert!(map.is_permutation_of(&renamed));
        assert!(renamed.is_permutation_of(&map));
        assert!(map.is_permutation_of(&map));
        // A label split across two labels breaks it in one direction...
        let split = LabelMap::from_raw(2, 2, vec![0, 1, 2, 3]).unwrap();
        assert!(!map.is_permutation_of(&split));
        // ... and a merge breaks it in the other.
        let merged = LabelMap::from_raw(2, 2, vec![0, 0, 0, 2]).unwrap();
        assert!(!map.is_permutation_of(&merged));
        // Shape mismatches are never equivalent.
        let other_shape = LabelMap::from_raw(4, 1, vec![0, 1, 1, 2]).unwrap();
        assert!(!map.is_permutation_of(&other_shape));
    }

    #[test]
    fn threshold_constructor_marks_bright_pixels() {
        let img = GrayImage::from_raw(2, 2, vec![10, 200, 128, 129]).unwrap();
        let map = LabelMap::from_threshold(&img, 128);
        assert_eq!(map.as_raw(), &[0, 1, 0, 1]);
    }

    #[test]
    fn visualization_maps_background_to_black_and_labels_to_distinct_grays() {
        let map = LabelMap::from_raw(3, 1, vec![0, 1, 2]).unwrap();
        let vis = map.to_gray_visualization();
        assert_eq!(vis.get(0, 0).unwrap(), 0);
        let a = vis.get(1, 0).unwrap();
        let b = vis.get(2, 0).unwrap();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn visualization_of_all_background_is_black() {
        let map = LabelMap::new(4, 4).unwrap();
        let vis = map.to_gray_visualization();
        assert!(vis.as_raw().iter().all(|&v| v == 0));
    }
}
