//! Segmentation quality metrics.
//!
//! The SegHDC paper scores every method with Intersection-over-Union (IoU)
//! between the predicted mask and the ground truth. Because the methods are
//! *unsupervised*, the raw prediction uses arbitrary cluster identifiers;
//! before the score is computed each predicted cluster must be matched to a
//! ground-truth class. [`matched_binary_iou`] performs the standard
//! best-foreground matching used for two-class (foreground/background)
//! evaluation and [`matched_mean_iou`] generalises it to any number of
//! classes with a greedy overlap assignment.

use crate::{ImagingError, LabelMap, Result};
use std::collections::BTreeMap;

fn check_same_shape(a: &LabelMap, b: &LabelMap) -> Result<()> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(ImagingError::ShapeMismatch {
            left: (a.width(), a.height()),
            right: (b.width(), b.height()),
        });
    }
    Ok(())
}

/// Intersection-over-Union of the *foreground* (non-zero labels) of two
/// label maps, treating both as binary masks.
///
/// If both masks are empty the IoU is defined as 1 (perfect agreement).
///
/// # Errors
///
/// Returns [`ImagingError::ShapeMismatch`] if the maps differ in size.
pub fn binary_iou(prediction: &LabelMap, truth: &LabelMap) -> Result<f64> {
    check_same_shape(prediction, truth)?;
    let mut intersection = 0usize;
    let mut union = 0usize;
    for (p, t) in prediction.as_raw().iter().zip(truth.as_raw()) {
        let pf = *p != 0;
        let tf = *t != 0;
        if pf && tf {
            intersection += 1;
        }
        if pf || tf {
            union += 1;
        }
    }
    if union == 0 {
        return Ok(1.0);
    }
    Ok(intersection as f64 / union as f64)
}

/// IoU of an **unsupervised** prediction against a binary ground truth.
///
/// Every predicted cluster id is assigned to either *foreground* or
/// *background*, choosing for each cluster the class with which it overlaps
/// most; the IoU of the induced binary mask is returned. This is how
/// two-cluster SegHDC outputs (and the CNN baseline's arbitrary cluster ids)
/// are scored against nuclei masks.
///
/// # Errors
///
/// Returns [`ImagingError::ShapeMismatch`] if the maps differ in size.
pub fn matched_binary_iou(prediction: &LabelMap, truth: &LabelMap) -> Result<f64> {
    check_same_shape(prediction, truth)?;
    // For each predicted cluster count overlap with foreground / background.
    let mut overlap: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for (p, t) in prediction.as_raw().iter().zip(truth.as_raw()) {
        let entry = overlap.entry(*p).or_insert((0, 0));
        if *t != 0 {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }
    let mut mapping: BTreeMap<u32, u32> = BTreeMap::new();
    for (&cluster, &(fg, bg)) in &overlap {
        mapping.insert(cluster, u32::from(fg > bg));
    }
    let remapped = prediction.remap(&mapping);
    binary_iou(&remapped, truth)
}

/// Mean per-class IoU of an unsupervised prediction against a multi-class
/// ground truth, using greedy maximum-overlap matching of predicted clusters
/// to ground-truth classes.
///
/// Each predicted cluster is assigned to at most one ground-truth class and
/// vice versa (one-to-one), in decreasing order of overlap; unmatched
/// ground-truth classes contribute an IoU of 0.
///
/// # Errors
///
/// Returns [`ImagingError::ShapeMismatch`] if the maps differ in size.
pub fn matched_mean_iou(prediction: &LabelMap, truth: &LabelMap) -> Result<f64> {
    check_same_shape(prediction, truth)?;
    let mut pair_overlap: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut pred_sizes: BTreeMap<u32, usize> = BTreeMap::new();
    let mut truth_sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for (p, t) in prediction.as_raw().iter().zip(truth.as_raw()) {
        *pair_overlap.entry((*p, *t)).or_insert(0) += 1;
        *pred_sizes.entry(*p).or_insert(0) += 1;
        *truth_sizes.entry(*t).or_insert(0) += 1;
    }
    // Greedy one-to-one matching by decreasing overlap.
    let mut pairs: Vec<((u32, u32), usize)> = pair_overlap.iter().map(|(k, v)| (*k, *v)).collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut used_pred = std::collections::BTreeSet::new();
    let mut used_truth = std::collections::BTreeSet::new();
    let mut ious: Vec<f64> = Vec::new();
    for ((p, t), inter) in pairs {
        if used_pred.contains(&p) || used_truth.contains(&t) {
            continue;
        }
        used_pred.insert(p);
        used_truth.insert(t);
        let union = pred_sizes[&p] + truth_sizes[&t] - inter;
        ious.push(if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        });
    }
    // Ground-truth classes that never got a partner count as 0.
    let unmatched = truth_sizes
        .keys()
        .filter(|t| !used_truth.contains(t))
        .count();
    ious.extend(std::iter::repeat_n(0.0, unmatched));
    if ious.is_empty() {
        return Ok(1.0);
    }
    Ok(ious.iter().sum::<f64>() / ious.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(width: usize, labels: &[u32]) -> LabelMap {
        LabelMap::from_raw(width, labels.len() / width, labels.to_vec()).unwrap()
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let truth = map(4, &[0, 1, 1, 0, 0, 1, 1, 0]);
        assert_eq!(binary_iou(&truth, &truth).unwrap(), 1.0);
        assert_eq!(matched_binary_iou(&truth, &truth).unwrap(), 1.0);
    }

    #[test]
    fn disjoint_prediction_scores_zero_iou() {
        let truth = map(4, &[1, 1, 0, 0]);
        let pred = map(4, &[0, 0, 1, 1]);
        assert_eq!(binary_iou(&pred, &truth).unwrap(), 0.0);
    }

    #[test]
    fn half_overlap_has_expected_scores() {
        let truth = map(4, &[1, 1, 0, 0]);
        let pred = map(4, &[1, 0, 1, 0]);
        // intersection 1, union 3
        assert!((binary_iou(&pred, &truth).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_masks_agree_perfectly() {
        let empty = LabelMap::new(3, 3).unwrap();
        assert_eq!(binary_iou(&empty, &empty).unwrap(), 1.0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = LabelMap::new(2, 2).unwrap();
        let b = LabelMap::new(3, 2).unwrap();
        assert!(binary_iou(&a, &b).is_err());
        assert!(matched_binary_iou(&a, &b).is_err());
        assert!(matched_mean_iou(&a, &b).is_err());
    }

    #[test]
    fn matched_iou_is_invariant_to_cluster_id_swaps() {
        let truth = map(4, &[1, 1, 0, 0, 1, 1, 0, 0]);
        // Prediction uses cluster 7 for background and cluster 3 for nuclei.
        let pred = map(4, &[3, 3, 7, 7, 3, 3, 7, 7]);
        assert_eq!(matched_binary_iou(&pred, &truth).unwrap(), 1.0);
        // Inverted cluster ids must give the same score.
        let pred_swapped = map(4, &[7, 7, 3, 3, 7, 7, 3, 3]);
        assert_eq!(matched_binary_iou(&pred_swapped, &truth).unwrap(), 1.0);
    }

    #[test]
    fn matched_iou_handles_imperfect_overlap() {
        let truth = map(4, &[1, 1, 1, 0]);
        let pred = map(4, &[5, 5, 0, 0]);
        // Cluster 5 maps to foreground (overlap 2 vs 0), cluster 0 to background.
        // intersection = 2, union = 3.
        assert!((matched_binary_iou(&pred, &truth).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn matched_mean_iou_matches_clusters_one_to_one() {
        let truth = map(3, &[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        // Same partition, permuted ids.
        let pred = map(3, &[9, 4, 7, 9, 4, 7, 9, 4, 7]);
        assert!((matched_mean_iou(&pred, &truth).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matched_mean_iou_penalises_missing_classes() {
        let truth = map(4, &[0, 0, 1, 2]);
        // Prediction lumps classes 1 and 2 together.
        let pred = map(4, &[0, 0, 1, 1]);
        let score = matched_mean_iou(&pred, &truth).unwrap();
        // class 0 matched perfectly (IoU 1), one of {1,2} gets IoU 0.5, the
        // other is unmatched (0) => mean = (1 + 0.5 + 0) / 3 = 0.5.
        assert!((score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iou_from_confusion_equals_binary_iou() {
        let truth = map(4, &[1, 1, 1, 0, 0, 0, 1, 1]);
        let pred = map(4, &[1, 0, 1, 1, 0, 0, 1, 0]);
        // 3 true positives, 1 false positive, 2 false negatives.
        let confusion_iou = 3.0 / (3.0 + 1.0 + 2.0);
        assert!((confusion_iou - binary_iou(&pred, &truth).unwrap()).abs() < 1e-12);
    }
}
