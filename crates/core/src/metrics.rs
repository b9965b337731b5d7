//! Quality metrics: corpus BLEU, detection mAP (boxes and masks), and
//! classification accuracy. These are the metrics the suite's quality
//! thresholds (Table 1) are stated in.

use mlperf_data::{iou_corners, BoxLabel};
use mlperf_models::Detection;
use mlperf_tensor::Tensor;
use std::collections::HashMap;

/// Corpus BLEU over token-id sequences (n-grams up to 4, add-1
/// smoothing on the higher orders, multiplicative brevity penalty),
/// scaled to 0–100 like sacre BLEU reports.
///
/// # Panics
///
/// Panics if the two corpora have different lengths.
pub fn bleu(candidates: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(candidates.len(), references.len(), "candidate/reference count mismatch");
    if candidates.is_empty() {
        return 0.0;
    }
    let max_n = 4;
    let mut matches = vec![0f64; max_n];
    let mut totals = vec![0f64; max_n];
    let mut cand_len = 0usize;
    let mut ref_len = 0usize;
    for (c, r) in candidates.iter().zip(references.iter()) {
        cand_len += c.len();
        ref_len += r.len();
        for n in 1..=max_n {
            let c_grams = ngram_counts(c, n);
            let r_grams = ngram_counts(r, n);
            for (gram, &count) in &c_grams {
                let clip = r_grams.get(gram).copied().unwrap_or(0);
                matches[n - 1] += count.min(clip) as f64;
            }
            totals[n - 1] += c.len().saturating_sub(n - 1) as f64;
        }
    }
    // Geometric mean of n-gram precisions; add-1 smoothing for n >= 2
    // so short toy sentences don't zero out the score.
    let mut log_sum = 0.0;
    for n in 0..max_n {
        let (m, t) =
            if n == 0 { (matches[0], totals[0]) } else { (matches[n] + 1.0, totals[n] + 1.0) };
        if t == 0.0 || m == 0.0 {
            return 0.0;
        }
        log_sum += (m / t).ln();
    }
    let precision = (log_sum / max_n as f64).exp();
    let bp = if cand_len >= ref_len {
        1.0
    } else if cand_len == 0 {
        0.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    100.0 * precision * bp
}

fn ngram_counts(tokens: &[usize], n: usize) -> HashMap<&[usize], usize> {
    let mut map = HashMap::new();
    if tokens.len() < n {
        return map;
    }
    for i in 0..=tokens.len() - n {
        *map.entry(&tokens[i..i + n]).or_insert(0) += 1;
    }
    map
}

/// One image's detections paired with its ground truth, for mAP.
#[derive(Debug, Clone)]
pub(crate) struct DetectionEval<'a> {
    /// Model detections (any order; scores used for ranking).
    pub detections: &'a [Detection],
    /// Ground-truth objects.
    pub ground_truth: &'a [BoxLabel],
}

/// Mean average precision over classes at a single IoU threshold
/// (the paper's COCO metrics are IoU-averaged; a single threshold keeps
/// the toy evaluation tractable while preserving the metric's shape).
pub(crate) fn mean_average_precision(
    images: &[DetectionEval<'_>],
    classes: usize,
    iou: f32,
) -> f64 {
    let mut aps = Vec::with_capacity(classes);
    for class in 0..classes {
        if let Some(ap) = average_precision_for_class(images, class, iou) {
            aps.push(ap);
        }
    }
    if aps.is_empty() {
        0.0
    } else {
        aps.iter().sum::<f64>() / aps.len() as f64
    }
}

/// Average precision for one class, or `None` when the class has no
/// ground-truth instances anywhere.
fn average_precision_for_class(
    images: &[DetectionEval<'_>],
    class: usize,
    iou: f32,
) -> Option<f64> {
    // Collect detections of this class across all images with their
    // image index, sorted globally by score.
    let mut dets: Vec<(usize, &Detection)> = Vec::new();
    let mut total_gt = 0usize;
    for (img, e) in images.iter().enumerate() {
        total_gt += e.ground_truth.iter().filter(|g| g.class.index() == class).count();
        for d in e.detections.iter().filter(|d| d.class == class) {
            dets.push((img, d));
        }
    }
    if total_gt == 0 {
        return None;
    }
    dets.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
    // Greedy matching per image.
    let mut matched: Vec<Vec<bool>> =
        images.iter().map(|e| vec![false; e.ground_truth.len()]).collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut precision_sum = 0.0;
    for (img, d) in dets {
        let gt = images[img].ground_truth;
        let mut best: Option<(usize, f32)> = None;
        for (gi, g) in gt.iter().enumerate() {
            if g.class.index() != class || matched[img][gi] {
                continue;
            }
            let overlap = iou_corners(d.corners(), g.corners());
            if overlap >= iou && best.is_none_or(|(_, b)| overlap > b) {
                best = Some((gi, overlap));
            }
        }
        match best {
            Some((gi, _)) => {
                matched[img][gi] = true;
                tp += 1;
                // AP as mean precision at each recall step.
                precision_sum += tp as f64 / (tp + fp) as f64;
            }
            None => fp += 1,
        }
    }
    Some(precision_sum / total_gt as f64)
}

/// Pixel IoU between a predicted ROI mask (defined within `det`'s box,
/// any square resolution, values in [0,1] thresholded at 0.5) and a
/// full-image ground-truth mask.
pub(crate) fn mask_iou(
    det: &Detection,
    roi_mask: &Tensor,
    gt_mask: &Tensor,
    image_size: usize,
) -> f32 {
    let res = roi_mask.shape()[0];
    let (x0, y0, x1, y1) = det.corners();
    // Paste the ROI mask into image space.
    let mut pred = vec![false; image_size * image_size];
    for my in 0..res {
        for mx in 0..res {
            if roi_mask.data()[my * res + mx] < 0.5 {
                continue;
            }
            let u0 = x0 + (x1 - x0) * mx as f32 / res as f32;
            let u1 = x0 + (x1 - x0) * (mx + 1) as f32 / res as f32;
            let v0 = y0 + (y1 - y0) * my as f32 / res as f32;
            let v1 = y0 + (y1 - y0) * (my + 1) as f32 / res as f32;
            let px0 = ((u0 * image_size as f32).floor().max(0.0)) as usize;
            let px1 = ((u1 * image_size as f32).ceil()).min(image_size as f32) as usize;
            let py0 = ((v0 * image_size as f32).floor().max(0.0)) as usize;
            let py1 = ((v1 * image_size as f32).ceil()).min(image_size as f32) as usize;
            for py in py0..py1 {
                for px in px0..px1 {
                    pred[py * image_size + px] = true;
                }
            }
        }
    }
    let mut inter = 0usize;
    let mut union = 0usize;
    for (i, &p) in pred.iter().enumerate() {
        let g = gt_mask.data()[i] > 0.5;
        if p && g {
            inter += 1;
        }
        if p || g {
            union += 1;
        }
    }
    if union == 0 {
        0.0
    } else {
        inter as f32 / union as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::ShapeClass;

    #[test]
    fn bleu_perfect_match_is_100() {
        let c = vec![vec![5, 6, 7, 8, 9]];
        assert!((bleu(&c, &c) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn bleu_no_overlap_is_0() {
        let c = vec![vec![1, 2, 3, 4]];
        let r = vec![vec![5, 6, 7, 8]];
        assert_eq!(bleu(&c, &r), 0.0);
    }

    #[test]
    fn bleu_partial_between() {
        let c = vec![vec![5, 6, 7, 99]];
        let r = vec![vec![5, 6, 7, 8]];
        let score = bleu(&c, &r);
        assert!(score > 0.0 && score < 100.0, "score {score}");
    }

    #[test]
    fn bleu_brevity_penalty_applies() {
        // A correct but short candidate scores below a full-length one.
        let full = vec![vec![5, 6, 7, 8, 9, 10]];
        let short = vec![vec![5, 6, 7]];
        let r = vec![vec![5, 6, 7, 8, 9, 10]];
        assert!(bleu(&short, &r) < bleu(&full, &r));
    }

    #[test]
    fn bleu_order_matters() {
        let inorder = vec![vec![5, 6, 7, 8]];
        let scrambled = vec![vec![8, 5, 7, 6]];
        let r = vec![vec![5, 6, 7, 8]];
        assert!(bleu(&scrambled, &r) < bleu(&inorder, &r));
    }

    fn gt(cx: f32, cy: f32, s: f32, class: ShapeClass) -> BoxLabel {
        BoxLabel { cx, cy, w: s, h: s, class }
    }

    fn det(cx: f32, cy: f32, s: f32, class: usize, score: f32) -> Detection {
        Detection { cx, cy, w: s, h: s, class, score }
    }

    #[test]
    fn map_perfect_detection_is_1() {
        let gts = [gt(0.5, 0.5, 0.2, ShapeClass::Square)];
        let dets = [det(0.5, 0.5, 0.2, 0, 0.9)];
        let images = [DetectionEval { detections: &dets, ground_truth: &gts }];
        let map = mean_average_precision(&images, 3, 0.5);
        assert!((map - 1.0).abs() < 1e-6);
    }

    #[test]
    fn map_missed_object_is_0() {
        let gts = [gt(0.5, 0.5, 0.2, ShapeClass::Square)];
        let images = [DetectionEval { detections: &[], ground_truth: &gts }];
        assert_eq!(mean_average_precision(&images, 3, 0.5), 0.0);
    }

    #[test]
    fn map_false_positives_reduce_precision() {
        let gts = [gt(0.5, 0.5, 0.2, ShapeClass::Square)];
        // A higher-scoring false positive ranks first.
        let dets = [det(0.9, 0.9, 0.1, 0, 0.95), det(0.5, 0.5, 0.2, 0, 0.8)];
        let images = [DetectionEval { detections: &dets, ground_truth: &gts }];
        let map = mean_average_precision(&images, 3, 0.5);
        assert!((map - 0.5).abs() < 1e-6, "map {map}");
    }

    #[test]
    fn map_wrong_class_does_not_match() {
        let gts = [gt(0.5, 0.5, 0.2, ShapeClass::Square)];
        let dets = [det(0.5, 0.5, 0.2, 1, 0.9)];
        let images = [DetectionEval { detections: &dets, ground_truth: &gts }];
        assert_eq!(mean_average_precision(&images, 3, 0.5), 0.0);
    }

    #[test]
    fn map_duplicate_detections_count_once() {
        let gts = [gt(0.5, 0.5, 0.2, ShapeClass::Square)];
        let dets = [det(0.5, 0.5, 0.2, 0, 0.9), det(0.51, 0.5, 0.2, 0, 0.8)];
        let images = [DetectionEval { detections: &dets, ground_truth: &gts }];
        let map = mean_average_precision(&images, 3, 0.5);
        assert!((map - 1.0).abs() < 1e-6, "duplicate should be FP after match, map {map}");
    }

    #[test]
    fn mask_iou_identity() {
        // GT mask: a centered 8x8 square in a 16x16 image; ROI mask all
        // ones within the matching box.
        let mut gt_mask = Tensor::zeros(&[16, 16]);
        for y in 4..12 {
            for x in 4..12 {
                gt_mask.data_mut()[y * 16 + x] = 1.0;
            }
        }
        let d = det(0.5, 0.5, 0.5, 0, 1.0);
        let roi = Tensor::ones(&[8, 8]);
        let iou = mask_iou(&d, &roi, &gt_mask, 16);
        assert!(iou > 0.9, "iou {iou}");
    }

    #[test]
    fn mask_iou_disjoint_is_zero() {
        let mut gt_mask = Tensor::zeros(&[16, 16]);
        gt_mask.data_mut()[0] = 1.0;
        let d = det(0.75, 0.75, 0.2, 0, 1.0);
        let roi = Tensor::ones(&[8, 8]);
        assert_eq!(mask_iou(&d, &roi, &gt_mask, 16), 0.0);
    }
}
