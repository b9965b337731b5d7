//! Shared model utilities: detections, non-maximum suppression,
//! sinusoidal position encodings, and the lock-step greedy decoder of
//! the two translation models.
//!
//! # Batched greedy decoding
//!
//! Evaluation is inside the timed region (paper §3.2), so scoring the
//! validation set is inference done the fast way: [`greedy_decode_batch`]
//! groups the sources **by exact length**, encodes each group once as
//! one `[group, src_len, ·]` batch and steps the whole group in
//! lock-step, one decoder forward per step instead of one per sentence
//! per step. Grouping by exact length rather than padding to the
//! longest is what keeps every token where it was: both encoders attend
//! to (Transformer) or recur over (GNMT) PAD positions exactly as they
//! do in training, so a 3-token source padded to 6 would translate
//! differently, while every op between the embedding gather and the
//! logits is row-independent, so a sentence's tokens do not depend on
//! which other equal-length sentences share its batch.

use mlperf_data::{BOS, EOS, PAD};
use mlperf_tensor::Tensor;

/// A detected object in normalized image coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Center x in `[0, 1]`.
    pub cx: f32,
    /// Center y in `[0, 1]`.
    pub cy: f32,
    /// Width.
    pub w: f32,
    /// Height.
    pub h: f32,
    /// Predicted class index.
    pub class: usize,
    /// Confidence score in `[0, 1]`.
    pub score: f32,
}

impl Detection {
    /// Corner form `(x0, y0, x1, y1)`.
    pub fn corners(&self) -> (f32, f32, f32, f32) {
        (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )
    }

    /// Intersection-over-union with another detection.
    pub fn iou(&self, other: &Detection) -> f32 {
        let a = self.corners();
        let b = other.corners();
        let ix = (a.2.min(b.2) - a.0.max(b.0)).max(0.0);
        let iy = (a.3.min(b.3) - a.1.max(b.1)).max(0.0);
        let inter = ix * iy;
        let ua = (a.2 - a.0).max(0.0) * (a.3 - a.1).max(0.0);
        let ub = (b.2 - b.0).max(0.0) * (b.3 - b.1).max(0.0);
        let union = ua + ub - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// Greedy per-class non-maximum suppression: keeps the highest-scoring
/// detection and drops same-class overlaps above `iou_threshold`.
/// Returns survivors sorted by descending score.
pub fn nms(mut detections: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    detections.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut kept: Vec<Detection> = Vec::new();
    for d in detections {
        let suppressed = kept.iter().any(|k| k.class == d.class && k.iou(&d) > iou_threshold);
        if !suppressed {
            kept.push(d);
        }
    }
    kept
}

/// The Transformer's sinusoidal position encoding: `[time, dim]`.
pub fn sinusoidal_positions(time: usize, dim: usize) -> Tensor {
    let mut data = Vec::with_capacity(time * dim);
    for t in 0..time {
        for d in 0..dim {
            let rate = 1.0 / 10000f32.powf(2.0 * (d / 2) as f32 / dim as f32);
            let angle = t as f32 * rate;
            data.push(if d % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    Tensor::from_vec(data, &[time, dim])
}

/// The translation encoders' precondition, checked where sentences
/// enter: an empty source would otherwise die deep inside the model
/// (attention over zero positions, a recurrence of zero steps).
///
/// # Panics
///
/// Panics with `source sentence {i} is empty` at the first empty one.
pub(crate) fn assert_no_empty_source<S: AsRef<[usize]>>(sources: &[S]) {
    for (i, source) in sources.iter().enumerate() {
        assert!(!source.as_ref().is_empty(), "source sentence {i} is empty");
    }
}

/// Greedy decode of a batch of source sentences, results in input
/// order: the one driver behind `TransformerMini::greedy_translate_batch`
/// and `GnmtMini::greedy_translate_batch`.
///
/// Sources are grouped by exact length (see the module docs for why not
/// one padded batch). Per group, `encode` builds the model's decoding
/// state from the group's sources, then `next_tokens` is called with
/// that state and every row's decoder inputs so far (`BOS` first, all
/// rows the same length) and returns the next token of every row. A row
/// that emits `EOS` is finished: from then on it is fed `PAD` so the
/// batch stays rectangular, and whatever the model returns for it is
/// ignored. The group stops when every row has finished or `max_len`
/// tokens have been decoded.
///
/// An empty batch returns `vec![]` without calling the model.
///
/// # Panics
///
/// Panics if a source sentence is empty.
pub(crate) fn greedy_decode_batch<G>(
    sources: &[&[usize]],
    max_len: usize,
    encode: impl Fn(&[Vec<usize>]) -> G,
    next_tokens: impl Fn(&mut G, &[Vec<usize>]) -> Vec<usize>,
) -> Vec<Vec<usize>> {
    // The models' `encode` checks again per group; here, before grouping
    // reorders the batch, the index is still the caller's.
    assert_no_empty_source(sources);
    let mut by_len: Vec<usize> = (0..sources.len()).collect();
    by_len.sort_by_key(|&i| sources[i].len());
    let mut translations = vec![Vec::new(); sources.len()];
    for group in by_len.chunk_by(|&a, &b| sources[a].len() == sources[b].len()) {
        let rows: Vec<Vec<usize>> = group.iter().map(|&i| sources[i].to_vec()).collect();
        let mut state = encode(&rows);
        let mut fed = vec![vec![BOS]; group.len()];
        let mut finished = vec![false; group.len()];
        for _ in 0..max_len {
            let next = next_tokens(&mut state, &fed);
            debug_assert_eq!(next.len(), group.len(), "one next token per row");
            for (row, &token) in next.iter().enumerate() {
                finished[row] |= token == EOS;
                if finished[row] {
                    fed[row].push(PAD);
                } else {
                    fed[row].push(token);
                    translations[group[row]].push(token);
                }
            }
            if finished.iter().all(|&done| done) {
                break;
            }
        }
    }
    translations
}

/// The contract every `greedy_translate_batch` is held to against its
/// per-sentence oracle, checked on an untrained model and again after
/// each of `checkpoints` calls of `train_some`: the whole set token for
/// token, input order under a reordering, duplicates alike, groups of
/// one, a batch of one, and an empty batch. Some checkpoint must give
/// ragged output lengths, or the finished mask went untested.
#[cfg(test)]
pub(crate) fn assert_batch_matches_oracle(
    sources: &[&[usize]],
    checkpoints: usize,
    mut train_some: impl FnMut(),
    batch: impl Fn(&[&[usize]]) -> Vec<Vec<usize>>,
    oracle: impl Fn(&[usize]) -> Vec<usize>,
) {
    use std::collections::BTreeSet;
    let mut lengths: Vec<BTreeSet<usize>> = Vec::new();
    for checkpoint in 0..=checkpoints {
        if checkpoint > 0 {
            train_some();
        }
        let expected: Vec<Vec<usize>> = sources.iter().map(|s| oracle(s)).collect();
        assert_eq!(batch(sources), expected, "checkpoint {checkpoint}: whole set");

        // Reversed, then the ends again so the batch holds duplicates.
        let n = sources.len();
        let mut order: Vec<usize> = (0..n).rev().collect();
        order.extend_from_slice(&[0, 0, n - 1]);
        let reordered: Vec<&[usize]> = order.iter().map(|&i| sources[i]).collect();
        let want: Vec<Vec<usize>> = order.iter().map(|&i| expected[i].clone()).collect();
        assert_eq!(batch(&reordered), want, "checkpoint {checkpoint}: reordered, duplicates");

        // The first sentence of each length, so every group is a group of one.
        let mut lone: Vec<usize> = Vec::new();
        for (i, s) in sources.iter().enumerate() {
            if lone.iter().all(|&l| sources[l].len() != s.len()) {
                lone.push(i);
            }
        }
        let alone: Vec<&[usize]> = lone.iter().map(|&i| sources[i]).collect();
        let want: Vec<Vec<usize>> = lone.iter().map(|&i| expected[i].clone()).collect();
        assert_eq!(batch(&alone), want, "checkpoint {checkpoint}: groups of one");

        assert_eq!(batch(&sources[..1]), expected[..1], "checkpoint {checkpoint}: batch of one");
        assert!(batch(&[]).is_empty(), "checkpoint {checkpoint}: empty batch");
        lengths.push(expected.iter().map(Vec::len).collect());
    }
    assert!(
        lengths.iter().any(|seen| seen.len() >= 3),
        "no checkpoint had ragged output lengths: {lengths:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model-free stand-in: a sentence's translation is its source
    /// reversed and cut at the first 9, each token read off the row's own
    /// source and how many inputs it has been fed — so any mix-up of
    /// rows, order or the finished mask shows in the output.
    fn reverse_batch(sources: &[&[usize]], max_len: usize) -> Vec<Vec<usize>> {
        greedy_decode_batch(
            sources,
            max_len,
            |group| group.to_vec(),
            |group, fed| {
                assert!(fed.iter().all(|row| row.len() == fed[0].len()), "ragged decoder inputs");
                let next = |(src, row): (&Vec<usize>, &Vec<usize>)| {
                    let (want, step) = (reversed_to_nine(src), row.len() - 1);
                    // Past its EOS a row answers garbage, as a real model
                    // fed PAD would; the driver must ignore it.
                    want.get(step).copied().unwrap_or(if step == want.len() { EOS } else { 7 })
                };
                group.iter().zip(fed).map(next).collect()
            },
        )
    }

    fn reversed_to_nine(source: &[usize]) -> Vec<usize> {
        source.iter().rev().copied().take_while(|&t| t != 9).collect()
    }

    #[test]
    fn driver_groups_by_length_masks_finished_rows_and_keeps_input_order() {
        // Two groups of three whose rows finish at different steps, and
        // two groups of one.
        let sources: [&[usize]; 8] = [
            &[3, 4, 5],
            &[6],
            &[9, 8, 7],
            &[10, 11],
            &[12, 9, 13, 14, 15],
            &[3, 9, 5],
            &[16, 17, 18, 19, 9],
            &[20, 21, 22, 23, 24],
        ];
        let want: Vec<Vec<usize>> = sources.iter().map(|s| reversed_to_nine(s)).collect();
        assert_eq!(reverse_batch(&sources, 8), want);
    }

    #[test]
    fn driver_stops_at_max_len_and_handles_empty_batch() {
        let sources: [&[usize]; 2] = [&[3, 4, 5, 6], &[7, 8, 10, 11]];
        assert_eq!(reverse_batch(&sources, 2), vec![vec![6, 5], vec![11, 10]]);
        assert_eq!(reverse_batch(&sources, 0), vec![Vec::<usize>::new(); 2]);
        let never = |_: &[Vec<usize>]| -> () { panic!("model touched for an empty batch") };
        assert!(greedy_decode_batch(&[], 8, never, |_, _| vec![]).is_empty());
    }

    #[test]
    #[should_panic(expected = "source sentence 2 is empty")]
    fn driver_names_the_empty_source_by_input_index() {
        reverse_batch(&[&[3, 4, 5], &[6], &[], &[7]], 8);
    }

    fn det(cx: f32, cy: f32, s: f32, class: usize, score: f32) -> Detection {
        Detection { cx, cy, w: s, h: s, class, score }
    }

    #[test]
    fn nms_suppresses_overlaps() {
        let dets = vec![
            det(0.5, 0.5, 0.2, 0, 0.9),
            det(0.52, 0.5, 0.2, 0, 0.8), // heavy overlap, same class
            det(0.9, 0.9, 0.1, 0, 0.7),  // far away
        ];
        let kept = nms(dets, 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.9);
        assert_eq!(kept[1].score, 0.7);
    }

    #[test]
    fn nms_keeps_different_classes() {
        let dets = vec![det(0.5, 0.5, 0.2, 0, 0.9), det(0.5, 0.5, 0.2, 1, 0.8)];
        assert_eq!(nms(dets, 0.5).len(), 2);
    }

    #[test]
    fn nms_empty_input() {
        assert!(nms(vec![], 0.5).is_empty());
    }

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let d = det(0.3, 0.3, 0.2, 0, 1.0);
        assert!((d.iou(&d) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn positions_distinguish_timesteps() {
        let p = sinusoidal_positions(8, 16);
        assert_eq!(p.shape(), &[8, 16]);
        // No two rows identical.
        for a in 0..8 {
            for b in (a + 1)..8 {
                let ra = &p.data()[a * 16..(a + 1) * 16];
                let rb = &p.data()[b * 16..(b + 1) * 16];
                assert_ne!(ra, rb, "positions {a} and {b} collide");
            }
        }
    }

    #[test]
    fn positions_first_row_is_sin_zero_cos_zero() {
        let p = sinusoidal_positions(2, 4);
        assert_eq!(&p.data()[..4], &[0.0, 1.0, 0.0, 1.0]);
    }
}
