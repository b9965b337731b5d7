//! CTC-style alignment loss and greedy decoding — the transducer
//! objective of the RNN-T speech benchmark, miniaturized.
//!
//! The full RNN-T loss marginalizes over all alignments with a
//! forward-backward pass. This reproduction keeps the parts that shape
//! the workload — a blank symbol, framewise emission training, and
//! collapse-repeats/drop-blanks decoding — but trains against the
//! generator's known frame alignment instead of marginalizing, the same
//! time-to-quality substitution the miniature datasets make.

use mlperf_autograd::Var;
use mlperf_tensor::Tensor;

/// Framewise cross-entropy of `logits` (`[batch, frames, classes]`,
/// class `blank` included) against per-frame target alignments.
///
/// # Panics
///
/// Panics when an alignment's length differs from the frame count or a
/// label is out of range.
pub fn ctc_alignment_loss(logits: &Var, alignments: &[Vec<usize>]) -> Var {
    let shape = logits.shape();
    assert_eq!(shape.len(), 3, "logits must be [batch, frames, classes]");
    let (batch, frames, classes) = (shape[0], shape[1], shape[2]);
    assert_eq!(alignments.len(), batch, "one alignment per sequence");
    let mut labels = Vec::with_capacity(batch * frames);
    for alignment in alignments {
        assert_eq!(alignment.len(), frames, "alignment must label every frame");
        for &l in alignment {
            assert!(l < classes, "label {l} out of range for {classes} classes");
        }
        labels.extend_from_slice(alignment);
    }
    logits.reshape(&[batch * frames, classes]).cross_entropy_logits(&labels)
}

/// Greedy CTC decoding: per-frame argmax, collapse repeats, drop
/// `blank`. Returns one label sequence per batch row.
pub fn greedy_ctc_decode(logits: &Tensor, blank: usize) -> Vec<Vec<usize>> {
    let shape = logits.shape();
    assert_eq!(shape.len(), 3, "logits must be [batch, frames, classes]");
    let (batch, frames) = (shape[0], shape[1]);
    let frame_argmax = logits.argmax_last_axis();
    (0..batch)
        .map(|b| {
            let mut out = Vec::new();
            let mut prev = usize::MAX;
            for &label in &frame_argmax[b * frames..(b + 1) * frames] {
                if label != blank && label != prev {
                    out.push(label);
                }
                prev = label;
            }
            out
        })
        .collect()
}

/// Levenshtein edit distance between two label sequences.
pub(crate) fn edit_distance(a: &[usize], b: &[usize]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &x) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &y) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(x != y);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Corpus-level error rate: total edit distance over total reference
/// length — WER with labels standing in for words.
///
/// # Panics
///
/// Panics when the corpora differ in length or the references are
/// empty.
pub fn label_error_rate(hypotheses: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(hypotheses.len(), references.len(), "one hypothesis per reference");
    let total: usize = references.iter().map(Vec::len).sum();
    assert!(total > 0, "empty reference corpus");
    let errors: usize = hypotheses.iter().zip(references).map(|(h, r)| edit_distance(h, r)).sum();
    errors as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits_for(frames: &[usize], classes: usize) -> Tensor {
        // One-hot-ish logits: 5.0 on the chosen class per frame.
        let mut data = vec![0.0f32; frames.len() * classes];
        for (t, &c) in frames.iter().enumerate() {
            data[t * classes + c] = 5.0;
        }
        Tensor::from_vec(data, &[1, frames.len(), classes])
    }

    #[test]
    fn decode_collapses_repeats_and_drops_blanks() {
        // blank = 0; frames spell out "1 1 0 2 2 0 1".
        let decoded = greedy_ctc_decode(&logits_for(&[1, 1, 0, 2, 2, 0, 1], 4), 0);
        assert_eq!(decoded, vec![vec![1, 2, 1]]);
    }

    #[test]
    fn decode_keeps_separated_duplicates() {
        let decoded = greedy_ctc_decode(&logits_for(&[3, 0, 3], 4), 0);
        assert_eq!(decoded, vec![vec![3, 3]]);
    }

    #[test]
    fn edit_distance_matches_hand_counts() {
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(edit_distance(&[], &[4, 5]), 2);
        assert_eq!(edit_distance(&[1, 2], &[2, 1]), 2);
    }

    #[test]
    fn error_rate_is_corpus_level() {
        let refs = vec![vec![1, 2], vec![3, 4, 5, 6]];
        let hyps = vec![vec![1, 2], vec![3, 4, 5, 9]];
        // 1 error over 6 reference labels.
        assert!((label_error_rate(&hyps, &refs) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn alignment_loss_trains_toward_the_alignment() {
        let logits = Var::param(Tensor::zeros(&[1, 3, 4]));
        let loss = ctc_alignment_loss(&logits, &[vec![0, 2, 0]]);
        loss.backward();
        let g = logits.grad().unwrap();
        // Gradient pushes the aligned class up (negative grad) on every
        // frame.
        assert!(g.data()[0] < 0.0); // frame 0, class 0
        assert!(g.data()[4 + 2] < 0.0); // frame 1, class 2
        assert!(g.data()[8] < 0.0); // frame 2, class 0
    }

    #[test]
    #[should_panic(expected = "alignment must label every frame")]
    fn short_alignment_panics() {
        ctc_alignment_loss(&Var::constant(Tensor::zeros(&[1, 3, 4])), &[vec![0, 1]]);
    }
}
