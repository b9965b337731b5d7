//! An audio-like frame-sequence dataset with label alignments, standing
//! in for the LibriSpeech recordings of the v0.7 RNN-T benchmark.
//!
//! Ground truth: every label (phoneme stand-in) has a prototype frame
//! vector; an utterance emits several noisy copies of each label's
//! prototype followed by one *blank* boundary frame, so the generated
//! stream looks like framewise acoustic features with a known CTC-style
//! alignment. Noise controls how separable the classes are — the WER
//! target sits between a nearest-prototype baseline and zero, so
//! time-to-WER measures real training.

use mlperf_tensor::TensorRng;

/// The blank label id used at segment boundaries. Real labels are
/// `1..=labels`.
pub const BLANK: usize = 0;

/// Shape of the synthetic speech corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeechConfig {
    /// Number of real (non-blank) labels.
    pub labels: usize,
    /// Width of one acoustic frame vector.
    pub frame_dim: usize,
    /// Labels per utterance.
    pub labels_per_utterance: usize,
    /// Content frames emitted per label (one blank frame follows each).
    pub frames_per_label: usize,
    /// Training utterances.
    pub train_utterances: usize,
    /// Held-out evaluation utterances.
    pub eval_utterances: usize,
    /// Standard deviation of the frame noise around each prototype.
    pub noise: f32,
}

impl Default for SpeechConfig {
    fn default() -> Self {
        SpeechConfig {
            labels: 8,
            frame_dim: 6,
            labels_per_utterance: 5,
            frames_per_label: 2,
            train_utterances: 160,
            eval_utterances: 48,
            noise: 0.4,
        }
    }
}

impl SpeechConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        SpeechConfig {
            labels: 4,
            frame_dim: 3,
            labels_per_utterance: 3,
            frames_per_label: 2,
            train_utterances: 8,
            eval_utterances: 4,
            noise: 0.3,
        }
    }

    /// Frames per utterance: each label's content frames plus its blank
    /// boundary frame.
    pub fn frames_per_utterance(&self) -> usize {
        self.labels_per_utterance * (self.frames_per_label + 1)
    }

    /// Classes a framewise model must emit: the labels plus blank.
    pub fn classes(&self) -> usize {
        self.labels + 1
    }
}

/// One utterance: frames, transcript, and the frame-level alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Utterance {
    /// Row-major `[frames_per_utterance, frame_dim]` acoustic frames.
    pub frames: Vec<f32>,
    /// The transcript labels (`1..=labels`), in order.
    pub labels: Vec<usize>,
    /// Per-frame label (`BLANK` at segment boundaries) — the alignment
    /// the CTC-style loss trains against.
    pub alignment: Vec<usize>,
}

/// The generated corpus.
#[derive(Debug, Clone)]
pub struct SyntheticSpeech {
    /// Training utterances.
    pub train: Vec<Utterance>,
    /// Held-out evaluation utterances.
    pub eval: Vec<Utterance>,
    config: SpeechConfig,
}

impl SyntheticSpeech {
    /// Generates the corpus from a seed.
    ///
    /// # Panics
    ///
    /// Panics on a config with no labels, frames, or utterance content.
    pub fn generate(config: SpeechConfig, seed: u64) -> Self {
        assert!(
            config.labels > 0 && config.frame_dim > 0,
            "need labels and a frame dimensionality"
        );
        assert!(
            config.labels_per_utterance > 0 && config.frames_per_label > 0,
            "utterances must contain frames"
        );
        let mut rng = TensorRng::new(seed);
        // Prototype frame per class, blank included (blank frames are
        // real acoustic events — silence — not zeros).
        let prototypes = rng.normal(&[config.classes(), config.frame_dim], 0.0, 1.0);
        let proto = |c: usize| -> &[f32] {
            &prototypes.data()[c * config.frame_dim..(c + 1) * config.frame_dim]
        };
        let utterance = |rng: &mut TensorRng| -> Utterance {
            let labels: Vec<usize> =
                (0..config.labels_per_utterance).map(|_| 1 + rng.index(config.labels)).collect();
            let mut frames = Vec::with_capacity(config.frames_per_utterance() * config.frame_dim);
            let mut alignment = Vec::with_capacity(config.frames_per_utterance());
            for &label in &labels {
                for _ in 0..config.frames_per_label {
                    let noise = rng.normal(&[config.frame_dim], 0.0, config.noise);
                    frames.extend(proto(label).iter().zip(noise.data()).map(|(p, n)| p + n));
                    alignment.push(label);
                }
                let noise = rng.normal(&[config.frame_dim], 0.0, config.noise);
                frames.extend(proto(BLANK).iter().zip(noise.data()).map(|(p, n)| p + n));
                alignment.push(BLANK);
            }
            Utterance { frames, labels, alignment }
        };
        let train = (0..config.train_utterances).map(|_| utterance(&mut rng)).collect();
        let eval = (0..config.eval_utterances).map(|_| utterance(&mut rng)).collect();
        SyntheticSpeech { train, eval, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> SpeechConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_shapes() {
        let cfg = SpeechConfig::tiny();
        let d = SyntheticSpeech::generate(cfg, 0);
        assert_eq!(d.train.len(), cfg.train_utterances);
        assert_eq!(d.eval.len(), cfg.eval_utterances);
        for u in d.train.iter().chain(&d.eval) {
            assert_eq!(u.frames.len(), cfg.frames_per_utterance() * cfg.frame_dim);
            assert_eq!(u.labels.len(), cfg.labels_per_utterance);
            assert_eq!(u.alignment.len(), cfg.frames_per_utterance());
            assert!(u.labels.iter().all(|&l| (1..=cfg.labels).contains(&l)));
        }
    }

    #[test]
    fn alignment_collapses_to_the_transcript() {
        let d = SyntheticSpeech::generate(SpeechConfig::tiny(), 1);
        for u in &d.train {
            // Collapse repeats, drop blanks — must recover the labels.
            let mut collapsed = Vec::new();
            let mut prev = usize::MAX;
            for &a in &u.alignment {
                if a != BLANK && a != prev {
                    collapsed.push(a);
                }
                prev = a;
            }
            assert_eq!(collapsed, u.labels);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SyntheticSpeech::generate(SpeechConfig::tiny(), 5);
        let b = SyntheticSpeech::generate(SpeechConfig::tiny(), 5);
        assert_eq!(a.train, b.train);
        let c = SyntheticSpeech::generate(SpeechConfig::tiny(), 6);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn prototypes_are_recoverable_from_alignments() {
        // Nearest-centroid baseline: average training frames per
        // aligned class, then classify held-out frames by nearest
        // centroid. The classes must be largely separable — the signal
        // the RNN amplifies into a sub-6% WER.
        let cfg = SpeechConfig::default();
        let d = SyntheticSpeech::generate(cfg, 3);
        let mut centroids = vec![vec![0.0f32; cfg.frame_dim]; cfg.classes()];
        let mut counts = vec![0usize; cfg.classes()];
        for u in &d.train {
            for (f, &c) in u.alignment.iter().enumerate() {
                let frame = &u.frames[f * cfg.frame_dim..(f + 1) * cfg.frame_dim];
                for (sum, &x) in centroids[c].iter_mut().zip(frame) {
                    *sum += x;
                }
                counts[c] += 1;
            }
        }
        for (c, count) in counts.iter().enumerate() {
            assert!(*count > 0, "class {c} never emitted");
            for sum in &mut centroids[c] {
                *sum /= *count as f32;
            }
        }
        let (mut hits, mut total) = (0, 0);
        for u in &d.eval {
            for (f, &c) in u.alignment.iter().enumerate() {
                let frame = &u.frames[f * cfg.frame_dim..(f + 1) * cfg.frame_dim];
                let nearest = (0..cfg.classes())
                    .min_by(|&a, &b| {
                        let da: f32 =
                            frame.iter().zip(&centroids[a]).map(|(x, c)| (x - c).powi(2)).sum();
                        let db: f32 =
                            frame.iter().zip(&centroids[b]).map(|(x, c)| (x - c).powi(2)).sum();
                        da.total_cmp(&db)
                    })
                    .unwrap();
                hits += usize::from(nearest == c);
                total += 1;
            }
        }
        let acc = hits as f64 / total as f64;
        assert!(acc > 0.8, "framewise nearest-centroid accuracy {acc} too low");
    }
}
