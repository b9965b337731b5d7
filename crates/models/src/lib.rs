//! The miniaturized reference models of the MLPerf Training suite.
//!
//! One model per benchmark row of Table 1, plus `AlexNetMini` for the
//! Figure 1 precision study:
//!
//! | Benchmark | Paper model | Here |
//! |---|---|---|
//! | Image classification | ResNet-50 v1.5 | [`ResNetMini`] (v1.5-style residual blocks) |
//! | Object detection (light) | SSD-ResNet-34 | [`SsdMini`] (single-shot grid detector) |
//! | Detection/segmentation (heavy) | Mask R-CNN | [`MaskRcnnMini`] (two-stage, proposal + ROI heads) |
//! | Translation (non-recurrent) | Transformer | [`TransformerMini`] (enc/dec attention) |
//! | Translation (recurrent) | GNMT | [`GnmtMini`] (LSTM enc/dec with attention) |
//! | Recommendation | NCF | [`Ncf`] (GMF + MLP fusion) |
//! | Reinforcement learning | MiniGo | [`MiniGoNet`] (policy + value heads) |
//! | Language modeling (v0.7) | BERT | [`BertMini`] (bidirectional encoder + masked-LM head) |
//! | Recommendation (v0.7) | DLRM | [`DlrmMini`] (embedding bag + pairwise interactions) |
//! | Speech recognition (v0.7) | RNN-T | [`RnnTMini`] (LSTM encoder + CTC-style loss) |
//!
//! Models follow the paper's "reference implementation" role: they
//! define the network and training procedure precisely (layer-by-layer,
//! initialization, loss) so the harness in `mlperf-core` can treat every
//! task uniformly.

#![warn(missing_docs)]

mod alexnet;
mod bert;
mod common;
mod dlrm;
mod gnmt;
mod maskrcnn;
mod minigo;
mod ncf;
mod resnet;
mod rnnt;
mod ssd;
mod transformer;

pub use alexnet::AlexNetMini;
pub use bert::{BertConfig, BertMini};
pub use common::Detection;
pub use dlrm::{DlrmConfig, DlrmMini};
pub use gnmt::{GnmtConfig, GnmtMini};
pub use maskrcnn::{MaskRcnnConfig, MaskRcnnMini, MaskRcnnOutput};
pub use minigo::{MiniGoConfig, MiniGoNet};
pub use ncf::{Ncf, NcfConfig};
pub use resnet::{ResNetConfig, ResNetMini};
pub use rnnt::{RnnTConfig, RnnTMini};
pub use ssd::{SsdConfig, SsdMini};
pub use transformer::{TransformerConfig, TransformerMini};
