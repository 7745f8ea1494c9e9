//! A from-scratch graph-neural-network framework for the CirSTAG stack.
//!
//! The paper treats GNNs as black-box simulators of EDA tasks (pre-routing
//! timing prediction \[17\]; sub-circuit classification \[4\]). Since no Rust
//! GNN ecosystem exists at the fidelity we need, this crate implements one:
//!
//! - dense parameter tensors with manual, layer-local backpropagation
//!   (Caffe-style: each [`Layer`] caches its forward activations and
//!   produces input gradients on the way back — no global tape needed for
//!   the static architectures used here);
//! - message-passing layers: [`GcnLayer`] (Kipf–Welling), [`GatLayer`]
//!   (attention, multi-head), [`SageLayer`] (mean-aggregator GraphSAGE),
//!   plus [`LinearLayer`] and [`DropoutLayer`];
//! - losses ([`mse_loss`], [`cross_entropy_loss`]) with node masks;
//! - the [`Adam`] optimizer;
//! - metrics: [`r2_score`], [`accuracy`], [`f1_macro`],
//!   [`mean_row_cosine`].
//!
//! # Example
//!
//! ```
//! use cirstag_gnn::{GnnModel, GraphContext, LayerSpec, Activation, TrainConfig};
//! use cirstag_graph::Graph;
//! use cirstag_linalg::DenseMatrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])?;
//! let ctx = GraphContext::new(&g);
//! let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
//! let y = DenseMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
//! let mut model = GnnModel::new(
//!     1,
//!     &[LayerSpec::Gcn { dim: 8, activation: Activation::Relu },
//!       LayerSpec::Linear { dim: 1, activation: Activation::Identity }],
//!     7,
//! )?;
//! let cfg = TrainConfig { epochs: 200, ..TrainConfig::default() };
//! model.fit_regression(&ctx, &x, &y, None, &cfg)?;
//! let pred = model.forward(&ctx, &x, false)?;
//! assert_eq!(pred.shape(), (4, 1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod context;
mod error;
mod layers;
mod loss;
mod metrics;
mod model;
mod optim;
mod param;

pub use activation::Activation;
pub use context::{DagInfo, GraphContext};
pub use error::GnnError;
pub use layers::{DagPropLayer, DropoutLayer, GatLayer, GcnLayer, Layer, LinearLayer, SageLayer};
pub use loss::{cross_entropy_loss, mse_loss, LossValue};
pub use metrics::{accuracy, f1_macro, mean_row_cosine, r2_score};
pub use model::{GnnModel, LayerSpec, TrainConfig, TrainReport};
pub use optim::Adam;
pub use param::Param;
