//! Circuit substrate for the CirSTAG reproduction: cell library, gate-level
//! netlists, pin-level timing graphs, a pre-routing static timing analysis
//! (STA) engine, synthetic benchmark generation, a BLIF-flavoured netlist
//! format, GNN feature extraction and capacitance perturbations.
//!
//! This crate plays the role of the proprietary datasets and the STA ground
//! truth in the paper's Case Study A: nodes of the derived [`TimingGraph`]
//! are cell pins, edges are net connections and intra-cell arcs (exactly the
//! graph convention of the timing-GNN the paper builds on), and
//! [`StaEngine`] produces the arrival times the GNN learns to predict.
//!
//! # Example
//!
//! ```
//! use cirstag_circuit::{generate_circuit, CellLibrary, GeneratorConfig, StaEngine, TimingGraph};
//!
//! # fn main() -> Result<(), cirstag_circuit::CircuitError> {
//! let library = CellLibrary::standard();
//! let netlist = generate_circuit(&library, &GeneratorConfig { num_gates: 50, ..Default::default() }, 7)?;
//! let timing = TimingGraph::new(&netlist, &library)?;
//! let sta = StaEngine::new(&timing);
//! let arrivals = sta.arrival_times();
//! assert_eq!(arrivals.len(), timing.num_pins());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod error;
mod features;
mod generator;
mod netlist;
mod parser;
mod partition;
mod perturb;
mod simulate;
mod sta;
mod timing_graph;

pub use cell::{Cell, CellId, CellKind, CellLibrary};
pub use error::CircuitError;
pub use features::{extract_features, FeatureConfig};
pub use generator::{
    benchmark_suite, generate_circuit, stress_suite, BenchmarkSpec, GeneratorConfig,
};
pub use netlist::{CellInstance, Net, NetId, Netlist};
pub use parser::{parse_netlist, write_netlist};
pub use partition::{
    apply_delta, partition_graph, DeltaOp, DeltaOutcome, NetlistDelta, PartitionConfig,
    Partitioning, MIN_PARTITION_NODES,
};
pub use perturb::{perturb_pin_caps, CapPerturbation};
pub use simulate::simulate;
pub use sta::StaEngine;
pub use timing_graph::{PinId, PinInfo, PinRole, TimingGraph};
