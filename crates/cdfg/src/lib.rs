//! # hls-cdfg — the control/data-flow-graph IR
//!
//! The internal representation at the heart of the DAC'88 HLS tutorial
//! reproduction. A behavioral specification compiles into a [`Cdfg`]:
//! program inputs/outputs, a set of basic [`Block`]s each holding a pure
//! [`DataFlowGraph`], and a structured control [`Region`] tree (sequence,
//! loop, if) connecting them — the tutorial's paired control-flow and
//! data-flow graphs (Fig. 1).
//!
//! The crate also provides the dense dependence structure every
//! scheduler and allocator builds on ([`dense`]: bitsets, flat per-op maps
//! and the CSR [`DepGraph`] with its cached topological order),
//! fixed-point constants ([`Fx`]), and Graphviz export ([`dot`]).
//!
//! ```
//! use hls_cdfg::{DataFlowGraph, DepGraph, OpKind};
//!
//! // y := (x * 3 + x) >> 1
//! let mut dfg = DataFlowGraph::new();
//! let x = dfg.add_input("x", 32);
//! let three = dfg.add_const_value(hls_cdfg::Fx::from_i64(3));
//! let m = dfg.add_op(OpKind::Mul, vec![x, three]);
//! let a = dfg.add_op(OpKind::Add, vec![dfg.result(m).unwrap(), x]);
//! let one = dfg.add_const_value(hls_cdfg::Fx::from_i64(1));
//! let s = dfg.add_op(OpKind::Shr, vec![dfg.result(a).unwrap(), one]);
//! dfg.set_output("y", dfg.result(s).unwrap());
//!
//! // Two constants and three operators, each after its producers.
//! let deps = DepGraph::build(&dfg)?;
//! assert_eq!(deps.len(), 5);
//! let add = deps.index_of(a).unwrap();
//! assert_eq!(deps.preds(add), &[deps.index_of(m).unwrap() as u32]);
//! let order = dfg.topological_order()?;
//! let pos = |op| order.iter().position(|&o| o == op);
//! assert!(pos(m) < pos(a) && pos(a) < pos(s));
//! # Ok::<(), hls_cdfg::CdfgError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cdfg;
pub mod dense;
mod dfg;
pub mod dot;
mod error;
mod fixed;
pub mod ids;
mod op;
pub mod system;

pub use cdfg::{Block, BlockId, Cdfg, IfRegion, LoopKind, LoopRegion, Region, SyncOp};
pub use dense::{BitSet, DenseOpMap, DepGraph, OpSet};
pub use dfg::DataFlowGraph;
pub use error::CdfgError;
pub use fixed::{Fx, FRAC_BITS};
pub use ids::{Arena, Id};
pub use op::{OpId, OpKind, Operation, Value, ValueDef, ValueId};
pub use system::{ChannelSpec, ProcessCdfg, SharedSpec, SystemCdfg};
