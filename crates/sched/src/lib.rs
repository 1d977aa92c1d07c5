//! # hls-sched — scheduling algorithms
//!
//! Every scheduling technique surveyed in §3.1 of the DAC'88 tutorial:
//!
//! * [`asap_schedule`] / [`alap_schedule`] — resource-constrained ASAP
//!   (Fig. 3, local and priority-blind) and its as-late-as-possible mirror.
//! * [`list_schedule`] — list scheduling with path-length (BUD), urgency
//!   (Elf/ISYN) or mobility priorities (Fig. 4).
//! * [`force_directed_schedule`] — HAL's time-constrained force-directed
//!   scheduling with [`distribution_graphs`] (Fig. 5).
//! * [`hier_force_schedule`] — hierarchical windowed FDS: mobility-band
//!   windows, seam propagation, independent components in parallel;
//!   scales the Fig. 5 technique to 100k-op graphs.
//! * [`freedom_based_schedule`] — MAHA's least-freedom-first scheduling.
//! * [`branch_and_bound_schedule`] — EXPL-style optimal search.
//! * [`transformational_schedule`] — YSC-style serialize-from-parallel.
//! * [`chained_schedule`] — delay-aware operator chaining.
//! * [`pipeline_loop`] — Sehwa-style loop pipelining.
//! * [`schedule_cdfg`] — whole-behavior scheduling with loop-aware latency
//!   (reproduces the paper's 23- and 10-step sqrt schedules).
//!
//! All of them run on one substrate, [`SchedGraph`]: a dense snapshot of a
//! block's dependence graph under an [`OpClassifier`], with the cached
//! topological order and the dependence-only ASAP/ALAP bounds — "the range
//! of possible control step assignments for each operation" (§3.1.2) that
//! every technique starts from. Each writes a dense [`Schedule`], and
//! [`schedule_cdfg_cached`] reuses one graph per block across calls.
//!
//! ```
//! use hls_sched::{asap_schedule, OpClassifier, ResourceLimits, SchedGraph};
//! use hls_cdfg::{DataFlowGraph, OpKind};
//!
//! let mut dfg = DataFlowGraph::new();
//! let x = dfg.add_input("x", 32);
//! let a = dfg.add_op(OpKind::Inc, vec![x]);
//! let b = dfg.add_op(OpKind::Neg, vec![dfg.result(a).unwrap()]);
//! dfg.set_output("y", dfg.result(b).unwrap());
//!
//! let cls = OpClassifier::universal();
//! let s = asap_schedule(&dfg, &cls, &ResourceLimits::single_universal())?;
//! assert_eq!(s.num_steps(), 2);
//!
//! // The bounds behind it: `b` can start no earlier than step 1.
//! let sg = SchedGraph::build(&dfg, &cls)?;
//! let (asap, critical_path) = sg.asap();
//! assert_eq!(critical_path, 2);
//! assert_eq!(asap[sg.graph().index_of(b).unwrap()], 1);
//! # Ok::<(), hls_sched::ScheduleError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alap;
mod asap;
mod bb;
pub mod bounds;
mod cdfg_sched;
mod chain;
mod error;
mod force;
mod freedom;
mod hforce;
mod list;
mod pipeline;
mod resource;
mod schedule;
mod transform;

pub use alap::alap_schedule;
pub use asap::asap_schedule;
pub use bb::{branch_and_bound_schedule, DEFAULT_NODE_BUDGET};
pub use bounds::{ClassStats, SchedGraph, Windows};
pub use cdfg_sched::{schedule_cdfg, schedule_cdfg_cached, Algorithm, CdfgBoundsCache};
pub use chain::{chained_schedule, ChainedSchedule, DelayModel};
pub use error::ScheduleError;
pub use force::{distribution_graphs, force_directed_schedule, DistributionGraphs, ForceScheduler};
pub use freedom::freedom_based_schedule;
pub use hforce::{hier_force_schedule, HierForceScheduler, DEFAULT_WINDOW};
pub use list::{list_schedule, Priority};
pub use pipeline::{pipeline_loop, reservation_table, PipelineResult};
pub use resource::{ClassifierStyle, FuClass, OpClassifier, ResourceLimits};
pub use schedule::{CdfgSchedule, Schedule};
pub use transform::{transformational_schedule, Move};
