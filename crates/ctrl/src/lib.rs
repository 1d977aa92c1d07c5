//! # hls-ctrl — control synthesis
//!
//! The controller half of the tutorial's RT-level structure:
//!
//! * [`build_fsm`] — one state per control step, loop/branch transitions
//!   guarded by datapath flags. Each state asserts the typed
//!   [`hls_alloc::Signal`]s allocation recorded for its step, as indices
//!   into one table per FSM ([`Fsm::signals`]); the logic, microcode and
//!   minimization below work on those indices.
//! * [`encode_states`] / [`hardwired_logic`] — binary, one-hot, and Gray
//!   state assignments with two-level-minimized next-state/output logic
//!   ([`logic`] implements Quine–McCluskey).
//! * [`minimize_states`] — Moore-machine partition refinement.
//! * [`microcode`] — microprogram generation with horizontal vs
//!   field-encoded control-word formats.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod emit;
mod encode;
mod fsm;
pub mod logic;
mod microcode;
mod minimize;

pub use emit::controller_verilog;
pub use encode::{
    compare_encodings, encode_states, hardwired_logic, Encoding, EncodingStyle, HardwiredReport,
};
pub use fsm::{build_fsm, Cond, Fsm, State, StateId, Transition};
pub use microcode::{microcode, MicroInstruction, Microprogram};
pub use minimize::{minimize_states, MinimizedFsm};

use std::error::Error;
use std::fmt;

/// A control-synthesis error.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CtrlError {
    /// The datapath has no binding for a block.
    MissingBinding {
        /// Block name.
        block: String,
    },
    /// The produced FSM violated an invariant.
    MalformedFsm {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::MissingBinding { block } => {
                write!(f, "datapath has no binding for block `{block}`")
            }
            CtrlError::MalformedFsm { detail } => write!(f, "malformed fsm: {detail}"),
        }
    }
}

impl Error for CtrlError {}
