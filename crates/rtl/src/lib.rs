//! # hls-rtl — register-transfer-level structure
//!
//! The output side of high-level synthesis: a component [`Library`] with
//! per-bit area/delay models and module binding, an RT-level [`Netlist`],
//! area/clock [`estimate`]s in the BUD/PLEST tradition, and Verilog-subset
//! emission ([`to_verilog`]).
//!
//! ```
//! use hls_rtl::{CellClass, Library};
//!
//! let lib = Library::standard();
//! // Module binding: cheapest adder meeting a 15 ns budget is the CLA.
//! let cell = lib.bind(CellClass::Alu, 32, Some(15.0)).expect("library has adders");
//! assert_eq!(cell.name, "add_cla");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod handshake;
mod library;
mod netlist;
mod verilog;

pub use area::{estimate, AreaReport, AreaTally, WIRING_FACTOR};
pub use handshake::{arbiter_verilog, channel_cell_verilog, fifo_cell_verilog};
pub use library::{mux_area, CellClass, CellSpec, Library};
pub use netlist::{Instance, InstanceId, Net, NetId, Netlist, NetlistError, Port, PortDir};
pub use verilog::to_verilog;
