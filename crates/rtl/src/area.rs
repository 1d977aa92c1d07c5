//! Area and timing estimation (the BUD/PLEST role — tutorial §4,
//! "Integrating levels of design").

use std::collections::BTreeMap;

use crate::library::{CellClass, CellSpec, Library};
use crate::netlist::Netlist;

/// Wiring overhead applied on top of raw cell area; PLEST-style estimators
/// charged a routing factor proportional to cell area.
pub const WIRING_FACTOR: f64 = 0.25;

/// An area/timing estimate of a netlist.
#[derive(Clone, Debug, PartialEq)]
pub struct AreaReport {
    /// Raw cell area (gate equivalents).
    pub cell_area: f64,
    /// Wiring estimate.
    pub wiring_area: f64,
    /// Area per cell class, keyed by [`CellClass::name`].
    pub by_class: BTreeMap<&'static str, f64>,
    /// Estimated minimum clock period: slowest combinational cell + mux +
    /// register overhead.
    pub clock_ns: f64,
}

impl AreaReport {
    /// Total estimated area.
    pub fn total(&self) -> f64 {
        self.cell_area + self.wiring_area
    }
}

impl std::fmt::Display for AreaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "area: {:.0} GE (cells {:.0} + wiring {:.0})",
            self.total(),
            self.cell_area,
            self.wiring_area
        )?;
        for (class, a) in &self.by_class {
            writeln!(f, "  {class:<12} {a:>8.0}")?;
        }
        write!(f, "clock: {:.1} ns", self.clock_ns)
    }
}

/// Estimates the area and clock of `netlist` against `library`.
///
/// Instances whose cell is unknown to the library are charged zero area —
/// run [`Netlist::validate`] and keep cell names in sync with the library
/// to avoid surprises.
pub fn estimate(netlist: &Netlist, library: &Library) -> AreaReport {
    let mut tally = AreaTally::default();
    for (_, inst) in netlist.instances() {
        if let Some(cell) = library.cell(&inst.cell) {
            tally.add(cell, inst.width);
        }
    }
    tally.finish()
}

/// An [`AreaReport`] under construction, priced one cell instance at a
/// time. [`estimate`] prices a netlist's instances through it, and a
/// structure that knows its cells without building a netlist can add
/// them directly: the same instances in the same order give a
/// bit-identical report.
#[derive(Clone, Debug, Default)]
pub struct AreaTally {
    cell_area: f64,
    by_class: BTreeMap<&'static str, f64>,
    worst_comb: f64,
    reg_delay: f64,
    mux_delay: f64,
}

impl AreaTally {
    /// Adds one `width`-bit instance of `cell`.
    pub fn add(&mut self, cell: &CellSpec, width: u8) {
        let a = cell.area(width);
        self.cell_area += a;
        *self.by_class.entry(cell.class.name()).or_insert(0.0) += a;
        let d = cell.delay(width);
        match cell.class {
            CellClass::Register => self.reg_delay = self.reg_delay.max(d),
            CellClass::Mux | CellClass::BusDriver => self.mux_delay = self.mux_delay.max(d),
            _ => self.worst_comb = self.worst_comb.max(d),
        }
    }

    /// The report of every instance added so far.
    pub fn finish(self) -> AreaReport {
        AreaReport {
            cell_area: self.cell_area,
            wiring_area: self.cell_area * WIRING_FACTOR,
            by_class: self.by_class,
            clock_ns: self.worst_comb + self.mux_delay + self.reg_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::PortDir;

    fn datapath() -> Netlist {
        let mut n = Netlist::new("dp");
        let a = n.add_port("a", PortDir::In, 32);
        let y = n.add_port("y", PortDir::Out, 32);
        let m = n.add_net("m", 32);
        let r = n.add_net("r", 32);
        n.add_instance("mux0", "mux2", 32, vec![("a".into(), a), ("y".into(), m)]);
        n.add_instance(
            "alu0",
            "add_ripple",
            32,
            vec![("a".into(), m), ("y".into(), r)],
        );
        n.add_instance(
            "reg0",
            "reg_dff",
            32,
            vec![("d".into(), r), ("q".into(), y)],
        );
        n
    }

    #[test]
    fn totals_add_up() {
        let lib = Library::standard();
        let r = estimate(&datapath(), &lib);
        assert!(r.cell_area > 0.0);
        assert!((r.total() - r.cell_area * (1.0 + WIRING_FACTOR)).abs() < 1e-9);
        assert_eq!(r.by_class.len(), 3);
    }

    #[test]
    fn clock_includes_all_three_stages() {
        let lib = Library::standard();
        let r = estimate(&datapath(), &lib);
        let add = lib.cell("add_ripple").unwrap().delay(32);
        let mux = lib.cell("mux2").unwrap().delay(32);
        let reg = lib.cell("reg_dff").unwrap().delay(32);
        assert!((r.clock_ns - (add + mux + reg)).abs() < 1e-9);
    }

    #[test]
    fn display_renders() {
        let lib = Library::standard();
        let r = estimate(&datapath(), &lib);
        let s = r.to_string();
        assert!(s.contains("area:"));
        assert!(s.contains("clock:"));
    }
}
