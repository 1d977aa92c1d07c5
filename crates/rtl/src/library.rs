//! The hardware component library and module binding.
//!
//! "For the binding of functional units, known components such as adders
//! can be taken from a hardware library. Libraries facilitate the
//! synthesis process and the size/timing estimation" (§2). Cells carry
//! simple per-bit area and delay models in the spirit of late-1980s
//! datapath estimators (BUD, PLEST).

use hls_cdfg::OpKind;

/// The functional role of a library cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellClass {
    /// Adder/subtractor (covers inc/dec/neg/copy).
    Alu,
    /// Combinational array multiplier.
    Multiplier,
    /// Iterative divider.
    Divider,
    /// Barrel shifter.
    Shifter,
    /// Magnitude comparator.
    Comparator,
    /// Bitwise logic unit.
    Logic,
    /// Universal function unit (any operation).
    Universal,
    /// Edge-triggered register.
    Register,
    /// N-way multiplexer (area scales with fan-in).
    Mux,
    /// Tri-state bus driver.
    BusDriver,
    /// Single-port memory.
    Memory,
}

impl CellClass {
    /// The class's report name: its variant name in lower case.
    pub fn name(self) -> &'static str {
        match self {
            CellClass::Alu => "alu",
            CellClass::Multiplier => "multiplier",
            CellClass::Divider => "divider",
            CellClass::Shifter => "shifter",
            CellClass::Comparator => "comparator",
            CellClass::Logic => "logic",
            CellClass::Universal => "universal",
            CellClass::Register => "register",
            CellClass::Mux => "mux",
            CellClass::BusDriver => "busdriver",
            CellClass::Memory => "memory",
        }
    }

    /// `true` when the cell can execute `kind`.
    pub fn executes(self, kind: OpKind) -> bool {
        use OpKind::*;
        match self {
            CellClass::Universal => !matches!(kind, Const | Mux),
            CellClass::Alu => matches!(kind, Add | Sub | Inc | Dec | Neg | Copy),
            CellClass::Multiplier => matches!(kind, Mul),
            CellClass::Divider => matches!(kind, Div | Mod),
            CellClass::Shifter => matches!(kind, Shl | Shr),
            CellClass::Comparator => matches!(kind, Eq | Ne | Lt | Le | Gt | Ge),
            CellClass::Logic => matches!(kind, And | Or | Xor | Not),
            CellClass::Memory => matches!(kind, Load | Store),
            CellClass::Register | CellClass::Mux | CellClass::BusDriver => false,
        }
    }
}

/// A library cell with linear area/delay models.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Unique cell name (e.g. `"add_ripple"`).
    pub name: &'static str,
    /// Functional role.
    pub class: CellClass,
    /// Fixed area in gate equivalents.
    pub area_base: f64,
    /// Additional area per data bit.
    pub area_per_bit: f64,
    /// Fixed delay in nanoseconds.
    pub delay_base: f64,
    /// Additional delay per data bit (ripple structures) — zero for
    /// logarithmic/parallel structures.
    pub delay_per_bit: f64,
}

impl CellSpec {
    /// Area of a `width`-bit instance in gate equivalents.
    pub fn area(&self, width: u8) -> f64 {
        self.area_base + self.area_per_bit * width as f64
    }

    /// Propagation delay of a `width`-bit instance in nanoseconds.
    pub fn delay(&self, width: u8) -> f64 {
        self.delay_base + self.delay_per_bit * width as f64
    }
}

/// The standard library's 2-way multiplexer.
const MUX2: CellSpec = CellSpec {
    name: "mux2",
    class: CellClass::Mux,
    area_base: 0.5,
    area_per_bit: 2.5,
    delay_base: 0.8,
    delay_per_bit: 0.0,
};

/// A component library.
#[derive(Clone, Debug, PartialEq)]
pub struct Library {
    cells: Vec<CellSpec>,
}

impl Library {
    /// The standard library: ripple and carry-lookahead adders, an array
    /// multiplier, an iterative divider, a barrel shifter, comparator,
    /// logic unit, a universal FU, registers, muxes, and bus drivers.
    pub fn standard() -> Self {
        Library {
            cells: vec![
                CellSpec {
                    name: "add_ripple",
                    class: CellClass::Alu,
                    area_base: 4.0,
                    area_per_bit: 9.0,
                    delay_base: 2.0,
                    delay_per_bit: 0.9,
                },
                CellSpec {
                    name: "add_cla",
                    class: CellClass::Alu,
                    area_base: 20.0,
                    area_per_bit: 16.0,
                    delay_base: 6.0,
                    delay_per_bit: 0.12,
                },
                CellSpec {
                    name: "mul_array",
                    class: CellClass::Multiplier,
                    area_base: 40.0,
                    area_per_bit: 110.0,
                    delay_base: 14.0,
                    delay_per_bit: 2.1,
                },
                CellSpec {
                    name: "div_iter",
                    class: CellClass::Divider,
                    area_base: 60.0,
                    area_per_bit: 130.0,
                    delay_base: 30.0,
                    delay_per_bit: 4.0,
                },
                CellSpec {
                    name: "shift_barrel",
                    class: CellClass::Shifter,
                    area_base: 8.0,
                    area_per_bit: 12.0,
                    delay_base: 3.0,
                    delay_per_bit: 0.1,
                },
                CellSpec {
                    name: "cmp_mag",
                    class: CellClass::Comparator,
                    area_base: 3.0,
                    area_per_bit: 4.5,
                    delay_base: 2.0,
                    delay_per_bit: 0.4,
                },
                CellSpec {
                    name: "logic_unit",
                    class: CellClass::Logic,
                    area_base: 2.0,
                    area_per_bit: 3.0,
                    delay_base: 1.0,
                    delay_per_bit: 0.0,
                },
                CellSpec {
                    name: "fu_universal",
                    class: CellClass::Universal,
                    area_base: 120.0,
                    area_per_bit: 160.0,
                    delay_base: 30.0,
                    delay_per_bit: 3.0,
                },
                CellSpec {
                    name: "reg_dff",
                    class: CellClass::Register,
                    area_base: 1.0,
                    area_per_bit: 6.0,
                    delay_base: 1.2,
                    delay_per_bit: 0.0,
                },
                MUX2,
                CellSpec {
                    name: "bus_driver",
                    class: CellClass::BusDriver,
                    area_base: 0.5,
                    area_per_bit: 1.5,
                    delay_base: 1.0,
                    delay_per_bit: 0.0,
                },
                CellSpec {
                    name: "mem_1rw",
                    class: CellClass::Memory,
                    area_base: 200.0,
                    area_per_bit: 40.0,
                    delay_base: 25.0,
                    delay_per_bit: 0.2,
                },
            ],
        }
    }

    /// All cells of `class`.
    pub fn cells_of(&self, class: CellClass) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().filter(move |c| c.class == class)
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&CellSpec> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Module binding: the *cheapest* cell of `class` whose `width`-bit
    /// delay does not exceed `max_delay_ns` (if given). Falls back to the
    /// fastest cell when nothing meets the budget.
    pub fn bind(
        &self,
        class: CellClass,
        width: u8,
        max_delay_ns: Option<f64>,
    ) -> Option<&CellSpec> {
        let mut feasible: Vec<&CellSpec> = self
            .cells_of(class)
            .filter(|c| max_delay_ns.is_none_or(|d| c.delay(width) <= d))
            .collect();
        if feasible.is_empty() {
            return self
                .cells_of(class)
                .min_by(|a, b| a.delay(width).total_cmp(&b.delay(width)));
        }
        feasible.sort_by(|a, b| a.area(width).total_cmp(&b.area(width)));
        feasible.first().copied()
    }

    /// Adds a custom cell (builder style) — the tutorial's "synthesis of
    /// special-purpose full-custom hardware" escape hatch.
    pub fn with_cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::standard()
    }
}

/// Area of an `n`-way, `width`-bit multiplexer built from 2-way muxes.
/// Every library starts from [`Library::standard`], so the lookup finds
/// its `mux2`; the fallback only spares the lookup a panic path.
pub fn mux_area(library: &Library, fanin: usize, width: u8) -> f64 {
    if fanin <= 1 {
        return 0.0;
    }
    let m2 = library.cell("mux2").unwrap_or(&MUX2);
    (fanin - 1) as f64 * m2.area(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ripple_cheaper_but_slower_than_cla() {
        let lib = Library::standard();
        let ripple = lib.cell("add_ripple").unwrap();
        let cla = lib.cell("add_cla").unwrap();
        assert!(ripple.area(32) < cla.area(32));
        assert!(ripple.delay(32) > cla.delay(32));
    }

    #[test]
    fn binding_picks_cheapest_meeting_delay() {
        let lib = Library::standard();
        // Generous budget: ripple wins on area.
        let c = lib.bind(CellClass::Alu, 32, Some(50.0)).unwrap();
        assert_eq!(c.name, "add_ripple");
        // Tight budget: only the CLA makes it.
        let c = lib.bind(CellClass::Alu, 32, Some(15.0)).unwrap();
        assert_eq!(c.name, "add_cla");
        // Impossible budget: fall back to the fastest.
        let c = lib.bind(CellClass::Alu, 32, Some(0.1)).unwrap();
        assert_eq!(c.name, "add_cla");
    }

    #[test]
    fn executes_table() {
        assert!(CellClass::Alu.executes(OpKind::Add));
        assert!(CellClass::Alu.executes(OpKind::Copy));
        assert!(!CellClass::Alu.executes(OpKind::Mul));
        assert!(CellClass::Universal.executes(OpKind::Div));
        assert!(!CellClass::Universal.executes(OpKind::Const));
        assert!(!CellClass::Register.executes(OpKind::Add));
    }

    #[test]
    fn mux_area_scales_with_fanin() {
        let lib = Library::standard();
        assert_eq!(mux_area(&lib, 1, 32), 0.0);
        let m2 = mux_area(&lib, 2, 32);
        let m4 = mux_area(&lib, 4, 32);
        assert!(m2 > 0.0);
        assert!(
            (m4 - 3.0 * m2).abs() < 1e-9,
            "n-way mux = (n-1) two-way muxes"
        );
    }

    #[test]
    fn narrow_instances_are_smaller() {
        let lib = Library::standard();
        let reg = lib.cell("reg_dff").unwrap();
        assert!(reg.area(2) < reg.area(32), "the 2-bit counter pays off");
    }
}
