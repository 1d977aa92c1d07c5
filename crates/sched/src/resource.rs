//! Functional-unit classes, operation classification, and resource limits.

use std::collections::BTreeMap;

use hls_cdfg::{DataFlowGraph, OpId, OpKind, ValueDef};

use crate::ScheduleError;

/// A class of functional unit that can execute operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuClass {
    /// A universal FU that executes any operation (the tutorial's "one
    /// functional unit" example).
    Universal,
    /// Adder/subtractor (also increments, decrements, copies).
    Alu,
    /// Multiplier.
    Multiplier,
    /// Divider (also remainder).
    Divider,
    /// Barrel shifter (only used for variable shift amounts).
    Shifter,
    /// Comparator.
    Comparator,
    /// Bitwise logic unit.
    Logic,
    /// A memory port (loads and stores).
    MemPort,
}

impl FuClass {
    /// All classes, for iteration in reports.
    pub const ALL: [FuClass; 8] = [
        FuClass::Universal,
        FuClass::Alu,
        FuClass::Multiplier,
        FuClass::Divider,
        FuClass::Shifter,
        FuClass::Comparator,
        FuClass::Logic,
        FuClass::MemPort,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FuClass::Universal => "fu",
            FuClass::Alu => "alu",
            FuClass::Multiplier => "mul",
            FuClass::Divider => "div",
            FuClass::Shifter => "shift",
            FuClass::Comparator => "cmp",
            FuClass::Logic => "logic",
            FuClass::MemPort => "mem",
        }
    }
}

impl std::fmt::Display for FuClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How operations map onto functional-unit classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassifierStyle {
    /// Every step-taking op runs on one [`FuClass::Universal`] pool.
    Universal,
    /// Ops run on typed units (adders, multipliers, ...).
    Typed,
}

/// Classifies operations into FU classes and decides which ops are *free*
/// (pure wiring, no control step): constants always; shifts by a constant
/// amount when `free_const_shifts` is set (the tutorial's "the shift
/// operation is free").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpClassifier {
    /// Universal or typed units.
    pub style: ClassifierStyle,
    /// Treat constant-amount shifts as free wiring.
    pub free_const_shifts: bool,
}

impl OpClassifier {
    /// Universal-FU classifier without free shifts (the paper's unoptimized
    /// 23-step model).
    pub fn universal() -> Self {
        OpClassifier {
            style: ClassifierStyle::Universal,
            free_const_shifts: false,
        }
    }

    /// Universal-FU classifier with free constant shifts (the paper's
    /// optimized 10-step model).
    pub fn universal_free_shifts() -> Self {
        OpClassifier {
            style: ClassifierStyle::Universal,
            free_const_shifts: true,
        }
    }

    /// Typed-FU classifier with free constant shifts.
    pub fn typed() -> Self {
        OpClassifier {
            style: ClassifierStyle::Typed,
            free_const_shifts: true,
        }
    }

    /// The FU class executing `op`, or `None` when the op is free.
    pub fn classify(&self, dfg: &DataFlowGraph, op: OpId) -> Option<FuClass> {
        let o = dfg.op(op);
        if o.kind == OpKind::Const || o.kind == OpKind::Mux {
            return None; // wired constants; muxes belong to interconnect
        }
        if self.free_const_shifts
            && matches!(o.kind, OpKind::Shl | OpKind::Shr)
            && o.operands.get(1).is_some_and(|&amt| is_const(dfg, amt))
        {
            return None;
        }
        Some(match self.style {
            ClassifierStyle::Universal => FuClass::Universal,
            ClassifierStyle::Typed => match o.kind {
                OpKind::Add
                | OpKind::Sub
                | OpKind::Inc
                | OpKind::Dec
                | OpKind::Neg
                | OpKind::Copy => FuClass::Alu,
                OpKind::Mul => FuClass::Multiplier,
                OpKind::Div | OpKind::Mod => FuClass::Divider,
                OpKind::Shl | OpKind::Shr => FuClass::Shifter,
                OpKind::Eq | OpKind::Ne | OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge => {
                    FuClass::Comparator
                }
                OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => FuClass::Logic,
                OpKind::Load | OpKind::Store => FuClass::MemPort,
                // Const and Mux returned `None` at the top of the
                // function; mapping them here keeps the match total
                // without a panicking arm.
                OpKind::Const | OpKind::Mux => return None,
            },
        })
    }

    /// `true` when `op` occupies no control step.
    pub fn is_free(&self, dfg: &DataFlowGraph, op: OpId) -> bool {
        self.classify(dfg, op).is_none()
    }
}

fn is_const(dfg: &DataFlowGraph, v: hls_cdfg::ValueId) -> bool {
    matches!(dfg.value(v).def, ValueDef::Op(p) if dfg.op(p).kind == OpKind::Const)
}

/// Per-class limits on available functional units.
///
/// A class absent from the map is *unlimited* — convenient for
/// time-constrained scheduling where FU count is an output, not an input.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ResourceLimits {
    limits: BTreeMap<FuClass, usize>,
}

impl ResourceLimits {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A single universal FU (the paper's trivial serial case).
    pub fn single_universal() -> Self {
        Self::unlimited().with(FuClass::Universal, 1)
    }

    /// `n` universal FUs.
    pub fn universal(n: usize) -> Self {
        Self::unlimited().with(FuClass::Universal, n)
    }

    /// Sets the limit for `class` (builder style).
    pub fn with(mut self, class: FuClass, n: usize) -> Self {
        self.limits.insert(class, n);
        self
    }

    /// The limit for `class`, or `usize::MAX` when unlimited.
    pub fn limit(&self, class: FuClass) -> usize {
        self.limits.get(&class).copied().unwrap_or(usize::MAX)
    }

    /// The limit for `class`, or [`ScheduleError::ZeroResource`] when an
    /// op needs a class with no units at all.
    pub(crate) fn nonzero(&self, class: FuClass) -> Result<usize, ScheduleError> {
        match self.limit(class) {
            0 => Err(ScheduleError::ZeroResource { class }),
            n => Ok(n),
        }
    }

    /// `true` when any class has a finite limit.
    pub fn is_constrained(&self) -> bool {
        !self.limits.is_empty()
    }

    /// Iterates the finite limits.
    pub fn iter(&self) -> impl Iterator<Item = (FuClass, usize)> + '_ {
        self.limits.iter().map(|(&c, &n)| (c, n))
    }
}

/// Busy units per (class, control step), over the dense class indices of
/// [`SchedGraph::dense_classes`](crate::SchedGraph::dense_classes): the
/// occupancy table of the resource-constrained schedulers.
#[derive(Clone, Debug)]
pub(crate) struct StepUsage {
    per_class: Vec<Vec<usize>>,
}

impl StepUsage {
    /// An empty table for `classes` dense classes.
    pub(crate) fn new(classes: usize) -> Self {
        StepUsage {
            per_class: vec![Vec::new(); classes],
        }
    }

    /// Units of class `ci` busy in `step`.
    pub(crate) fn get(&self, ci: usize, step: u32) -> usize {
        self.per_class[ci].get(step as usize).copied().unwrap_or(0)
    }

    /// Occupies one more unit of class `ci` in `step`.
    pub(crate) fn add(&mut self, ci: usize, step: u32) {
        let steps = &mut self.per_class[ci];
        let s = step as usize;
        if steps.len() <= s {
            steps.resize(s + 1, 0);
        }
        steps[s] += 1;
    }

    /// Releases one unit of class `ci` in `step`.
    pub(crate) fn remove(&mut self, ci: usize, step: u32) {
        if let Some(u) = self.per_class[ci].get_mut(step as usize) {
            *u = u.saturating_sub(1);
        }
    }

    /// The earliest `(step, class)` whose occupancy exceeds `limit(class)`,
    /// ties to the lowest class index.
    pub(crate) fn first_over(&self, limit: impl Fn(usize) -> usize) -> Option<(u32, usize)> {
        self.per_class
            .iter()
            .enumerate()
            .filter_map(|(ci, steps)| {
                let over = steps.iter().position(|&u| u > limit(ci))?;
                Some((over as u32, ci))
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::Fx;

    fn graph() -> (DataFlowGraph, OpId, OpId, OpId) {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let c = g.add_const_value(Fx::ONE);
        let shr = g.add_op(OpKind::Shr, vec![x, c]);
        let mul = g.add_op(OpKind::Mul, vec![x, x]);
        let vshift = g.add_op(OpKind::Shl, vec![x, g.result(mul).unwrap()]);
        g.set_output("a", g.result(shr).unwrap());
        g.set_output("b", g.result(vshift).unwrap());
        (g, shr, mul, vshift)
    }

    #[test]
    fn universal_classifies_everything_to_one_pool() {
        let (g, shr, mul, _) = graph();
        let c = OpClassifier::universal();
        assert_eq!(c.classify(&g, shr), Some(FuClass::Universal));
        assert_eq!(c.classify(&g, mul), Some(FuClass::Universal));
    }

    #[test]
    fn free_shifts_only_for_constant_amounts() {
        let (g, shr, _, vshift) = graph();
        let c = OpClassifier::universal_free_shifts();
        assert_eq!(c.classify(&g, shr), None, "shift by const is wiring");
        assert_eq!(
            c.classify(&g, vshift),
            Some(FuClass::Universal),
            "variable shift needs hw"
        );
    }

    #[test]
    fn typed_classification() {
        let (g, shr, mul, vshift) = graph();
        let c = OpClassifier::typed();
        assert_eq!(c.classify(&g, mul), Some(FuClass::Multiplier));
        assert_eq!(c.classify(&g, shr), None);
        assert_eq!(c.classify(&g, vshift), Some(FuClass::Shifter));
    }

    #[test]
    fn constants_always_free() {
        let mut g = DataFlowGraph::new();
        let c = g.add_const(Fx::ONE);
        for cls in [OpClassifier::universal(), OpClassifier::typed()] {
            assert!(cls.is_free(&g, c));
        }
    }

    #[test]
    fn limits_default_unlimited() {
        let r = ResourceLimits::unlimited();
        assert_eq!(r.limit(FuClass::Alu), usize::MAX);
        assert!(!r.is_constrained());
        let r = r.with(FuClass::Alu, 2);
        assert_eq!(r.limit(FuClass::Alu), 2);
        assert_eq!(r.limit(FuClass::Multiplier), usize::MAX);
        assert!(r.is_constrained());
    }

    #[test]
    fn single_universal_helper() {
        let r = ResourceLimits::single_universal();
        assert_eq!(r.limit(FuClass::Universal), 1);
        assert_eq!(r.iter().count(), 1);
    }
}
