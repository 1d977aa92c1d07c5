//! Behavioral (golden-model) interpretation of a CDFG.
//!
//! Executes the internal representation directly, with no notion of
//! control steps or hardware — the reference against which synthesized
//! structures are verified (§4, "design verification").

use std::collections::{BTreeMap, HashMap};

use hls_cdfg::{Cdfg, DataFlowGraph, Fx, LoopKind, OpKind, Region, ValueId};

use crate::SimError;

/// Iteration cap for data-dependent loops.
pub const MAX_ITERATIONS: u64 = 1 << 20;

/// The result of a behavioral run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BehavResult {
    /// Final values of the declared program outputs.
    pub outputs: BTreeMap<String, Fx>,
    /// Total operations executed (loops counted per iteration).
    pub ops_executed: u64,
}

/// Evaluates one operator over fixed-point arguments.
///
/// # Errors
///
/// Returns [`SimError::DivideByZero`] for zero divisors; other kinds
/// always succeed.
pub fn eval_op(kind: OpKind, args: &[Fx]) -> Result<Fx, SimError> {
    use OpKind::*;
    Ok(match (kind, args) {
        (Add, [a, b]) => *a + *b,
        (Sub, [a, b]) => *a - *b,
        (Mul, [a, b]) => *a * *b,
        (Div, [a, b]) => {
            if b.is_zero() {
                return Err(SimError::DivideByZero);
            }
            *a / *b
        }
        (Mod, [a, b]) => {
            if b.is_zero() {
                return Err(SimError::DivideByZero);
            }
            *a % *b
        }
        (Neg, [a]) => -*a,
        (Inc, [a]) => *a + Fx::ONE,
        (Dec, [a]) => *a - Fx::ONE,
        (Shl, [a, b]) => *a << (b.to_i64().clamp(0, 63) as u32),
        (Shr, [a, b]) => *a >> (b.to_i64().clamp(0, 63) as u32),
        (And, [a, b]) => Fx::from_raw(a.raw() & b.raw()),
        (Or, [a, b]) => Fx::from_raw(a.raw() | b.raw()),
        (Xor, [a, b]) => Fx::from_raw(a.raw() ^ b.raw()),
        (Not, [a]) => Fx::from_raw(!a.raw()),
        (Eq, [a, b]) => bool_fx(a == b),
        (Ne, [a, b]) => bool_fx(a != b),
        (Lt, [a, b]) => bool_fx(a < b),
        (Le, [a, b]) => bool_fx(a <= b),
        (Gt, [a, b]) => bool_fx(a > b),
        (Ge, [a, b]) => bool_fx(a >= b),
        (Mux, [s, a, b]) => {
            if s.is_zero() {
                *b
            } else {
                *a
            }
        }
        (Copy, [a]) => *a,
        _ => {
            return Err(SimError::UnsupportedOp {
                op: kind.to_string(),
            })
        }
    })
}

fn bool_fx(b: bool) -> Fx {
    if b {
        Fx::ONE
    } else {
        Fx::ZERO
    }
}

/// Applies the declared width to a computed value: integer-typed values
/// narrower than the full 32-bit datapath wrap in their registers.
pub fn apply_width(v: Fx, width: u8) -> Fx {
    if width < 32 {
        v.wrap_int_bits(width.max(1))
    } else {
        v
    }
}

/// Interprets `cdfg` on the given inputs.
///
/// # Errors
///
/// Returns [`SimError::MissingInput`] when a declared input is absent,
/// [`SimError::Nonterminating`] when a data-dependent loop exceeds
/// [`MAX_ITERATIONS`], and any evaluation error.
pub fn interpret(cdfg: &Cdfg, inputs: &BTreeMap<String, Fx>) -> Result<BehavResult, SimError> {
    let mut env: HashMap<String, Fx> = HashMap::new();
    for (name, width) in cdfg.inputs() {
        let v = inputs
            .get(name)
            .copied()
            .ok_or_else(|| SimError::MissingInput { name: name.clone() })?;
        env.insert(name.clone(), apply_width(v, *width));
    }
    let mut memories: HashMap<String, HashMap<i64, Fx>> = HashMap::new();
    let mut ops_executed = 0u64;
    run_region(
        cdfg,
        cdfg.body(),
        &mut env,
        &mut memories,
        &mut ops_executed,
    )?;
    let mut outputs = BTreeMap::new();
    for name in cdfg.outputs() {
        let v = env
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnsetOutput { name: name.clone() })?;
        outputs.insert(name.clone(), v);
    }
    Ok(BehavResult {
        outputs,
        ops_executed,
    })
}

fn run_region(
    cdfg: &Cdfg,
    region: &Region,
    env: &mut HashMap<String, Fx>,
    memories: &mut HashMap<String, HashMap<i64, Fx>>,
    ops: &mut u64,
) -> Result<(), SimError> {
    match region {
        Region::Block(b) => run_block(&cdfg.block(*b).dfg, env, memories, ops),
        Region::Seq(rs) => {
            for r in rs {
                run_region(cdfg, r, env, memories, ops)?;
            }
            Ok(())
        }
        Region::Loop(l) => {
            let mut iterations = 0u64;
            loop {
                iterations += 1;
                if iterations > MAX_ITERATIONS {
                    return Err(SimError::Nonterminating);
                }
                match l.kind {
                    LoopKind::DoUntil => {
                        run_region(cdfg, &l.body, env, memories, ops)?;
                        let flag = env.get(&l.exit_var).copied().unwrap_or(Fx::ZERO);
                        if !flag.is_zero() {
                            return Ok(());
                        }
                    }
                    LoopKind::While => {
                        if let Some(cb) = l.cond_block {
                            run_block(&cdfg.block(cb).dfg, env, memories, ops)?;
                        }
                        let flag = env.get(&l.exit_var).copied().unwrap_or(Fx::ZERO);
                        if flag.is_zero() {
                            return Ok(());
                        }
                        run_region(cdfg, &l.body, env, memories, ops)?;
                    }
                }
            }
        }
        Region::If(i) => {
            run_block(&cdfg.block(i.cond_block).dfg, env, memories, ops)?;
            let flag = env.get(&i.cond_var).copied().unwrap_or(Fx::ZERO);
            if !flag.is_zero() {
                run_region(cdfg, &i.then_region, env, memories, ops)
            } else if let Some(e) = &i.else_region {
                run_region(cdfg, e, env, memories, ops)
            } else {
                Ok(())
            }
        }
    }
}

pub(crate) fn run_block(
    dfg: &DataFlowGraph,
    env: &mut HashMap<String, Fx>,
    memories: &mut HashMap<String, HashMap<i64, Fx>>,
    ops: &mut u64,
) -> Result<(), SimError> {
    let mut values: HashMap<ValueId, Fx> = HashMap::new();
    for &iv in dfg.inputs() {
        let name = &dfg.value(iv).name;
        let v = env
            .get(name)
            .copied()
            .ok_or_else(|| SimError::MissingInput { name: name.clone() })?;
        values.insert(iv, v);
    }
    let order = dfg.topological_order().map_err(|e| SimError::BadGraph {
        detail: e.to_string(),
    })?;
    // Topological order computes every operand first, unless malformed.
    let value = |values: &HashMap<ValueId, Fx>, v: ValueId| {
        values.get(&v).copied().ok_or_else(|| SimError::BadGraph {
            detail: format!("value v{} read before it is computed", v.index()),
        })
    };
    for id in order {
        let op = dfg.op(id);
        *ops += 1;
        let result = match op.kind {
            OpKind::Const => op.constant.unwrap_or_default(),
            OpKind::Load => {
                let mem = op.memory.as_deref().unwrap_or("");
                let addr = value(&values, op.operands[0])?.to_i64();
                memories
                    .get(mem)
                    .and_then(|m| m.get(&addr))
                    .copied()
                    .unwrap_or(Fx::ZERO)
            }
            OpKind::Store => {
                let mem = op.memory.clone().unwrap_or_default();
                let addr = value(&values, op.operands[0])?.to_i64();
                let data = value(&values, op.operands[1])?;
                memories.entry(mem).or_default().insert(addr, data);
                Fx::ZERO // the next memory-state token
            }
            kind => {
                let args: Vec<Fx> = op
                    .operands
                    .iter()
                    .map(|&v| value(&values, v))
                    .collect::<Result<_, _>>()?;
                eval_op(kind, &args)?
            }
        };
        if let Some(res) = op.result {
            let width = dfg.value(res).width;
            values.insert(res, apply_width(result, width));
        }
    }
    for (name, v) in dfg.outputs() {
        env.insert(name.clone(), value(&values, *v)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    #[test]
    fn sqrt_computes_square_roots() {
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        for x in [0.09, 0.25, 0.5, 0.7, 0.99] {
            let r = interpret(&cdfg, &BTreeMap::from([("X".to_string(), fx(x))])).unwrap();
            let y = r.outputs["Y"].to_f64();
            assert!((y - x.sqrt()).abs() < 2e-3, "sqrt({x}) ≈ {y}");
        }
    }

    #[test]
    fn sqrt_unchanged_by_optimization() {
        // The §4 verification question, answered by execution: the Fig. 2
        // transformations preserve behavior.
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let mut optimized = cdfg.clone();
        hls_opt::optimize(&mut optimized);
        for x in [0.1, 0.33, 0.64, 0.88] {
            let inp = BTreeMap::from([("X".to_string(), fx(x))]);
            let a = interpret(&cdfg, &inp).unwrap();
            let b = interpret(&optimized, &inp).unwrap();
            assert_eq!(a.outputs["Y"], b.outputs["Y"], "x = {x}");
            assert!(b.ops_executed < a.ops_executed, "optimization removed work");
        }
    }

    #[test]
    fn sqrt_unchanged_by_unrolling() {
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let mut unrolled = cdfg.clone();
        hls_opt::run_pass(&mut unrolled, hls_opt::PassKind::Unroll);
        hls_opt::optimize(&mut unrolled);
        let inp = BTreeMap::from([("X".to_string(), fx(0.42))]);
        assert_eq!(
            interpret(&cdfg, &inp).unwrap().outputs["Y"],
            interpret(&unrolled, &inp).unwrap().outputs["Y"],
        );
    }

    #[test]
    fn gcd_by_subtraction() {
        let cdfg = hls_lang::compile(hls_workloads::sources::GCD).unwrap();
        for (a, b, g) in [(12, 18, 6), (35, 14, 7), (9, 9, 9), (17, 5, 1)] {
            let r = interpret(
                &cdfg,
                &BTreeMap::from([
                    ("A".to_string(), Fx::from_i64(a)),
                    ("B".to_string(), Fx::from_i64(b)),
                ]),
            )
            .unwrap();
            assert_eq!(r.outputs["G"], Fx::from_i64(g), "gcd({a},{b})");
        }
    }

    #[test]
    fn diffeq_integrates() {
        let cdfg = hls_lang::compile(hls_workloads::sources::DIFFEQ).unwrap();
        let r = interpret(
            &cdfg,
            &BTreeMap::from([
                ("X0".to_string(), fx(0.0)),
                ("Y0".to_string(), fx(1.0)),
                ("U0".to_string(), fx(0.0)),
                ("DX".to_string(), fx(0.125)),
                ("A".to_string(), fx(1.0)),
            ]),
        )
        .unwrap();
        assert!(r.outputs["XN"].to_f64() >= 1.0, "integrated past the bound");
    }

    #[test]
    fn sumsq_uses_memory_correctly() {
        let cdfg = hls_lang::compile(hls_workloads::sources::SUMSQ).unwrap();
        for n in [0i64, 1, 3, 5, 15] {
            let r =
                interpret(&cdfg, &BTreeMap::from([("N".to_string(), Fx::from_i64(n))])).unwrap();
            let expected: i64 = (0..n).map(|i| i * i).sum();
            assert_eq!(r.outputs["S"], Fx::from_i64(expected), "N = {n}");
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        assert!(matches!(
            interpret(&cdfg, &BTreeMap::new()),
            Err(SimError::MissingInput { .. })
        ));
    }

    #[test]
    fn division_by_zero_reported() {
        let cdfg =
            hls_lang::compile("program t; input a; output y; begin y := 1 / a; end").unwrap();
        assert!(matches!(
            interpret(&cdfg, &BTreeMap::from([("a".to_string(), Fx::ZERO)])),
            Err(SimError::DivideByZero)
        ));
    }

    #[test]
    fn nonterminating_loop_detected() {
        let cdfg = hls_lang::compile(
            "program t; input x; output y; var d : bit; begin
               y := x;
               do y := y + 0; d := y < 0; until d = 1;
             end",
        )
        .unwrap();
        assert!(matches!(
            interpret(&cdfg, &BTreeMap::from([("x".to_string(), Fx::ONE)])),
            Err(SimError::Nonterminating)
        ));
    }

    #[test]
    fn eval_op_covers_logic_and_mux() {
        assert_eq!(
            eval_op(OpKind::Mux, &[Fx::ONE, fx(2.0), fx(3.0)]).unwrap(),
            fx(2.0)
        );
        assert_eq!(
            eval_op(OpKind::Mux, &[Fx::ZERO, fx(2.0), fx(3.0)]).unwrap(),
            fx(3.0)
        );
        assert_eq!(
            eval_op(OpKind::Xor, &[Fx::from_raw(0b1100), Fx::from_raw(0b1010)]).unwrap(),
            Fx::from_raw(0b0110)
        );
    }
}
