//! hls-fuzz: differential fuzzing for the whole synthesis flow.
//!
//! Each iteration generates a random program (see [`gen`]), pushes it
//! through the full pipeline under a matrix of scheduler × FU-count ×
//! binding-strategy combinations, and checks cross-cutting oracles that
//! must hold for *any* correct implementation:
//!
//! 1. **No panics** — the pipeline returns `Result`, it never unwinds.
//! 2. **Co-simulation equivalence** — the RTL model matches the
//!    behavioral interpreter on random input vectors.
//! 3. **Schedule bounds** — every scheduled op sits between its
//!    unconstrained ASAP level and its ALAP level for the schedule's own
//!    length.
//! 4. **Schedule validity** — precedence and resource feasibility via
//!    [`hls_sched::Schedule::validate`].
//! 5. **Verilog well-formedness** — emission produces a balanced
//!    module/endmodule skeleton mentioning the design.
//! 6. **Deadlock-verdict agreement** (`proc-any` mode) — the static
//!    deadlock analysis must agree with the co-simulated truth: never a
//!    false "deadlock-free", and a predicted deadlock must occur with
//!    the predicted blocked set.
//!
//! Failures carry the exact combo that failed, so the minimizer
//! ([`minimize`]) can pin it and shrink the generator configuration.

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod qor;

use std::panic::{catch_unwind, AssertUnwindSafe};

use hls_alloc::{CliqueMethod, FuStrategy};
use hls_core::Synthesizer;
use hls_sched::{Algorithm, ResourceLimits, SchedGraph, ScheduleError};

use corpus::Case;

/// One point of the pipeline matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Combo {
    /// Scheduler spec, e.g. `list/path` or `force/2`.
    pub scheduler: String,
    /// Universal-FU count.
    pub fus: usize,
    /// Binding-strategy spec, e.g. `aware` or `clique-tseng`.
    pub strategy: String,
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × {} fu × {}",
            self.scheduler, self.fus, self.strategy
        )
    }
}

/// Which oracle a violation tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The pipeline panicked.
    Panic,
    /// The pipeline returned an unexpected error.
    PipelineError,
    /// Behavioral and RTL simulation disagreed.
    CosimMismatch,
    /// An op was scheduled outside its `[asap, alap]` window.
    BoundsViolated,
    /// `Schedule::validate` rejected the produced schedule.
    InvalidSchedule,
    /// Emitted Verilog failed the well-formedness checks.
    BadVerilog,
    /// The static deadlock analysis disagreed with the co-simulated
    /// truth: a false "deadlock-free", a predicted deadlock that never
    /// happens, or a wrong blocked set. (A conservative `Unknown` is not
    /// a violation.)
    VerdictMismatch,
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Oracle::Panic => "panic",
            Oracle::PipelineError => "pipeline-error",
            Oracle::CosimMismatch => "cosim-mismatch",
            Oracle::BoundsViolated => "bounds-violated",
            Oracle::InvalidSchedule => "invalid-schedule",
            Oracle::BadVerilog => "bad-verilog",
            Oracle::VerdictMismatch => "verdict-mismatch",
        })
    }
}

/// One oracle violation, tagged with the combo that produced it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: Oracle,
    /// The pipeline configuration that failed.
    pub combo: Combo,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] under {}: {}", self.oracle, self.combo, self.detail)
    }
}

/// Branch-and-bound's node budget under the fuzzer: small enough that
/// the exact search stays cheap on 20-op programs. Running out of it is
/// an accepted outcome (`SearchBudgetExhausted`).
const BB_NODE_BUDGET: u64 = 20_000;

/// The scheduler a spec names (see [`Algorithm::parse`]), with
/// branch-and-bound held to the fuzzer's [`BB_NODE_BUDGET`].
fn scheduler(spec: &str) -> Option<Algorithm> {
    match Algorithm::parse(spec).ok()? {
        Algorithm::BranchAndBound { .. } => Some(Algorithm::BranchAndBound {
            node_budget: BB_NODE_BUDGET,
        }),
        a => Some(a),
    }
}

/// Parses a binding-strategy spec.
pub fn parse_strategy(spec: &str) -> Option<FuStrategy> {
    match spec {
        "aware" => Some(FuStrategy::GreedyAware),
        "blind" => Some(FuStrategy::GreedyBlind),
        "clique-exact" => Some(FuStrategy::Clique(CliqueMethod::ExactMaxClique)),
        "clique-tseng" => Some(FuStrategy::Clique(CliqueMethod::Tseng)),
        _ => None,
    }
}

/// The scheduler sweep when a case does not pin one: every
/// [`Algorithm`]. Force-directed runs twice because zero slack
/// (deadline = critical path) and positive slack stress different window
/// arithmetic. Hierarchical force runs with a tiny window so random
/// graphs exercise multiple seams per block.
pub const SCHEDULERS: &[&str] = &[
    "asap",
    "alap/0",
    "list/path",
    "list/urgency",
    "force/0",
    "force/2",
    "hforce/2/4",
    "freedom/1",
    "bb",
    "transform",
];

/// The FU-count sweep when a case does not pin one.
pub const FU_COUNTS: &[usize] = &[1, 2];

/// All binding strategies; the sweep rotates through them per combo so
/// every iteration still covers each strategy without quadrupling runs.
pub const STRATEGIES: &[&str] = &["aware", "blind", "clique-exact", "clique-tseng"];

/// The combos a case runs: the pinned singleton, or the sweep.
pub fn combos_for(case: &Case) -> Vec<Combo> {
    if let (Some(s), Some(f), Some(st)) = (&case.scheduler, case.fus, &case.strategy) {
        return vec![Combo {
            scheduler: s.clone(),
            fus: f,
            strategy: st.clone(),
        }];
    }
    let scheds: Vec<String> = match &case.scheduler {
        Some(s) => vec![s.clone()],
        None => SCHEDULERS.iter().map(|s| s.to_string()).collect(),
    };
    let fus: Vec<usize> = match case.fus {
        Some(f) => vec![f],
        None => FU_COUNTS.to_vec(),
    };
    let mut out = Vec::new();
    for (i, sched) in scheds.iter().enumerate() {
        for (j, &f) in fus.iter().enumerate() {
            let strategy = match &case.strategy {
                Some(st) => st.clone(),
                // Deterministic rotation keyed on seed and combo index.
                None => STRATEGIES[(case.seed as usize + i * fus.len() + j) % STRATEGIES.len()]
                    .to_string(),
            };
            out.push(Combo {
                scheduler: sched.clone(),
                fus: f,
                strategy,
            });
        }
    }
    out
}

/// Input vectors per co-simulation check. Small: the matrix already
/// multiplies work per iteration.
const COSIM_VECTORS: usize = 3;

/// Runs every oracle for `case` and returns all violations found.
///
/// Generation failures are reported as a single pseudo-violation rather
/// than an `Err`, so the fuzz loop treats them uniformly.
pub fn run_case(case: &Case) -> Vec<Violation> {
    match case.mode {
        corpus::Mode::Proc => return run_proc_case(case),
        corpus::Mode::ProcAny => return run_proc_any_case(case),
        corpus::Mode::Dfg | corpus::Mode::Bsl => {}
    }
    let cdfg = match gen::generate(case) {
        Ok(c) => c,
        Err(e) => {
            return vec![Violation {
                oracle: Oracle::PipelineError,
                combo: Combo {
                    scheduler: "-".to_string(),
                    fus: 0,
                    strategy: "-".to_string(),
                },
                detail: format!("generator: {e}"),
            }]
        }
    };
    let mut violations = Vec::new();
    for combo in combos_for(case) {
        if let Some(v) = run_combo(&cdfg, &combo) {
            violations.push(v);
        }
    }
    violations
}

/// Runs one pipeline combo and checks every oracle; returns the first
/// violation for this combo, if any.
fn run_combo(cdfg: &hls_cdfg::Cdfg, combo: &Combo) -> Option<Violation> {
    let fail = |oracle, detail| {
        Some(Violation {
            oracle,
            combo: combo.clone(),
            detail,
        })
    };
    let Some(algorithm) = scheduler(&combo.scheduler) else {
        return fail(
            Oracle::PipelineError,
            format!("unknown scheduler spec {:?}", combo.scheduler),
        );
    };
    let Some(strategy) = parse_strategy(&combo.strategy) else {
        return fail(
            Oracle::PipelineError,
            format!("unknown strategy spec {:?}", combo.strategy),
        );
    };
    let synth = Synthesizer::new()
        .universal_fus(combo.fus)
        .algorithm(algorithm)
        .fu_strategy(strategy);
    // Oracle 1: the pipeline must not unwind. The fuzz driver installs a
    // silent panic hook; here we only convert the unwind into evidence.
    let outcome = catch_unwind(AssertUnwindSafe(|| synth.synthesize(cdfg.clone())));
    let result = match outcome {
        Err(payload) => return fail(Oracle::Panic, panic_message(&payload)),
        Ok(Err(e)) if acceptable_error(&e) => return None,
        Ok(Err(e)) => return fail(Oracle::PipelineError, e.to_string()),
        Ok(Ok(r)) => r,
    };

    // Oracle 2: behavioral vs RTL equivalence on random vectors.
    match result.verify(COSIM_VECTORS, (1.0, 8.0)) {
        Err(e) => return fail(Oracle::CosimMismatch, format!("co-sim failed to run: {e}")),
        Ok(eq) if !eq.equivalent => {
            return fail(Oracle::CosimMismatch, format!("{:?}", eq.mismatch));
        }
        Ok(_) => {}
    }

    // Oracles 3 + 4, per block: bounds and validity.
    let time_constrained = matches!(
        algorithm,
        Algorithm::ForceDirected { .. }
            | Algorithm::HierForce { .. }
            | Algorithm::FreedomBased { .. }
    );
    let limits = if time_constrained {
        ResourceLimits::unlimited()
    } else {
        ResourceLimits::universal(combo.fus)
    };
    if let Some((oracle, detail)) = schedule_oracles(&result, &limits) {
        return fail(oracle, detail);
    }

    // Oracle 5: Verilog emission skeleton.
    let verilog = result.to_verilog();
    let modules = verilog.matches("module ").count() - verilog.matches("endmodule").count();
    if !verilog.contains("module fuzz") || modules != 0 {
        return fail(
            Oracle::BadVerilog,
            format!(
                "module fuzz: {}, module/endmodule delta: {modules}",
                verilog.contains("module fuzz")
            ),
        );
    }
    None
}

/// Oracles 3 + 4 for one synthesized behavior: every block scheduled,
/// every schedule valid under `limits`, every op inside its
/// unconstrained `[asap, alap]` window.
fn schedule_oracles(
    result: &hls_core::SynthesisResult,
    limits: &ResourceLimits,
) -> Option<(Oracle, String)> {
    for block in result.cdfg.block_order() {
        let dfg = &result.cdfg.block(block).dfg;
        let Some(sched) = result.schedule.block(block) else {
            return Some((Oracle::InvalidSchedule, format!("{block:?} unscheduled")));
        };
        if let Err(e) = sched.validate(dfg, &result.classifier, limits) {
            return Some((Oracle::InvalidSchedule, format!("{block:?}: {e}")));
        }
        let sg = match SchedGraph::build(dfg, &result.classifier) {
            Ok(sg) => sg,
            Err(e) => return Some((Oracle::BoundsViolated, format!("bounds: {e}"))),
        };
        let (asap, _) = sg.asap();
        let alap = sg.alap(sched.num_steps());
        for (op, step) in sched.iter() {
            let Some(i) = sg.graph().index_of(op) else {
                continue;
            };
            let (lo, hi) = (asap[i], alap[i]);
            if step < lo {
                return Some((
                    Oracle::BoundsViolated,
                    format!("{block:?} {op:?}: step {step} < asap {lo}"),
                ));
            }
            if step > hi {
                return Some((
                    Oracle::BoundsViolated,
                    format!("{block:?} {op:?}: step {step} > alap {hi}"),
                ));
            }
        }
    }
    None
}

/// Runs every oracle for a multi-process (`proc` mode) case.
fn run_proc_case(case: &Case) -> Vec<Violation> {
    let src = gen::generate_proc_bsl(case);
    let mut violations = Vec::new();
    for combo in combos_for(case) {
        if let Some(v) = run_proc_combo(&src, &combo) {
            violations.push(v);
        }
    }
    violations
}

/// Runs every oracle for an unrestricted multi-process (`proc-any` mode)
/// case: the verdict cross-check once (the static analysis is a function
/// of the behavior, not the pipeline configuration), then the usual five
/// oracles per combo.
fn run_proc_any_case(case: &Case) -> Vec<Violation> {
    let src = gen::generate_proc_any_bsl(case);
    let mut violations = Vec::new();
    if let Some(v) = verdict_cross_check(&src, case.seed) {
        violations.push(v);
    }
    for combo in combos_for(case) {
        if let Some(v) = run_proc_combo(&src, &combo) {
            violations.push(v);
        }
    }
    violations
}

/// Cross-checks the static deadlock verdict against the behavioral
/// golden model on a seeded input vector. `Free` must never co-exist
/// with an observed deadlock (soundness); a predicted `Deadlock` must
/// actually happen *with the predicted blocked set* (straight-line
/// generated processes have input-independent sync traces, so the
/// prediction is exact, not merely possible); `Unknown` is the analysis
/// declining conservatively — counted by the battery tests, never a
/// violation here.
pub fn verdict_cross_check(src: &str, seed: u64) -> Option<Violation> {
    use hls_core::DeadlockVerdict;
    let combo = Combo {
        scheduler: "-".to_string(),
        fus: 0,
        strategy: "-".to_string(),
    };
    let fail = |oracle, detail: String| {
        Some(Violation {
            oracle,
            combo: combo.clone(),
            detail,
        })
    };
    let sys = match hls_lang::compile_system(src) {
        Ok(s) => s,
        Err(e) => return fail(Oracle::PipelineError, format!("front end: {e}\n{src}")),
    };
    let verdict = hls_core::analyze_deadlock(&sys);
    let mut rng = hls_testkit::SplitMix64::new(seed ^ 0xD1_B0C4);
    let inputs: std::collections::BTreeMap<String, hls_cdfg::Fx> = sys
        .inputs
        .iter()
        .map(|(n, _)| {
            (
                n.clone(),
                hls_cdfg::Fx::from_i64(i64::from(rng.u32_in(1, 8))),
            )
        })
        .collect();
    let behav = hls_sim::interpret_system(&sys, &inputs);
    match (&verdict, &behav) {
        (DeadlockVerdict::Free, Err(hls_sim::SimError::Deadlock { blocked })) => fail(
            Oracle::VerdictMismatch,
            format!("analysis says deadlock-free but simulation blocks on {blocked:?}\n{src}"),
        ),
        (DeadlockVerdict::Deadlock { blocked, .. }, Ok(_)) => fail(
            Oracle::VerdictMismatch,
            format!("analysis predicts deadlock on {blocked:?} but simulation completes\n{src}"),
        ),
        (
            DeadlockVerdict::Deadlock { blocked, .. },
            Err(hls_sim::SimError::Deadlock { blocked: seen }),
        ) if blocked != seen => fail(
            Oracle::VerdictMismatch,
            format!("predicted blocked set {blocked:?} but simulation blocks on {seen:?}\n{src}"),
        ),
        _ => None,
    }
}

/// One pipeline combo over a whole system: the same five oracles, with
/// co-simulation running the lockstep multi-process models and the
/// schedule oracles applied to every process FSMD.
fn run_proc_combo(src: &str, combo: &Combo) -> Option<Violation> {
    let fail = |oracle, detail| {
        Some(Violation {
            oracle,
            combo: combo.clone(),
            detail,
        })
    };
    let Some(algorithm) = scheduler(&combo.scheduler) else {
        return fail(
            Oracle::PipelineError,
            format!("unknown scheduler spec {:?}", combo.scheduler),
        );
    };
    let Some(strategy) = parse_strategy(&combo.strategy) else {
        return fail(
            Oracle::PipelineError,
            format!("unknown strategy spec {:?}", combo.strategy),
        );
    };
    let synth = Synthesizer::new()
        .universal_fus(combo.fus)
        .algorithm(algorithm)
        .fu_strategy(strategy);
    // Oracle 1: no unwinding.
    let outcome = catch_unwind(AssertUnwindSafe(|| synth.synthesize_system_source(src)));
    let sys = match outcome {
        Err(payload) => return fail(Oracle::Panic, panic_message(&payload)),
        Ok(Err(e)) if acceptable_error(&e) => return None,
        Ok(Err(e)) => return fail(Oracle::PipelineError, format!("{e}\n{src}")),
        Ok(Ok(s)) => s,
    };

    // Oracle 2: lockstep behavioral/RTL co-simulation.
    match sys.verify(COSIM_VECTORS, (1.0, 8.0), 0xF0_55ED) {
        Err(e) => return fail(Oracle::CosimMismatch, format!("co-sim failed to run: {e}")),
        Ok(eq) if !eq.equivalent => {
            return fail(Oracle::CosimMismatch, format!("{:?}\n{src}", eq.mismatch));
        }
        Ok(_) => {}
    }

    // Oracles 3 + 4 per process FSMD.
    let time_constrained = matches!(
        algorithm,
        Algorithm::ForceDirected { .. }
            | Algorithm::HierForce { .. }
            | Algorithm::FreedomBased { .. }
    );
    let limits = if time_constrained {
        ResourceLimits::unlimited()
    } else {
        ResourceLimits::universal(combo.fus)
    };
    for p in &sys.processes {
        if let Some((oracle, detail)) = schedule_oracles(&p.result, &limits) {
            return fail(oracle, format!("process `{}`: {detail}", p.name));
        }
    }

    // Oracle 5: elaborated system Verilog skeleton.
    let verilog = sys.to_verilog();
    let modules = verilog.matches("module ").count() - verilog.matches("endmodule").count();
    if !verilog.contains("module fuzz") || modules != 0 {
        return fail(
            Oracle::BadVerilog,
            format!(
                "module fuzz: {}, module/endmodule delta: {modules}",
                verilog.contains("module fuzz")
            ),
        );
    }
    None
}

/// Errors that are legitimate outcomes rather than bugs: a
/// resource-infeasible instance exhausting a bounded search is the
/// scheduler *reporting* a limit, not violating one.
fn acceptable_error(e: &hls_core::SynthesisError) -> bool {
    matches!(
        e,
        hls_core::SynthesisError::Schedule(ScheduleError::SearchBudgetExhausted)
    )
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs a no-op panic hook for the duration of a fuzz run so caught
/// panics do not spam stderr; returns a guard restoring the previous
/// hook on drop.
pub fn quiet_panics() -> impl Drop {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            let _ = std::panic::take_hook();
        }
    }
    std::panic::set_hook(Box::new(|_| {}));
    Restore
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::Mode;

    /// Every sweep spec parses, and `bb` runs at the fuzzer's budget, not
    /// the parser's default.
    #[test]
    fn scheduler_specs_parse() {
        for spec in SCHEDULERS {
            assert!(scheduler(spec).is_some(), "{spec}");
        }
        assert!(scheduler("bogus").is_none());
        assert!(scheduler("bb/5").is_none(), "the budget is fixed");
        assert_eq!(
            scheduler("bb"),
            Some(Algorithm::BranchAndBound {
                node_budget: BB_NODE_BUDGET
            })
        );
        assert_eq!(scheduler("transform"), Some(Algorithm::Transformational));
    }

    #[test]
    fn strategy_specs_parse() {
        for spec in STRATEGIES {
            assert!(parse_strategy(spec).is_some(), "{spec}");
        }
        assert!(parse_strategy("bogus").is_none());
    }

    #[test]
    fn proc_case_passes_all_oracles_when_pinned() {
        let mut case = Case::new(Mode::Proc, 3, 6, 2, 3);
        case.scheduler = Some("list/path".to_string());
        case.fus = Some(2);
        case.strategy = Some("aware".to_string());
        let violations = run_case(&case);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn pinned_case_runs_one_combo() {
        let mut case = Case::new(Mode::Dfg, 1, 4, 2, 3);
        case.scheduler = Some("asap".to_string());
        case.fus = Some(1);
        case.strategy = Some("aware".to_string());
        assert_eq!(combos_for(&case).len(), 1);
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let case = Case::new(Mode::Dfg, 1, 4, 2, 3);
        let combos = combos_for(&case);
        assert_eq!(combos.len(), SCHEDULERS.len() * FU_COUNTS.len());
    }
}
