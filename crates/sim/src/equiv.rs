//! Behavioral/RTL equivalence checking — the §4 "design verification"
//! instrument: "the proof that a detailed design implements the exact
//! design stated in the specification", here by co-execution.

use std::collections::BTreeMap;

use hls_alloc::Datapath;
use hls_cdfg::{Cdfg, Fx};
use hls_sched::CdfgSchedule;

use crate::behav::interpret;
use crate::rtl::simulate;
use crate::SimError;

/// The verdict of one equivalence run.
#[derive(Clone, Debug, PartialEq)]
pub struct Equivalence {
    /// `true` when every output matched on every vector.
    pub equivalent: bool,
    /// Vectors checked.
    pub vectors: usize,
    /// First mismatch, if any: `(input set, output name, behavioral,
    /// rtl)`.
    pub mismatch: Option<(BTreeMap<String, Fx>, String, Fx, Fx)>,
    /// Total RTL cycles across all vectors.
    pub total_cycles: u64,
}

/// Checks one input vector.
///
/// # Errors
///
/// Propagates simulation errors from either model (a divide-by-zero is an
/// error, not a mismatch).
pub fn check_vector(
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    datapath: &Datapath,
    inputs: &BTreeMap<String, Fx>,
) -> Result<Equivalence, SimError> {
    let golden = interpret(cdfg, inputs)?;
    let rtl = simulate(cdfg, schedule, datapath, inputs, false)?;
    for (name, &expected) in &golden.outputs {
        let got = rtl.outputs.get(name).copied().unwrap_or(Fx::ZERO);
        if got != expected {
            return Ok(Equivalence {
                equivalent: false,
                vectors: 1,
                mismatch: Some((inputs.clone(), name.clone(), expected, got)),
                total_cycles: rtl.cycles,
            });
        }
    }
    Ok(Equivalence {
        equivalent: true,
        vectors: 1,
        mismatch: None,
        total_cycles: rtl.cycles,
    })
}

/// Checks `n` seeded pseudo-random vectors (inputs drawn from
/// `range_lo..range_hi` in fixed point). Vectors that hit arithmetic
/// errors in the *golden* model (e.g. divide by zero) are skipped — both
/// models would trap identically.
///
/// # Errors
///
/// Propagates RTL-side errors (the golden model accepted the vector but
/// the structure failed) and reports the first output mismatch via the
/// returned [`Equivalence`].
pub fn check_random_vectors(
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    datapath: &Datapath,
    n: usize,
    range: (f64, f64),
    seed: u64,
) -> Result<Equivalence, SimError> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let u = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (u >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut checked = 0;
    let mut cycles = 0;
    for _ in 0..n {
        let inputs: BTreeMap<String, Fx> = cdfg
            .inputs()
            .iter()
            .map(|(name, _)| {
                let x = range.0 + (range.1 - range.0) * next();
                (name.clone(), Fx::from_f64(x))
            })
            .collect();
        match interpret(cdfg, &inputs) {
            Err(SimError::DivideByZero) | Err(SimError::Nonterminating) => continue,
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        let eq = check_vector(cdfg, schedule, datapath, &inputs)?;
        cycles += eq.total_cycles;
        checked += 1;
        if !eq.equivalent {
            return Ok(Equivalence {
                vectors: checked,
                total_cycles: cycles,
                ..eq
            });
        }
    }
    Ok(Equivalence {
        equivalent: true,
        vectors: checked,
        mismatch: None,
        total_cycles: cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_alloc::{build_datapath, CliqueMethod, FuStrategy};
    use hls_rtl::Library;
    use hls_sched::{schedule_cdfg, Algorithm, OpClassifier, Priority, ResourceLimits};

    fn full_flow(
        src: &str,
        strategy: FuStrategy,
        algorithm: Algorithm,
        fus: usize,
    ) -> (Cdfg, CdfgSchedule, Datapath) {
        let mut cdfg = hls_lang::compile(src).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(fus);
        let sched = schedule_cdfg(&cdfg, &cls, &limits, algorithm).unwrap();
        let dp = build_datapath(&cdfg, &sched, &cls, &Library::standard(), strategy).unwrap();
        (cdfg, sched, dp)
    }

    #[test]
    fn sqrt_equivalent_across_strategies_and_schedulers() {
        for strategy in [
            FuStrategy::GreedyAware,
            FuStrategy::GreedyBlind,
            FuStrategy::Clique(CliqueMethod::ExactMaxClique),
        ] {
            for alg in [
                Algorithm::Asap,
                Algorithm::List(Priority::PathLength),
                Algorithm::Transformational,
            ] {
                let (cdfg, sched, dp) = full_flow(hls_workloads::sources::SQRT, strategy, alg, 2);
                let eq = check_random_vectors(&cdfg, &sched, &dp, 10, (0.1, 1.0), 42).unwrap();
                assert!(eq.equivalent, "{strategy:?}/{alg:?}: {:?}", eq.mismatch);
                assert_eq!(eq.vectors, 10);
            }
        }
    }

    #[test]
    fn gcd_equivalent_with_branches() {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::GCD).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(1);
        let sched =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let dp = build_datapath(
            &cdfg,
            &sched,
            &cls,
            &Library::standard(),
            FuStrategy::GreedyAware,
        )
        .unwrap();
        for (a, b) in [(48, 36), (7, 13), (100, 75), (5, 5)] {
            let inputs = BTreeMap::from([
                ("A".to_string(), Fx::from_i64(a)),
                ("B".to_string(), Fx::from_i64(b)),
            ]);
            let eq = check_vector(&cdfg, &sched, &dp, &inputs).unwrap();
            assert!(eq.equivalent, "gcd({a},{b}): {:?}", eq.mismatch);
        }
    }

    #[test]
    fn fir4_equivalent() {
        let (cdfg, sched, dp) = full_flow(
            hls_workloads::sources::FIR4,
            FuStrategy::GreedyAware,
            Algorithm::List(Priority::PathLength),
            2,
        );
        let eq = check_random_vectors(&cdfg, &sched, &dp, 16, (-2.0, 2.0), 7).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }

    #[test]
    fn sumsq_equivalent_with_memory() {
        use hls_sched::FuClass;
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SUMSQ).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::typed();
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Alu, 1)
            .with(FuClass::Multiplier, 1)
            .with(FuClass::MemPort, 1)
            .with(FuClass::Comparator, 1);
        let sched =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let dp = build_datapath(
            &cdfg,
            &sched,
            &cls,
            &Library::standard(),
            FuStrategy::GreedyAware,
        )
        .unwrap();
        assert!(dp.vars.memories().contains(&"A".to_string()));
        for n in [0i64, 2, 7, 15] {
            let inputs = BTreeMap::from([("N".to_string(), Fx::from_i64(n))]);
            let eq = check_vector(&cdfg, &sched, &dp, &inputs).unwrap();
            assert!(eq.equivalent, "N={n}: {:?}", eq.mismatch);
        }
    }

    #[test]
    fn diffeq_equivalent() {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::DIFFEQ).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(3);
        let sched =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let dp = build_datapath(
            &cdfg,
            &sched,
            &cls,
            &Library::standard(),
            FuStrategy::GreedyAware,
        )
        .unwrap();
        let inputs = BTreeMap::from([
            ("X0".to_string(), Fx::from_f64(0.0)),
            ("Y0".to_string(), Fx::from_f64(1.0)),
            ("U0".to_string(), Fx::from_f64(0.0)),
            ("DX".to_string(), Fx::from_f64(0.25)),
            ("A".to_string(), Fx::from_f64(1.0)),
        ]);
        let eq = check_vector(&cdfg, &sched, &dp, &inputs).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }
}
