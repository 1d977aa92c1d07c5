//! The perf-gate benchmark suite, as data.
//!
//! `perf_gate` (the CI regression gate) used to build its suite inline,
//! which let a wart hide for a whole PR cycle: the `force/synth-2048`
//! entry timed *two* scheduler calls per iteration, so its recorded
//! nanoseconds were double the real cost. The suite now lives here as a
//! list of [`SuiteEntry`] values whose closures return the number of
//! timed invocations they performed, and a unit test holds every entry
//! to exactly one — the gate numbers mean "one call costs this much" by
//! construction.
//!
//! The suite is parameterized by [`SuiteSizes`] so the same constructor
//! serves two masters: [`gate_sizes`] (the CI workloads, up to the
//! 65536-op hierarchical-scheduler tier) and [`smoke_sizes`] (tiny
//! graphs the debug-mode unit test can afford). Two tiers also carry
//! asymptotic claims, which [`check_scaling`] enforces over the 4×-ops
//! step between their two sizes (see [`scaling_checks`]): the
//! hierarchical scheduler (`sched/hforce`, at most
//! [`MAX_HFORCE_SCALING_RATIO`]×, where the flat scheduler's quadratic
//! behavior would cost ≥16×) and the microcode field encoder
//! (`ctrl/microcode`, at most [`MAX_MICROCODE_SCALING_RATIO`]×, where
//! the all-pairs conflict graph it replaced cost about 15×).
//!
//! The hardwired control tier (`ctrl/hardwired/synth-*`) times hardwired
//! control logic alone. It has no scaling check: exact two-level
//! minimization enumerates every implicant of each function, so its cost
//! grows superlinearly (about 7× per 4× ops here), and only the relative
//! gate holds it.

use std::collections::BTreeMap;

use hls_alloc::{
    clique_allocation, max_live, partition_max_clique, partition_tseng, value_intervals,
    CliqueMethod, CompatGraph,
};
use hls_cdfg::{Cdfg, Region};
use hls_core::{pareto_front, ControlStyle, Estimator, Explorer, GridSpec, Synthesizer};
use hls_ctrl::{hardwired_logic, microcode, EncodingStyle, Fsm};
use hls_sched::{
    force_directed_schedule, freedom_based_schedule, hier_force_schedule, list_schedule, Algorithm,
    FuClass, OpClassifier, Priority, ResourceLimits, SchedGraph, DEFAULT_WINDOW,
};
use hls_workloads::random::{random_dag, RandomDagConfig};

use crate::gate::{GateReport, DEFAULT_THRESHOLD_PCT};
use crate::harness::bench;

/// Slack beyond the critical path for the time-constrained synthetic
/// entries (matches the historical gate workloads).
const SYNTH_SLACK: u32 = 8;

/// Gate ceiling for `t(hforce, 4n) / t(hforce, n)`: comfortably above
/// the ~4× a linear-ish scheduler costs (plus pool/cache noise), far
/// below the 16× a quadratic one would take. See [`check_scaling`].
pub const MAX_HFORCE_SCALING_RATIO: f64 = 10.0;

/// Gate ceiling for `t(microcode, 4n) / t(microcode, n)`. The used-field
/// encoder grows with (signal, state) incidences times the field count,
/// about 4–5× per 4× ops; the all-pairs conflict graph it replaced grows
/// with the square of each state's signal count, about 15×.
pub const MAX_MICROCODE_SCALING_RATIO: f64 = 8.0;

/// Workload sizes the suite constructor scales by.
#[derive(Clone, Debug)]
pub struct SuiteSizes {
    /// Ops in the small synthetic DAG (flat force + freedom entries).
    pub force_small: usize,
    /// Ops in the large synthetic DAG (flat force, list, lifetime entries).
    pub force_large: usize,
    /// Ops of the two hierarchical-force tier entries (small, large).
    pub hforce: [usize; 2],
    /// Vertices in the random FU-compatibility graph.
    pub clique_n: usize,
    /// Ops in the clique-FU allocation DAG.
    pub alloc_fu: usize,
    /// Ops in the pruned-vs-exhaustive exploration DAG.
    pub explore_ops: usize,
    /// Ops per hardwired-control tier entry.
    pub ctrl: Vec<usize>,
    /// Ops of the two microcode tier entries (small, large).
    pub microcode: [usize; 2],
}

/// The CI gate workloads (the sizes behind `BENCH_5.json`).
pub fn gate_sizes() -> SuiteSizes {
    SuiteSizes {
        force_small: 512,
        force_large: 2048,
        hforce: [16384, 65536],
        clique_n: 64,
        alloc_fu: 192,
        explore_ops: 256,
        ctrl: vec![512, 2048],
        microcode: [2048, 8192],
    }
}

/// Miniature workloads: the same suite shape at sizes a debug-mode unit
/// test can run in well under a second.
pub fn smoke_sizes() -> SuiteSizes {
    SuiteSizes {
        force_small: 24,
        force_large: 48,
        hforce: [64, 96],
        clique_n: 12,
        alloc_fu: 16,
        explore_ops: 16,
        ctrl: vec![16, 32],
        microcode: [16, 64],
    }
}

/// One gate benchmark: a name and a closure performing the timed work.
/// The closure returns how many algorithm invocations it made; the gate
/// contract (unit-tested) is exactly one, so recorded nanoseconds are
/// per-call.
pub struct SuiteEntry {
    /// Benchmark label (`group/name/param`).
    pub name: String,
    run: Box<dyn FnMut() -> u64>,
}

impl SuiteEntry {
    fn new(name: impl Into<String>, run: impl FnMut() -> u64 + 'static) -> Self {
        SuiteEntry {
            name: name.into(),
            run: Box::new(run),
        }
    }

    /// Performs one timed iteration; returns the invocation count.
    pub fn run_once(&mut self) -> u64 {
        (self.run)()
    }
}

/// Deterministic pseudo-random compatibility graph (same construction as
/// the `clique` bench target).
fn random_compat_graph(n: usize, density_pct: u64, seed: u64) -> CompatGraph {
    let mut g = CompatGraph::new(n);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in 0..n {
        for j in i + 1..n {
            if next() % 100 < density_pct {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Synthetic scheduling workload with a bit more width than the default
/// config, so time-constrained schedulers see non-trivial mobility.
fn synth_dag(ops: usize) -> hls_cdfg::DataFlowGraph {
    random_dag(&RandomDagConfig {
        ops,
        inputs: 16,
        window: 24,
        ..Default::default()
    })
}

/// Wraps a flat DAG as a one-block behavior for the exploration tiers.
fn single_block_cdfg(dfg: hls_cdfg::DataFlowGraph) -> Cdfg {
    let mut cdfg = Cdfg::new("bench");
    let b = cdfg.add_block("body", dfg);
    cdfg.set_body(Region::Block(b));
    cdfg
}

/// The controller the default flow builds for the one-block synthetic
/// DAG of `ops` operations (the control tiers' input).
fn default_flow_fsm(ops: usize) -> Fsm {
    Synthesizer::new()
        .synthesize(single_block_cdfg(synth_dag(ops)))
        .expect("synthesizes")
        .fsm
}

/// The design-space grid the estimation tiers sweep: FU counts crossed
/// with a resource- and a dependence-bound scheduler and both control
/// styles, so the estimator sees every code path it prunes in CI.
fn explore_grid() -> GridSpec {
    GridSpec {
        fus: vec![1, 2, 3, 4],
        algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::PathLength)],
        controls: vec![
            ControlStyle::Hardwired(EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    }
}

/// Builds the full suite at the given sizes. Workload construction
/// (graph generation, critical paths) happens here, outside any timed
/// region.
pub fn build_suite(sizes: &SuiteSizes) -> Vec<SuiteEntry> {
    let typed = OpClassifier::typed();
    let mut entries = Vec::new();

    // Paper workloads.
    let diffeq = hls_workloads::benchmarks::diffeq();
    let cls = typed;
    entries.push(SuiteEntry::new("sched/force/diffeq", move || {
        force_directed_schedule(&diffeq, &cls, 4).expect("schedules");
        1
    }));
    let ewf = hls_workloads::benchmarks::ewf();
    let (_, ewf_cp) = SchedGraph::build(&ewf, &typed).expect("acyclic").asap();
    let cls = typed;
    entries.push(SuiteEntry::new("sched/force/ewf", move || {
        force_directed_schedule(&ewf, &cls, ewf_cp + 2).expect("schedules");
        1
    }));

    // Synthetic DAGs, flat schedulers.
    let small = synth_dag(sizes.force_small);
    let (_, cp_small) = SchedGraph::build(&small, &typed).expect("acyclic").asap();
    let large = synth_dag(sizes.force_large);
    let (_, cp_large) = SchedGraph::build(&large, &typed).expect("acyclic").asap();

    let (g, cls) = (small.clone(), typed);
    entries.push(SuiteEntry::new(
        format!("sched/force/synth-{}", sizes.force_small),
        move || {
            force_directed_schedule(&g, &cls, cp_small + SYNTH_SLACK).expect("schedules");
            1
        },
    ));
    let (g, cls) = (large.clone(), typed);
    entries.push(SuiteEntry::new(
        format!("sched/force/synth-{}", sizes.force_large),
        move || {
            force_directed_schedule(&g, &cls, cp_large + SYNTH_SLACK).expect("schedules");
            1
        },
    ));
    let (g, cls) = (small, typed);
    entries.push(SuiteEntry::new(
        format!("sched/freedom/synth-{}", sizes.force_small),
        move || {
            freedom_based_schedule(&g, &cls, cp_small + SYNTH_SLACK).expect("schedules");
            1
        },
    ));
    let list_limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 8)
        .with(FuClass::Multiplier, 4);
    let (g, cls, lim) = (large.clone(), typed, list_limits.clone());
    entries.push(SuiteEntry::new(
        format!("sched/list/synth-{}", sizes.force_large),
        move || {
            list_schedule(&g, &cls, &lim, Priority::PathLength).expect("schedules");
            1
        },
    ));

    // The hierarchical tier: graphs the flat scheduler cannot touch in
    // CI time. One entry per size; the pair carries the scaling check.
    for ops in sizes.hforce {
        let g = synth_dag(ops);
        let (_, cp) = SchedGraph::build(&g, &typed).expect("acyclic").asap();
        let cls = typed;
        entries.push(SuiteEntry::new(
            format!("sched/hforce/synth-{ops}"),
            move || {
                hier_force_schedule(&g, &cls, cp + SYNTH_SLACK, DEFAULT_WINDOW).expect("schedules");
                1
            },
        ));
    }

    // QoR estimation: the pruning pre-pass must stay orders of magnitude
    // cheaper than the pipeline it gates, so it is timed on the *large*
    // DAG. One invocation = Estimator construction plus a full-grid
    // estimate (16 points).
    let est_synth = Synthesizer::new();
    let est_prepared = est_synth
        .prepare(single_block_cdfg(large.clone()))
        .expect("prepares");
    let est_points = explore_grid().expand();
    entries.push(SuiteEntry::new(
        format!("sched/estimate/synth-{}", sizes.force_large),
        move || {
            let est = Estimator::new(&est_synth, &est_prepared);
            std::hint::black_box(est.estimate_points(&est_points));
            1
        },
    ));

    // Pruned exploration end to end: a cold Explorer per iteration (the
    // memo cache must not amortize across samples) runs the estimator
    // pre-pass plus synthesis of the surviving points. The exhaustive
    // front, computed once outside the timed region, doubles as the
    // conservativeness check — a pruned sweep that disagrees fails the
    // gate as a correctness bug, not a slow sample.
    let exp_cdfg = single_block_cdfg(synth_dag(sizes.explore_ops));
    let exp_synth = Synthesizer::new();
    let exp_grid = explore_grid();
    let exhaustive = pareto_front(
        &Explorer::with_threads(2)
            .sweep_grid_cdfg(&exp_synth, &exp_cdfg, &exp_grid)
            .expect("sweeps"),
    );
    entries.push(SuiteEntry::new(
        format!("explore/pruned-vs-exhaustive/synth-{}", sizes.explore_ops),
        move || {
            let sweep = Explorer::with_threads(2)
                .sweep_grid_cdfg_pruned(&exp_synth, &exp_cdfg, &exp_grid)
                .expect("sweeps");
            assert_eq!(
                pareto_front(&sweep.points),
                exhaustive,
                "pruned front diverged from exhaustive"
            );
            1
        },
    ));

    // Hardwired control logic: state encoding plus two-level
    // minimization of every next-state and output function, on the
    // controller the default flow builds for a one-block DAG (256 and
    // 1017 states at the gate sizes, both within exact minimization).
    for &ops in &sizes.ctrl {
        let fsm = default_flow_fsm(ops);
        entries.push(SuiteEntry::new(
            format!("ctrl/hardwired/synth-{ops}"),
            move || {
                std::hint::black_box(
                    hardwired_logic(&fsm, EncodingStyle::Binary).expect("encodes"),
                );
                1
            },
        ));
    }

    // Microcode: one microprogram with its field encoding, on the same
    // default-flow controllers at larger sizes; the pair carries the
    // encoder's scaling check.
    for ops in sizes.microcode {
        let fsm = default_flow_fsm(ops);
        entries.push(SuiteEntry::new(
            format!("ctrl/microcode/synth-{ops}"),
            move || {
                std::hint::black_box(microcode(&fsm));
                1
            },
        ));
    }

    // Allocation.
    let compat = random_compat_graph(sizes.clique_n, 50, 0xC11D);
    let c = compat.clone();
    entries.push(SuiteEntry::new(
        format!("alloc/clique-exact/rand-{}", sizes.clique_n),
        move || {
            partition_max_clique(&c);
            1
        },
    ));
    entries.push(SuiteEntry::new(
        format!("alloc/clique-tseng/rand-{}", sizes.clique_n),
        move || {
            partition_tseng(&compat);
            1
        },
    ));
    let sched_large =
        list_schedule(&large, &typed, &list_limits, Priority::PathLength).expect("schedules");
    entries.push(SuiteEntry::new(
        format!("alloc/lifetime/synth-{}", sizes.force_large),
        move || {
            max_live(&value_intervals(&large, &sched_large));
            1
        },
    ));
    let fu_dag = synth_dag(sizes.alloc_fu);
    let fu_sched =
        list_schedule(&fu_dag, &typed, &list_limits, Priority::PathLength).expect("schedules");
    let cls = typed;
    entries.push(SuiteEntry::new(
        format!("alloc/clique-fu/synth-{}", sizes.alloc_fu),
        move || {
            clique_allocation(&fu_dag, &cls, &fu_sched, CliqueMethod::Tseng);
            1
        },
    ));

    // End to end on the paper's worked example.
    let synth = Synthesizer::new();
    entries.push(SuiteEntry::new("e2e/sqrt", move || {
        synth
            .synthesize_source(hls_workloads::sources::SQRT)
            .expect("synthesizes");
        1
    }));

    entries
}

/// Fixed spin count for the calibration workload: long enough to dominate
/// timer noise, short enough to be irrelevant to total runtime.
const CALIBRATION_SPINS: u64 = 4_000_000;

/// The pure-CPU calibration workload (a SplitMix64-style mixing loop);
/// its wall time tracks single-core speed of the machine running the gate.
fn calibration_spin() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..CALIBRATION_SPINS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= z >> 31;
    }
    x
}

/// Runs the whole suite under the harness and returns the recorded
/// medians.
///
/// The gate records each benchmark's *median* sample, not its minimum.
/// The min looked attractive — background load only ever adds time — but
/// on 1-CPU hosts it is itself a noisy order statistic: with every
/// sample inflated by scheduler interference, min-of-N swings as wildly
/// as any single sample (the seed baseline failed 6 entries at up to
/// 88% over on such a host). The median is a stable estimator of the
/// typical inflated cost, and because the pure-ALU calibration workload
/// is inflated by the same co-tenancy, the calibration rescale in
/// `gate::compare` cancels most of the shift; `HLS_BENCH_TOLERANCE`
/// absorbs the rest.
pub fn run_suite(sizes: &SuiteSizes) -> GateReport {
    let calibration = bench("gate/calibration", calibration_spin)
        .median()
        .as_nanos() as u64;
    let mut benchmarks: BTreeMap<String, u64> = BTreeMap::new();
    for mut entry in build_suite(sizes) {
        let name = entry.name.clone();
        let m = bench(&name, || entry.run_once());
        benchmarks.insert(name, m.median().as_nanos() as u64);
    }
    GateReport {
        threshold_pct: DEFAULT_THRESHOLD_PCT,
        calibration_nanos: calibration,
        nproc: std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZeroUsize::get),
        benchmarks,
        reference: BTreeMap::new(),
    }
}

/// The tiers whose asymptotic claims the gate enforces, as
/// `(tier prefix, small ops, large ops, limit)` arguments for
/// [`check_scaling`].
pub fn scaling_checks(sizes: &SuiteSizes) -> [(&'static str, usize, usize, f64); 2] {
    [
        (
            "sched/hforce",
            sizes.hforce[0],
            sizes.hforce[1],
            MAX_HFORCE_SCALING_RATIO,
        ),
        (
            "ctrl/microcode",
            sizes.microcode[0],
            sizes.microcode[1],
            MAX_MICROCODE_SCALING_RATIO,
        ),
    ]
}

/// An asymptotic claim as a gate condition: `{tier}/synth-{large}` must
/// cost at most `limit`× `{tier}/synth-{small}`. Returns the observed
/// ratio, or a message naming what failed. Both entries regressing
/// together (a constant-factor slowdown) is the per-benchmark
/// threshold's job; this check only fails on *scaling* regressions — the
/// quadratic re-scan class of bug that per-entry thresholds catch late or
/// not at all after a rebaseline.
pub fn check_scaling(
    report: &GateReport,
    tier: &str,
    small: usize,
    large: usize,
    limit: f64,
) -> Result<f64, String> {
    if small >= large {
        return Err(format!("{tier} tier needs a small and a larger size"));
    }
    let fetch = |ops: usize| {
        let name = format!("{tier}/synth-{ops}");
        match report.benchmarks.get(&name) {
            Some(&ns) => Ok(ns.max(1)),
            None => Err(format!("missing benchmark {name}")),
        }
    };
    let ratio = fetch(large)? as f64 / fetch(small)? as f64;
    if ratio > limit {
        return Err(format!(
            "{tier} scaling regression: {large} ops cost {ratio:.1}x the {small}-op tier \
             (limit {limit}x; quadratic would be ~{:.0}x)",
            ((large as f64) / (small as f64)).powi(2),
        ));
    }
    Ok(ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wart this module exists to prevent: every gate entry times
    /// exactly one algorithm invocation per iteration, so a baseline
    /// number is the cost of one call.
    #[test]
    fn every_entry_times_exactly_one_invocation() {
        for mut entry in build_suite(&smoke_sizes()) {
            let calls = entry.run_once();
            assert_eq!(calls, 1, "{}: timed {calls} invocations", entry.name);
        }
    }

    #[test]
    fn gate_suite_has_the_hforce_tier_and_stable_names() {
        let names: Vec<String> = build_suite(&gate_sizes())
            .into_iter()
            .map(|e| e.name)
            .collect();
        for expected in [
            "sched/force/diffeq",
            "sched/force/ewf",
            "sched/force/synth-512",
            "sched/force/synth-2048",
            "sched/freedom/synth-512",
            "sched/list/synth-2048",
            "sched/hforce/synth-16384",
            "sched/hforce/synth-65536",
            "sched/estimate/synth-2048",
            "explore/pruned-vs-exhaustive/synth-256",
            "ctrl/hardwired/synth-512",
            "ctrl/hardwired/synth-2048",
            "ctrl/microcode/synth-2048",
            "ctrl/microcode/synth-8192",
            "alloc/clique-exact/rand-64",
            "alloc/clique-tseng/rand-64",
            "alloc/lifetime/synth-2048",
            "alloc/clique-fu/synth-192",
            "e2e/sqrt",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert_eq!(names.len(), 19, "suite drifted: {names:?}");
    }

    #[test]
    fn scaling_check_passes_subquadratic_and_fails_quadratic() {
        let mut report = GateReport {
            threshold_pct: DEFAULT_THRESHOLD_PCT,
            calibration_nanos: 1,
            nproc: None,
            benchmarks: BTreeMap::new(),
            reference: BTreeMap::new(),
        };
        let checks = scaling_checks(&gate_sizes());
        assert_eq!(
            checks.map(|(tier, small, large, _)| format!("{tier}/synth-{small}..{large}")),
            [
                "sched/hforce/synth-16384..65536",
                "ctrl/microcode/synth-2048..8192"
            ]
        );
        for (tier, small, large, limit) in checks {
            let err = check_scaling(&report, tier, small, large, limit).unwrap_err();
            assert!(err.contains("missing benchmark"), "{err}");
            let (lo, hi) = (
                format!("{tier}/synth-{small}"),
                format!("{tier}/synth-{large}"),
            );
            report.benchmarks.insert(lo, 1_000_000);
            report.benchmarks.insert(hi.clone(), 4_000_000);
            let ratio = check_scaling(&report, tier, small, large, limit)
                .unwrap_or_else(|e| panic!("{tier}: linear-ish passes: {e}"));
            assert!((ratio - 4.0).abs() < 1e-9);
            // A quadratic stage: 4x the ops, 16x the time.
            report.benchmarks.insert(hi, 16_000_000);
            let err = check_scaling(&report, tier, small, large, limit).unwrap_err();
            assert!(err.contains(&format!("{tier} scaling regression")), "{err}");
            assert!(check_scaling(&report, tier, large, large, limit).is_err());
        }
        // The microcode limit sits below the all-pairs encoder's ~15x.
        report
            .benchmarks
            .insert("ctrl/microcode/synth-8192".into(), 14_600_000);
        assert!(check_scaling(
            &report,
            "ctrl/microcode",
            2048,
            8192,
            MAX_MICROCODE_SCALING_RATIO
        )
        .is_err());
    }
}
