//! Heap allocations of one back-half design point.
//!
//! A counting global allocator tallies the allocations (fresh blocks and
//! reallocations) made on the test's own thread. Two budgets:
//!
//! * `synthesize_prepared` runs the whole back half: schedule → datapath
//!   → controller → control logic → netlist → area, plus the behavior
//!   the result clones.
//! * A point of the serial `hls_core::sweep_grid_cdfg` runs only what its
//!   summary reads: schedule → datapath → controller → area. The sweep's
//!   one `prepare`, which builds the variable table every point's
//!   datapath shares, is counted apart and left out of the per-point mean.
//!
//! The inputs are fixed: the DIFFEQ program and a 150-op random DAG, each
//! on 1–4 universal FUs under microcode and hardwired/binary control. The
//! tests print each stage's mean count and fail when the mean per point
//! exceeds the budget. Two datapath rows are printed: `datapath` is the
//! standalone `build_datapath`, which builds a table of its own, and
//! `shared` builds against a table built once, as a prepared point does.
//!
//! A third budget holds the sweep point of a wide program, 128 variables
//! live across an if/else, a loop and the output block. Its variable
//! table is at least as large as an `explore-sweep` program's, so a
//! point that copied the shared table instead of reading it would show
//! in the mean, which the two small inputs hide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use hls_alloc::{build_datapath, build_datapath_with, FuStrategy, VariableTable};
use hls_cdfg::Cdfg;
use hls_core::{sweep_grid_cdfg, ControlStyle, GridSpec, PreparedBehavior, Synthesizer};
use hls_ctrl::{build_fsm, hardwired_logic, microcode, EncodingStyle};
use hls_rtl::Library;
use hls_sched::{schedule_cdfg_cached, Algorithm, Priority, ResourceLimits};
use hls_workloads::random::{random_dag, RandomDagConfig};

/// Mean allocations per point the back half may make: the count measured
/// when the budget was set (2 529.4), plus 10%.
const BUDGET: f64 = 2_782.0;

/// Mean allocations per synthesized point of a serial sweep: the count
/// measured when the budget was set (451.0), plus 10%. A point that
/// built the control logic or ROM, the netlist, a behavior copy or its
/// own variable table again would exceed it.
const SWEEP_BUDGET: f64 = 496.0;

/// Mean allocations per sweep point of [`wide_program`]: the count
/// measured when the budget was set (1 429.1), plus 10%. A point that
/// copied the program's variable table (280 allocations) would exceed it.
const WIDE_SWEEP_BUDGET: f64 = 1_572.0;

struct Counting;

thread_local! {
    /// Allocations made by this thread so far. Each test runs on a
    /// thread of its own, so no other thread's allocations count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // During thread teardown the slot may be gone; those allocations are
    // not the test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the tally touches
// only a `const`-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const STAGES: [&str; 8] = [
    "schedule", "datapath", "shared", "fsm", "control", "netlist", "area", "clone",
];

/// The default flow's scheduler, which every point here runs.
const ALGORITHM: Algorithm = Algorithm::List(Priority::PathLength);

/// The back half of `synthesize_prepared`, stage by stage, for one point;
/// `vars` is the behavior's table, built once.
fn stage_counts(
    prepared: &PreparedBehavior,
    vars: &Arc<VariableTable>,
    fus: usize,
    control: ControlStyle,
) -> [u64; 8] {
    let cdfg = prepared.cdfg();
    let cls = prepared.classifier();
    let library = Library::standard();
    let limits = ResourceLimits::universal(fus);
    let (schedule, schedule_n) =
        counted(|| schedule_cdfg_cached(cdfg, cls, &limits, ALGORITHM, prepared.bounds()).unwrap());
    let strategy = FuStrategy::GreedyAware;
    let (_, datapath_n) =
        counted(|| build_datapath(cdfg, &schedule, cls, &library, strategy).unwrap());
    let (datapath, shared_n) =
        counted(|| build_datapath_with(vars, cdfg, &schedule, cls, &library, strategy).unwrap());
    let (fsm, fsm_n) = counted(|| build_fsm(cdfg, &schedule, &datapath, cls).unwrap());
    let ((), control_n) = counted(|| match control {
        ControlStyle::Hardwired(style) => drop(hardwired_logic(&fsm, style).unwrap()),
        ControlStyle::Microcode => {
            let mp = microcode(&fsm);
            std::hint::black_box((mp.horizontal_rom_bits(), mp.encoded_rom_bits()));
        }
    });
    let (_, netlist_n) = counted(|| datapath.to_netlist(cdfg, &library).unwrap());
    let (_, area_n) = counted(|| datapath.area(&library).unwrap());
    let (_, clone_n) = counted(|| cdfg.clone());
    [
        schedule_n, datapath_n, shared_n, fsm_n, control_n, netlist_n, area_n, clone_n,
    ]
}

/// The fixed inputs: DIFFEQ and a 150-op random DAG.
fn inputs() -> [Cdfg; 2] {
    let diffeq = hls_lang::compile(hls_workloads::sources::DIFFEQ).unwrap();
    let dag = hls_workloads::benchmarks::to_cdfg(
        "rand",
        random_dag(&RandomDagConfig {
            ops: 150,
            ..Default::default()
        }),
    );
    [diffeq, dag]
}

/// A program of 128 variables, each set from an input in the entry
/// block, held across an if/else and a loop (which update a few of them)
/// and copied to an output of its own in the last block. Few operations
/// per variable, as in the generated `explore-sweep` programs, so the
/// variable table is a large part of what a point could copy. Built here
/// because the BSL generator lives in hls-fuzz, which depends on hls-core.
fn wide_program() -> String {
    use std::fmt::Write as _;
    const VARS: usize = 128;
    let mut src = String::from("program wide;\ninput A, B, C, D;\noutput ");
    let outs: Vec<String> = (0..VARS).map(|k| format!("O{k}")).collect();
    let vars: Vec<String> = (0..VARS).map(|k| format!("V{k}")).collect();
    let _ = writeln!(
        src,
        "{};\nvar {}, I;\nbegin",
        outs.join(", "),
        vars.join(", ")
    );
    for (k, v) in vars.iter().enumerate() {
        let _ = writeln!(src, "  {v} := A + {};", k + 1);
    }
    src.push_str("  if C > D then\n    V0 := V0 + V1;\n  else\n    V1 := V1 - V0;\n  end;\n");
    src.push_str("  I := 0;\n  while I < C do\n    V2 := V2 + V3;\n    I := I + 1;\n  end;\n");
    for (o, v) in outs.iter().zip(&vars) {
        let _ = writeln!(src, "  {o} := {v};");
    }
    src.push_str("end.\n");
    src
}

const CONTROLS: [ControlStyle; 2] = [
    ControlStyle::Microcode,
    ControlStyle::Hardwired(EncodingStyle::Binary),
];

#[test]
fn back_half_stays_within_its_allocation_budget() {
    let (mut total, mut points) = (0u64, 0u64);
    let mut stages = [0u64; 8];
    for cdfg in inputs() {
        let prepared = Synthesizer::new().prepare(cdfg).unwrap();
        let vars = Arc::new(VariableTable::new(prepared.cdfg()));
        for fus in 1..=4 {
            for control in CONTROLS {
                let synth = Synthesizer::new()
                    .universal_fus(fus)
                    .algorithm(ALGORITHM)
                    .control(control);
                let (result, n) = counted(|| synth.synthesize_prepared(&prepared).unwrap());
                drop(result);
                total += n;
                points += 1;
                for (sum, n) in stages
                    .iter_mut()
                    .zip(stage_counts(&prepared, &vars, fus, control))
                {
                    *sum += n;
                }
            }
        }
    }
    let mean = total as f64 / points as f64;
    println!("allocations per back-half point: {mean:.1} (budget {BUDGET})");
    for (name, n) in STAGES.iter().zip(stages) {
        println!("  {name:<9} {:.1}", n as f64 / points as f64);
    }
    assert!(
        mean <= BUDGET,
        "{mean:.1} allocations per point, over the budget of {BUDGET}"
    );
}

/// The mean allocations per point of a serial sweep over each input,
/// leaving out each sweep's one `prepare`; prints the stage means.
fn sweep_point_mean(inputs: Vec<Cdfg>) -> f64 {
    let spec = GridSpec {
        fus: vec![1, 2, 3, 4],
        algorithms: vec![ALGORITHM],
        controls: CONTROLS.to_vec(),
    };
    let base = Synthesizer::new();
    let (mut sweeps, mut prepares, mut points) = (0u64, 0u64, 0u64);
    let mut stages = [0u64; 8];
    let runs = inputs.len();
    for cdfg in inputs {
        let (prepared, n) = counted(|| base.prepare(cdfg.clone()).unwrap());
        prepares += n;
        let vars = Arc::new(VariableTable::new(prepared.cdfg()));
        let (swept, n) = counted(|| sweep_grid_cdfg(&base, &cdfg, &spec).unwrap());
        sweeps += n;
        points += swept.len() as u64;
        for p in spec.expand() {
            for (sum, n) in stages
                .iter_mut()
                .zip(stage_counts(&prepared, &vars, p.fus, p.control))
            {
                *sum += n;
            }
        }
    }
    let mean = (sweeps - prepares) as f64 / points as f64;
    for (name, n) in STAGES.iter().zip(stages) {
        if ["schedule", "datapath", "shared", "fsm", "area"].contains(name) {
            println!("  {name:<9} {:.1}", n as f64 / points as f64);
        }
    }
    println!(
        "  {:<9} {:.1} per sweep",
        "prepare",
        prepares as f64 / runs as f64
    );
    mean
}

#[test]
fn sweep_point_stays_within_its_allocation_budget() {
    let mean = sweep_point_mean(inputs().to_vec());
    println!("allocations per sweep point: {mean:.1} (budget {SWEEP_BUDGET})");
    assert!(
        mean <= SWEEP_BUDGET,
        "{mean:.1} allocations per sweep point, over the budget of {SWEEP_BUDGET}"
    );
}

#[test]
fn wide_sweep_point_stays_within_its_allocation_budget() {
    let cdfg = hls_lang::compile(&wide_program()).unwrap();
    let prepared = Synthesizer::new().prepare(cdfg.clone()).unwrap();
    let vars = VariableTable::new(prepared.cdfg());
    assert!(vars.var_count() >= 128, "{} variables", vars.var_count());
    let blocks = prepared.cdfg().block_order().len();
    assert!(blocks >= 4, "{blocks} blocks");
    let mean = sweep_point_mean(vec![cdfg]);
    println!(
        "allocations per wide sweep point: {mean:.1} (budget {WIDE_SWEEP_BUDGET}; {} variables, {blocks} blocks)",
        vars.var_count()
    );
    assert!(
        mean <= WIDE_SWEEP_BUDGET,
        "{mean:.1} allocations per wide sweep point, over the budget of {WIDE_SWEEP_BUDGET}"
    );
}
