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

#[test]
fn sweep_point_stays_within_its_allocation_budget() {
    let spec = GridSpec {
        fus: vec![1, 2, 3, 4],
        algorithms: vec![ALGORITHM],
        controls: CONTROLS.to_vec(),
    };
    let base = Synthesizer::new();
    let (mut sweeps, mut prepares, mut points) = (0u64, 0u64, 0u64);
    let mut stages = [0u64; 8];
    let inputs = inputs();
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
    println!("allocations per sweep point: {mean:.1} (budget {SWEEP_BUDGET})");
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
    assert!(
        mean <= SWEEP_BUDGET,
        "{mean:.1} allocations per sweep point, over the budget of {SWEEP_BUDGET}"
    );
}
