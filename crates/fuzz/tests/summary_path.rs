//! Differential battery for the sweep's summary path.
//!
//! A sweep point runs only the stages its `DesignPoint` reads: schedule,
//! datapath and FSM, then the area priced from the datapath. This
//! battery holds it to full synthesis of the same point: the summary
//! `(latency, area bits, registers, mux inputs)` equals the one of
//! `Synthesizer::synthesize_prepared`, with the area of the full result
//! priced from its netlist by `hls_rtl::estimate`, and a point that
//! fails there fails in the sweep with the same message.
//!
//! Both sweep entry points are checked: the parallel streaming sweep
//! point by point (errors included), and the serial `sweep_grid_cdfg`
//! over the whole grid.
//!
//! Programs: the five paper programs (SUMSQ's array gives a memory), 16
//! generated BSL programs and a 150-op random DAG. Configurations: 0–4
//! universal FUs (zero fails every scheduler that takes a limit) ×
//! {asap, list/path, list/urgency, force/1, transformational} ×
//! {hardwired/binary, microcode} × {greedy aware, greedy blind, clique},
//! plus a library with a cheaper universal cell that the FUs bind
//! instead.

use std::sync::{Arc, Mutex};

use hls_alloc::{CliqueMethod, FuStrategy};
use hls_cdfg::Cdfg;
use hls_core::{
    sweep_grid_cdfg, CancelToken, ControlStyle, DesignPoint, Explorer, GridSpec, SynthesisResult,
    Synthesizer,
};
use hls_ctrl::EncodingStyle;
use hls_fuzz::corpus::{Case, Mode};
use hls_rtl::{CellClass, CellSpec, Library};
use hls_sched::{Algorithm, Priority};
use hls_workloads::benchmarks::to_cdfg;
use hls_workloads::random::{random_dag, RandomDagConfig};
use hls_workloads::sources;

/// What a sweep keeps of a point, with the area as its bits.
type Summary = (u64, u64, usize, usize);

/// A point's summary, or its error message.
type Outcome = Result<Summary, String>;

/// The summary of a full result, its area priced from the result's
/// netlist, so the check does not rest on `Datapath::area`, which both
/// paths now share.
fn summary_of(r: &SynthesisResult, library: &Library) -> Summary {
    let area = hls_rtl::estimate(&r.netlist, library).total().to_bits();
    assert_eq!(
        r.area.total().to_bits(),
        area,
        "the result's area is its netlist's"
    );
    (
        r.latency,
        area,
        r.datapath.reg_count(),
        r.datapath.mux_inputs,
    )
}

fn summary(p: &DesignPoint) -> Summary {
    (p.latency, p.area.to_bits(), p.registers, p.mux_inputs)
}

fn grid(fus: Vec<usize>) -> GridSpec {
    GridSpec {
        fus,
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
            Algorithm::ForceDirected { slack: 1 },
            Algorithm::Transformational,
        ],
        controls: vec![
            ControlStyle::Hardwired(EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    }
}

fn programs() -> Vec<(String, Cdfg)> {
    let named = [
        ("sqrt", sources::SQRT),
        ("gcd", sources::GCD),
        ("diffeq", sources::DIFFEQ),
        ("fir4", sources::FIR4),
        ("sumsq", sources::SUMSQ),
    ];
    let mut out: Vec<(String, Cdfg)> = named
        .iter()
        .map(|&(name, src)| (name.to_string(), hls_lang::compile(src).unwrap()))
        .collect();
    for seed in 0..16u64 {
        let src = hls_fuzz::gen::generate_bsl(&Case::new(Mode::Bsl, seed, 24, 3, 6));
        out.push((format!("bsl{seed}"), hls_lang::compile(&src).unwrap()));
    }
    let dag = random_dag(&RandomDagConfig {
        ops: 150,
        ..Default::default()
    });
    out.push(("rand150".to_string(), to_cdfg("rand150", dag)));
    out
}

/// The configurations each program is swept under.
fn bases() -> Vec<(&'static str, Synthesizer, Library)> {
    let lean = Library::standard().with_cell(CellSpec {
        name: "fu_lean",
        class: CellClass::Universal,
        area_base: 90.0,
        area_per_bit: 120.0,
        delay_base: 40.0,
        delay_per_bit: 4.0,
    });
    let standard = Library::standard();
    vec![
        ("greedy-aware", Synthesizer::new(), standard.clone()),
        (
            "greedy-blind",
            Synthesizer::new().fu_strategy(FuStrategy::GreedyBlind),
            standard.clone(),
        ),
        (
            "clique",
            Synthesizer::new().fu_strategy(FuStrategy::Clique(CliqueMethod::Tseng)),
            standard,
        ),
        (
            "lean-library",
            Synthesizer::new().library(lean.clone()),
            lean,
        ),
    ]
}

/// Full synthesis of every point of `spec`, summarized.
fn reference(base: &Synthesizer, lib: &Library, cdfg: &Cdfg, spec: &GridSpec) -> Vec<Outcome> {
    let prepared = base.prepare(cdfg.clone()).unwrap();
    spec.expand()
        .iter()
        .map(|p| {
            base.clone()
                .universal_fus(p.fus)
                .algorithm(p.algorithm)
                .control(p.control)
                .synthesize_prepared(&prepared)
                .map(|r| summary_of(&r, lib))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Every point of `spec` through the parallel streaming sweep.
fn streamed(base: &Synthesizer, cdfg: &Cdfg, spec: &GridSpec) -> Vec<Outcome> {
    let points = spec.expand();
    let seen: Arc<Mutex<Vec<Option<Outcome>>>> = Arc::new(Mutex::new(vec![None; points.len()]));
    let sink = Arc::clone(&seen);
    Explorer::with_threads(2)
        .sweep_points_cdfg_streaming(base, cdfg, points, &CancelToken::new(), move |i, out| {
            let out = out.map(|(p, _)| summary(&p)).map_err(|e| e.to_string());
            sink.lock().unwrap()[i] = Some(out);
        })
        .unwrap();
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.into_iter()
        .map(|out| out.expect("every point calls back"))
        .collect()
}

#[test]
fn sweep_summaries_equal_full_synthesis() {
    let (mut points, mut failures) = (0usize, 0usize);
    let mut memories = false;
    for (name, cdfg) in programs() {
        for (base_name, base, lib) in bases() {
            let spec = grid(vec![0, 1, 2, 3, 4]);
            let want = reference(&base, &lib, &cdfg, &spec);
            let got = streamed(&base, &cdfg, &spec);
            for ((p, w), g) in spec.expand().iter().zip(&want).zip(&got) {
                assert_eq!(g, w, "{name} {base_name} {p:?}");
            }
            let zero_fu = spec.len() / spec.fus.len();
            points += want.len();
            failures += want.iter().filter(|w| w.is_err()).count();
            assert!(
                want[zero_fu..].iter().all(Result::is_ok),
                "{name} {base_name}"
            );

            // The serial sweep: all points of the FU 1–4 grid, and the
            // first failure in grid order with the zero-FU points first.
            let ok = grid(vec![1, 2, 3, 4]);
            let serial: Vec<Summary> = sweep_grid_cdfg(&base, &cdfg, &ok)
                .unwrap_or_else(|e| panic!("{name} {base_name}: {e}"))
                .iter()
                .map(summary)
                .collect();
            let ok_want: Vec<Summary> =
                want[zero_fu..].iter().map(|w| w.clone().unwrap()).collect();
            assert_eq!(serial, ok_want, "{name} {base_name}");
            let first_failure = want.iter().find_map(|w| w.clone().err()).unwrap();
            let err = sweep_grid_cdfg(&base, &cdfg, &spec).unwrap_err();
            assert_eq!(err.to_string(), first_failure, "{name} {base_name}");
        }
        let r = Synthesizer::new().synthesize(cdfg).unwrap();
        memories |= !r.datapath.vars.memories().is_empty();
    }
    assert!(memories, "a program with an array prices a memory");
    assert_eq!(points, 22 * 4 * 50);
    // Only the zero-FU points fail, and not those of force-directed
    // scheduling, which takes no FU limit: 8 of each combo's 10.
    assert_eq!(failures, 22 * 4 * 8);
}
