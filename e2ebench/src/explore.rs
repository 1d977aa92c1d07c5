//! `explore-sweep`: one caller, closed loop. Each operation is one pruned
//! grid sweep on a fresh two-thread `Explorer`, so the memo cache never
//! carries over between operations.

use std::hint::black_box;
use std::time::Instant;

use hls_cdfg::Cdfg;
use hls_core::{
    cdfg_fingerprint, pareto_front, prune_mask, ControlStyle, DesignPoint, Estimator, Explorer,
    GridSpec, PrunedSweep, Synthesizer,
};
use hls_ctrl::EncodingStyle;
use hls_sched::{Algorithm, Priority};
use hls_workloads::sources;

use crate::replay::{self, Qor};
use crate::stats;
use crate::trace::Tracer;
use crate::{cosim, program, setup_times, Opts, Report, Sizes, WARMUP_SEED};
use hls_testkit::fnv1a as fnv;

pub const WHY: &str = "the estimator, pruning, the thread pool and 12 schedule/allocate/control \
passes per prepared behavior do their work here and nowhere else; the surviving half of the grid \
runs microcode control, which no other workload calls";

const WINDOW: usize = 16;
const THREADS: usize = 2;

/// FUs 1–4 × {asap, list/path, list/urgency} × {microcode, hardwired/binary}.
///
/// Control style changes neither latency nor area, so the estimator's
/// identity rule prunes the later of the two styles at every (FUs,
/// algorithm) pair. Microcode comes first so that the sweep runs the
/// microcode path, which no other workload calls; hardwired logic is
/// already the bulk of `synth-hardwired`.
fn grid() -> GridSpec {
    GridSpec {
        fus: vec![1, 2, 3, 4],
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
        ],
        controls: vec![
            ControlStyle::Microcode,
            ControlStyle::Hardwired(EncodingStyle::Binary),
        ],
    }
}

fn sweep(threads: usize, cdfg: &Cdfg) -> Result<PrunedSweep, String> {
    Explorer::with_threads(threads)
        .sweep_grid_cdfg_pruned(&Synthesizer::new(), cdfg, &grid())
        .map_err(|e| e.to_string())
}

fn sweep_hash(s: &PrunedSweep) -> u64 {
    fnv(format!("{:?}{:?}", s.points, s.pruned).as_bytes())
}

/// Checks one input's sweep: the pruned front equals the exhaustive
/// front, and every front point re-synthesizes to the same numbers,
/// co-simulates, and (under hardwired/binary control) has a literal
/// count. Returns the front's (steps, area, literals) sums.
fn check(src: &str, cdfg: &Cdfg, s: &PrunedSweep) -> Result<(f64, f64, f64), String> {
    let exhaustive = Explorer::with_threads(THREADS)
        .sweep_grid_cdfg(&Synthesizer::new(), cdfg, &grid())
        .map_err(|e| e.to_string())?;
    let front = pareto_front(&s.points);
    if pareto_front(&exhaustive) != front {
        return Err("pruned front differs from the exhaustive front".into());
    }
    let (mut steps, mut area, mut lits) = (0.0, 0.0, 0.0);
    for p in &front {
        let r = Synthesizer::new()
            .universal_fus(p.fus)
            .algorithm(p.algorithm)
            .control(ControlStyle::Hardwired(EncodingStyle::Binary))
            .synthesize(cdfg.clone())
            .map_err(|e| e.to_string())?;
        let q = Qor::of(&r);
        if q.latency != p.latency || q.area != p.area {
            return Err(format!("front point {p:?} re-synthesizes to {q:?}"));
        }
        cosim(&r, src)?;
        steps += q.latency as f64;
        area += q.area;
        lits += q.literals as f64;
    }
    Ok((steps, area, lits))
}

/// Serial stage-by-stage replay of one pruned sweep. Returns the
/// synthesized points, the prune mask and the summed per-point seconds.
fn replay_sweep(t: &mut Tracer, cdfg: &Cdfg) -> Result<(Vec<Qor>, Vec<bool>, f64), String> {
    let base = Synthesizer::new();
    t.count("lang.cdfg_ops", cdfg.total_ops() as f64);
    black_box(t.span("core.fingerprint", |_| cdfg_fingerprint(cdfg)));
    let mut c = cdfg.clone();
    replay::optimize(t, &mut c);
    // The estimator takes a `PreparedBehavior`, which only `prepare`
    // builds; with the passes off it runs just the bound analyses.
    let prepared = t
        .span("sched.bounds", |_| {
            Synthesizer::new()
                .without_optimization()
                .classifier(replay::classifier())
                .prepare(c)
        })
        .map_err(|e| e.to_string())?;
    let all = grid().expand();
    let mask = t.span("core.estimate", |_| {
        prune_mask(&Estimator::new(&base, &prepared).estimate_points(&all))
    });
    let mut points = Vec::new();
    let mut point_s = 0.0;
    for (p, _) in all.iter().zip(&mask).filter(|(_, m)| !**m) {
        let (r, secs) = t.timed("core.point", |t| {
            black_box(t.span("core.fingerprint", |_| {
                Synthesizer::new()
                    .universal_fus(p.fus)
                    .algorithm(p.algorithm)
                    .control(p.control)
                    .fingerprint()
            }));
            replay::back(
                t,
                prepared.cdfg(),
                prepared.bounds(),
                p.fus,
                p.algorithm,
                p.control,
            )
        });
        point_s += secs;
        points.push(Qor::of(&r?));
    }
    let pruned = mask.iter().filter(|m| **m).count();
    t.count("core.points_synthesized", points.len() as f64);
    t.count(
        "core.points_pruned_pct",
        100.0 * pruned as f64 / mask.len().max(1) as f64,
    );
    Ok((points, mask, point_s))
}

fn same_points(sweep: &[DesignPoint], replayed: &[Qor]) -> bool {
    sweep.len() == replayed.len()
        && sweep.iter().zip(replayed).all(|(d, q)| {
            d.latency == q.latency
                && d.area == q.area
                && d.registers == q.registers
                && d.mux_inputs == q.mux_inputs
        })
}

pub fn run(o: &Opts, sz: &Sizes) -> Report {
    let mut rep = Report::default();
    let (inputs, times) = setup_times(sz.setup_reps, || {
        let mut srcs: Vec<String> = (0..sz.explore_programs as u64)
            .map(|k| program(o.seed, k, sz.explore_stmts, WINDOW))
            .collect();
        srcs.push(sources::DIFFEQ.to_string());
        let inputs: Vec<(String, Result<Cdfg, String>)> = srcs
            .into_iter()
            .map(|s| {
                let c = hls_lang::compile(&s).map_err(|e| e.to_string());
                (s, c)
            })
            .collect();
        // Warm-up: one sweep of a fixed program of the inputs' size.
        if let Ok(c) = hls_lang::compile(&program(WARMUP_SEED, 0, sz.explore_stmts, WINDOW)) {
            black_box(sweep(THREADS, &c).ok());
        }
        inputs
    });
    rep.setup(&times);

    // The measured phase keeps only each input's first sweep; the checks
    // run after it, so they add neither time nor memory to its readings.
    let n = inputs.len();
    let mut first: Vec<Option<(u64, PrunedSweep)>> = (0..n).map(|_| None).collect();
    let mut ops_on = vec![0u64; n];
    let mut lat = Vec::new();
    let mut busy = 0.0;
    let (mut sweep_ms, mut efficiency, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut tracer = Tracer::new(Instant::now());
    let wall = Instant::now();
    let mut k = 0u64;
    loop {
        let spent = if o.trace {
            wall.elapsed().as_secs_f64()
        } else {
            busy
        };
        if spent >= o.seconds && k > 0 {
            break;
        }
        let i = (k % n as u64) as usize;
        k += 1;
        rep.attempted += 1;
        ops_on[i] += 1;
        let cdfg = match &inputs[i] {
            (_, Ok(c)) => c,
            (_, Err(e)) => {
                rep.failed += 1;
                rep.error(format!("input {i} does not compile: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let out = black_box(sweep(THREADS, cdfg));
        let dt = t0.elapsed().as_secs_f64();
        busy += dt;
        lat.push(dt);
        let s = match out {
            Ok(s) => s,
            Err(e) => {
                rep.failed += 1;
                rep.error(format!("input {i}: {e}"));
                continue;
            }
        };
        if o.trace {
            sweep_ms.push(dt * 1e3);
            let t1 = Instant::now();
            let serial = black_box(sweep(1, cdfg));
            let serial_s = t1.elapsed().as_secs_f64();
            let (replayed, wall_s) = tracer.op(k, |t| replay_sweep(t, cdfg));
            overhead.push(wall_s / serial_s - 1.0);
            match replayed {
                Ok((pts, mask, point_s)) => {
                    efficiency.push(100.0 * point_s / (THREADS as f64 * dt));
                    if mask != s.pruned || !same_points(&s.points, &pts) || serial.is_err() {
                        rep.failed += 1;
                        rep.error(format!("input {i}: replay differs from the sweep"));
                    }
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.error(format!("input {i}: replay failed: {e}"));
                }
            }
        }
        let h = sweep_hash(&s);
        match &first[i] {
            None => first[i] = Some((h, s)),
            Some((f, _)) if *f != h => {
                rep.failed += 1;
                rep.error(format!("input {i}: repeated sweep changed its result"));
            }
            Some(_) => {}
        }
    }
    if !o.trace {
        rep.timing(&lat, lat.len() as f64 / busy);
    }

    // Checks on every input's first sweep; inputs the measured phase never
    // reached are swept here. A failed check fails every operation on that
    // input. The design metrics sum over every input's front, so they
    // repeat exactly for a seed.
    let (mut steps, mut area, mut lits) = (0.0, 0.0, 0.0);
    for (i, slot) in first.into_iter().enumerate() {
        let (src, Ok(cdfg)) = &inputs[i] else {
            continue;
        };
        let s = match slot {
            Some((_, s)) => Ok(s),
            None => sweep(THREADS, cdfg),
        };
        match s.and_then(|s| check(src, cdfg, &s)) {
            Ok((a, b, c)) => {
                steps += a;
                area += b;
                lits += c;
            }
            Err(e) => {
                rep.failed += ops_on[i];
                rep.error(format!("input {i}: {e}"));
            }
        }
    }
    rep.set("design_latency_steps", steps);
    rep.set("design_area_ge", area);
    rep.set("control_literals", lits);

    if o.trace {
        rep.set("core.sweep_ms", stats::median(&sweep_ms));
        rep.set("core.pool_efficiency_pct", stats::median(&efficiency));
        rep.set("trace.overhead_pct", 100.0 * stats::median(&overhead));
        rep.layers(&tracer, "explore-sweep", o.seed);
    }
    rep
}
