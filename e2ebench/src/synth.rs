//! `synth-hardwired`: one caller, one thread, closed loop. Each operation
//! is `Synthesizer::new().synthesize_source(src)` followed by
//! `to_verilog()` on large straight-line programs under the default flow
//! (2 universal FUs, list/path-length, hardwired binary control).

use std::hint::black_box;
use std::time::Instant;

use hls_core::{SynthesisResult, Synthesizer};

use crate::replay::{self, Qor};
use crate::stats;
use crate::trace::Tracer;
use crate::{cosim, program, setup_times, Opts, Report, Sizes, WARMUP_SEED};
use hls_testkit::fnv1a as fnv;

pub const WHY: &str = "the user's single largest cost, one source-to-Verilog call on a \
~512-statement program; control synthesis (ctrl.logic) does ~96% of its work, so a ctrl fix \
shows here and no other layer can hide a regression behind it";

/// Operand back-reach of the generated programs: deep enough that most
/// statements stay live after dead-code elimination.
const WINDOW: usize = 16;
const WARMUP_STMTS: usize = 256;

/// What repeated calls on one input must reproduce.
#[derive(PartialEq)]
struct Done {
    qor: Qor,
    verilog: u64,
}

impl Done {
    fn of(r: &SynthesisResult, v: &str) -> Self {
        Done {
            qor: Qor::of(r),
            verilog: fnv(v.as_bytes()),
        }
    }
}

fn call(src: &str) -> Result<(SynthesisResult, String), String> {
    let r = Synthesizer::new()
        .synthesize_source(src)
        .map_err(|e| e.to_string())?;
    let v = r.to_verilog();
    Ok((r, v))
}

pub fn run(o: &Opts, sz: &Sizes) -> Report {
    let mut rep = Report::default();
    let (srcs, times) = setup_times(sz.setup_reps, || {
        let srcs: Vec<String> = (0..sz.synth_programs as u64)
            .map(|k| program(o.seed, k, sz.synth_stmts, WINDOW))
            .collect();
        // Warm-up: one call on a fixed mid-size program pays any lazy
        // first-call cost.
        black_box(call(&program(WARMUP_SEED, 0, WARMUP_STMTS, WINDOW)).ok());
        srcs
    });
    rep.setup(&times);

    // The measured phase keeps only each input's first output; the checks
    // run after it, so they add neither time nor memory to its readings.
    let n = srcs.len();
    let mut first: Vec<Option<Done>> = (0..n).map(|_| None).collect();
    let mut ops_on = vec![0u64; n];
    let mut lat = Vec::new();
    let mut busy = 0.0;
    let mut overhead = Vec::new();
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
        let t0 = Instant::now();
        let out = black_box(call(&srcs[i]));
        let dt = t0.elapsed().as_secs_f64();
        busy += dt;
        lat.push(dt);
        let got = match out {
            Ok((r, v)) => Done::of(&r, &v),
            Err(e) => {
                rep.failed += 1;
                rep.error(format!("program {i}: {e}"));
                continue;
            }
        };
        if o.trace {
            let (replayed, wall_s) = tracer.op(k, |t| replay::synthesize_source(t, &srcs[i]));
            overhead.push(wall_s / dt - 1.0);
            match replayed {
                Ok((rr, rv)) if Done::of(&rr, &rv) == got => {}
                Ok(_) => {
                    rep.failed += 1;
                    rep.error(format!("program {i}: replay differs from the call"));
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.error(format!("program {i}: replay failed: {e}"));
                }
            }
        }
        match &first[i] {
            None => first[i] = Some(got),
            Some(f) if *f != got => {
                rep.failed += 1;
                rep.error(format!("program {i}: repeated call changed its output"));
            }
            Some(_) => {}
        }
    }
    if !o.trace {
        rep.timing(&lat, lat.len() as f64 / busy);
    }

    // Checks: every input is synthesized once more, must repeat the output
    // of the measured phase, and is co-simulated. A failed check fails
    // every operation on that input. The design metrics sum over every
    // input, so they repeat exactly for a seed.
    let (mut steps, mut area, mut lits) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let checked = call(&srcs[i]).and_then(|(r, v)| {
            let d = Done::of(&r, &v);
            if first[i].as_ref().is_some_and(|f| *f != d) {
                return Err("repeated call changed its output".to_string());
            }
            cosim(&r, &srcs[i])?;
            Ok(d.qor)
        });
        match checked {
            Ok(q) => {
                steps += q.latency as f64;
                area += q.area;
                lits += q.literals as f64;
            }
            Err(e) => {
                rep.failed += ops_on[i];
                rep.error(format!("program {i}: {e}"));
            }
        }
    }
    rep.set("design_latency_steps", steps);
    rep.set("design_area_ge", area);
    rep.set("control_literals", lits);

    if o.trace {
        rep.set("trace.overhead_pct", 100.0 * stats::median(&overhead));
        rep.layers(&tracer, "synth-hardwired", o.seed);
    }
    rep
}
