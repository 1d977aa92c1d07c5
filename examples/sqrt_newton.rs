//! The paper's worked example, end to end: the Newton's-method square
//! root of Fig. 1, through the Fig. 2 transformations, to the 23-step and
//! 10-step schedules — then both designs are executed and verified.
//!
//! Run with `cargo run --example sqrt_newton`.

use std::collections::BTreeMap;

use hls::{Fx, Synthesizer};
use hls_workloads::sources::SQRT;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("The behavioral specification (Fig. 1):\n{SQRT}");

    // The paper's "trivial special case": one universal FU, no high-level
    // transformations → 3 + 4·5 = 23 control steps.
    let serial = Synthesizer::new()
        .without_optimization()
        .universal_fus(1)
        .synthesize_source(SQRT)?;
    println!("serial design: {} steps (paper: 23)", serial.latency);
    assert_eq!(serial.latency, 23);

    // After the Fig. 2 optimizations (×0.5 → free shift, +1 → increment,
    // `I > 3` → 2-bit `I = 0`) on two FUs → 2 + 4·2 = 10 steps.
    let fast = Synthesizer::new()
        .universal_fus(2)
        .synthesize_source(SQRT)?;
    println!("optimized design: {} steps (paper: 10)\n", fast.latency);
    assert_eq!(fast.latency, 10);

    println!("{}", fast.report());
    println!("{}", fast.schedule_table());

    // Both structures compute square roots; the fast one is 2.3x quicker.
    println!("x        sqrt(x)   serial(23c)  optimized(10c)");
    for x in [0.09, 0.25, 0.49, 0.7, 0.99] {
        let inputs = BTreeMap::from([("X".to_string(), Fx::from_f64(x))]);
        let a = serial.run(&inputs)?;
        let b = fast.run(&inputs)?;
        println!(
            "{x:<8} {:<9.4} {:<12.4} {:.4}",
            x.sqrt(),
            a.outputs["Y"].to_f64(),
            b.outputs["Y"].to_f64()
        );
        assert_eq!(a.cycles, 23);
        assert_eq!(b.cycles, 10);
        assert!((b.outputs["Y"].to_f64() - x.sqrt()).abs() < 2e-3);
    }

    // The §4 "design verification" step: RTL vs golden model.
    for (name, design) in [("serial", &serial), ("optimized", &fast)] {
        let eq = design.verify(25, (0.05, 1.0))?;
        println!(
            "{name}: verified on {} random vectors -> {}",
            eq.vectors, eq.equivalent
        );
        assert!(eq.equivalent);
    }

    // Export the control/data-flow graphs as DOT (the Fig. 1 artifacts).
    let cdfg = hls::lang::compile(SQRT)?;
    let entry = cdfg.block_order()[0];
    println!(
        "\nDOT of the entry block's data-flow graph:\n{}",
        hls::cdfg::dot::dfg_to_dot(&cdfg.block(entry).dfg, "sqrt_entry")
    );

    // And the synthesized datapath structure itself.
    println!(
        "DOT of the 2-FU datapath:\n{}",
        fast.datapath.to_dot(&fast.cdfg)
    );
    Ok(())
}
