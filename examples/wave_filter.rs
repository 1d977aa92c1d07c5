//! The DSP-domain workload (§3.3 points at CATHEDRAL's signal-processing
//! niche): schedule the classic elliptic-wave-filter graph under typed
//! resources, pipeline a FIR filter, and compare mux- vs bus-based
//! interconnect.
//!
//! Run with `cargo run --example wave_filter`.

use hls::alloc::{
    bus_allocation, connections, greedy_allocation, left_edge, render_gantt, value_intervals,
};
use hls::sched::{
    force_directed_schedule, list_schedule, pipeline_loop, FuClass, OpClassifier, Priority,
    ResourceLimits,
};
use hls_workloads::benchmarks::{ewf, fir16};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cls = OpClassifier::typed();

    // 1. EWF under resource constraints: latency vs (adders, multipliers).
    println!("elliptic wave filter (34 ops: 26 add, 8 mul)");
    println!("  alus  muls  latency");
    let g = ewf();
    for (alus, muls) in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)] {
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Alu, alus)
            .with(FuClass::Multiplier, muls);
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength)?;
        println!("  {alus:<5} {muls:<5} {}", s.num_steps());
    }

    // 2. Time-constrained: how many units does force-directed scheduling
    // need as the deadline relaxes?
    println!("\nforce-directed scheduling (time-constrained):");
    println!("  deadline  alus  muls");
    let (_, cp) = hls::sched::SchedGraph::build(&g, &cls)?.asap();
    for slack in [0, 2, 4, 8] {
        let s = force_directed_schedule(&g, &cls, cp + slack)?;
        let usage = s.fu_usage(&g, &cls);
        println!(
            "  {:<9} {:<5} {}",
            cp + slack,
            usage.get(&FuClass::Alu).unwrap_or(&0),
            usage.get(&FuClass::Multiplier).unwrap_or(&0)
        );
    }

    // 3. Interconnect styles on a 2-adder/2-multiplier EWF datapath.
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2);
    let s = list_schedule(&g, &cls, &limits, Priority::PathLength)?;
    let regs = left_edge(&value_intervals(&g, &s));
    let fus = greedy_allocation(&g, &cls, &s, &regs, true)?;
    let conn = connections(&g, &cls, &s, &regs, &fus)?;
    let bus = bus_allocation(&g, &cls, &s, &regs, &fus)?;
    println!("\ninterconnect (2 ALUs + 2 multipliers):");
    println!("  registers           : {}", regs.count);
    println!(
        "  mux-based           : {} wires, {} mux inputs",
        conn.wire_count(),
        conn.mux_inputs()
    );
    println!(
        "  bus-based           : {} buses, {} drivers, {} taps",
        bus.buses, bus.drivers, bus.taps
    );

    // Value lifetimes (first ten rows of the Gantt chart).
    println!("\nvalue lifetimes (first 10):");
    let ivs = value_intervals(&g, &s);
    for line in render_gantt(&g, &ivs).lines().take(11) {
        println!("  {line}");
    }

    // 4. Pipeline the FIR16 inner loop (Sehwa-style).
    println!("\nFIR16 loop pipelining:");
    println!("  muls  alus  ResMII  RecMII  II  latency  speedup");
    let fir = fir16();
    for m in [2usize, 4, 8] {
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Multiplier, m)
            .with(FuClass::Alu, m);
        let p = pipeline_loop(&fir, &cls, &limits)?;
        println!(
            "  {m:<5} {m:<5} {:<7} {:<7} {:<3} {:<8} {:.2}x",
            p.res_mii, p.rec_mii, p.ii, p.latency, p.speedup
        );
    }
    Ok(())
}
