//! Regenerates every figure and table of the DAC'88 HLS tutorial.
//!
//! Usage: `cargo run -p hls-bench --bin experiments -- [ID|all]`
//!
//! IDs: fig1 fig2 fig3 fig4 fig5 fig6 fig7 table-sched table-reg
//!      table-alloc table-interconnect table-ctrl table-dse table-explore
//!      table-estimator table-pipe table-fifo table-serve
//!      table-serve-scaleout verify
//!
//! `table-estimator` also accepts `--smoke` (256-op synthetic instead of
//! 2048) so CI can run it cheaply.

use std::collections::BTreeMap;

use hls_alloc::{
    binding_cost, bus_allocation, clique_allocation, color_registers, connections,
    exhaustive_binding, greedy_allocation, left_edge, minimum_registers, value_intervals,
    CliqueMethod,
};
use hls_bench::comparison_algorithms;
use hls_cdfg::Fx;
use hls_core::{pareto_front, sweep_fus, ControlStyle, Synthesizer};
use hls_ctrl::{compare_encodings, microcode};
use hls_sched::{
    asap_schedule, branch_and_bound_schedule, distribution_graphs, force_directed_schedule,
    list_schedule, pipeline_loop, Algorithm, FuClass, OpClassifier, Priority, ResourceLimits,
};
use hls_workloads::figures::{fig3_graph, fig5_graph, fig6_graph};
use hls_workloads::sources::SQRT;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let experiments: Vec<(&str, fn())> = vec![
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("table-sched", table_sched),
        ("table-reg", table_reg),
        ("table-alloc", table_alloc),
        ("table-interconnect", table_interconnect),
        ("table-ctrl", table_ctrl),
        ("table-dse", table_dse),
        ("table-explore", table_explore),
        ("table-estimator", table_estimator),
        ("table-pipe", table_pipe),
        ("table-chain", table_chain),
        ("table-ifconv", table_ifconv),
        ("table-fifo", table_fifo),
        ("table-serve", table_serve),
        ("table-serve-scaleout", table_serve_scaleout),
        ("verify", verify),
    ];
    match arg.as_str() {
        "all" => {
            for (name, f) in &experiments {
                println!("\n############ {name} ############");
                f();
            }
        }
        other => match experiments.iter().find(|(n, _)| *n == other) {
            Some((_, f)) => f(),
            None => {
                eprintln!("unknown experiment `{other}`");
                eprintln!(
                    "available: all {}",
                    experiments
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        },
    }
}

/// E1 / Fig. 1: the sqrt specification and its two linked graphs.
fn fig1() {
    println!("Fig. 1 — high-level specification and graphs for sqrt\n{SQRT}");
    let cdfg = hls_lang::compile(SQRT).expect("sqrt compiles");
    println!(
        "control-flow graph (DOT):\n{}",
        hls_cdfg::dot::cfg_to_dot(&cdfg)
    );
    for block in cdfg.block_order() {
        let b = cdfg.block(block);
        println!(
            "data-flow graph of `{}` ({} ops, {} arcs):\n{}",
            b.name,
            b.dfg.live_op_count(),
            b.dfg.edge_count(),
            hls_cdfg::dot::dfg_to_dot(&b.dfg, &b.name)
        );
    }
}

/// E2 / Fig. 2: the optimized control graph and the 23- vs 10-step
/// schedules.
fn fig2() {
    println!("Fig. 2 — optimization and scheduling of sqrt\n");
    let serial = Synthesizer::new()
        .without_optimization()
        .universal_fus(1)
        .synthesize_source(SQRT)
        .expect("serial flow");
    println!(
        "one universal FU, unoptimized : {} control steps   (paper: 3 + 4*5 = 23)",
        serial.latency
    );
    let fast = Synthesizer::new()
        .universal_fus(2)
        .synthesize_source(SQRT)
        .expect("optimized flow");
    println!(
        "two FUs after transformations : {} control steps   (paper: 2 + 4*2 = 10)",
        fast.latency
    );
    println!("\ntransformations applied:");
    for s in &fast.pass_stats {
        if s.rewrites > 0 {
            println!("  {:<16} {} rewrites", s.pass.name(), s.rewrites);
        }
    }
    println!("\noptimized schedule:\n{}", fast.schedule_table());
}

/// E3 / Fig. 3: resource-constrained ASAP blocks the critical path.
fn fig3() {
    println!("Fig. 3 — ASAP scheduling (2 adders)\n");
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    let s = asap_schedule(&g, &cls, &limits).expect("asap");
    println!("{}", s.render(&g));
    println!(
        "op 2 (critical) lands in step {} -> {} steps total (optimum: 3)",
        s.step(ops[1]).expect("scheduled") + 1,
        s.num_steps()
    );
}

/// E4 / Fig. 4: list scheduling recovers the optimum on the same graph.
fn fig4() {
    println!("Fig. 4 — list scheduling, priority = path length (2 adders)\n");
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    let s = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("list");
    println!("{}", s.render(&g));
    println!(
        "op 2 scheduled first (step {}) -> {} steps (optimal)",
        s.step(ops[1]).expect("scheduled") + 1,
        s.num_steps()
    );
}

/// E5 / Fig. 5: the distribution graph and the force-directed placement.
fn fig5() {
    println!("Fig. 5 — force-directed distribution graph (3-step constraint)\n");
    let (g, (a1, a2, a3, _)) = fig5_graph();
    let cls = OpClassifier::typed();
    let dg = distribution_graphs(&g, &cls, 3).expect("dg");
    println!("distribution graph of the additions (paper: 1, 1.5, 0.5):");
    for (i, v) in dg[&FuClass::Alu].iter().enumerate() {
        println!(
            "  step {}: {:.2}  {}",
            i + 1,
            v,
            "#".repeat((v * 4.0).round() as usize)
        );
    }
    let s = force_directed_schedule(&g, &cls, 3).expect("fds");
    println!(
        "\nFDS placement: a1 -> step {}, a2 -> step {}, a3 -> step {}",
        s.step(a1).expect("a1") + 1,
        s.step(a2).expect("a2") + 1,
        s.step(a3).expect("a3") + 1
    );
    println!("(paper: a3 is scheduled into step 3, balancing the graph)");
    println!(
        "adders needed after balancing: {}",
        s.fu_usage(&g, &cls)[&FuClass::Alu]
    );
}

/// E6 / Fig. 6: greedy interconnect-aware data-path allocation.
fn fig6() {
    println!("Fig. 6 — greedy data-path allocation\n");
    let (g, (a1, a2, a3, a4, m1, m2)) = fig6_graph();
    let cls = OpClassifier::typed();
    let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).expect("asap");
    let regs = left_edge(&value_intervals(&g, &s));
    let aware = greedy_allocation(&g, &cls, &s, &regs, true).expect("greedy");
    println!("interconnect-aware assignment:");
    for (op, label) in [
        (a1, "a1"),
        (a2, "a2"),
        (a3, "a3"),
        (a4, "a4"),
        (m1, "m1"),
        (m2, "m2"),
    ] {
        let f = aware.binding[&op];
        println!("  {label} -> {} {}", aware.fus[f].class, f);
    }
    let aware_cost = connections(&g, &cls, &s, &regs, &aware)
        .expect("connections")
        .mux_inputs();
    let blind = greedy_allocation(&g, &cls, &s, &regs, false).expect("greedy");
    let blind_cost = connections(&g, &cls, &s, &regs, &blind)
        .expect("connections")
        .mux_inputs();
    println!("\nmux inputs, interconnect-aware : {aware_cost}");
    println!("mux inputs, cost-blind         : {blind_cost}");
    println!("(paper: ignoring interconnection costs makes the final multiplexing more");
    println!(" expensive — on this six-op example the blind order happens to tie; the");
    println!(" effect shows at benchmark scale, see `table-alloc`)");
}

/// E7 / Fig. 7: the clique formulation of allocation.
fn fig7() {
    println!("Fig. 7 — clique partitioning of the compatibility graph\n");
    let (g, _) = fig6_graph();
    let cls = OpClassifier::typed();
    let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).expect("asap");
    for (name, method) in [
        ("exact max-clique", CliqueMethod::ExactMaxClique),
        ("tseng-siewiorek", CliqueMethod::Tseng),
    ] {
        let alloc = clique_allocation(&g, &cls, &s, method);
        println!("{name}:");
        for fu in &alloc.fus {
            let labels: Vec<&str> = fu.ops.iter().map(|&o| g.op(o).label.as_str()).collect();
            println!("  {} shares {{{}}}", fu.class, labels.join(", "));
        }
    }
    println!("(paper: the three operations share the same adder, just as in the greedy example)");
}

/// E8+E9: scheduling algorithms across benchmarks.
fn table_sched() {
    println!("Table — latency by scheduler (typed FUs: 2 ALUs, 2 muls, 1 div, 1 cmp)\n");
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2)
        .with(FuClass::Divider, 1)
        .with(FuClass::Comparator, 1);
    print!("{:<12}", "benchmark");
    for (name, _) in comparison_algorithms() {
        print!("{name:>14}");
    }
    println!();
    for (bench, g) in hls_workloads::all_benchmarks() {
        print!("{bench:<12}");
        for (name, alg) in comparison_algorithms() {
            let steps = match alg {
                Algorithm::BranchAndBound { node_budget } => {
                    branch_and_bound_schedule(&g, &cls, &limits, node_budget).map(|s| s.num_steps())
                }
                Algorithm::Asap => asap_schedule(&g, &cls, &limits).map(|s| s.num_steps()),
                Algorithm::List(p) => list_schedule(&g, &cls, &limits, p).map(|s| s.num_steps()),
                Algorithm::Transformational => {
                    hls_sched::transformational_schedule(&g, &cls, &limits)
                        .map(|(s, _)| s.num_steps())
                }
                _ => unreachable!("comparison set is resource-constrained"),
            };
            match steps {
                Ok(n) => print!("{n:>14}"),
                Err(_) => print!("{:>14}", "-"),
            }
            let _ = name;
        }
        println!();
    }
    println!("\n(claim [6]: list scheduling works nearly as well as branch-and-bound)");
}

/// E10: register allocation across benchmarks.
fn table_reg() {
    println!("Table — registers by allocator (list schedule, 2 ALUs + 2 muls)\n");
    println!(
        "{:<12} {:>9} {:>10} {:>10}",
        "benchmark", "max-live", "left-edge", "coloring"
    );
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2);
    for (bench, g) in hls_workloads::all_benchmarks() {
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedule");
        let ivs = value_intervals(&g, &s);
        println!(
            "{bench:<12} {:>9} {:>10} {:>10}",
            minimum_registers(&ivs),
            left_edge(&ivs).count,
            color_registers(&ivs).count
        );
    }
    println!("\n(REAL's left-edge provably reaches the max-live lower bound)");
}

/// E11: heuristic vs exhaustive binding cost.
fn table_alloc() {
    println!("Table — FU binding cost (10·units + mux inputs), heuristics vs exhaustive\n");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>11} {:>9}",
        "benchmark", "greedy", "blind", "clique", "exhaustive", "optimal?"
    );
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2);
    for (bench, g) in hls_workloads::all_benchmarks() {
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedule");
        let regs = left_edge(&value_intervals(&g, &s));
        let cost = |alloc| binding_cost(&g, &cls, &s, &regs, &alloc).expect("binding cost");
        let greedy = cost(greedy_allocation(&g, &cls, &s, &regs, true).expect("greedy"));
        let blind = cost(greedy_allocation(&g, &cls, &s, &regs, false).expect("greedy"));
        let clique = cost(clique_allocation(
            &g,
            &cls,
            &s,
            CliqueMethod::ExactMaxClique,
        ));
        let budget = if g.live_op_count() <= 16 {
            3_000_000
        } else {
            60_000
        };
        let opt = exhaustive_binding(&g, &cls, &s, &regs, budget).expect("exhaustive");
        println!(
            "{bench:<12} {greedy:>8} {blind:>8} {clique:>8} {:>11} {:>9}",
            opt.cost,
            if opt.optimal { "yes" } else { "budget" }
        );
    }
    println!("\n(Hafer: exhaustive search is optimal but exponential; heuristics stay close)");
}

/// E12: mux- vs bus-based interconnect.
fn table_interconnect() {
    println!("Table — interconnect style (list schedule, 2 ALUs + 2 muls)\n");
    println!(
        "{:<12} {:>6} {:>9} {:>9} | {:>6} {:>8} {:>6} {:>10}",
        "benchmark", "wires", "mux-ins", "mux-wire", "buses", "drivers", "taps", "bus-wire"
    );
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2);
    for (bench, g) in hls_workloads::all_benchmarks() {
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedule");
        let regs = left_edge(&value_intervals(&g, &s));
        let fus = greedy_allocation(&g, &cls, &s, &regs, true).expect("greedy");
        let conn = connections(&g, &cls, &s, &regs, &fus).expect("connections");
        let bus = bus_allocation(&g, &cls, &s, &regs, &fus).expect("buses");
        println!(
            "{bench:<12} {:>6} {:>9} {:>9} | {:>6} {:>8} {:>6} {:>10}",
            conn.wire_count(),
            conn.mux_inputs(),
            conn.wire_count(),
            bus.buses,
            bus.drivers,
            bus.taps,
            bus.wire_count()
        );
    }
    println!("\n(paper: buses can be seen as distributed multiplexers and need less wiring)");
}

/// E13: control styles.
fn table_ctrl() {
    println!("Table — controller implementations (sqrt and diffeq)\n");
    for (name, src, fus) in [
        ("sqrt", SQRT, 2usize),
        ("diffeq", hls_workloads::sources::DIFFEQ, 2),
        ("gcd", hls_workloads::sources::GCD, 1),
    ] {
        let design = Synthesizer::new()
            .universal_fus(fus)
            .control(ControlStyle::Microcode)
            .synthesize_source(src)
            .expect("flow");
        println!(
            "{name}: {} states, {} flags",
            design.fsm.len(),
            design.fsm.flags.len()
        );
        let enc = compare_encodings(&design.fsm).expect("encodings");
        println!(
            "  {:<9} {:>5} {:>7} {:>9}",
            "encoding", "FFs", "terms", "literals"
        );
        for (style, r) in &enc {
            println!(
                "  {style:<9} {:>5} {:>7} {:>9}",
                r.state_bits, r.terms, r.literals
            );
        }
        let mp = microcode(&design.fsm);
        println!(
            "  microcode: {} words; horizontal {}b/word ({}b ROM), encoded {}b/word ({}b ROM)\n",
            mp.rom.len(),
            mp.horizontal_width(),
            mp.horizontal_rom_bits(),
            mp.encoded_width(),
            mp.encoded_rom_bits()
        );
    }
}

/// E15: design-space exploration.
fn table_dse() {
    println!("Table — design-space exploration (universal-FU sweep)\n");
    for (name, src) in [("sqrt", SQRT), ("diffeq", hls_workloads::sources::DIFFEQ)] {
        println!("{name}:");
        println!(
            "  {:<4} {:>8} {:>9} {:>6} {:>8}",
            "fus", "latency", "area(GE)", "regs", "mux-ins"
        );
        let points = sweep_fus(&Synthesizer::new(), src, 5).expect("sweep");
        for p in &points {
            println!(
                "  {:<4} {:>8} {:>9.0} {:>6} {:>8}",
                p.fus, p.latency, p.area, p.registers, p.mux_inputs
            );
        }
        let front = pareto_front(&points);
        let ids: Vec<String> = front.iter().map(|p| format!("{}FU", p.fus)).collect();
        println!("  pareto front: {}\n", ids.join(", "));
    }
}

/// E15b: parallel, cached exploration — serial vs parallel grid sweep
/// wall-clock on the diffeq and elliptic-wave-filter workloads, with
/// memo-cache hit rates.
fn table_explore() {
    use hls_core::{sweep_grid_cdfg, Explorer, GridSpec};
    use std::time::Instant;

    println!("Table — serial vs parallel design-space exploration\n");
    let base = Synthesizer::new();
    let spec = GridSpec {
        fus: (1..=4).collect(),
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
        ],
        controls: vec![
            ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    };
    let workloads = [
        (
            "diffeq",
            hls_lang::compile(hls_workloads::sources::DIFFEQ).expect("compiles"),
        ),
        (
            "wave-filter",
            hls_workloads::benchmarks::to_cdfg("ewf", hls_workloads::benchmarks::ewf()),
        ),
    ];
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>12} {:>9} {:>10}",
        "workload", "points", "serial", "par(cold)", "par(warm)", "speedup", "hit-rate"
    );
    for (name, cdfg) in &workloads {
        let t = Instant::now();
        let serial = sweep_grid_cdfg(&base, cdfg, &spec).expect("serial sweep");
        let t_serial = t.elapsed();

        let threads = 4;
        let explorer = Explorer::with_threads(threads);
        let t = Instant::now();
        let cold = explorer
            .sweep_grid_cdfg(&base, cdfg, &spec)
            .expect("parallel sweep");
        let t_cold = t.elapsed();
        let t = Instant::now();
        let warm = explorer
            .sweep_grid_cdfg(&base, cdfg, &spec)
            .expect("warm sweep");
        let t_warm = t.elapsed();

        assert_eq!(
            serial, cold,
            "parallel sweep must match serial byte-for-byte"
        );
        assert_eq!(serial, warm, "warm sweep must match serial byte-for-byte");
        let stats = explorer.cache_stats();
        println!(
            "{name:<12} {:>7} {:>12?} {:>12?} {:>12?} {:>8.2}x {:>9.0}%",
            spec.len(),
            t_serial,
            t_cold,
            t_warm,
            t_serial.as_secs_f64() / t_cold.as_secs_f64().max(1e-9),
            stats.hit_rate() * 100.0
        );
        let front = pareto_front(&serial);
        let ids: Vec<String> = front
            .iter()
            .map(|p| format!("{}FU/{}", p.fus, p.algorithm.name()))
            .collect();
        println!(
            "  pareto front ({} of {} points): {}",
            front.len(),
            serial.len(),
            ids.join(", ")
        );
    }
    println!(
        "\n(parallel sweep at {} worker(s); speedup tracks core count, and the warm pass is\n\
         pure cache: every point a hit, zero resynthesis)",
        4
    );
}

/// E23: fast QoR estimation with dominance pruning — exhaustive vs
/// estimator-pruned grid sweep wall-clock on diffeq and a synthetic
/// 2048-op DFG (256 under `--smoke`), both explorers cold so no warm
/// memo cache flatters either side. The pruned Pareto front is asserted
/// byte-identical to the exhaustive one, and both headline workloads
/// must skip at least 30% of the grid.
fn table_estimator() {
    use hls_core::{Explorer, GridSpec};
    use hls_workloads::random::{random_dag, RandomDagConfig};
    use std::time::Instant;

    let smoke = std::env::args().any(|a| a == "--smoke");
    let synth_ops = if smoke { 256 } else { 2048 };
    println!(
        "Table — exhaustive vs estimator-pruned exploration{}\n",
        if smoke { " (smoke)" } else { "" }
    );
    let base = Synthesizer::new();
    let spec = GridSpec {
        fus: (1..=4).collect(),
        algorithms: vec![
            Algorithm::Asap,
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
        ],
        controls: vec![
            ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
            ControlStyle::Microcode,
        ],
    };
    let synth_cdfg = {
        let dfg = random_dag(&RandomDagConfig {
            ops: synth_ops,
            inputs: 16,
            window: 24,
            ..Default::default()
        });
        let mut cdfg = hls_cdfg::Cdfg::new("synth");
        let b = cdfg.add_block("body", dfg);
        cdfg.set_body(hls_cdfg::Region::Block(b));
        cdfg
    };
    let workloads = [
        (
            "diffeq".to_string(),
            hls_lang::compile(hls_workloads::sources::DIFFEQ).expect("compiles"),
        ),
        (format!("synth-{synth_ops}"), synth_cdfg),
    ];
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}",
        "workload", "points", "exhaustive", "pruned", "speedup", "skipped", "skip-%", "front"
    );
    for (name, cdfg) in &workloads {
        let t = Instant::now();
        let exhaustive = Explorer::with_threads(2)
            .sweep_grid_cdfg(&base, cdfg, &spec)
            .expect("exhaustive sweep");
        let t_full = t.elapsed();

        let t = Instant::now();
        let sweep = Explorer::with_threads(2)
            .sweep_grid_cdfg_pruned(&base, cdfg, &spec)
            .expect("pruned sweep");
        let t_pruned = t.elapsed();

        let front_ok = pareto_front(&sweep.points) == pareto_front(&exhaustive);
        let skip_pct = 100.0 * sweep.stats.pruned as f64 / sweep.stats.estimated.max(1) as f64;
        println!(
            "{name:<12} {:>7} {:>12?} {:>12?} {:>8.2}x {:>8} {:>7.0}% {:>7}",
            spec.len(),
            t_full,
            t_pruned,
            t_full.as_secs_f64() / t_pruned.as_secs_f64().max(1e-9),
            sweep.stats.pruned,
            skip_pct,
            if front_ok { "same" } else { "DIFFERS" }
        );
        assert!(front_ok, "{name}: pruned front diverged from exhaustive");
        assert_eq!(sweep.stats.agreement, 1.0, "{name}: interval self-check");
        assert!(
            sweep.stats.pruned * 10 >= sweep.stats.estimated * 3,
            "{name}: pruned sweep skipped under 30% of the grid ({}/{})",
            sweep.stats.pruned,
            sweep.stats.estimated
        );
    }
    println!(
        "\n(both sweeps start with cold memo caches; the pruned pass estimates every\n\
         point from ASAP/ALAP bounds first and synthesizes only the possibly-\n\
         undominated ones — the front is provably, and here byte-for-byte, intact)"
    );
}

/// E16: loop pipelining (Sehwa).
fn table_pipe() {
    println!("Table — FIR16 loop pipelining (Sehwa-style)\n");
    println!(
        "{:<6} {:>7} {:>7} {:>4} {:>8} {:>8}",
        "muls", "ResMII", "RecMII", "II", "latency", "speedup"
    );
    let cls = OpClassifier::typed();
    let fir = hls_workloads::benchmarks::fir16();
    for m in [1usize, 2, 4, 8, 16] {
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Multiplier, m)
            .with(FuClass::Alu, m);
        match pipeline_loop(&fir, &cls, &limits) {
            Ok(p) => println!(
                "{m:<6} {:>7} {:>7} {:>4} {:>8} {:>7.2}x",
                p.res_mii, p.rec_mii, p.ii, p.latency, p.speedup
            ),
            Err(e) => println!("{m:<6} {e}"),
        }
    }
    println!("\n(throughput follows 16/muls until the recurrence floor)");
}

/// E17 (ablation): operator chaining under a cycle-time budget.
///
/// The §3.1.1 observation: efficient schedules need real operator delays.
/// Sweeping the clock period trades steps against cycle time; total time =
/// steps × effective clock (the clock stretches to the slowest chained
/// path, e.g. the 80 ns multiplier).
fn table_chain() {
    use hls_sched::{chained_schedule, DelayModel};
    println!("Table — operator chaining on diffeq and ewf (2 ALUs + 2 muls)\n");
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Alu, 2)
        .with(FuClass::Multiplier, 2);
    let dm = DelayModel::standard();
    for (name, g) in [
        ("diffeq", hls_workloads::benchmarks::diffeq()),
        ("ewf", hls_workloads::benchmarks::ewf()),
    ] {
        println!("{name}:");
        println!(
            "  {:<10} {:>6} {:>10} {:>11}",
            "clock(ns)", "steps", "eff-ns", "total(ns)"
        );
        // Unit-latency baseline: every op one step at the slowest-op clock.
        let unit = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedule");
        let worst = 80.0f64; // the multiplier
        println!(
            "  {:<10} {:>6} {:>10.0} {:>11.0}   (unit-latency baseline)",
            "-",
            unit.num_steps(),
            worst,
            unit.num_steps() as f64 * worst
        );
        for cycle in [25.0f64, 50.0, 100.0, 200.0] {
            let cs = chained_schedule(&g, &cls, &limits, &dm, cycle).expect("chains");
            cs.verify(&g, &cls, &limits, &dm).expect("valid");
            // Minimum feasible period: the longest combinational path the
            // schedule actually created (an over-long op stretches it).
            let clock = cs.critical_ns;
            println!(
                "  {:<10} {:>6} {:>10.0} {:>11.0}",
                cycle,
                cs.schedule.num_steps(),
                clock,
                cs.schedule.num_steps() as f64 * clock
            );
        }
        println!();
    }
    println!("(longer clocks chain more ops per step: fewer steps, longer cycles —");
    println!(" the §3.1.1 schedule/delay interdependence)");
}

/// E18 (ablation): if-conversion — control vs datapath complexity.
fn table_ifconv() {
    println!("Table — if-conversion on gcd (control vs datapath trade-off)\n");
    println!(
        "{:<14} {:>7} {:>6} {:>8} {:>9}",
        "flow", "states", "flags", "mux-ins", "verified"
    );
    for (name, convert) in [("branching", false), ("if-converted", true)] {
        let mut s = Synthesizer::new().universal_fus(2);
        if convert {
            s = s.with_if_conversion();
        }
        let design = s
            .synthesize_source(hls_workloads::sources::GCD)
            .expect("flow");
        let eq = design.verify(20, (1.0, 64.0)).expect("simulates");
        println!(
            "{name:<14} {:>7} {:>6} {:>8} {:>9}",
            design.fsm.len(),
            design.fsm.flags.len(),
            design.datapath.mux_inputs,
            if eq.equivalent { "yes" } else { "NO" }
        );
        assert!(eq.equivalent);
    }
    println!("\n(the tutorial's open issue: \"trading off complexity between the control");
    println!(" and the data paths\" — branch states become datapath muxes)");
}

/// E21 (systems): channel buffering vs pipeline makespan.
///
/// PIPE3 (producer → transform → consumer) with both channels swept
/// from rendezvous (`chan c : fix`) through FIFO depths 1/2/4
/// (`chan c : fix[N]`). Rendezvous couples every stage pair clock-for-
/// clock; one slot of buffering lets the producer run ahead, shrinking
/// the makespan. The static deadlock verdict is printed alongside —
/// every variant must be proven free.
fn table_fifo() {
    use std::collections::BTreeMap;

    println!("Table — PIPE3 makespan vs channel FIFO depth\n");
    println!(
        "{:<7} {:>8} {:>12} {:>11} {:>9} {:>14}",
        "depth", "cycles", "prod done", "rendezvous", "Y", "verdict"
    );
    let syn = Synthesizer::new();
    for depth in [0u32, 1, 2, 4] {
        let src = hls_workloads::sources::pipe3_with_depth(depth);
        let sys = syn.synthesize_system_source(&src).expect("synthesize");
        let mut inputs = BTreeMap::new();
        inputs.insert("X".to_string(), Fx::from_i64(3));
        let r = sys.run(&inputs).expect("simulate");
        println!(
            "{:<7} {:>8} {:>12} {:>11} {:>9} {:>14}",
            if depth == 0 {
                "rdv".to_string()
            } else {
                format!("fix[{depth}]")
            },
            r.cycles,
            r.process_cycles[0],
            r.rendezvous,
            r.outputs["Y"].to_string(),
            sys.deadlock.to_string(),
        );
    }
    println!("\n(one slot of buffering decouples the stages; PIPE3's three");
    println!(" tokens saturate at depth 1, so deeper FIFOs buy nothing more)");
}

/// E19 (systems): synthesis-service throughput scaling.
///
/// Starts an in-process `hls-serve` at several worker-pool sizes and
/// drives it with closed-loop TCP clients (the `hls-loadgen` model). The
/// cache is disabled so every request pays for real synthesis — the
/// table shows how the bounded-queue worker pool scales with threads.
fn table_serve() {
    use hls_serve::{Server, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    println!("Table — hls-serve throughput vs worker threads (cache off)\n");
    let requests = hls_bench::harness::samples() * 8; // scales with HLS_BENCH_SAMPLES
    let clients = 8usize;
    let bodies: Vec<String> = [
        (SQRT, 1u32),
        (SQRT, 2),
        (hls_workloads::sources::DIFFEQ, 2),
        (hls_workloads::sources::GCD, 2),
    ]
    .iter()
    .map(|(src, fus)| {
        format!(r#"{{"source":{src:?},"config":{{"fus":{fus},"algorithm":"list/path"}}}}"#)
    })
    .collect();

    println!(
        "{:<8} {:>9} {:>11} {:>11} {:>11} {:>9}",
        "threads", "req/s", "p50", "p95", "p99", "speedup"
    );
    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            queue: requests + clients, // no shedding: measure the pool
            cache_capacity: 0,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let next = Arc::new(AtomicUsize::new(0));
        let lats: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let started = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let next = Arc::clone(&next);
                let lats = Arc::clone(&lats);
                let bodies = bodies.clone();
                std::thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= requests {
                        return;
                    }
                    let body = &bodies[i % bodies.len()];
                    let t = Instant::now();
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
                    write!(
                        s,
                        "POST /v1/synthesize HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .expect("write");
                    let mut raw = String::new();
                    s.read_to_string(&mut raw).expect("read");
                    assert!(raw.starts_with("HTTP/1.1 200"), "bad reply: {raw}");
                    lats.lock().unwrap().push(t.elapsed().as_nanos() as u64);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client");
        }
        let elapsed = started.elapsed();
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");

        let mut lat = lats.lock().unwrap().clone();
        lat.sort_unstable();
        let pct =
            |p: f64| Duration::from_nanos(lat[((lat.len() as f64 - 1.0) * p).round() as usize]);
        let rps = requests as f64 / elapsed.as_secs_f64();
        let speedup = rps / *baseline.get_or_insert(rps);
        println!(
            "{threads:<8} {rps:>9.0} {:>11?} {:>11?} {:>11?} {speedup:>8.2}x",
            pct(0.50),
            pct(0.95),
            pct(0.99)
        );
    }
    println!(
        "\n({requests} requests per row, {clients} closed-loop clients; each request is a\n\
         full BSL -> RTL synthesis — throughput tracks the worker-pool size)"
    );
}

/// E13b: scale-out — the shard front over 1/2/4 single-thread workers.
fn table_serve_scaleout() {
    use hls_serve::shard::{Front, FrontConfig};
    use hls_serve::{Server, ServerConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    println!("Table — shard front throughput vs worker count (cache off)\n");
    let requests = hls_bench::harness::samples() * 8;
    let clients = 8usize;
    // 24 distinct cdfg×config keys, so the consistent hash spreads the
    // closed-loop traffic over every worker in the ring.
    let bodies: Vec<String> = [
        SQRT,
        hls_workloads::sources::DIFFEQ,
        hls_workloads::sources::GCD,
    ]
    .iter()
    .flat_map(|src| {
        [1u32, 2, 3, 4].into_iter().flat_map(move |fus| {
            ["asap", "list/path"].into_iter().map(move |alg| {
                format!(r#"{{"source":{src:?},"config":{{"fus":{fus},"algorithm":{alg:?}}}}}"#)
            })
        })
    })
    .collect();

    println!(
        "{:<8} {:>9} {:>11} {:>11} {:>11} {:>9}",
        "workers", "req/s", "p50", "p95", "p99", "speedup"
    );
    let mut baseline = None;
    for n_workers in [1usize, 2, 4] {
        // Fresh single-thread workers per row: scaling comes only from
        // adding processes-worth of shards, never from a warm cache.
        let mut worker_handles = Vec::new();
        let mut runners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n_workers {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                queue: requests + clients,
                cache_capacity: 0,
                ..ServerConfig::default()
            })
            .expect("bind worker");
            addrs.push(server.local_addr().to_string());
            worker_handles.push(server.handle());
            runners.push(std::thread::spawn(move || server.run()));
        }
        let front = Front::bind(FrontConfig {
            addr: "127.0.0.1:0".into(),
            workers: addrs,
            threads: clients,
            queue: requests + clients,
            deadline: Duration::from_secs(60),
            retry_after_ms: 1000,
        })
        .expect("bind front");
        let addr = front.local_addr();
        let front_handle = front.handle();
        runners.push(std::thread::spawn(move || front.run()));

        let next = Arc::new(AtomicUsize::new(0));
        let lats: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let started = Instant::now();
        let loaders: Vec<_> = (0..clients)
            .map(|_| {
                let next = Arc::clone(&next);
                let lats = Arc::clone(&lats);
                let bodies = bodies.clone();
                std::thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= requests {
                        return;
                    }
                    let body = &bodies[i % bodies.len()];
                    let t = Instant::now();
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.set_read_timeout(Some(Duration::from_secs(60))).ok();
                    write!(
                        s,
                        "POST /v1/synthesize HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .expect("write");
                    let mut raw = String::new();
                    s.read_to_string(&mut raw).expect("read");
                    assert!(raw.starts_with("HTTP/1.1 200"), "bad reply: {raw}");
                    lats.lock().unwrap().push(t.elapsed().as_nanos() as u64);
                })
            })
            .collect();
        for l in loaders {
            l.join().expect("client");
        }
        let elapsed = started.elapsed();
        front_handle.shutdown();
        for w in &worker_handles {
            w.shutdown();
        }
        for r in runners {
            r.join().expect("runner thread").expect("runner result");
        }

        let mut lat = lats.lock().unwrap().clone();
        lat.sort_unstable();
        let pct =
            |p: f64| Duration::from_nanos(lat[((lat.len() as f64 - 1.0) * p).round() as usize]);
        let rps = requests as f64 / elapsed.as_secs_f64();
        let speedup = rps / *baseline.get_or_insert(rps);
        println!(
            "{n_workers:<8} {rps:>9.0} {:>11?} {:>11?} {:>11?} {speedup:>8.2}x",
            pct(0.50),
            pct(0.95),
            pct(0.99)
        );
    }
    println!(
        "\n({requests} requests per row, {clients} closed-loop clients, 24 distinct\n\
         cdfg x config keys; each worker is a 1-thread process-equivalent, so the\n\
         row-to-row gain is pure shard scale-out — expect ~linear on a\n\
         multi-core host and flat on a single-core one)"
    );
}

/// E14: verification of every synthesized design.
fn verify() {
    println!("Verification — RTL vs behavioral co-simulation\n");
    for (name, src, range, fus) in [
        ("sqrt", SQRT, (0.05, 1.0), 2usize),
        ("gcd", hls_workloads::sources::GCD, (1.0, 64.0), 1),
        ("diffeq", hls_workloads::sources::DIFFEQ, (0.1, 0.9), 3),
        ("fir4", hls_workloads::sources::FIR4, (-2.0, 2.0), 2),
    ] {
        let design = Synthesizer::new()
            .universal_fus(fus)
            .synthesize_source(src)
            .expect("flow");
        let eq = design.verify(50, range).expect("simulation");
        println!(
            "{name:<8} {} vectors, {} total cycles, equivalent = {}",
            eq.vectors, eq.total_cycles, eq.equivalent
        );
        assert!(eq.equivalent, "{name} failed: {:?}", eq.mismatch);
    }
    // A spot numeric check, for the skeptical.
    let design = Synthesizer::new().synthesize_source(SQRT).expect("flow");
    let run = design
        .run(&BTreeMap::from([("X".to_string(), Fx::from_f64(0.81))]))
        .expect("run");
    println!(
        "\nsqrt(0.81) = {} in {} cycles",
        run.outputs["Y"], run.cycles
    );
}
