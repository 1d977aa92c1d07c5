//! A memory-bound behavior: selection-sort over an on-chip RAM.
//!
//! Demonstrates BSL arrays → named memories with a threaded memory-state
//! token, the `MemPort` resource class, and RTL simulation with real
//! loads/stores. Run with `cargo run --example sort_engine`.

use std::collections::BTreeMap;

use hls::sched::{FuClass, ResourceLimits};
use hls::{Fx, Synthesizer};

/// Sorts A[0..4] (loaded from the inputs) with selection sort, then emits
/// the minimum, median, and maximum.
const SORT: &str = "
program sort5;
input V0, V1, V2, V3, V4;
output MIN, MED, MAX;
array A[8];
var I : int<4>;
var J : int<4>;
var BEST, TMP;
begin
  A[0] := V0;  A[1] := V1;  A[2] := V2;  A[3] := V3;  A[4] := V4;
  I := 0;
  while I < 4 do
    BEST := I;
    J := I + 1;
    while J < 5 do
      if A[J] < A[BEST] then
        BEST := J;
      end;
      J := J + 1;
    end;
    TMP := A[I];
    A[I] := A[BEST];
    A[BEST] := TMP;
    I := I + 1;
  end;
  MIN := A[0];
  MED := A[2];
  MAX := A[4];
end.
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Typed resources with a single memory port — the realistic constraint
    // for an on-chip RAM.
    let design = Synthesizer::new()
        .typed_fus(
            ResourceLimits::unlimited()
                .with(FuClass::Alu, 1)
                .with(FuClass::Comparator, 1)
                .with(FuClass::MemPort, 1),
        )
        .synthesize_source(SORT)?;

    println!("{}", design.report());
    println!("memories: {:?}\n", design.datapath.vars.memories());

    let vectors = [
        [5.0, 1.0, 4.0, 2.0, 3.0],
        [9.0, 9.0, 1.0, 3.0, 3.0],
        [-1.0, -5.0, 0.0, 2.5, 2.0],
    ];
    println!("input                          min   med   max   cycles");
    for v in vectors {
        let inputs: BTreeMap<String, Fx> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| (format!("V{i}"), Fx::from_f64(x)))
            .collect();
        let run = design.run(&inputs)?;
        let mut sorted = v;
        sorted.sort_by(f64::total_cmp);
        println!(
            "{:<30} {:<5} {:<5} {:<5} {}",
            format!("{v:?}"),
            run.outputs["MIN"].to_f64(),
            run.outputs["MED"].to_f64(),
            run.outputs["MAX"].to_f64(),
            run.cycles
        );
        assert_eq!(run.outputs["MIN"].to_f64(), sorted[0]);
        assert_eq!(run.outputs["MED"].to_f64(), sorted[2]);
        assert_eq!(run.outputs["MAX"].to_f64(), sorted[4]);
    }

    // And the behavioral/RTL equivalence check, as always.
    let eq = design.verify(12, (-8.0, 8.0))?;
    println!(
        "\nverified on {} random vectors: {}",
        eq.vectors, eq.equivalent
    );
    assert!(eq.equivalent);
    Ok(())
}
