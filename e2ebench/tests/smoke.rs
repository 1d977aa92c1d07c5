//! `--smoke` runs every workload untraced and traced at tiny sizes. It
//! must pass every output check and print every metric `BENCHMARK.json`
//! names, with the unit named there.

use std::process::Command;

use hls_serve::json::{parse, Json};

fn names_and_units(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn smoke_prints_every_named_metric_and_passes_every_check() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();

    let out = Command::new(env!("CARGO_BIN_EXE_hls-e2ebench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| parse(l).expect("result line is JSON"))
        .collect();
    assert_eq!(results.len(), 2 * workloads.len(), "{stdout}");
    for (i, r) in results.iter().enumerate() {
        let what = format!("{} trace={}", workloads[i / 2], i % 2);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{what}");
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{what}");
        assert!(
            r.get("attempted").and_then(Json::as_u64) >= Some(1),
            "{what}"
        );
        let table = if i % 2 == 0 {
            "end_to_end"
        } else {
            "per_layer"
        };
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("{what}: no metrics object");
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{what} {name}"
                );
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(printed, names_and_units(&bench, table), "{what}");
    }
}
