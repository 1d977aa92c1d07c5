//! Machine-readable benchmark baselines and the regression gate.
//!
//! `perf_gate --write BENCH_5.json` records the median wall time of each
//! gate benchmark; `perf_gate --check BENCH_5.json` re-runs the suite and
//! fails when any benchmark regressed more than the committed threshold.
//! (The median, not the minimum: on 1-CPU hosts every sample is inflated
//! by scheduler interference, which makes min-of-N as volatile as a
//! single sample, while the median tracks the typical cost and the
//! calibration rescale cancels the shared inflation. See
//! `suite::run_suite` for the history.)
//!
//! Raw wall times do not transfer between machines, so every report also
//! records a *calibration* measurement — a fixed, pure-CPU workload. At
//! check time each baseline number is rescaled by the ratio of the two
//! calibration times before the threshold is applied, which makes the
//! gate about relative algorithmic cost rather than absolute CPU speed.
//! Residual host noise that survives the rescale can be absorbed with
//! `HLS_BENCH_TOLERANCE` — extra allowed slowdown in percent, added on
//! top of the baseline's committed threshold at check time (see
//! [`env_tolerance_pct`] / [`compare_with`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The format tag written into every report.
pub const SCHEMA: &str = "hls-bench-gate-v1";

/// Default regression threshold, in percent over the rescaled baseline.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Absolute slack below which a ratio excursion never fails the gate.
/// Microsecond-scale benchmarks jitter by tens of microseconds at CI's
/// short sample counts even using the min estimator; a genuine 2x
/// regression on anything worth gating still clears this delta, and a
/// regression on a sub-floor benchmark also shows on the
/// millisecond-scale benchmarks sharing its code path, which the ratio
/// threshold still guards.
pub const NOISE_FLOOR_NANOS: u64 = 100_000;

/// One recorded benchmark suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct GateReport {
    /// Allowed slowdown in percent before the gate fails.
    pub threshold_pct: f64,
    /// Minimum nanos of the calibration workload on the recording machine.
    pub calibration_nanos: u64,
    /// Logical CPUs of the recording machine
    /// (`std::thread::available_parallelism`); `None` in reports written
    /// before it was recorded. Multi-threaded entries such as
    /// `explore/pruned-vs-exhaustive` only compare across equal counts.
    pub nproc: Option<usize>,
    /// Minimum nanos per benchmark label.
    pub benchmarks: BTreeMap<String, u64>,
    /// Historical reference points that are *not* gated — e.g. the
    /// pre-optimization "before" numbers kept for the record.
    pub reference: BTreeMap<String, u64>,
}

impl GateReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"threshold_pct\": {},", self.threshold_pct);
        let _ = writeln!(s, "  \"calibration_nanos\": {},", self.calibration_nanos);
        if let Some(nproc) = self.nproc {
            let _ = writeln!(s, "  \"nproc\": {nproc},");
        }
        let render_map = |s: &mut String, name: &str, map: &BTreeMap<String, u64>, last: bool| {
            let _ = writeln!(s, "  \"{name}\": {{");
            for (i, (k, v)) in map.iter().enumerate() {
                let comma = if i + 1 == map.len() { "" } else { "," };
                let _ = writeln!(s, "    \"{k}\": {v}{comma}");
            }
            let _ = writeln!(s, "  }}{}", if last { "" } else { "," });
        };
        render_map(&mut s, "benchmarks", &self.benchmarks, false);
        render_map(&mut s, "reference", &self.reference, true);
        s.push_str("}\n");
        s
    }

    /// Parses a report written by [`GateReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn parse(input: &str) -> Result<GateReport, String> {
        let value = Json::parse(input)?;
        let Json::Object(top) = value else {
            return Err("top-level value is not an object".into());
        };
        let schema = match top.get("schema") {
            Some(Json::String(s)) => s.clone(),
            _ => return Err("missing \"schema\" string".into()),
        };
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let threshold_pct = match top.get("threshold_pct") {
            Some(Json::Number(n)) if *n > 0.0 => *n,
            _ => return Err("missing or non-positive \"threshold_pct\"".into()),
        };
        let calibration_nanos = match top.get("calibration_nanos") {
            Some(Json::Number(n)) if *n >= 1.0 => *n as u64,
            _ => return Err("missing or non-positive \"calibration_nanos\"".into()),
        };
        let nproc = match top.get("nproc") {
            None => None,
            Some(Json::Number(n)) if *n >= 1.0 => Some(*n as usize),
            Some(_) => return Err("\"nproc\" is not a positive number".into()),
        };
        let read_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            let mut out = BTreeMap::new();
            match top.get(key) {
                None => Ok(out),
                Some(Json::Object(map)) => {
                    for (k, v) in map {
                        match v {
                            Json::Number(n) if *n >= 0.0 => {
                                out.insert(k.clone(), *n as u64);
                            }
                            _ => return Err(format!("\"{key}\".\"{k}\" is not a number")),
                        }
                    }
                    Ok(out)
                }
                Some(_) => Err(format!("\"{key}\" is not an object")),
            }
        };
        Ok(GateReport {
            threshold_pct,
            calibration_nanos,
            nproc,
            benchmarks: read_map("benchmarks")?,
            reference: read_map("reference")?,
        })
    }
}

/// One row of the before/after comparison table.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Benchmark label.
    pub name: String,
    /// Baseline median, rescaled to the checking machine.
    pub baseline_nanos: u64,
    /// Current median on the checking machine.
    pub current_nanos: u64,
    /// current / rescaled-baseline (1.0 = unchanged, 2.0 = twice as slow).
    pub ratio: f64,
    /// `true` when the row exceeds the threshold.
    pub failed: bool,
}

/// The outcome of checking a run against a baseline.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Per-benchmark comparison rows (baseline order).
    pub rows: Vec<GateRow>,
    /// Human-readable failure descriptions; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// `true` when no benchmark regressed past the threshold.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the before/after table for CI logs.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<40} {:>14} {:>14} {:>8}  status",
            "benchmark", "baseline", "current", "ratio"
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{:<40} {:>14} {:>14} {:>7.2}x  {}",
                row.name,
                format_nanos(row.baseline_nanos),
                format_nanos(row.current_nanos),
                row.ratio,
                if row.failed { "REGRESSED" } else { "ok" }
            );
        }
        s
    }
}

/// Formats nanoseconds with a readable unit.
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Reads the `HLS_BENCH_TOLERANCE` knob: extra allowed slowdown in
/// percent, added to the baseline's threshold at check time. Unset means
/// zero; a set-but-invalid (non-numeric or negative) value warns and
/// falls back to zero so a typo never silently widens the gate.
pub fn env_tolerance_pct() -> f64 {
    match std::env::var("HLS_BENCH_TOLERANCE") {
        Err(_) => 0.0,
        Ok(raw) => match raw.trim().parse::<f64>() {
            Ok(pct) if pct >= 0.0 && pct.is_finite() => pct,
            _ => {
                eprintln!(
                    "warning: ignoring HLS_BENCH_TOLERANCE={raw:?} \
                     (expected a non-negative number of percent)"
                );
                0.0
            }
        },
    }
}

/// Compares `current` against `baseline`, rescaling by calibration.
///
/// A benchmark present in the baseline but missing from the current run is
/// a failure (the gate must never silently lose coverage); a benchmark
/// only in the current run is reported but never fails.
pub fn compare(baseline: &GateReport, current: &GateReport) -> GateOutcome {
    compare_with(baseline, current, 0.0)
}

/// [`compare`] with `extra_tolerance_pct` percentage points of slack on
/// top of the baseline's threshold — the `HLS_BENCH_TOLERANCE` hook for
/// hosts whose residual noise survives the calibration rescale. The
/// slack applies to the *relative* limit only; the absolute
/// [`NOISE_FLOOR_NANOS`] guard is unchanged.
pub fn compare_with(
    baseline: &GateReport,
    current: &GateReport,
    extra_tolerance_pct: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    let scale = if baseline.calibration_nanos == 0 {
        1.0
    } else {
        current.calibration_nanos as f64 / baseline.calibration_nanos as f64
    };
    let limit = 1.0 + (baseline.threshold_pct + extra_tolerance_pct) / 100.0;
    for (name, &base) in &baseline.benchmarks {
        let Some(&cur) = current.benchmarks.get(name) else {
            outcome
                .failures
                .push(format!("{name}: missing from the current run"));
            continue;
        };
        let scaled_base = (base as f64 * scale).max(1.0);
        let ratio = cur as f64 / scaled_base;
        let failed = ratio > limit && cur.saturating_sub(scaled_base as u64) > NOISE_FLOOR_NANOS;
        if failed {
            outcome.failures.push(format!(
                "{name}: {} vs rescaled baseline {} ({:.0}% over the {}% threshold)",
                format_nanos(cur),
                format_nanos(scaled_base as u64),
                (ratio - 1.0) * 100.0,
                baseline.threshold_pct + extra_tolerance_pct
            ));
        }
        outcome.rows.push(GateRow {
            name: name.clone(),
            baseline_nanos: scaled_base as u64,
            current_nanos: cur,
            ratio,
            failed,
        });
    }
    for name in current.benchmarks.keys() {
        if !baseline.benchmarks.contains_key(name) {
            outcome.rows.push(GateRow {
                name: format!("{name} (new)"),
                baseline_nanos: 0,
                current_nanos: current.benchmarks[name],
                ratio: 1.0,
                failed: false,
            });
        }
    }
    outcome
}

/// The JSON subset the gate reads: objects, strings, and numbers.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Object(BTreeMap<String, Json>),
    String(String),
    Number(f64),
}

impl Json {
    fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("unexpected {other:?} at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            // The writer never emits escapes or control characters, so an
            // escape in the input is a format error, not a feature.
            if b == b'\\' {
                return Err(format!(
                    "escape sequences unsupported (offset {})",
                    self.pos
                ));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GateReport {
        GateReport {
            threshold_pct: 25.0,
            calibration_nanos: 40_000_000,
            nproc: Some(2),
            benchmarks: [("sched/force/synth-2048".to_string(), 900_000_000u64)]
                .into_iter()
                .collect(),
            reference: [(
                "sched/force/synth-2048/pre-dense".to_string(),
                3_000_000_000u64,
            )]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let parsed = GateReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn nproc_round_trips_and_may_be_absent() {
        let r = sample();
        let text = r.to_json();
        assert!(text.contains("\"nproc\": 2,"), "{text}");
        assert_eq!(GateReport::parse(&text).unwrap().nproc, Some(2));
        // A baseline written before `nproc` was recorded still loads.
        let old = text.replace("  \"nproc\": 2,\n", "");
        assert!(!old.contains("nproc"));
        let parsed = GateReport::parse(&old).unwrap();
        assert_eq!(parsed.nproc, None);
        assert_eq!(parsed.benchmarks, r.benchmarks);
        let unrecorded = GateReport { nproc: None, ..r };
        assert_eq!(
            GateReport::parse(&unrecorded.to_json()).unwrap(),
            unrecorded
        );
        let bad = text.replace("\"nproc\": 2", "\"nproc\": 0");
        assert!(GateReport::parse(&bad).unwrap_err().contains("nproc"));
    }

    #[test]
    fn parse_rejects_bad_schema() {
        let text = sample().to_json().replace(SCHEMA, "other-v9");
        assert!(GateReport::parse(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GateReport::parse("not json").is_err());
        assert!(GateReport::parse("{\"schema\": \"hls-bench-gate-v1\"").is_err());
        assert!(GateReport::parse("{}").is_err());
    }

    #[test]
    fn unchanged_run_passes() {
        let base = sample();
        let outcome = compare(&base, &base);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.rows.len(), 1);
        assert!(!outcome.rows[0].failed);
    }

    #[test]
    fn doubled_time_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.benchmarks
            .insert("sched/force/synth-2048".into(), 1_800_000_000);
        let outcome = compare(&base, &cur);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("sched/force/synth-2048"));
        assert!(outcome.render_table().contains("REGRESSED"));
    }

    #[test]
    fn calibration_rescales_machine_speed() {
        // Same relative cost on a machine running everything 2x slower:
        // both calibration and benchmark double, so the gate passes.
        let base = sample();
        let mut cur = base.clone();
        cur.calibration_nanos *= 2;
        for v in cur.benchmarks.values_mut() {
            *v *= 2;
        }
        assert!(compare(&base, &cur).passed());
    }

    #[test]
    fn missing_benchmark_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.benchmarks.clear();
        let outcome = compare(&base, &cur);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("missing"));
    }

    #[test]
    fn new_benchmark_reported_not_failed() {
        let base = sample();
        let mut cur = base.clone();
        cur.benchmarks.insert("alloc/new-thing".into(), 5);
        let outcome = compare(&base, &cur);
        assert!(outcome.passed());
        assert!(outcome.render_table().contains("alloc/new-thing (new)"));
    }

    #[test]
    fn tolerance_widens_the_relative_limit() {
        let base = sample();
        let mut cur = base.clone();
        // +33% over a 25% threshold: fails plain, passes with 10 extra
        // percentage points of tolerance.
        cur.benchmarks
            .insert("sched/force/synth-2048".into(), 1_200_000_000);
        assert!(!compare(&base, &cur).passed());
        assert!(compare_with(&base, &cur, 10.0).passed());
        // A genuine 2x regression still fails through the slack.
        cur.benchmarks
            .insert("sched/force/synth-2048".into(), 1_800_000_000);
        let outcome = compare_with(&base, &cur, 10.0);
        assert!(!outcome.passed());
        assert!(
            outcome.failures[0].contains("35%"),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn tolerance_env_knob_parses_and_rejects_garbage() {
        // The env var is process-global, but no other test reads it.
        std::env::remove_var("HLS_BENCH_TOLERANCE");
        assert_eq!(env_tolerance_pct(), 0.0);
        std::env::set_var("HLS_BENCH_TOLERANCE", " 12.5 ");
        assert_eq!(env_tolerance_pct(), 12.5);
        for bad in ["-3", "lots", "inf", ""] {
            std::env::set_var("HLS_BENCH_TOLERANCE", bad);
            assert_eq!(env_tolerance_pct(), 0.0, "{bad:?} must fall back");
        }
        std::env::remove_var("HLS_BENCH_TOLERANCE");
    }

    #[test]
    fn noise_floor_forgives_tiny_benchmarks() {
        // A 50us benchmark doubling is jitter (delta 50us < floor): pass.
        let mut base = sample();
        base.benchmarks.insert("sched/force/tiny".into(), 50_000);
        let mut cur = base.clone();
        cur.benchmarks.insert("sched/force/tiny".into(), 100_000);
        assert!(compare(&base, &cur).passed());
        // The same ratio with a delta past the floor fails.
        cur.benchmarks.insert("sched/force/tiny".into(), 500_000);
        let outcome = compare(&base, &cur);
        assert!(!outcome.passed());
        assert!(outcome.failures[0].contains("sched/force/tiny"));
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(900), "900ns");
        assert_eq!(format_nanos(1_500), "1.50us");
        assert_eq!(format_nanos(2_500_000), "2.50ms");
        assert_eq!(format_nanos(3_200_000_000), "3.200s");
    }
}
