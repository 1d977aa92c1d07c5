//! Order statistics, host description and memory readings.

/// Linear-interpolated percentile `p` (0–100) of `v`; 0 for an empty slice.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest percentile, up to the 95th, with at least ten samples
/// beyond it (rounded down to 0.1), its value, and the sample count.
/// Past the 95th the percentile measures the host's scheduling hiccups
/// more than the program: on a shared 2-core host the 99th and 99.9th
/// percentiles of a served run moved by 40-55% of their median from run
/// to run. Below 20 samples no percentile above the median qualifies, so
/// the median stands in.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let n = v.len();
    let p = if n >= 20 {
        ((1000.0 * (1.0 - 10.0 / n as f64)).floor() / 10.0).min(95.0)
    } else {
        50.0
    };
    (p, percentile(v, p), n)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line naming the host a result was measured on.
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("nproc={nproc} cpu=\"{cpu}\" profile={profile}")
}

/// Interquartile range of `v` as a share of its median (0 when empty).
pub fn rel_iqr(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (percentile(v, 75.0) - percentile(v, 25.0)) / m
    }
}
