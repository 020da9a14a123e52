//! Summary statistics, the host record and the result line.

use std::fmt::Write as _;

/// The `p`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * p).round() as usize]
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The arithmetic mean of `v`; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
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

fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line describing the host and the run.
pub fn host_record(workload: &str, seed: u64, traced: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"loadavg_1m\": {load:?}, \"git_sha\": {:?}, \"rustc\": {:?}, \"workload\": {workload:?}, \"seed\": {seed}, \"traced\": {traced}}}}}",
        git_sha(),
        env!("LEDGERBENCH_RUSTC"),
    )
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}
