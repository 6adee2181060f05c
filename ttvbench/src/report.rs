//! Order statistics, process counters, and the result line.

use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        // `+ 0.0` turns a negative zero into zero.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The shortest of a non-empty set of times, in seconds.
pub fn fastest(times: impl Iterator<Item = Duration>) -> f64 {
    times.min().expect("no times").as_secs_f64()
}

/// The highest percentile with at least ten samples beyond it: the
/// sample at sorted index `n - 11`, and the share of samples at or
/// below it, in percent. Lists of ten or fewer give their maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    let index = if n > 10 { n - 11 } else { n - 1 };
    (v[index], 100.0 * (index + 1) as f64 / n as f64)
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// User plus system CPU time of this process, all threads included
/// (`/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the command name, which is in parentheses and may
    // contain spaces; utime and stime are fields 14 and 15 overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Prints every metric for people, then the one-line JSON result the
/// benchmark ends with.
pub fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("failed {failed} of {attempted} attempted");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_fastest_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ms = |v: u64| Duration::from_millis(v);
        assert_eq!(fastest([ms(30), ms(10), ms(20)].into_iter()), 0.01);
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        // 25 samples: index 14 holds 15, with 10 samples above it.
        assert_eq!(tail(&v), (15.0, 60.0));
        assert_eq!(tail(&[2.0, 1.0]), (2.0, 100.0));
    }

    #[test]
    fn process_counters_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(started.elapsed());
        }
        assert!(cpu_seconds() > 0.0);
    }
}
