//! Metric collection, summary statistics and the result line.

use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// Human-readable `name  value unit` lines.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(s, "  {name:<36} {value:>16.6} {unit}");
        }
        s
    }
}

/// Operation outcome counts for the result line.
#[derive(Debug, Clone, Copy)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Default for Outcomes {
    fn default() -> Self {
        Self { attempted: 0, failed: 0, correct: true }
    }
}

impl Outcomes {
    /// Counts one operation; a failed one also fails correctness.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn record_many(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.correct = false;
            eprintln!("check failed: {what} ({bad} of {n})");
        }
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The last stdout line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(outcomes: &Outcomes, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcomes.correct,
        outcomes.attempted.max(1),
        outcomes.failed
    );
    for (i, (name, value, unit)) in metrics.entries().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // JSON has no NaN/inf; a non-finite value is reported as null.
        let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` without its lowest and highest `cut` share (rounded down);
/// NaN if empty.
pub fn trimmed_mean(v: &[f64], cut: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = (cut * s.len() as f64) as usize;
    let kept = &s[k..s.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`; NaN if empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
