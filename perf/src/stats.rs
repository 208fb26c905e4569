//! Exact percentiles, process counters from `/proc`, and the metric list.

use std::fmt::Write as _;

use crate::files;

/// The value at quantile `q` of `sorted` (ascending), in the samples' own
/// unit; 0 for an empty sample.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// Median of a small set of floats.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in ticks of 1/100 s: `USER_HZ` is
/// fixed at 100 on Linux).
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = files::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = files::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`. A value that is not finite (a ratio
    /// over nothing) is recorded as 0.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.entries.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
