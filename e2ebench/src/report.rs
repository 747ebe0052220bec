//! Metric values, the percentile rule, and the result line.
//!
//! A timing is reported as a median plus the highest percentile that has
//! at least [`MIN_TAIL`] samples beyond it. The gate metrics always carry
//! p50 and p90; [`tail_quantile`] says whether a run had enough samples
//! for its p90 to meet the rule, and the human-readable lines say so.

use mcgp_runtime::Json;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Metric names: `[A-Za-z0-9_.-]+`, starting with a letter or digit, at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// The `q`-quantile of `samples` by linear interpolation between the
/// closest ranks (`q · (n − 1)`), the convention of Python's
/// `statistics.quantiles(..., method="inclusive")`. NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// How many of `n` samples lie beyond the `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    ((1.0 - q) * n as f64 + 1e-9).floor() as usize
}

/// The `q`-quantile, or `None` when fewer than [`MIN_TAIL`] samples lie
/// beyond it (the percentile rule).
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(samples.len(), q) >= MIN_TAIL).then(|| quantile(samples, q))
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let pairs: Vec<(String, Json)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(pairs)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_withheld_below_ten_samples_beyond() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(tail_quantile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        let p90 = tail_quantile(&hundred, 0.9).expect("100 samples carry a p90");
        assert!((p90 - 89.1).abs() < 1e-9, "p90 {p90}");
        assert!(tail_quantile(&hundred, 0.99).is_none());
        // The median needs only twenty samples.
        assert!(tail_quantile(&hundred[..20], 0.5).is_some());
        assert!(tail_quantile(&hundred[..19], 0.5).is_none());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "latency_p50_s",
            "io.parse_s",
            "smp.cut_ratio_t2_t1",
            "9-lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/y",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 1, &[metric("setup_s", 0.5, "s")]);
        let j = Json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("attempted").and_then(Json::as_i64), Some(10));
        assert_eq!(j.get("failed").and_then(Json::as_i64), Some(1));
        let m = j
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
