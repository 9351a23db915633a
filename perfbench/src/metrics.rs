//! Metric names, units and the sample statistics the benchmark reports.

use serde::Serialize;
use std::collections::BTreeMap;

/// One reported figure: a dotted name, its unit, and the measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// A metric as a result prints it, keyed by the metric's name.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
}

/// The `metrics` object of a result: each metric's name mapped to its
/// value and unit.
pub fn readings(metrics: &[Metric]) -> BTreeMap<String, Reading> {
    metrics.iter().map(|m| (m.name.clone(), Reading { value: m.value, unit: m.unit })).collect()
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("file_days_per_cpu_s", "1/s"),
    ("rss_bytes_per_file", "B"),
    ("total_cost_usd", "USD"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.encode_ms", "ms"),
    ("features.rows", "count"),
    ("nn.conv.ms", "ms"),
    ("nn.conv.gmac_s", "GMAC/s"),
    ("nn.dense.ms", "ms"),
    ("nn.dense.gmac_s", "GMAC/s"),
    ("nn.head.ms", "ms"),
    ("nn.head.gmac_s", "GMAC/s"),
    ("nn.macs", "count"),
    ("policy.decide_ms.p50", "ms"),
    ("policy.decide_ms.p75", "ms"),
    ("policy.decide_samples", "count"),
    ("policy.argmax_ms", "ms"),
    ("policy.tier_changes", "count"),
    ("engine.bill_self_ms", "ms"),
    ("engine.merge_ms", "ms"),
    ("stream.event.ms", "ms"),
    ("stream.events", "count"),
    ("stream.stats.ms", "ms"),
    ("stream.sketch.ms", "ms"),
    ("stream.sketch.tracked_share", "ratio"),
    ("stream.checkpoint.save_ms", "ms"),
    ("stream.checkpoint.bytes", "B"),
    ("store.migrate_ms", "ms"),
    ("store.jobs", "count"),
    ("store.commit_ratio", "ratio"),
    ("store.logical_bytes", "B"),
    ("store.virtual_ms", "ms"),
    ("pricing.bill_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("mdp.oracle_ms", "ms"),
    ("mdp.env_ms", "ms"),
    ("mdp.env_steps", "count"),
    ("rl.learner_self_ms", "ms"),
    ("rl.updates", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// A metric name: starts with a letter or digit, then at most 64
/// characters in total of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.` and
/// `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Median of `samples` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (u64::from(p) * n as u64).div_ceil(100) as usize
}

/// Nearest-rank percentile `p` of `samples`; `NaN` when empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match rank(p, sorted.len()) {
        0 => sorted.first().copied().unwrap_or(f64::NAN),
        r => sorted[r - 1],
    }
}

/// Tail percentiles considered for a timing, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// The highest tail percentile with at least ten of `n` samples beyond
/// its nearest rank, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "every metric name is used once");
    }

    #[test]
    fn name_grammar_rejects_malformed_names() {
        assert!(valid_name("a"));
        assert!(valid_name("9lives.p99"));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_under"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("GMAC/s"));
        assert!(
            !valid_unit("")
                && !valid_unit("$")
                && !valid_unit("seconds per run")
                && !valid_unit(&"s".repeat(17))
        );
    }

    #[derive(serde::Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let file: BenchmarkFile = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let pairs = |list: &[Declared]| -> Vec<(String, String)> {
            list.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(pairs(&file.end_to_end), ours(END_TO_END));
        assert_eq!(pairs(&file.per_layer), ours(PER_LAYER));
    }

    #[test]
    fn readings_print_as_value_and_unit() {
        let metrics = [Metric::new("setup_s", "s", 0.5), Metric::new("a.rows", "count", 3.0)];
        assert_eq!(
            serde_json::to_string(&readings(&metrics)).expect("serializes"),
            r#"{"a.rows":{"value":3.0,"unit":"count"},"setup_s":{"value":0.5,"unit":"s"}}"#
        );
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(70), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 0..2000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= 10, "n={n} p={p}");
                let higher = TAIL_LADDER.iter().filter(|&&q| q > p);
                assert!(higher.into_iter().all(|&q| n - rank(q, n) < 10), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let samples: Vec<f64> = (1..=70).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 35.0);
        assert_eq!(percentile(&samples, 75), 53.0);
        assert_eq!(percentile(&samples, 100), 70.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
