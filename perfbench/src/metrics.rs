//! The metric tables (one source for the names, units and directions the
//! benchmark prints and `BENCHMARK.json` lists) and the result a run
//! prints as its last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Layer, LayerSummary};

/// The end-to-end metrics, printed by every workload with `--trace 0`:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("large_latency_p50_ms", "ms", "lower"),
    ("sim_makespan_us", "us", "lower"),
    ("estimate_error_pct", "%", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Stats every reported layer has: `(suffix, unit, better)`.
const LAYER_STATS: [(&str, &str, &str); 4] = [
    ("calls", "count", "lower"),
    ("self_ms", "ms", "lower"),
    ("p50_us", "us", "lower"),
    ("share", "ratio", "lower"),
];

/// Per-layer metrics beyond [`LAYER_STATS`]: `(name, unit, better)`.
const EXTRA_LAYER: [(&str, &str, &str); 26] = [
    // End to end, but too noisy on a shared 2-core host to gate (it does
    // not repeat within a tenth run to run), so it rides with the traced
    // run's layer figures instead.
    ("latency_p99_us", "us", "lower"),
    ("dsl.parse.mb_per_s", "MB/s", "higher"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.reads", "count", "lower"),
    ("core.cache.writes", "count", "lower"),
    ("core.cache.evictions", "count", "lower"),
    ("core.report.bytes", "bytes", "lower"),
    ("serve.encode.bytes", "bytes", "lower"),
    ("serve.tier.calls", "count", "lower"),
    ("serve.tier.self_ms", "ms", "lower"),
    ("serve.tier.p50_us", "us", "lower"),
    ("serve.tier.p99_us", "us", "lower"),
    ("serve.tier.share", "ratio", "lower"),
    ("serve.tier.sheds", "count", "lower"),
    ("serve.tier.in_flight", "count", "lower"),
    ("serve.tier.queue_depth_max", "count", "lower"),
    ("place.portfolio.evaluations", "count", "lower"),
    ("place.portfolio.memo_hit_ratio", "ratio", "higher"),
    ("place.portfolio.bound_skip_ratio", "ratio", "higher"),
    ("place.portfolio.plan_patches", "count", "lower"),
    ("place.portfolio.emulations", "count", "lower"),
    ("place.portfolio.rounds", "count", "lower"),
    ("bench.gen.lag_p99_us", "us", "lower"),
    ("bench.gen.backlog_max", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.reconcile_ratio", "ratio", "higher"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`
/// (0 where the workload does not reach the layer): `(name, unit,
/// better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for layer in Layer::REPORTED {
        for (stat, unit, better) in LAYER_STATS {
            out.push((format!("{}.{stat}", layer.name()), unit, better));
        }
    }
    out.extend(EXTRA_LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    out
}

/// What one run found, printed as the last line of standard output.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted (requests sent, or searches run).
    pub attempted: u64,
    /// Operations that failed: a non-`ok` response, a shed, an oracle
    /// mismatch, or a response that never arrived.
    pub failed: u64,
    /// Why, for the first few failures and any check that broke.
    pub errors: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl RunReport {
    /// Record a failed check that is not tied to one operation (an
    /// invalid open-loop run, a broken reconciliation).
    pub fn error(&mut self, msg: impl Into<String>) {
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.error(msg);
    }

    /// Set a metric. Non-finite values are recorded as an error (the
    /// output must stay valid JSON).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.error(format!("metric {name} is not finite"));
        }
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Set `calls`, `self_ms`, `p50_us` and `share` of one layer.
    pub fn set_layer(&mut self, layer: Layer, s: &LayerSummary, share: f64) {
        let name = layer.name();
        self.set(&format!("{name}.calls"), s.calls as f64, "count");
        self.set(&format!("{name}.self_ms"), s.self_ns / 1e6, "ms");
        self.set(&format!("{name}.p50_us"), s.p50_ns / 1e3, "us");
        self.set(&format!("{name}.share"), share, "ratio");
    }

    /// Set `peak_rss_mb` to the process's peak RSS so far. Workloads take
    /// it as soon as their load ends, before the benchmark's own
    /// aggregation allocates.
    pub fn set_peak_rss(&mut self) {
        match crate::stats::peak_rss_mb() {
            Some(mb) => self.set("peak_rss_mb", mb, "MB"),
            None => self.error("VmHWM is not available on this system"),
        }
    }

    /// No failure and no broken check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Check that exactly the metrics of `table` are set (a mismatch is
    /// recorded as an error), then render the result line.
    pub fn finish(&mut self, table: &[(String, &'static str, &'static str)]) -> String {
        for (name, unit, _) in table {
            match self.metrics.get(name) {
                Some((_, u)) if u == unit => {}
                Some(_) => self.error(format!("metric {name} has the wrong unit")),
                None => self.error(format!("metric {name} was not measured")),
            }
        }
        let extra: Vec<String> = self
            .metrics
            .keys()
            .filter(|k| !table.iter().any(|(n, _, _)| n == *k))
            .cloned()
            .collect();
        for k in extra {
            self.error(format!("metric {k} is not in the table"));
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }
}

/// `END_TO_END` in the shape [`RunReport::finish`] takes.
pub fn end_to_end() -> Vec<(String, &'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_benchmark_json() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _, _)| n));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        assert!(per_layer().len() <= 128);
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn finish_flags_missing_and_unknown_metrics() {
        let table = end_to_end();
        let mut r = RunReport::default();
        for (name, unit, _) in &table {
            r.set(name, 1.5, unit);
        }
        r.attempted = 3;
        let line = r.finish(&table);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        let mut r = RunReport::default();
        r.set("setup_s", 1.0, "s");
        r.set("bogus", 1.0, "s");
        assert!(r.finish(&table).starts_with("{\"correct\": false"));
    }
}
