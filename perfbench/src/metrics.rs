//! Metric names and units, and the result record a run fills in.
//!
//! `END_TO_END` and `PER_LAYER` mirror the `end_to_end` and `per_layer`
//! lists of `BENCHMARK.json` (a test keeps them in step). Every workload
//! prints every name of the list its mode selects; a per-layer metric of
//! a layer the workload never calls reads 0.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("mem_peak_bytes", "bytes"),
];

/// `(name, unit)` of every per-layer metric (traced runs).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vertical.s", "s"),
    ("preprocess.s", "s"),
    ("preprocess.bytes", "bytes"),
    ("preprocess.failed_frac", "fraction"),
    ("preprocess.repr_batmap", "count"),
    ("preprocess.repr_bitmap", "count"),
    ("preprocess.repr_tidlist", "count"),
    ("sweep.s", "s"),
    ("sweep.tiles", "count"),
    ("sweep.comparisons", "count"),
    ("sweep.bytes", "bytes"),
    ("sweep.roof_frac", "fraction"),
    ("failed.s", "s"),
    ("failed.pair_occurrences", "count"),
    ("harvest.s", "s"),
    ("harvest.yield", "fraction"),
    ("level3.s", "s"),
    ("level3.join_s", "s"),
    ("multiway.build_s", "s"),
    ("level3.count_s", "s"),
    ("level3.candidates", "count"),
    ("level3.frequent_frac", "fraction"),
    ("level3.batched_frac", "fraction"),
    ("levelwise.fallback_items", "count"),
    ("snapshot.open_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("ingest.rebuild_s", "s"),
    ("ingest.apply_us", "us"),
    ("ingest.compact_s", "s"),
    ("ingest.delta_memberships", "count"),
    ("engine.start_s", "s"),
    ("engine.count_us", "us"),
    ("engine.member_us", "us"),
    ("engine.topk_us", "us"),
    ("engine.shed", "count"),
    ("engine.worker_restarts", "count"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("server.first_answer_s", "s"),
    ("server.overhead_us", "us"),
    ("client.late_p99_us", "us"),
    ("roof.read_gbps_1t", "GB/s"),
    ("roof.read_gbps_2t", "GB/s"),
    ("baseline.s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("closure.gap_frac", "fraction"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (mining calls or served requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Whole-run checks that failed (oracle set-up, final state).
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Record metric `name` and print it with its unit.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        println!("  {name:<26} {value:>16.6} {unit}");
        self.values.insert(name, value);
    }

    /// Print a metric that is reported for reading but not gated (the
    /// serving workload's per-request-type latencies).
    pub fn report(&self, name: &str, value: f64, unit: &str) {
        println!("  {name:<26} {value:>16.6} {unit}");
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The final result line: every metric of `list`, in list order.
    pub fn json(&self, list: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names of `list` this run never set.
    pub fn missing(&self, list: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        list.iter()
            .map(|&(name, _)| name)
            .filter(|name| !self.values.contains_key(name))
            .collect()
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
        }
    }

    /// Every metric `BENCHMARK.json` names is one the runner prints, and
    /// the other way round.
    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn result_line_carries_every_listed_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        o.attempt(true);
        let line = o.json(END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(o.missing(END_TO_END), vec!["wall_s", "mem_peak_bytes"]);
    }
}
