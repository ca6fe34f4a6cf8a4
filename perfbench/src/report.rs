//! Metric catalogue and the result line.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! reports every [`END_TO_END`] metric, a traced run every [`PER_LAYER`]
//! metric; both lists must match `BENCHMARK.json`.

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["inv-mixed", "shard-rpc"];

/// `(name, unit)` of every end-to-end metric (measured with tracing off).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("vo_kib_p50", "KiB"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric (from the traced run). A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("akm.assign_ms", "ms"),
    ("akm.train_s", "s"),
    ("akm.encode_s", "s"),
    ("mrkd.search_ms", "ms"),
    ("mrkd.verify_ms", "ms"),
    ("mrkd.vo_kib", "KiB"),
    ("mrkd.shared_ratio", "ratio"),
    ("invindex.search_ms", "ms"),
    ("invindex.verify_ms", "ms"),
    ("invindex.popped_ratio", "ratio"),
    ("invindex.blocks_skipped", "count"),
    ("invindex.blocks_scanned", "count"),
    ("invindex.vo_kib", "KiB"),
    ("invindex.space_kib", "KiB"),
    ("crypto.vo_encode_ms", "ms"),
    ("crypto.vo_decode_ms", "ms"),
    ("crypto.sig_verify_ms", "ms"),
    ("crypto.hashes_computed", "count"),
    ("crypto.hash_cache_hit_ratio", "ratio"),
    ("sp.query_ms", "ms"),
    ("sp.self_ms", "ms"),
    ("client.verify_ms", "ms"),
    ("client.self_ms", "ms"),
    ("shard.inproc_query_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.slowest_shard_ms", "ms"),
    ("shard.trim_queries", "count"),
    ("shard.dedup_kib_saved", "KiB"),
    ("shard.verify_sharded_ms", "ms"),
    ("rpc.query_ms", "ms"),
    ("rpc.transport_ms", "ms"),
    ("rpc.shard_rtt_p50_ms", "ms"),
    ("rpc.failovers", "count"),
    ("rpc.launch_s", "s"),
    ("update.insert_ms", "ms"),
    ("update.remove_ms", "ms"),
    ("update.clusters_touched", "count"),
    ("vision.corpus_s", "s"),
    ("owner.ads_build_s", "s"),
    ("query.unaccounted_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
];

/// Names (metrics and workloads) are made of letters, digits, `_`, `.`
/// and `-`, start with a letter or digit, and are at most 64 long.
#[cfg(test)]
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

/// The unit declared for `name` in either catalogue.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The final result line. `metrics` must be `(name, value)` pairs for
/// exactly the names of one catalogue, with finite values; anything else
/// is a harness bug reported as an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for &(name, value) in metrics {
        let unit = unit_of(name).ok_or_else(|| format!("unknown metric {name}"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Shortest round-trip decimal form of `v` (every significant digit kept),
/// always valid JSON.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "invalid name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names");
        for &(_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_renders_the_contract_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                ("setup_s", 7.25),
                ("query_p50_ms", 150.0),
                ("ops_per_s", 1e-7),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 7.25, \"unit\": \"s\"}, \
             \"query_p50_ms\": {\"value\": 150.0, \"unit\": \"ms\"}, \
             \"ops_per_s\": {\"value\": 0.0000001, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(true, 1, 0, &[("nope", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[("setup_s", f64::NAN)]).is_err());
    }
}
