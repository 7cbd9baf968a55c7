//! The metric catalogue and the two output forms: one line per metric
//! for people, then one JSON object for the driver.

use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iter_s", "s"),
    ("score_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sqlem.stmts_per_iter", "count"),
    ("sqlem.sql_bytes_per_iter", "bytes"),
    ("sqlem.e_step_s", "s"),
    ("sqlem.m_step_s", "s"),
    ("sqlem.driver_self_s", "s"),
    ("sqlem.load_s", "s"),
    ("sqlem.init_s", "s"),
    ("sqlem.prepare_s", "s"),
    ("sqlem.iter_s_p25", "s"),
    ("sqlem.iter_s_p50", "s"),
    ("sqlem.iter_s_p75", "s"),
    ("sqlem.iter_cpu_s", "s"),
    ("sqlengine.plan_s", "s"),
    ("sqlengine.exec_s", "s"),
    ("sqlengine.n_scans", "count"),
    ("sqlengine.pn_scans", "count"),
    ("sqlengine.rows_scanned", "count"),
    ("sqlengine.rows_written", "count"),
    ("sqlengine.join_build_rows", "count"),
    ("sqlengine.join_probe_rows", "count"),
    ("sqlengine.expr_evals", "count"),
    ("sqlengine.groups", "count"),
    ("sqlengine.exec_ns_per_row_scanned", "ns"),
    ("sqlengine.parse_s", "s"),
    ("sqlengine.peak_mem_bytes", "bytes"),
    ("wal.bytes_per_iter", "bytes"),
    ("wal.bytes_per_loaded_row", "bytes"),
    ("wal.encode_mb_per_s", "MB/s"),
    ("wal.scan_mb_per_s", "MB/s"),
    ("wal.disk_overhead_s", "s"),
    ("storage.compact_s", "s"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.reopen_s", "s"),
    ("wire.overhead_s", "s"),
    ("wire.rtt_us_p50", "us"),
    ("wire.req_bytes_per_iter", "bytes"),
    ("wire.resp_bytes_per_iter", "bytes"),
    ("wire.bulk_rows_per_s", "1/s"),
    ("proto.encode_mb_per_s", "MB/s"),
    ("proto.decode_mb_per_s", "MB/s"),
    ("cluster.coord_self_s", "s"),
    ("cluster.shard_busy_max_over_mean", "ratio"),
    ("cluster.shard_calls_per_iter", "count"),
    ("emcore.iter_s", "s"),
    ("emcore.native_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("calib.slowdown", "ratio"),
];

/// One measured value with a note on the samples behind it (empty for
/// a count or a gauge).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from the catalogue.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// How many samples the value summarises and how they spread.
    pub note: String,
}

impl Metric {
    /// The median of calibrated timing samples; the note gives their
    /// count and quartiles, and the median as the clock read it.
    pub fn timing(name: &'static str, samples: &crate::run::Samples) -> Metric {
        let q = |q| crate::stats::quantile(&samples.calibrated, q);
        Metric {
            name,
            value: q(0.5),
            note: format!(
                "{} samples: p25 {:.6} p75 {:.6}; uncalibrated p50 {:.6}, slowdown p50 {:.3}",
                samples.calibrated.len(),
                q(0.25),
                q(0.75),
                crate::stats::median(&samples.raw),
                crate::stats::median(&samples.slowdown),
            ),
        }
    }
}

/// A run's result: the values for every name of `catalogue`, in its
/// order. A layer the workload does not have reports 0.
pub fn fill(
    catalogue: &'static [(&'static str, &'static str)],
    measured: &[Metric],
) -> Result<Vec<Metric>, String> {
    if let Some(stray) = measured
        .iter()
        .find(|m| !catalogue.iter().any(|(name, _)| *name == m.name))
    {
        return Err(format!("{} is not in the metric catalogue", stray.name));
    }
    catalogue
        .iter()
        .map(|&(name, _)| {
            let metric = measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name,
                    value: 0.0,
                    note: String::new(),
                });
            if metric.value.is_finite() {
                Ok(metric)
            } else {
                Err(format!("{name} is {}", metric.value))
            }
        })
        .collect()
}

/// The lines a person reads: name, value, unit, sample count.
pub fn render_text(catalogue: &[(&str, &str)], metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (metric, (_, unit)) in metrics.iter().zip(catalogue) {
        let _ = write!(out, "{:<36} {:>16.6} {unit}", metric.name, metric.value);
        if !metric.note.is_empty() {
            let _ = write!(out, "  ({})", metric.note);
        }
        out.push('\n');
    }
    out
}

/// The driver's line: `correct`, `attempted`, `failed`, `metrics`.
pub fn render_json(
    catalogue: &[(&str, &str)],
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(catalogue)
        .map(|(m, (_, unit))| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|(other, _)| other != name),
                "{name} twice"
            );
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn fill_defaults_absent_layers_and_rejects_strays_and_nans() {
        let m = |name, value| Metric {
            name,
            value,
            note: "3 samples".into(),
        };
        let filled = fill(END_TO_END, &[m("iter_s", 0.5)]).unwrap();
        assert_eq!(filled.len(), END_TO_END.len());
        assert_eq!(filled[1], m("iter_s", 0.5));
        assert_eq!(filled[0].value, 0.0);
        assert!(fill(END_TO_END, &[m("sqlem.e_step_s", 1.0)]).is_err());
        assert!(fill(END_TO_END, &[m("iter_s", f64::NAN)]).is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let metrics = fill(END_TO_END, &[]).unwrap();
        let line = render_json(END_TO_END, &metrics, true, 7, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(!line.contains('\n'));
    }
}
