//! Per-statement execution telemetry: [`ExecMetrics`] and [`MetricsLog`].
//!
//! This is the engine's one runtime accounting (the static
//! [`crate::plancheck`] derivation is the independent cross-check):
//! when enabled, every executed statement produces one [`ExecMetrics`]
//! record — base-table scans with table name and rows read, rows
//! produced/inserted/updated/deleted, join build/probe row counts,
//! group-by group counts, expression-eval counts and wall-clock timings —
//! accumulated into a session-level [`MetricsLog`].
//!
//! The point of the exercise is the paper's §3.5/§3.6 cost model: one
//! hybrid EM iteration costs exactly `2k+3` scans of `n`-row tables plus
//! one scan of a `pn`-row table. With per-statement metrics the claim is
//! *executable* — `tests/cost_model.rs` computes the counts from
//! engine-reported metrics and fails the build if a strategy regresses
//! into an extra pass (the failure mode Zhao et al. observed in hand-rolled
//! SQL-EM implementations).
//!
//! ## Overhead
//!
//! When the log is disabled (the default) nothing is recorded: the probe
//! handed to the executor is a no-op whose methods check one boolean and
//! return, and no `ExecMetrics` is allocated. Enabling costs one record
//! per statement; the pipeline tallies its counters locally and reports
//! them once per statement.
//!
//! ## Thread safety
//!
//! A statement runs on one thread, so a [`StmtProbe`] is a plain
//! single-owner collector. Session-level accumulation is serialized by
//! the engine (one statement at a time per [`crate::Database`];
//! `SharedDatabase` serializes through its mutex), which
//! `tests/metrics_concurrency.rs` pins down. Parallel work is a shard
//! coordinator's, which merges its shards' records ([`ExecMetrics::merge`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::time::Duration;

/// What kind of statement a metrics record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// CREATE TABLE.
    CreateTable,
    /// DROP TABLE.
    DropTable,
    /// INSERT (VALUES or SELECT source).
    Insert,
    /// UPDATE (possibly with FROM).
    Update,
    /// DELETE.
    Delete,
    /// SELECT.
    Select,
    /// EXPLAIN (analysis only — no execution).
    Explain,
}

impl std::fmt::Display for StatementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StatementKind::CreateTable => "CREATE TABLE",
            StatementKind::DropTable => "DROP TABLE",
            StatementKind::Insert => "INSERT",
            StatementKind::Update => "UPDATE",
            StatementKind::Delete => "DELETE",
            StatementKind::Select => "SELECT",
            StatementKind::Explain => "EXPLAIN",
        })
    }
}

/// One base-table pass observed during a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanMetric {
    /// Table that was scanned.
    pub table: String,
    /// Rows read — the table's row count when the pass happened.
    pub rows: usize,
    /// True for join build-side passes (hash build, broadcast,
    /// UPDATE…FROM materialization); false for the streamed driver pass.
    /// The paper's §3.5 accounting counts each join once, by its driver.
    pub build: bool,
}

/// Telemetry for one executed statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecMetrics {
    /// Statement kind, `None` only for a default-constructed record.
    pub kind: Option<StatementKind>,
    /// Every base-table pass, in execution order.
    pub scans: Vec<ScanMetric>,
    /// Result rows returned (SELECT).
    pub rows_produced: usize,
    /// Rows inserted (INSERT, bulk load).
    pub rows_inserted: usize,
    /// Rows updated (UPDATE).
    pub rows_updated: usize,
    /// Rows deleted (DELETE).
    pub rows_deleted: usize,
    /// Rows hashed into a per-statement join map or listed for a
    /// broadcast. A join served by the build table's primary-key index
    /// builds nothing and adds 0.
    pub join_build_rows: u64,
    /// Rows that probed a join stage (driver-side lookups/expansions).
    pub join_probe_rows: u64,
    /// Distinct GROUP BY groups materialized (0 for non-aggregates).
    pub groups: usize,
    /// Scalar expression evaluations performed by sinks, filters and
    /// probe keys — the "CPU work" proxy of the cost model.
    pub expr_evals: u64,
    /// Peak working memory charged by the statement, in bytes of the
    /// deterministic logical model of [`crate::resource`]. Charges are
    /// monotone for the life of a statement, so the peak equals the
    /// total and is bit-identical across runs.
    pub peak_mem_bytes: u64,
    /// Wall-clock spent in planning: name resolution, conjunct
    /// classification, expression compilation. Join builds are
    /// execution and count toward `elapsed` only.
    pub plan_time: Duration,
    /// Wall-clock for the whole statement.
    pub elapsed: Duration,
}

impl ExecMetrics {
    /// Driver (non-build) scans only.
    pub fn driver_scans(&self) -> impl Iterator<Item = &ScanMetric> {
        self.scans.iter().filter(|s| !s.build)
    }

    /// Total rows written by this statement (insert + update + delete).
    pub fn rows_written(&self) -> usize {
        self.rows_inserted + self.rows_updated + self.rows_deleted
    }

    /// Combine another shard's telemetry for the *same logical
    /// statement* into this one, as a cluster coordinator does when it
    /// fans a statement out and presents one entry per driver
    /// statement.
    ///
    /// Semantics per field: counters (`rows_*`, `join_*`, `groups`,
    /// `expr_evals`) add; scans merge positionally (shards run the same
    /// plan, so scan `j` is the same table pass — its rows add), with
    /// any length mismatch resolved by appending the tail; gauges
    /// (`peak_mem_bytes`, `plan_time`, `elapsed`) take the max, because
    /// shards run concurrently in separate processes — summing wall
    /// clock or per-process memory would overstate both. `kind` keeps
    /// the first known value. The operation is associative and
    /// commutative (for equal `kind`s), so shard merge order never
    /// changes the result.
    pub fn merge(&mut self, other: &ExecMetrics) {
        if self.kind.is_none() {
            self.kind = other.kind;
        }
        for (j, s) in other.scans.iter().enumerate() {
            if let Some(mine) = self.scans.get_mut(j) {
                mine.rows += s.rows;
            } else {
                self.scans.push(s.clone());
            }
        }
        self.rows_produced += other.rows_produced;
        self.rows_inserted += other.rows_inserted;
        self.rows_updated += other.rows_updated;
        self.rows_deleted += other.rows_deleted;
        self.join_build_rows += other.join_build_rows;
        self.join_probe_rows += other.join_probe_rows;
        self.groups += other.groups;
        self.expr_evals += other.expr_evals;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
        self.plan_time = self.plan_time.max(other.plan_time);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Multi-line human-readable rendering, used by `EXPLAIN ANALYZE`
    /// and the shell's `\metrics` command.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let kind = self
            .kind
            .map(|k| k.to_string())
            .unwrap_or_else(|| "?".into());
        lines.push(format!(
            "{kind}: {:.3} ms total ({:.3} ms plan)",
            self.elapsed.as_secs_f64() * 1e3,
            self.plan_time.as_secs_f64() * 1e3,
        ));
        for s in &self.scans {
            lines.push(format!(
                "scan {}: {} rows ({})",
                s.table,
                s.rows,
                if s.build { "build" } else { "driver" }
            ));
        }
        if self.join_build_rows > 0 || self.join_probe_rows > 0 {
            lines.push(format!(
                "join: {} build rows, {} probe rows",
                self.join_build_rows, self.join_probe_rows
            ));
        }
        if self.groups > 0 {
            lines.push(format!("group by: {} group(s)", self.groups));
        }
        if self.expr_evals > 0 {
            lines.push(format!("expressions: {} eval(s)", self.expr_evals));
        }
        if self.peak_mem_bytes > 0 {
            lines.push(format!("peak memory: {} byte(s)", self.peak_mem_bytes));
        }
        let written = self.rows_written();
        if written > 0 {
            lines.push(format!(
                "rows: {} inserted, {} updated, {} deleted",
                self.rows_inserted, self.rows_updated, self.rows_deleted
            ));
        }
        if self.kind == Some(StatementKind::Select) {
            lines.push(format!("rows produced: {}", self.rows_produced));
        }
        lines
    }
}

/// Session-level accumulation of [`ExecMetrics`], one entry per executed
/// statement, in order. Disabled (and empty) by default.
#[derive(Debug, Default)]
pub struct MetricsLog {
    enabled: bool,
    entries: Vec<ExecMetrics>,
}

impl MetricsLog {
    /// A fresh, disabled log.
    pub fn new() -> Self {
        MetricsLog::default()
    }

    /// Turn recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turn recording off (existing entries are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drop all recorded entries (recording state unchanged).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Append a record (no-op while disabled).
    pub fn push(&mut self, m: ExecMetrics) {
        if self.enabled {
            self.entries.push(m);
        }
    }

    /// All records, oldest first.
    pub fn entries(&self) -> &[ExecMetrics] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Any records?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&ExecMetrics> {
        self.entries.last()
    }

    /// Take every record out, leaving the log empty.
    pub fn take(&mut self) -> Vec<ExecMetrics> {
        std::mem::take(&mut self.entries)
    }

    /// Driver scans across entries `range`, bucketed by table name.
    pub fn driver_scans_by_table(&self, from: usize) -> HashMap<String, usize> {
        let mut m = HashMap::new();
        for e in &self.entries[from.min(self.entries.len())..] {
            for s in e.driver_scans() {
                *m.entry(s.table.clone()).or_insert(0) += 1;
            }
        }
        m
    }

    /// Total rows inserted across entries starting at `from`.
    pub fn rows_inserted_since(&self, from: usize) -> u64 {
        self.entries[from.min(self.entries.len())..]
            .iter()
            .map(|e| e.rows_inserted as u64)
            .sum()
    }
}

/// Live collector for one statement's metrics, handed down the executor.
///
/// Most recorders take `&mut self`; the pipeline's counters are cells,
/// reported through `&StmtProbe` while its sink borrows the probe's
/// memory account. A disabled probe records nothing.
#[derive(Debug, Default)]
pub struct StmtProbe {
    enabled: bool,
    scans: Vec<ScanMetric>,
    rows_produced: usize,
    rows_inserted: usize,
    rows_updated: usize,
    rows_deleted: usize,
    join_build_rows: u64,
    groups: usize,
    plan_time: Duration,
    // Counters the pipeline reports through `&self`.
    expr_evals: Cell<u64>,
    join_probe_rows: Cell<u64>,
    // Working-memory account. Unlike the counters above this is *not*
    // gated on `enabled`: budget enforcement must work without
    // telemetry, and the gauge costs one add per charge.
    tracker: crate::resource::ResourceTracker,
}

impl StmtProbe {
    /// A recording probe.
    pub fn enabled() -> Self {
        StmtProbe {
            enabled: true,
            ..StmtProbe::default()
        }
    }

    /// A no-op probe (records nothing).
    pub fn disabled() -> Self {
        StmtProbe::default()
    }

    /// Attach a memory budget: every working-memory charge made through
    /// [`StmtProbe::tracker`] is accounted against it (and released
    /// when the probe is dropped or finished).
    pub fn with_budget(mut self, budget: Option<crate::resource::MemoryBudget>) -> Self {
        self.tracker = crate::resource::ResourceTracker::new(budget);
        self
    }

    /// The statement's working-memory account. Allocation sites charge
    /// it; the engine reads the total back as the peak-memory gauge.
    pub fn tracker(&self) -> &crate::resource::ResourceTracker {
        &self.tracker
    }

    /// Is this probe recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a base-table pass.
    pub fn record_scan(&mut self, table: &str, rows: usize, build: bool) {
        if self.enabled {
            self.scans.push(ScanMetric {
                table: table.to_string(),
                rows,
                build,
            });
        }
    }

    /// Record rows entering a join build structure.
    pub fn add_build_rows(&mut self, n: u64) {
        if self.enabled {
            self.join_build_rows += n;
        }
    }

    /// Record join probe lookups.
    pub fn add_probe_rows(&self, n: u64) {
        if self.enabled {
            self.join_probe_rows.set(self.join_probe_rows.get() + n);
        }
    }

    /// Record scalar expression evaluations.
    pub fn add_expr_evals(&self, n: u64) {
        if self.enabled {
            self.expr_evals.set(self.expr_evals.get() + n);
        }
    }

    /// Record the GROUP BY group count.
    pub fn set_groups(&mut self, n: usize) {
        if self.enabled {
            self.groups = n;
        }
    }

    /// Record SELECT output rows.
    pub fn set_rows_produced(&mut self, n: usize) {
        if self.enabled {
            self.rows_produced = n;
        }
    }

    /// Record inserted rows.
    pub fn add_inserted(&mut self, n: usize) {
        if self.enabled {
            self.rows_inserted += n;
        }
    }

    /// Record updated rows.
    pub fn add_updated(&mut self, n: usize) {
        if self.enabled {
            self.rows_updated += n;
        }
    }

    /// Record deleted rows.
    pub fn add_deleted(&mut self, n: usize) {
        if self.enabled {
            self.rows_deleted += n;
        }
    }

    /// Record time spent planning (resolve + compile; not join builds).
    pub fn add_plan_time(&mut self, d: Duration) {
        if self.enabled {
            self.plan_time += d;
        }
    }

    /// Close the probe into an [`ExecMetrics`] record.
    pub fn finish(self, kind: StatementKind, elapsed: Duration) -> ExecMetrics {
        ExecMetrics {
            kind: Some(kind),
            scans: self.scans,
            rows_produced: self.rows_produced,
            rows_inserted: self.rows_inserted,
            rows_updated: self.rows_updated,
            rows_deleted: self.rows_deleted,
            join_build_rows: self.join_build_rows,
            join_probe_rows: self.join_probe_rows.get(),
            groups: self.groups,
            expr_evals: self.expr_evals.get(),
            peak_mem_bytes: self.tracker.charged(),
            plan_time: self.plan_time,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = StmtProbe::disabled();
        p.record_scan("y", 100, false);
        p.add_build_rows(5);
        p.add_probe_rows(5);
        p.add_expr_evals(7);
        p.set_groups(3);
        p.add_inserted(2);
        let m = p.finish(StatementKind::Select, Duration::ZERO);
        assert!(m.scans.is_empty());
        assert_eq!(m.join_build_rows, 0);
        assert_eq!(m.join_probe_rows, 0);
        assert_eq!(m.expr_evals, 0);
        assert_eq!(m.groups, 0);
        assert_eq!(m.rows_inserted, 0);
    }

    #[test]
    fn enabled_probe_accumulates() {
        let mut p = StmtProbe::enabled();
        p.record_scan("y", 100, false);
        p.record_scan("c", 3, true);
        p.add_build_rows(3);
        p.add_probe_rows(100);
        p.add_expr_evals(200);
        p.set_groups(4);
        let m = p.finish(StatementKind::Select, Duration::from_millis(2));
        assert_eq!(m.scans.len(), 2);
        assert_eq!(m.driver_scans().count(), 1);
        assert_eq!(m.join_build_rows, 3);
        assert_eq!(m.join_probe_rows, 100);
        assert_eq!(m.expr_evals, 200);
        assert_eq!(m.groups, 4);
        assert_eq!(m.kind, Some(StatementKind::Select));
    }

    #[test]
    fn log_respects_enabled_flag() {
        let mut log = MetricsLog::new();
        assert!(!log.is_enabled());
        log.push(ExecMetrics::default());
        assert!(log.is_empty());
        log.enable();
        log.push(ExecMetrics::default());
        assert_eq!(log.len(), 1);
        log.disable();
        log.push(ExecMetrics::default());
        assert_eq!(log.len(), 1);
        assert_eq!(log.take().len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn log_aggregates_driver_scans_and_inserts() {
        let mut log = MetricsLog::new();
        log.enable();
        let mut p = StmtProbe::enabled();
        p.record_scan("y", 10, false);
        p.record_scan("y", 10, false);
        p.record_scan("c", 2, true);
        p.add_inserted(5);
        log.push(p.finish(StatementKind::Insert, Duration::ZERO));
        let by_table = log.driver_scans_by_table(0);
        assert_eq!(by_table["y"], 2);
        assert!(!by_table.contains_key("c"));
        assert_eq!(log.rows_inserted_since(0), 5);
        assert_eq!(log.rows_inserted_since(99), 0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let entry = |scan_rows: usize, build_rows: usize, peak: u64, ms: u64| ExecMetrics {
            kind: Some(StatementKind::Select),
            scans: vec![
                ScanMetric {
                    table: "yd".into(),
                    rows: scan_rows,
                    build: false,
                },
                ScanMetric {
                    table: "c".into(),
                    rows: build_rows,
                    build: true,
                },
            ],
            rows_produced: scan_rows,
            rows_inserted: 1,
            rows_updated: 2,
            rows_deleted: 3,
            join_build_rows: build_rows as u64,
            join_probe_rows: scan_rows as u64,
            groups: 4,
            expr_evals: 10,
            peak_mem_bytes: peak,
            plan_time: Duration::from_micros(ms),
            elapsed: Duration::from_millis(ms),
        };
        let (a, b, c) = (
            entry(100, 9, 4096, 3),
            entry(250, 9, 8192, 7),
            entry(50, 9, 2048, 1),
        );

        // Commutative: a⊕b == b⊕a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Associative: (a⊕b)⊕c == a⊕(b⊕c).
        let mut left = ab.clone();
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // Counters add, gauges take the per-shard max (memory budgets
        // are per process — summing would overstate the footprint).
        assert_eq!(left.scans[0].rows, 400);
        assert_eq!(left.rows_inserted, 3);
        assert_eq!(left.peak_mem_bytes, 8192);
        assert_eq!(left.elapsed, Duration::from_millis(7));

        // Unequal scan lists: the longer tail is appended, which keeps
        // the operation associative for ragged shard plans too.
        let mut short = entry(10, 1, 1, 1);
        short.scans.truncate(1);
        let mut merged = short.clone();
        merged.merge(&a);
        assert_eq!(merged.scans.len(), 2);
        assert_eq!(merged.scans[0].rows, 110);
        assert_eq!(merged.scans[1].rows, 9);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let mut p = StmtProbe::enabled();
        p.record_scan("z", 1000, false);
        p.set_groups(9);
        p.add_expr_evals(42);
        let lines = p
            .finish(StatementKind::Select, Duration::from_millis(1))
            .render();
        let text = lines.join("\n");
        assert!(text.contains("SELECT"));
        assert!(text.contains("scan z: 1000 rows (driver)"));
        assert!(text.contains("9 group(s)"));
        assert!(text.contains("42 eval(s)"));
    }
}
