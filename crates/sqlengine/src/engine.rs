//! The [`Database`] facade: parse → execute, metrics, bulk loading,
//! and the optional durability layer (WAL + snapshot compaction).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::analyze::{analyze, Limits, Report, SymbolicCatalog};
use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::aggregate::PartialAggResult;
use crate::exec::{
    execute_plan, execute_statement, execute_statement_metered, explain_select,
    finalize_select_partials, run_select_partial, stage_rows, statement_kind, statement_tables,
    ExecConfig, QueryResult,
};
use crate::executor::{check_statement_len, Kept};
use crate::expr::Column;
use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultSite, Injection};
use crate::metrics::{ExecMetrics, MetricsLog, StatementKind, StmtProbe};
use crate::parser::{parse, parse_one};
use crate::plan::{plan_statement, SelectPlan, StatementPlan};
use crate::storage::logfile::{read_or_empty, LogFile};
use crate::storage::snapshot::{read_snapshot, write_snapshot};
use crate::value::Value;
use crate::wal::{
    encode_bulk_frame, encode_commit, encode_sql_frame, scan, wal_path, WalOp, WAL_MAGIC,
};

/// Configuration for a [`Database`].
pub type EngineConfig = ExecConfig;

/// Tuning knobs for a durable database ([`Database::open_durable_with`]).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Auto-compact (snapshot + WAL reset) once the log exceeds this
    /// many bytes; `0` disables auto-compaction (explicit
    /// [`Database::compact`] still works).
    pub auto_compact_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            auto_compact_bytes: 8 * 1024 * 1024,
        }
    }
}

/// The operation a mutating statement logs, as staged before it runs:
/// what [`WalOp`] is once decoded.
enum Staged {
    /// A statement, logged as its rendered SQL text (a prepared
    /// statement's, rendered when it was registered).
    Sql(String),
    /// A bulk load, logged as the rows its staged columns hold.
    Bulk {
        /// Destination table (lowercase).
        table: String,
        /// One storage column per declared column of the table.
        columns: Vec<Column>,
    },
}

/// What WAL recovery found when a durable database was (re)opened —
/// the evidence an exactly-once session layer needs to judge whether a
/// statement whose ack was lost to a crash actually applied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalRecovery {
    /// Sequence numbers of frames recovered as committed (applied).
    pub committed: Vec<u64>,
    /// Sequence numbers of frames begun but never committed (the
    /// statement failed or the crash hit before its effects were
    /// acknowledged — provably *not* applied).
    pub uncommitted: Vec<u64>,
    /// The snapshot watermark at open: every committed seq below it was
    /// compacted into the snapshot and no longer appears in the log.
    pub watermark: u64,
    /// The sequence counter the reopened log resumes at.
    pub next_seq: u64,
}

/// Runtime state of the durability layer: the open log, the directory
/// it lives in, and the statement sequence counter.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: LogFile,
    /// Sequence number the next logged statement gets. Monotone across
    /// reopen and compaction.
    next_seq: u64,
    options: DurabilityOptions,
    /// What the open-time scan found (frozen at open; later statements
    /// do not update it).
    recovery: WalRecovery,
}

/// Does executing this statement mutate the catalog or table data (and
/// therefore need WAL framing on a durable database)?
///
/// Public so the static analyzer ([`crate::plancheck`]) can cross-check
/// its independent mutation classification against the WAL layer's.
pub fn is_mutating(stmt: &Statement) -> bool {
    match stmt {
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::Insert { .. }
        | Statement::Update { .. }
        | Statement::Delete { .. } => true,
        // EXPLAIN ANALYZE executes its inner statement with real side
        // effects; plain EXPLAIN and SELECT touch nothing.
        Statement::ExplainAnalyze(inner) => is_mutating(inner),
        Statement::Explain(_) | Statement::Select(_) => false,
    }
}

/// The typed error a fired, non-crash injection surfaces as. `applied`
/// is what the exactly-once machinery keys on: at the after-exec site
/// and once the commit marker is in the log, the statement's effects
/// are in place and only the acknowledgement was lost.
fn injected(hit: &Injection) -> Error {
    Error::Injected {
        transient: hit.fault != FaultKind::Permanent,
        applied: matches!(hit.site, FaultSite::AfterExec | FaultSite::BeforeWalSync),
        statement: hit.statement,
    }
}

/// One statement registered for repeated execution.
#[derive(Debug)]
struct Prepared {
    /// The statement's canonical text, rendered once when it was
    /// registered: what a durable database logs for it, and what it is
    /// planned from.
    text: String,
    /// What it reports as.
    kind: StatementKind,
    /// The tables it touches (what fault rules match on).
    tables: Vec<String>,
    kept: Kept<StatementPlan>,
}

/// An in-memory relational database.
///
/// ```
/// use sqlengine::Database;
///
/// let mut db = Database::new();
/// db.execute("CREATE TABLE w (i BIGINT PRIMARY KEY, w DOUBLE)").unwrap();
/// db.execute("INSERT INTO w VALUES (1, 0.25), (2, 0.75)").unwrap();
/// let r = db.execute("SELECT sum(w) FROM w").unwrap();
/// assert_eq!(r.scalar_f64(), Some(1.0));
/// ```
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    config: ExecConfig,
    metrics: MetricsLog,
    /// Armed fault plan (chaos testing); `None` in production use.
    injector: Option<FaultInjector>,
    /// Durability layer; `None` for the default in-memory database (the
    /// in-memory execution path is byte-for-byte unaffected).
    durability: Option<Durability>,
    /// Statements registered by id for repeated execution (the
    /// [`crate::executor::SqlExecutor`] prepared-statement registry).
    /// Keyed so a multi-session server can drop one session's ids
    /// without shifting another's.
    prepared: HashMap<u64, Prepared>,
    /// Next id [`Database::register_prepared`] hands out.
    next_prepared: u64,
}

impl Database {
    /// New database with default configuration (serial execution, 64 KiB
    /// statement limit).
    pub fn new() -> Self {
        Database::default()
    }

    /// New database with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Database {
            catalog: Catalog::new(),
            config,
            metrics: MetricsLog::new(),
            injector: None,
            durability: None,
            prepared: HashMap::new(),
            next_prepared: 0,
        }
    }

    /// Open (or create) a **durable** database rooted at `dir` with the
    /// default configuration. See [`Database::open_durable_with`].
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Self> {
        Database::open_durable_with(dir, EngineConfig::default(), DurabilityOptions::default())
    }

    /// Open (or create) a durable database: recover state from the
    /// snapshot plus write-ahead log under `dir`, then keep logging
    /// every mutating statement there.
    ///
    /// Recovery order: load `snapshot.bin` if present (its checksum is
    /// verified), validate `wal.log`, replay committed frames whose
    /// sequence number is at or above the snapshot watermark, and
    /// physically truncate any torn tail. Damaged acknowledged state —
    /// a checksum mismatch, an undecodable record, a logged statement
    /// that no longer applies — surfaces as [`Error::Corruption`];
    /// recovery never silently diverges from what was acknowledged.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| Error::io("create database directory", e))?;
        let (catalog, watermark) = read_snapshot(dir)?.unwrap_or_default();
        let scanned = scan(&read_or_empty(&wal_path(dir))?)?;
        let mut db = Database::with_config(config);
        db.catalog = catalog;
        let mut committed = Vec::with_capacity(scanned.committed.len());
        for (seq, op) in scanned.committed {
            committed.push(seq);
            // Below the watermark: already captured by the snapshot.
            if seq >= watermark {
                db.replay_op(op)?;
            }
        }
        let wal = LogFile::open(&wal_path(dir), WAL_MAGIC, scanned.valid_len as u64)?;
        let next_seq = watermark.max(scanned.next_seq);
        db.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
            next_seq,
            options,
            recovery: WalRecovery {
                committed,
                uncommitted: scanned.uncommitted,
                watermark,
                next_seq,
            },
        });
        Ok(db)
    }

    /// Re-apply one recovered WAL operation. The statement succeeded
    /// against this exact state when it was logged, so any failure here
    /// means the durable image is internally inconsistent — reported as
    /// [`Error::Corruption`], never ignored.
    fn replay_op(&mut self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Sql(sql) => {
                let stmts = parse(&sql).map_err(|e| {
                    Error::corruption(format!("wal replay: logged statement unparsable: {e}"))
                })?;
                // Replay runs budget-free: every logged statement already
                // succeeded when it was acknowledged, and a budget
                // tightened since then must not turn recovery of durable
                // state into a corruption report.
                let mut replay_config = self.config.clone();
                replay_config.memory_budget = None;
                for stmt in &stmts {
                    if !matches!(stmt, Statement::CreateTable { .. }) {
                        self.catalog.release_dropped();
                    }
                    execute_statement(&mut self.catalog, &replay_config, stmt).map_err(|e| {
                        Error::corruption(format!(
                            "wal replay: logged statement failed: {e} (statement: {sql})"
                        ))
                    })?;
                }
            }
            WalOp::BulkInsert { table, rows } => {
                self.catalog.release_dropped();
                let t = self.catalog.table_mut(&table).map_err(|e| {
                    Error::corruption(format!("wal replay: bulk-insert target missing: {e}"))
                })?;
                let declared = t.schema().columns();
                let rows = rows.into_iter().map(Ok);
                let mut probe = StmtProbe::disabled();
                stage_rows(&table, declared, rows, "wal replay", &mut probe)
                    .and_then(|staged| t.append(staged))
                    .map_err(|e| {
                        Error::corruption(format!(
                            "wal replay: bulk insert into {table} failed: {e}"
                        ))
                    })?;
            }
        }
        Ok(())
    }

    /// Is this database backed by the durability layer?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable database directory, if durability is enabled.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Current WAL length in bytes (durable databases only).
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.len())
    }

    /// What open-time WAL recovery found (durable databases only).
    /// Frozen at open; statements executed since do not appear.
    pub fn wal_recovery_info(&self) -> Option<&WalRecovery> {
        self.durability.as_ref().map(|d| &d.recovery)
    }

    /// The sequence number the next WAL-framed statement will get
    /// (durable databases only). An exactly-once session layer records
    /// this *before* executing a statement so it can later correlate
    /// the statement's fate with the recovered log.
    pub fn wal_next_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_seq)
    }

    /// Compact the durable state: write the whole catalog as a new
    /// snapshot (staged and atomically renamed), then reset the WAL.
    /// A crash at any point leaves either the old snapshot + full log
    /// or the new snapshot (+ a log whose frames the watermark skips).
    pub fn compact(&mut self) -> Result<()> {
        let Some(d) = self.durability.as_mut() else {
            return Err(Error::Unsupported(
                "compact: database is not durable".into(),
            ));
        };
        write_snapshot(&d.dir, &self.catalog, d.next_seq)?;
        d.wal.reset()
    }

    /// Auto-compaction check, run after each synced commit.
    fn maybe_compact(&mut self) -> Result<()> {
        let should = self.durability.as_ref().is_some_and(|d| {
            d.options.auto_compact_bytes > 0 && d.wal.len() > d.options.auto_compact_bytes
        });
        if should {
            self.compact()?;
        }
        Ok(())
    }

    /// Execute one or more `;`-separated statements; returns the result of
    /// the **last** one. Statements run in order; on error, earlier
    /// statements keep their effects (no transactions — the SQLEM workflow
    /// rebuilds work tables each step, §3.6).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let results = self.execute_all(sql)?;
        results.into_iter().last().ok_or(Error::Parse {
            pos: 0,
            message: "empty statement".into(),
        })
    }

    /// Execute one or more statements, returning every result.
    ///
    /// Every statement goes through the semantic-analysis pass
    /// ([`crate::analyze`]) against the live catalog immediately before
    /// it runs, so DDL effects of earlier statements are visible to the
    /// analysis of later ones. Rejections surface as
    /// [`Error::Analyze`] with a byte position into `sql`.
    pub fn execute_all(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        check_statement_len(sql, self.config.max_statement_len)?;
        let stmts = parse(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.run_statement(stmt, sql)?);
        }
        Ok(out)
    }

    /// Analyze one statement of `sql` and run the plan the analysis was
    /// made on (EXPLAIN prints it instead).
    fn run_statement(&mut self, stmt: &Statement, sql: &str) -> Result<QueryResult> {
        self.offering_dropped(stmt, |db| {
            if let Statement::Explain(inner) = stmt {
                return db.explain_statement(inner, Some(sql));
            }
            let (report, front_end) = db.analyzed(stmt, sql)?;
            db.metered_statement(stmt, front_end, |catalog, config, probe| {
                execute_statement_metered(catalog, config, stmt, Some(report.plan), probe)
            })
        })
    }

    /// Run `stmt` with the table the previous statement dropped settled
    /// ([`crate::catalog`]): a statement that is not a CREATE TABLE
    /// frees it before it starts; a CREATE TABLE takes it, or frees it
    /// when it fails. Every entry point runs a statement in here, or
    /// frees the table itself.
    fn offering_dropped<T>(
        &mut self,
        stmt: &Statement,
        run: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let creates = matches!(stmt, Statement::CreateTable { .. });
        if !creates {
            self.catalog.release_dropped();
        }
        let result = run(self);
        if creates {
            self.catalog.release_dropped();
        }
        result
    }

    /// Semantic analysis of one statement of `sql` against the live
    /// catalog, under the configured limits, and how long it took.
    fn analyzed(&self, stmt: &Statement, sql: &str) -> Result<(Report, Duration)> {
        let t0 = Instant::now();
        let report = analyze(&self.catalog, stmt, &self.config.limits)
            .map_err(|e| Error::Analyze(e.locate(sql)))?;
        Ok((report, t0.elapsed()))
    }

    /// The one frame around every statement — SQL and bulk loads alike —
    /// keyed by what a frame needs: the statement `kind`, the `tables`
    /// it touches (what fault rules match on) and the [`Staged`]
    /// operation to log.
    /// In order: the before-exec fault site (a fired rule is
    /// [`Error::Injected`], the target untouched); `stage` reads the
    /// catalog and returns the operation a durable database logs (`None`
    /// when nothing mutates); the begin+payload frame is appended;
    /// `apply` runs the statement (it gets the staged operation back, so
    /// a bulk load appends the very columns that were logged); an
    /// [`ExecMetrics`] entry goes into the session log when it is enabled
    /// (a no-op probe otherwise — the zero-overhead default); the commit
    /// marker and an `fsync`; the after-exec fault site. A statement
    /// that fails in memory leaves its frame uncommitted — recovery
    /// skips it, matching the in-memory atomic semantics.
    ///
    /// `front_end` is what analysis and planning took when they ran
    /// before the frame (zero when `apply` plans): it is the entry's plan
    /// time and part of its elapsed time, as planning inside `apply` is.
    fn metered<T>(
        &mut self,
        kind: StatementKind,
        tables: &[String],
        front_end: Duration,
        stage: impl FnOnce(&Catalog, &mut StmtProbe) -> Result<Option<Staged>>,
        apply: impl FnOnce(&mut Catalog, &ExecConfig, &mut StmtProbe, Option<Staged>) -> Result<T>,
    ) -> Result<T> {
        self.check_fault(FaultSite::BeforeExec, kind, tables)?;
        let mut probe = self.new_probe();
        probe.add_plan_time(front_end);
        let t0 = Instant::now();
        let op = stage(&self.catalog, &mut probe)?;
        let seq = match &op {
            Some(op) if self.durability.is_some() => Some(self.wal_append_frame(kind, tables, op)?),
            _ => None,
        };
        let result = apply(&mut self.catalog, &self.config, &mut probe, op)?;
        if self.metrics.is_enabled() {
            self.metrics
                .push(probe.finish(kind, front_end + t0.elapsed()));
        }
        if let Some(seq) = seq {
            self.wal_commit_frame(seq, kind, tables)?;
        }
        self.check_fault(FaultSite::AfterExec, kind, tables)?;
        Ok(result)
    }

    /// [`Database::metered`] for one SQL statement, logged (when it
    /// mutates) as its rendered text.
    fn metered_statement<T>(
        &mut self,
        stmt: &Statement,
        front_end: Duration,
        run: impl FnOnce(&mut Catalog, &ExecConfig, &mut StmtProbe) -> Result<T>,
    ) -> Result<T> {
        let log = self.durability.is_some() && is_mutating(stmt);
        // Only an armed fault plan reads the table names.
        let tables = match self.injector {
            Some(_) => statement_tables(stmt),
            None => Vec::new(),
        };
        self.metered(
            statement_kind(stmt),
            &tables,
            front_end,
            |_, _| Ok(log.then(|| Staged::Sql(stmt.to_string()))),
            |catalog, config, probe, _| run(catalog, config, probe),
        )
    }

    /// A probe for one statement: live when the metrics log is enabled,
    /// a no-op otherwise; either way it carries the memory budget.
    fn new_probe(&self) -> StmtProbe {
        if self.metrics.is_enabled() {
            StmtProbe::enabled()
        } else {
            StmtProbe::disabled()
        }
        .with_budget(self.config.memory_budget.clone())
    }

    /// Length-check, parse and analyze `sql` as exactly one `SELECT`
    /// (what both partial-aggregate entry points take); returns it with
    /// the plan it was analyzed on and the time the analysis took.
    fn single_select(&self, sql: &str, what: &str) -> Result<(Statement, SelectPlan, Duration)> {
        check_statement_len(sql, self.config.max_statement_len)?;
        let mut stmts = parse(sql)?;
        if !matches!(stmts.as_slice(), [Statement::Select(_)]) {
            return Err(Error::Unsupported(format!(
                "{what} takes exactly one SELECT statement"
            )));
        }
        let stmt = stmts.pop().expect("length checked");
        let (report, front_end) = self.analyzed(&stmt, sql)?;
        let StatementPlan::Select(plan) = report.plan else {
            unreachable!("a SELECT plans as a SelectPlan");
        };
        Ok((stmt, plan, front_end))
    }

    /// Execute the *scatter* half of a distributed aggregate `SELECT`:
    /// run the full scan/join/group pipeline locally but stop **before**
    /// finalizing the accumulators, returning the group table
    /// un-finalized ([`crate::PartialAggResult`]) instead of finished
    /// rows. A cluster coordinator merges the partials from every shard
    /// and finalizes once ([`crate::exec::finalize_select_partials`]), so
    /// the result is bit-identical to a single-node run of the statement.
    ///
    /// `sql` must be exactly one aggregate `SELECT` (no `ORDER BY`
    /// restrictions — ordering is applied at finalize time). Scan
    /// accounting, metrics, deadline/budget enforcement and fault
    /// injection all behave exactly as for [`Database::execute`].
    pub fn execute_partial(&mut self, sql: &str) -> Result<PartialAggResult> {
        self.catalog.release_dropped();
        let (stmt, plan, front_end) = self.single_select(sql, "partial execution")?;
        self.metered_statement(&stmt, front_end, |catalog, config, probe| {
            run_select_partial(catalog, config, &plan, probe)
        })
    }

    /// The *gather* half of a distributed aggregate `SELECT`, from its
    /// text: finalize a merged group table produced by
    /// [`Database::execute_partial`] on the shards once, and apply the
    /// statement's `ORDER BY`/`LIMIT`. Runs against this database's
    /// **catalog schema only** — no base-table rows are read and no scans
    /// are recorded, so a rowless catalog will do. No metrics entry is
    /// pushed: the statement's telemetry lives on the shards.
    pub fn finalize_partials(
        &mut self,
        sql: &str,
        partial: &PartialAggResult,
    ) -> Result<QueryResult> {
        let (_, plan, _) = self.single_select(sql, "partial finalize")?;
        finalize_select_partials(&plan, partial.clone())
    }

    /// Consult the armed fault plan at one site of a statement's frame.
    /// Returns the fired injection (if any) for the caller to turn into
    /// a crash or a typed error at the right point of the protocol.
    fn fault_at(
        &mut self,
        site: FaultSite,
        kind: StatementKind,
        tables: &[String],
    ) -> Option<Injection> {
        self.injector.as_mut()?.decide(site, kind, tables)
    }

    /// Append the begin+payload frame for one mutating statement and
    /// run the `BeforeWalAppend`/`AfterWalAppend` crash points. Returns
    /// the frame's sequence number.
    fn wal_append_frame(
        &mut self,
        kind: StatementKind,
        tables: &[String],
        op: &Staged,
    ) -> Result<u64> {
        if let Some(hit) = self.fault_at(FaultSite::BeforeWalAppend, kind, tables) {
            if hit.crash {
                // Kill before anything reached the log: recovery must
                // see no trace of this statement.
                std::process::abort();
            }
            return Err(injected(&hit));
        }
        let d = self.durability.as_mut().expect("durable database");
        let seq = d.next_seq;
        let frame = match op {
            Staged::Sql(sql) => encode_sql_frame(seq, sql),
            Staged::Bulk { table, columns } => encode_bulk_frame(seq, table, columns),
        };
        let start = d.wal.append(&frame)?;
        d.next_seq += 1;
        if let Some(hit) = self.fault_at(FaultSite::AfterWalAppend, kind, tables) {
            if hit.crash {
                // Reproduce a kill mid-append: tear the frame to a
                // deterministic partial prefix (statement index modulo
                // frame size + 1, so full-frame survival is reachable)
                // and abort without the commit marker.
                let tear = (hit.statement as u64) % (frame.len() as u64 + 1);
                let d = self.durability.as_mut().expect("durable database");
                let _ = d.wal.truncate_to(start + tear);
                let _ = d.wal.sync();
                std::process::abort();
            }
            // Non-crash fault: the frame is on disk but uncommitted —
            // recovery skips it, so nothing was applied.
            return Err(injected(&hit));
        }
        Ok(seq)
    }

    /// Append the commit marker for `seq`, run the `BeforeWalSync`
    /// crash point, fsync the log and maybe auto-compact.
    fn wal_commit_frame(&mut self, seq: u64, kind: StatementKind, tables: &[String]) -> Result<()> {
        {
            let d = self.durability.as_mut().expect("durable database");
            d.wal.append(&encode_commit(seq))?;
        }
        if let Some(hit) = self.fault_at(FaultSite::BeforeWalSync, kind, tables) {
            if hit.crash {
                // Kill after the commit marker but before the fsync:
                // the bytes are in the file, the client never saw the
                // ack — recovery *includes* this statement.
                std::process::abort();
            }
            // Non-crash flavour of the same window: the statement
            // applied (in memory and in the log) but the ack was lost.
            return Err(injected(&hit));
        }
        let d = self.durability.as_mut().expect("durable database");
        d.wal.sync()?;
        self.maybe_compact()
    }

    /// [`Database::fault_at`] for the two execution sites, where a hit is
    /// always a typed error (never a crash).
    fn check_fault(
        &mut self,
        site: FaultSite,
        kind: StatementKind,
        tables: &[String],
    ) -> Result<()> {
        let Some(hit) = self.fault_at(site, kind, tables) else {
            return Ok(());
        };
        // An injected exhaustion at the submission site models the
        // resource governor rejecting the statement before any effect:
        // surface the typed error so chaos plans exercise the exact path
        // a real over-budget charge takes. At AfterExec the Injected
        // envelope is kept — its `applied` flag is what the exactly-once
        // machinery keys on.
        if hit.fault == FaultKind::ResourceExhaustion && site == FaultSite::BeforeExec {
            return Err(Error::resource_exhausted("injected fault", 0, 0));
        }
        Err(injected(&hit))
    }

    /// Run `EXPLAIN <stmt>`: one VARCHAR `plan` column describing, for a
    /// SELECT, the join pipeline, and for every statement kind the
    /// analyzer's verdict — complexity metrics, inferred output schema,
    /// and predicted limit overflows (reported as warnings rather than
    /// errors, so EXPLAIN can describe a statement that would *not* run).
    fn explain_statement(
        &mut self,
        inner: &Statement,
        source: Option<&str>,
    ) -> Result<QueryResult> {
        let mut lines: Vec<String> = Vec::new();
        match analyze(&self.catalog, inner, &Limits::unbounded()) {
            Err(e) => {
                let e = match source {
                    Some(sql) => e.locate(sql),
                    None => e,
                };
                lines.push(format!("analysis error: {e}"));
            }
            Ok(mut report) => {
                if let StatementPlan::Select(plan) = &report.plan {
                    lines.extend(explain_select(&self.catalog, plan)?);
                }
                // Approximate the statement size as the source text minus
                // the EXPLAIN keyword itself.
                report.complexity.bytes =
                    source.map(|s| s.trim().len().saturating_sub("EXPLAIN ".len()));
                lines.push(report.complexity.summary());
                if let Some(out) = &report.output {
                    let cols: Vec<String> = out.iter().map(|(n, t)| format!("{n} {t}")).collect();
                    lines.push(format!("output: {}", cols.join(", ")));
                }
                if let Err(e) = report.complexity.check(&self.config.limits) {
                    lines.push(format!("warning: {e}"));
                }
            }
        }
        Ok(QueryResult::plan_lines(lines))
    }

    /// Snapshot the current table schemas for symbolic DDL replay (see
    /// [`crate::prepare_statements`] and [`crate::analyze`]).
    pub fn symbolic_catalog(&self) -> SymbolicCatalog {
        SymbolicCatalog::from_catalog(&self.catalog)
    }

    /// Register a statement the engine prepared
    /// ([`crate::executor::prepare_statements`]) for repeated execution,
    /// returning its id. Ids are never reused within one database, so a
    /// multi-session server can unregister one session's statements
    /// ([`Database::unregister_prepared`]) without invalidating another's
    /// ids.
    pub(crate) fn register_prepared(&mut self, stmt: Statement) -> u64 {
        let id = self.next_prepared;
        self.next_prepared += 1;
        let prepared = Prepared {
            text: stmt.to_string(),
            kind: statement_kind(&stmt),
            tables: statement_tables(&stmt),
            kept: Kept::new(stmt),
        };
        self.prepared.insert(id, prepared);
        id
    }

    /// Run the registered statement `id` (the one prepared path,
    /// [`crate::executor::SqlExecutor::run_prepared`]). Analysis happened
    /// when it was prepared and is not repeated. A SELECT, INSERT, UPDATE
    /// or DELETE runs the plan it keeps while every table that plan reads
    /// or writes has the schema it was made on; otherwise — its first
    /// run, or a table dropped, or created again with other columns,
    /// types or key — it is planned again from its text inside the
    /// statement's frame, with the errors and metrics of a statement
    /// planned there, and the new plan is kept.
    pub(crate) fn run_registered(&mut self, id: u64) -> Result<QueryResult> {
        // Out of the registry for the run, so the run borrows it while
        // the frame borrows the database.
        let mut prepared = self
            .prepared
            .remove(&id)
            .ok_or_else(|| Error::Unsupported(format!("unknown prepared statement id {id}")))?;
        let result = self.run_kept(&mut prepared);
        self.prepared.insert(id, prepared);
        result
    }

    fn run_kept(&mut self, prepared: &mut Prepared) -> Result<QueryResult> {
        let Prepared {
            text,
            kind,
            tables,
            kept,
        } = prepared;
        let kept = match kept {
            Kept::Parsed(stmt) => {
                let stmt: &Statement = stmt;
                return self.offering_dropped(stmt, |db| {
                    if let Statement::Explain(inner) = stmt {
                        return db.explain_statement(inner, None);
                    }
                    db.metered_statement(stmt, Duration::ZERO, |catalog, config, probe| {
                        execute_statement_metered(catalog, config, stmt, None, probe)
                    })
                });
            }
            Kept::Planned(kept) => kept,
        };
        // A SELECT, INSERT, UPDATE or DELETE: not a CREATE.
        self.catalog.release_dropped();
        let log = self.durability.is_some() && *kind != StatementKind::Select;
        self.metered(
            *kind,
            tables,
            Duration::ZERO,
            |_, _| Ok(log.then(|| Staged::Sql(text.clone()))),
            |catalog, config, probe, _| {
                if !kept.as_mut().is_some_and(|plan| plan.holds_on(catalog)) {
                    let t0 = Instant::now();
                    *kept = Some(plan_statement(catalog, &parse_one(text)?)?);
                    probe.add_plan_time(t0.elapsed());
                }
                let plan = kept.as_ref().expect("planned above");
                execute_plan(catalog, config, plan, probe)
            },
        )
    }

    /// Remove one registered statement (a server session dropping only
    /// its own preparations). Unknown ids are ignored.
    pub fn unregister_prepared(&mut self, id: u64) {
        self.prepared.remove(&id);
    }

    /// Drop every registered prepared statement.
    pub fn clear_registered_prepared(&mut self) {
        self.prepared.clear();
    }

    /// Bulk-load rows into a table without going through the SQL parser —
    /// the analogue of Teradata FastLoad / JDBC batch inserts the paper's
    /// client used for the 1.5M-row retail table. Values are coerced to the
    /// column types; primary-key uniqueness is enforced.
    pub fn bulk_insert<I>(&mut self, table: &str, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        self.catalog.release_dropped();
        let tables = [table.to_ascii_lowercase()];
        self.metered(
            StatementKind::Insert,
            &tables,
            Duration::ZERO,
            // Coerce every row before touching the table, then append
            // atomically: a failed bulk load leaves the target unchanged.
            // The staging buffer is the dominant allocation of a bulk
            // load, so it is charged against the memory budget row by
            // row — an over-budget load aborts before the table or the
            // WAL see it. Bulk loads have no SQL text; the staged
            // columns are what is logged (as rows), under the same
            // begin/commit protocol.
            |catalog, probe| {
                let [table] = &tables;
                let declared = catalog.table(table)?.schema().columns();
                let incoming = rows.into_iter().map(Ok);
                let columns = stage_rows(table, declared, incoming, "bulk-load staging", probe)?;
                let table = table.clone();
                Ok(Some(Staged::Bulk { table, columns }))
            },
            |catalog, _, probe, staged| {
                let Some(Staged::Bulk { table, columns }) = staged else {
                    unreachable!("a bulk load stages its columns as the operation to log");
                };
                let inserted = catalog.table_mut(&table)?.append(columns)?;
                probe.add_inserted(inserted);
                Ok(inserted)
            },
        )
    }

    /// Number of rows in `table`.
    pub fn table_len(&self, table: &str) -> Result<usize> {
        Ok(self.catalog.table(table)?.len())
    }

    /// Does `table` exist?
    pub fn contains_table(&self, table: &str) -> bool {
        self.catalog.contains(table)
    }

    /// Read-only catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Arm a fault plan (chaos testing): every subsequent statement is
    /// checked against its rules, and matches fail with
    /// [`Error::Injected`]. The plan's statement counter starts at zero
    /// here — install it right before the region under test. Replaces
    /// any previously armed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Disarm the fault plan; subsequent statements run normally.
    pub fn clear_fault_plan(&mut self) {
        self.injector = None;
    }

    /// Tell the armed injector (if any) that the next statement is a
    /// **retry** of the one that just failed: it keeps the failed
    /// statement's sequence number, so `nth` rules do not shift and
    /// firing budgets are shared across re-executions. Retry drivers
    /// (e.g. the SQLEM `RetryPolicy` loop) call this before each
    /// re-submission.
    pub fn note_statement_retry(&mut self) {
        if let Some(injector) = &mut self.injector {
            injector.note_retry();
        }
    }

    /// The armed injector's runtime state (statement count, faults
    /// fired), if a plan is armed.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The session metrics log (disabled and empty by default).
    pub fn metrics(&self) -> &MetricsLog {
        &self.metrics
    }

    /// Start recording one [`ExecMetrics`] entry per executed statement.
    pub fn enable_metrics(&mut self) {
        self.metrics.enable();
    }

    /// Stop recording metrics (existing entries are kept).
    pub fn disable_metrics(&mut self) {
        self.metrics.disable();
    }

    /// Drop all recorded metrics entries (recording state unchanged).
    pub fn clear_metrics(&mut self) {
        self.metrics.clear();
    }

    /// Take every recorded metrics entry, leaving the log empty.
    pub fn take_metrics(&mut self) -> Vec<ExecMetrics> {
        self.metrics.take()
    }

    /// Current configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable configuration access (statement cap, analyzer limits,
    /// memory budget) for subsequent statements.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Change the statement-length limit (models DBMS parser limits, §1.3).
    pub fn set_max_statement_len(&mut self, max: usize) {
        self.config.max_statement_len = max;
    }

    /// Arm (or clear) a wall-clock deadline for subsequent statements:
    /// a scan that is still running at the deadline aborts with
    /// [`Error::Deadline`]. A server sets this per statement from the
    /// client's propagated budget and clears it afterwards. Statement
    /// atomicity holds across an abort — effects are staged and only
    /// swapped in on success, and a durable frame without its commit
    /// marker is skipped on replay.
    pub fn set_statement_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.config.deadline = deadline;
    }

    /// Install (or clear) the working-memory budget for subsequent
    /// statements. Allocating operators charge the budget as they run;
    /// a charge that would exceed the limit aborts the statement with
    /// the typed transient [`Error::ResourceExhausted`] before any
    /// effects commit (statement atomicity holds, exactly as for a
    /// deadline abort). The handle is shared — a server installs a
    /// per-namespace budget chained to a global one
    /// ([`crate::resource::MemoryBudget::child_of`]) so concurrent
    /// sessions draw from the same pool.
    pub fn set_memory_budget(&mut self, budget: Option<crate::resource::MemoryBudget>) {
        self.config.memory_budget = budget;
    }
}

/// A thread-safe handle around a [`Database`] for multi-client scenarios
/// (several generator sessions sharing one warehouse).
#[derive(Clone, Debug)]
pub struct SharedDatabase {
    inner: Arc<Mutex<Database>>,
}

impl SharedDatabase {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(Mutex::new(db)),
        }
    }

    /// Execute statements under the lock.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.lock().execute(sql)
    }

    /// Run an arbitrary closure against the locked database.
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.lock())
    }

    /// Like [`SharedDatabase::with`], but give up after waiting
    /// `timeout` for the lock instead of blocking indefinitely —
    /// the statement-timeout primitive a server needs so one client's
    /// long statement cannot wedge every other session forever. Returns
    /// `None` on timeout; the closure is then never run.
    ///
    /// Implemented as a spin-and-sleep over `try_lock` (std's mutex has
    /// no native timed acquire). Each sleep is clamped to the time left
    /// until the deadline, so acquisition never oversleeps past the
    /// timeout by a backoff step — with per-statement deadlines riding
    /// on this path, that slack would come straight out of the client's
    /// budget.
    pub fn with_timeout<R>(
        &self,
        timeout: std::time::Duration,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Option<R> {
        let deadline = std::time::Instant::now() + timeout;
        let mut backoff = std::time::Duration::from_micros(50);
        loop {
            match self.inner.try_lock() {
                Ok(mut guard) => return Some(f(&mut guard)),
                Err(std::sync::TryLockError::Poisoned(e)) => return Some(f(&mut e.into_inner())),
                Err(std::sync::TryLockError::WouldBlock) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    std::thread::sleep(backoff.min(deadline - now));
                    backoff = (backoff * 2).min(std::time::Duration::from_millis(5));
                }
            }
        }
    }

    /// Take the lock, recovering from a poisoned mutex: the database
    /// holds no invariants that a panicking reader could break mid-way
    /// that the next statement would not surface as a normal error.
    fn lock(&self) -> std::sync::MutexGuard<'_, Database> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for SharedDatabase {
    fn default() -> Self {
        SharedDatabase::new(Database::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_create_insert_select() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
            .unwrap();
        let r = db.execute("SELECT a, b FROM t ORDER BY a DESC").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn statement_length_limit_enforced() {
        let mut db = Database::new();
        db.set_max_statement_len(32);
        let err = db
            .execute("SELECT 1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1+1")
            .unwrap_err();
        assert!(matches!(err, Error::StatementTooLong { .. }));
    }

    #[test]
    fn bulk_insert_coerces_and_enforces_keys() {
        let mut db = Database::new();
        db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, y1 DOUBLE)")
            .unwrap();
        let n = db
            .bulk_insert(
                "y",
                vec![
                    vec![Value::Int(1), Value::Int(3)], // Int coerced to Double
                    vec![Value::Int(2), Value::Double(4.5)],
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        let r = db.execute("SELECT sum(y1) FROM y").unwrap();
        assert_eq!(r.scalar_f64(), Some(7.5));
        // Duplicate key rejected.
        assert!(db
            .bulk_insert("y", vec![vec![Value::Int(1), Value::Double(0.0)]])
            .is_err());
    }

    #[test]
    fn a_dropped_table_is_kept_for_the_next_statement_only() {
        const T: &str = "CREATE TABLE t (rid BIGINT PRIMARY KEY, x DOUBLE)";
        let mut db = Database::new();
        db.execute("CREATE TABLE o (a BIGINT)").unwrap();
        let capacity = |db: &Database| db.catalog().table("t").unwrap().columns()[1].capacity();
        type Step = fn(&mut Database);
        let between: [(&str, Step); 7] = [
            ("nothing", |_| {}),
            ("select", |db| drop(db.execute("SELECT a FROM o").unwrap())),
            ("explain", |db| {
                drop(db.execute("EXPLAIN SELECT a FROM o").unwrap())
            }),
            ("bulk load", |db| {
                db.bulk_insert("o", vec![vec![Value::Int(1)]]).unwrap();
            }),
            ("failed insert", |db| {
                db.execute("INSERT INTO o VALUES ('no')").unwrap_err();
            }),
            ("failed create", |db| {
                db.execute("CREATE TABLE o (a BIGINT)").unwrap_err();
            }),
            ("create of another schema", |db| {
                db.execute("CREATE TABLE t (rid BIGINT, x DOUBLE)").unwrap();
                db.execute("DROP TABLE t").unwrap();
            }),
        ];
        for (what, run) in between {
            db.execute(T).unwrap();
            db.execute("INSERT INTO t SELECT a, a FROM o").unwrap();
            db.bulk_insert("t", (10..5000).map(|i| vec![Value::Int(i), Value::Int(i)]))
                .unwrap();
            let kept = capacity(&db);
            db.execute("DROP TABLE t").unwrap();
            run(&mut db);
            db.execute(T).unwrap();
            assert_eq!(db.table_len("t").unwrap(), 0, "{what}");
            let want = if what == "nothing" { kept } else { 0 };
            assert_eq!(capacity(&db), want, "{what}");
            db.execute("DROP TABLE t").unwrap();
        }
    }

    #[test]
    fn execute_all_returns_every_result() {
        let mut db = Database::new();
        let rs = db
            .execute_all("CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1); SELECT a FROM t")
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[2].rows.len(), 1);
    }

    #[test]
    fn shared_database_is_cloneable_across_threads() {
        let shared = SharedDatabase::default();
        shared.execute("CREATE TABLE t (a BIGINT)").unwrap();
        let s2 = shared.clone();
        std::thread::spawn(move || {
            s2.execute("INSERT INTO t VALUES (42)").unwrap();
        })
        .join()
        .unwrap();
        let r = shared.execute("SELECT count(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn prepared_statements_replay() {
        use crate::executor::SqlExecutor;
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a BIGINT)").unwrap();
        let script = ["INSERT INTO t VALUES (1)", "SELECT count(*) FROM t"].map(String::from);
        let ids = SqlExecutor::prepare_script(&mut db, &script).unwrap();
        assert_eq!(ids.len(), 2);
        SqlExecutor::run_prepared(&mut db, ids[0]).unwrap();
        SqlExecutor::run_prepared(&mut db, ids[0]).unwrap();
        let r = SqlExecutor::run_prepared(&mut db, ids[1]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        // Length limit applies at prepare time.
        db.set_max_statement_len(8);
        let long = ["SELECT 12345678901234567890".to_string()];
        assert!(matches!(
            SqlExecutor::prepare_script(&mut db, &long),
            Err(crate::PrepareError {
                index: 0,
                error: Error::StatementTooLong { .. }
            })
        ));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sqlem_engine_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_database_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            assert!(db.is_durable());
            assert_eq!(db.data_dir(), Some(dir.as_path()));
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE)")
                .unwrap();
            db.execute("INSERT INTO y VALUES (1, 0.5), (2, 1.5)")
                .unwrap();
            db.execute("UPDATE y SET v = v * 2.0 WHERE rid = 2")
                .unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let r = db.execute("SELECT sum(v) FROM y").unwrap();
        assert_eq!(r.scalar_f64(), Some(3.5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_bulk_insert_survives_reopen() {
        let dir = temp_dir("bulk");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE)")
                .unwrap();
            db.bulk_insert(
                "y",
                vec![
                    vec![Value::Int(1), Value::Double(1.0 / 3.0)],
                    vec![Value::Int(2), Value::Double(-0.0)],
                ],
            )
            .unwrap();
        }
        let db = Database::open_durable(&dir).unwrap();
        let y = db.catalog().table("y").unwrap();
        assert_eq!(y.len(), 2);
        match &y.columns()[1].value(0) {
            Value::Double(d) => assert_eq!(d.to_bits(), (1.0f64 / 3.0).to_bits()),
            other => panic!("expected double, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_statement_leaves_uncommitted_frame_that_replay_skips() {
        let dir = temp_dir("failfr");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY)")
                .unwrap();
            db.execute("INSERT INTO y VALUES (1)").unwrap();
            // Duplicate key: fails in memory, frame stays uncommitted.
            assert!(db.execute("INSERT INTO y VALUES (1)").is_err());
            db.execute("INSERT INTO y VALUES (2)").unwrap();
        }
        let db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.table_len("y").unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_resets_wal_and_preserves_state() {
        let dir = temp_dir("compact");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE)")
                .unwrap();
            for i in 0..20 {
                db.execute(&format!("INSERT INTO y VALUES ({i}, {i}.5)"))
                    .unwrap();
            }
            let before = db.wal_len().unwrap();
            db.compact().unwrap();
            assert!(db.wal_len().unwrap() < before, "wal reset by compaction");
            // More statements after the compaction land in the fresh log.
            db.execute("INSERT INTO y VALUES (100, 0.25)").unwrap();
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let r = db.execute("SELECT count(*) FROM y").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(21)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = temp_dir("autocompact");
        {
            let mut db = Database::open_durable_with(
                &dir,
                EngineConfig::default(),
                DurabilityOptions {
                    auto_compact_bytes: 256,
                },
            )
            .unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY)")
                .unwrap();
            for i in 0..50 {
                db.execute(&format!("INSERT INTO y VALUES ({i})")).unwrap();
            }
            assert!(
                db.wal_len().unwrap() < 1024,
                "wal kept small by auto-compaction: {} bytes",
                db.wal_len().unwrap()
            );
        }
        let db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.table_len("y").unwrap(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_wal_is_a_typed_error() {
        let dir = temp_dir("corrupt");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY)")
                .unwrap();
            db.execute("INSERT INTO y VALUES (1)").unwrap();
        }
        // Flip one byte inside the first record's payload.
        let path = crate::wal::wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = crate::wal::WAL_MAGIC.len() + 9;
        bytes[pos] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match Database::open_durable(&dir) {
            Err(Error::Corruption { .. }) => {}
            other => panic!("expected Corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_database_has_no_durability_surface() {
        let mut db = Database::new();
        assert!(!db.is_durable());
        assert!(db.data_dir().is_none());
        assert!(db.wal_len().is_none());
        assert!(matches!(db.compact(), Err(Error::Unsupported(_))));
    }

    #[test]
    fn explain_analyze_mutation_is_replayed() {
        let dir = temp_dir("expanalyze");
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY)")
                .unwrap();
            db.execute("EXPLAIN ANALYZE INSERT INTO y VALUES (7)")
                .unwrap();
        }
        let db = Database::open_durable(&dir).unwrap();
        assert_eq!(db.table_len("y").unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
