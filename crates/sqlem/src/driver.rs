//! The client-side driver: the "small program in a workstation to control
//! execution" of §1.4.
//!
//! An [`EmSession`] owns the generated SQL for one clustering run. It
//! creates the tables, loads the points, writes the initial parameters,
//! then alternates E and M steps — each a fixed list of SQL statements —
//! reading back one number per iteration (the loglikelihood) to decide
//! convergence, exactly as the paper's Java/JDBC client did.
//!
//! The session is generic over the model: its [`Generator`] — one of the
//! paper's three strategies (the default), [`crate::KmeansGenerator`] or
//! [`crate::PerClusterGenerator`] — supplies the SQL and the parameter
//! set; the loop, retry, pre-flight, telemetry, checkpoints and
//! degenerate-cluster recovery are the same for all of them.

use std::time::{Duration, Instant};

use emcore::init::{initialize, InitStrategy};
use emcore::{EmOutcome, GmmParams};
use sqlengine::{Database, Error as SqlError, PreparedId, SqlExecutor};

use crate::checkpoint::{self, Checkpoint};
use crate::config::{SqlemConfig, Strategy};
use crate::error::SqlemError;
use crate::generator::{build_generator, Generator, Stmt};
use crate::loader;
use crate::naming::Names;
use crate::params::ParamSet;
use crate::plan::{analyze_generator, FallbackDecision, PlanError};
use crate::retry::Retrying;
use crate::telemetry::IterationReport;

/// One degenerate-model repair performed by [`EmSession::run`] under
/// [`SqlemConfig::recover_degenerate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// 0-based index of the iteration that was repaired and repeated.
    pub iteration: usize,
    /// 0-based index of the re-seeded cluster.
    pub cluster: usize,
    /// Human-readable description of the degeneracy.
    pub reason: String,
}

/// Result of a SQLEM run.
#[derive(Debug, Clone)]
pub struct SqlemRun<P = GmmParams> {
    /// Final mixture parameters, read back from the C/R/W tables.
    pub params: P,
    /// Loglikelihood after each completed iteration (for K-means, the
    /// SSE).
    pub llh_history: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the ε test or the iteration cap ended the run.
    pub outcome: EmOutcome,
    /// Wall-clock time of each iteration (the paper's "time per
    /// iteration" metric, Figs. 11–13).
    pub iteration_times: Vec<Duration>,
    /// Per-iteration cost-model telemetry; empty unless
    /// [`EmSession::enable_telemetry`] was called before running.
    pub iteration_reports: Vec<IterationReport>,
    /// Transient-fault statement retries performed across the run.
    pub retries: usize,
    /// Bulk-load chunk halvings performed under memory pressure (0
    /// unless a load hit the budget; see
    /// [`SqlemConfig::load_chunk_rows`]).
    pub load_shrinks: usize,
    /// Degenerate-cluster repairs performed across the run (empty unless
    /// [`SqlemConfig::recover_degenerate`] is on and a cluster died).
    pub recoveries: Vec<RecoveryEvent>,
}

impl<P> SqlemRun<P> {
    /// Mean wall-clock seconds per iteration.
    pub fn secs_per_iteration(&self) -> f64 {
        if self.iteration_times.is_empty() {
            return 0.0;
        }
        self.iteration_times
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / self.iteration_times.len() as f64
    }
}

/// One clustering session against any [`SqlExecutor`] — the in-process
/// [`Database`] (the default) or a remote server connection
/// (`sqlwire::RemoteConnection`), reproducing the paper's two-tier
/// deployment where the driver talks to the DBMS over a network — for
/// any model `G` (by default the configured strategy's generator).
pub struct EmSession<
    'a,
    E: SqlExecutor = Database,
    G: Generator = Box<dyn Generator<Params = GmmParams>>,
> {
    /// The one statement runner: every executor call below goes through
    /// it and is retried per [`SqlemConfig::retry`].
    db: Retrying<'a, E>,
    config: SqlemConfig,
    generator: G,
    names: Names,
    p: usize,
    n: Option<usize>,
    /// Cached copy of the loaded points, kept for initialization only.
    points: Option<Vec<Vec<f64>>>,
    initialized: bool,
    e_step: Vec<Stmt>,
    m_step: Vec<Stmt>,
    /// E/M statements prepared once (by id, via
    /// [`SqlExecutor::prepare_script`]) and replayed every iteration;
    /// populated lazily on the first iteration so parser rejections
    /// (§3.3) surface where the paper's workflow would hit them — at
    /// statement submission.
    prepared: Option<Vec<(String, PreparedId)>>,
    /// Set when the pre-flight switched strategy before any DDL ran.
    fallback: Option<FallbackDecision>,
    /// Per-iteration cost-model reports, populated when telemetry is on.
    iteration_reports: Vec<IterationReport>,
    /// Iterations executed so far (indexes the reports).
    iterations_done: usize,
    /// Bulk-load chunk halvings performed so far under memory pressure.
    load_shrinks: usize,
    /// Degenerate-cluster repairs performed so far.
    recoveries: Vec<RecoveryEvent>,
    /// Loglikelihood history restored by
    /// [`EmSession::resume_from_checkpoint`]; consumed by the next
    /// [`EmSession::run`].
    resumed_llh: Vec<f64>,
}

impl<'a, E: SqlExecutor> EmSession<'a, E> {
    /// Create a session for `p`-dimensional data running the configured
    /// strategy ([`build_generator`]); see [`EmSession::create_with`].
    pub fn create(db: &'a mut E, config: &SqlemConfig, p: usize) -> Result<Self, SqlemError> {
        Self::create_with(db, config, p, build_generator)
    }
}

impl<'a, E: SqlExecutor, G: Generator> EmSession<'a, E, G> {
    /// Create a session for `p`-dimensional data running the model
    /// `build(config, p)` — e.g. `KmeansGenerator::new` — which takes
    /// `k` and the table prefix from `config`: generates the SQL and
    /// creates (or recreates) every table.
    ///
    /// When [`SqlemConfig::preflight`] is on (the default), every
    /// statement the strategy will generate is first statically analyzed
    /// against a symbolic catalog — nothing executes until the whole
    /// script checks out. If the horizontal strategy over-runs a
    /// capacity limit (statement bytes or term count, §3.3), the session
    /// switches to the hybrid strategy (§3.6) and records a
    /// [`FallbackDecision`] retrievable via [`EmSession::fallback`];
    /// otherwise creation fails with [`SqlemError::Preflight`] and the
    /// database is untouched. A failure while creating the tables drops
    /// the ones already created.
    pub fn create_with(
        db: &'a mut E,
        config: &SqlemConfig,
        p: usize,
        build: impl Fn(&SqlemConfig, usize) -> G,
    ) -> Result<Self, SqlemError> {
        assert!(p >= 1, "p must be at least 1");
        let mut config = config.clone();
        let mut fallback = None;
        let mut db = Retrying::new(db, config.retry.clone());
        // Pre-flight only *reads* the executor (catalog snapshot,
        // capacity limits) — over the wire that read can flake, and
        // re-issuing a pure read is always safe.
        if config.preflight {
            let report = analyze_generator(&mut db, &build(&config, p), &config, p)?;
            if !report.ok() {
                let errors = report.errors();
                let mut alt = config.clone();
                alt.strategy = Strategy::Hybrid;
                let recoverable = config.strategy == Strategy::Horizontal
                    && errors.iter().all(PlanError::is_capacity);
                if recoverable && analyze_generator(&mut db, &build(&alt, p), &alt, p)?.ok() {
                    let decision = FallbackDecision {
                        from: config.strategy,
                        to: alt.strategy,
                        reason: errors[0].to_string(),
                    };
                    config = alt;
                    fallback = Some(decision);
                } else {
                    return Err(SqlemError::Preflight {
                        strategy: report.strategy,
                        errors,
                    });
                }
            }
        }
        let generator = build(&config, p);
        let names = Names::new(&config.table_prefix);
        let e_step = generator.e_step();
        let m_step = generator.m_step();
        let mut session = EmSession {
            db,
            config,
            generator,
            names,
            p,
            n: None,
            points: None,
            initialized: false,
            e_step,
            m_step,
            prepared: None,
            fallback,
            iteration_reports: Vec::new(),
            iterations_done: 0,
            load_shrinks: 0,
            recoveries: Vec::new(),
            resumed_llh: Vec::new(),
        };
        let ddl = session.generator.create_tables();
        if let Err(e) = execute_stmts(&mut session.db, &ddl) {
            // The caller never gets a session to clean up, so a failure
            // mid-DDL must not leak the tables already created.
            let _ = session.cleanup();
            return Err(e);
        }
        Ok(session)
    }

    /// The generated SQL for one full iteration plus setup/score, for
    /// inspection (the `sql_trace` example prints this).
    pub fn script(&self) -> Vec<Stmt> {
        let mut all = self.generator.create_tables();
        all.extend(self.generator.post_load(self.n.unwrap_or(0)));
        all.extend(self.e_step.clone());
        all.extend(self.m_step.clone());
        all.extend(self.generator.score_step());
        all
    }

    /// Number of points loaded, if any.
    pub fn n(&self) -> Option<usize> {
        self.n
    }

    /// Dimensionality.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The session's configuration. Reflects any pre-flight strategy
    /// fallback (see [`EmSession::fallback`]).
    pub fn config(&self) -> &SqlemConfig {
        &self.config
    }

    /// The pre-flight's strategy switch, if one happened.
    pub fn fallback(&self) -> Option<&FallbackDecision> {
        self.fallback.as_ref()
    }

    /// Longest generated statement in bytes (§3.3 parser-limit analysis).
    pub fn longest_statement(&self) -> usize {
        self.generator.longest_statement()
    }

    /// Bulk-load points (RIDs assigned 1…n in order) and seed GMM.
    pub fn load_points(&mut self, points: &[Vec<f64>]) -> Result<(), SqlemError> {
        if points.first().map(Vec::len) != Some(self.p) {
            return Err(SqlemError::BadInput(format!(
                "expected {}-dimensional points",
                self.p
            )));
        }
        // The loader rides the retry policy too, per statement:
        // against a remote engine the bulk load is exactly the
        // statement most likely to meet a wire flake, and the client's
        // sequence-keyed replay makes the re-run of the *same*
        // statement safe (acked chunks are skipped, in-flight ones
        // acked from the server's reply cache).
        let (n, shrinks) = loader::load_points(
            &mut self.db,
            &self.names,
            self.generator.layouts(),
            points,
            self.config.load_chunk_rows,
        )?;
        self.load_shrinks += shrinks;
        self.n = Some(n);
        self.points = Some(points.to_vec());
        let seed = self.generator.post_load(n);
        execute_stmts(&mut self.db, &seed)?;
        Ok(())
    }

    /// Load from an existing table instead (warehouse scenario). The
    /// points are not cached, so [`EmSession::initialize`] then requires
    /// an [`InitStrategy::Explicit`] parameter set.
    pub fn load_from_table(
        &mut self,
        source: &str,
        rid_col: &str,
        value_cols: &[&str],
    ) -> Result<(), SqlemError> {
        if value_cols.len() != self.p {
            return Err(SqlemError::BadInput(format!(
                "expected {} value columns, got {}",
                self.p,
                value_cols.len()
            )));
        }
        let n = loader::pivot_from_table(
            &mut self.db,
            &self.names,
            self.generator.layouts(),
            source,
            rid_col,
            value_cols,
        )?;
        self.n = Some(n);
        let seed = self.generator.post_load(n);
        execute_stmts(&mut self.db, &seed)?;
        Ok(())
    }

    /// Write initial parameters into the parameter tables (lifted to
    /// the model's parameter set by [`ParamSet::from_gmm`]).
    pub fn initialize(&mut self, strategy: &InitStrategy) -> Result<(), SqlemError> {
        let params = match (strategy, &self.points) {
            (InitStrategy::Explicit(p), _) => p.clone(),
            (s, Some(points)) => initialize(points, self.config.k, s),
            (_, None) => {
                return Err(SqlemError::BadInput(
                    "points were loaded from a table; initialize with \
                     InitStrategy::Explicit"
                        .into(),
                ))
            }
        };
        self.set_params(&G::Params::from_gmm(params))
    }

    /// Write explicit parameters (also usable mid-run for checkpoints).
    pub fn set_params(&mut self, params: &G::Params) -> Result<(), SqlemError> {
        if params.shape() != (self.config.k, self.p) {
            return Err(SqlemError::BadInput(
                "parameters have the wrong shape".into(),
            ));
        }
        let stmts = self.generator.write_params(params);
        execute_stmts(&mut self.db, &stmts)?;
        self.initialized = true;
        Ok(())
    }

    /// Read the current parameters from the parameter tables.
    ///
    /// Every cell is checked for finiteness on the way out: a NaN or
    /// infinite mean/weight/covariance yields
    /// [`SqlemError::Degenerate`] naming the cluster and parameter
    /// rather than letting the poison propagate into summaries or
    /// convergence tests.
    pub fn params(&mut self) -> Result<G::Params, SqlemError> {
        let params = self.params_unchecked()?;
        params.check_finite()?;
        Ok(params)
    }

    /// Read the current parameters without the finiteness check — the
    /// degenerate-recovery path needs to look at a poisoned model.
    fn params_unchecked(&mut self) -> Result<G::Params, SqlemError> {
        self.generator.read_params(&mut self.db)
    }

    /// Run one E+M iteration; returns the loglikelihood measured in the
    /// E step (the llh of the parameters going *into* the iteration).
    pub fn iterate_once(&mut self) -> Result<f64, SqlemError> {
        if self.n.is_none() {
            return Err(SqlemError::BadInput("no data loaded".into()));
        }
        if !self.initialized {
            return Err(SqlemError::BadInput("parameters not initialized".into()));
        }
        if self.prepared.is_none() {
            // The E/M script drops and recreates work tables as it goes;
            // the executor prepares the whole script against a shared
            // symbolic catalog so analysis sees the DDL effects of the
            // statements before it.
            let purposes: Vec<String> = self
                .e_step
                .iter()
                .chain(&self.m_step)
                .map(|s| s.purpose.clone())
                .collect();
            let sqls: Vec<String> = self
                .e_step
                .iter()
                .chain(&self.m_step)
                .map(|s| s.sql.clone())
                .collect();
            let ids = self.db.prepare_script(&sqls).map_err(|e| {
                let purpose = purposes
                    .get(e.index)
                    .map_or("prepare E/M script", String::as_str);
                SqlemError::from_sql(purpose, e.error)
            })?;
            self.prepared = Some(purposes.into_iter().zip(ids).collect());
        }
        let telemetry = self.db.metrics_enabled();
        let metrics_start = if telemetry {
            self.db
                .metrics_len()
                .map_err(|e| SqlemError::from_sql("read telemetry cursor", e))?
        } else {
            0
        };
        let retries_before = self.db.retries();
        let failed = self
            .prepared
            .iter()
            .flatten()
            .enumerate()
            .find_map(|(i, (purpose, id))| {
                let e = self.db.run_prepared(*id).err()?;
                Some((i, purpose.clone(), e))
            });
        if let Some((i, purpose, e)) = failed {
            return Err(self.step_error(i >= self.e_step.len(), &purpose, e));
        }
        let r = self
            .db
            .execute(&self.generator.llh_sql())
            .map_err(|e| SqlemError::from_sql("read llh", e))?;
        if telemetry {
            self.record_iteration_report(metrics_start, self.db.retries() - retries_before)?;
        }
        self.iterations_done += 1;
        Ok(r.scalar_f64().unwrap_or(0.0))
    }

    /// A failed E/M statement as the session reports it: an arithmetic
    /// failure in the M step while a cluster has no responsibility mass
    /// ([`Generator::dead_cluster`]) is that cluster's death.
    fn step_error(&mut self, in_m_step: bool, purpose: &str, e: SqlError) -> SqlemError {
        if in_m_step && matches!(e, SqlError::Arithmetic(_)) {
            if let Some(j) = self.generator.dead_cluster(&mut self.db) {
                return SqlemError::DegenerateCluster(j);
            }
        }
        SqlemError::from_sql(purpose, e)
    }

    /// Build an [`IterationReport`] from the metrics entries appended
    /// since `from` (one per executed statement, plus the llh read).
    /// Entries are pulled through the executor, so against a remote
    /// server this is the EXPLAIN-ANALYZE-style telemetry passthrough.
    fn record_iteration_report(&mut self, from: usize, retries: usize) -> Result<(), SqlemError> {
        let (Some(n), Some(prepared)) = (self.n, self.prepared.as_ref()) else {
            return Ok(());
        };
        let mut purposes: Vec<&str> = prepared.iter().map(|(p, _)| p.as_str()).collect();
        purposes.push("read llh");
        // E-step statements lead the prepared list; anything the engine
        // logged beyond them (M step + llh read) is the M phase.
        let e_len = self.e_step.len();
        let entries = self
            .db
            .metrics_since(from)
            .map_err(|e| SqlemError::from_sql("fetch telemetry", e))?;
        let mut report = IterationReport::from_metrics(
            self.iterations_done,
            &entries,
            &purposes,
            e_len,
            n,
            self.p,
            self.config.k,
        );
        report.retries = retries;
        self.iteration_reports.push(report);
        Ok(())
    }

    /// Run until convergence (|Δllh| ≤ ε, or parameter stability when
    /// [`SqlemConfig::param_epsilon`] is set) or `max_iterations`.
    ///
    /// Robustness behaviour (all off by default, see [`SqlemConfig`]):
    /// transiently-failing statements are retried per
    /// [`SqlemConfig::retry`]; the model is checkpointed after every
    /// iteration when [`SqlemConfig::checkpoint`] is on (and a run
    /// primed by [`EmSession::resume_from_checkpoint`] continues from
    /// the recorded iteration); a degenerate M step is repaired by
    /// re-seeding the dead cluster when
    /// [`SqlemConfig::recover_degenerate`] is on. On error, every work
    /// table is dropped — a failed run never leaks prefixed temp tables
    /// (checkpoint tables survive).
    pub fn run(&mut self) -> Result<SqlemRun<G::Params>, SqlemError> {
        self.run_inner().inspect_err(|_| {
            // Best effort; the original error is what matters.
            let _ = self.cleanup();
        })
    }

    fn run_inner(&mut self) -> Result<SqlemRun<G::Params>, SqlemError> {
        let mut llh_history = std::mem::take(&mut self.resumed_llh);
        let mut iteration_times = Vec::new();
        let mut prev: Option<f64> = llh_history.last().copied();
        let mut prev_params: Option<G::Params> = None;
        let mut outcome = EmOutcome::MaxIterations;
        // At most k repairs per run: re-seeding the same model more
        // often than it has clusters means the data cannot support k
        // components, and aborting with the typed error is honest.
        let mut recovery_budget = self.config.k;
        while llh_history.len() < self.config.max_iterations {
            let pre_params = if self.config.recover_degenerate {
                Some(self.params()?)
            } else {
                None
            };
            let t0 = Instant::now();
            let iterated = self.iterate_once().and_then(|llh| {
                // Under recovery, inspect the M step's output before
                // accepting the iteration.
                if self.config.recover_degenerate {
                    self.params_unchecked()?.check_finite()?;
                }
                Ok(llh)
            });
            let llh = match iterated {
                Ok(llh) => llh,
                Err(e) if e.is_degenerate() && recovery_budget > 0 => {
                    let Some(mut params) = pre_params else {
                        return Err(e); // recovery off: typed error out
                    };
                    recovery_budget -= 1;
                    let cluster = e.degenerate_cluster().unwrap_or(0).min(self.config.k - 1);
                    let event = RecoveryEvent {
                        iteration: llh_history.len(),
                        cluster,
                        reason: e.to_string(),
                    };
                    params.reseed(cluster, self.config.recovery_seed, self.recoveries.len());
                    self.set_params(&params)?;
                    self.recoveries.push(event);
                    continue; // repeat the iteration with the repaired model
                }
                Err(e) => return Err(e),
            };
            iteration_times.push(t0.elapsed());
            llh_history.push(llh);
            if self.config.checkpoint {
                let params = self.params()?;
                checkpoint::write_checkpoint(
                    &mut self.db,
                    &self.names,
                    &Checkpoint {
                        iteration: llh_history.len(),
                        llh_history: llh_history.clone(),
                        params,
                    },
                )?;
            }
            if let Some(prev) = prev {
                if (llh - prev).abs() <= self.config.epsilon {
                    outcome = EmOutcome::Converged;
                    break;
                }
            }
            if let Some(eps) = self.config.param_epsilon {
                let params = self.params()?;
                if let Some(prev_params) = &prev_params {
                    if prev_params.max_diff(&params) <= eps {
                        outcome = EmOutcome::Converged;
                        break;
                    }
                }
                prev_params = Some(params);
            }
            prev = Some(llh);
        }
        let params = self.params()?;
        Ok(SqlemRun {
            params,
            iterations: llh_history.len(),
            llh_history,
            outcome,
            iteration_times,
            iteration_reports: self.iteration_reports.clone(),
            retries: self.db.retries(),
            load_shrinks: self.load_shrinks,
            recoveries: self.recoveries.clone(),
        })
    }

    /// Prime this session from the durable checkpoint left by a previous
    /// (possibly crashed) run with the same table prefix: restores the
    /// model into the parameter tables, the iteration counter, and the
    /// loglikelihood history that the next [`EmSession::run`] continues
    /// from. Returns the number of completed iterations, or `None` when
    /// no valid checkpoint exists (run then starts from scratch).
    ///
    /// Points must already be loaded ([`EmSession::load_points`] /
    /// [`EmSession::load_from_table`]); the checkpoint stores the model,
    /// not the data. Re-running a half-finished iteration is safe
    /// because every E step drops and recreates its work tables.
    pub fn resume_from_checkpoint(&mut self) -> Result<Option<usize>, SqlemError> {
        let Some(ckpt) = checkpoint::read_checkpoint::<G::Params>(&mut self.db, &self.names)?
        else {
            return Ok(None);
        };
        let (k, p) = ckpt.params.shape();
        if (k, p) != (self.config.k, self.p) {
            return Err(SqlemError::BadInput(format!(
                "checkpoint shape (k={k}, p={p}) does not match session (k={}, p={})",
                self.config.k, self.p
            )));
        }
        self.set_params(&ckpt.params)?;
        self.iterations_done = ckpt.iteration;
        self.resumed_llh = ckpt.llh_history;
        Ok(Some(ckpt.iteration))
    }

    /// Drop this session's checkpoint table (a completed run's
    /// checkpoint is otherwise deliberately left behind).
    pub fn clear_checkpoint(&mut self) -> Result<(), SqlemError> {
        checkpoint::clear_checkpoint(&mut self.db, &self.names)
    }

    /// Statement retries performed so far (0 without a
    /// [`SqlemConfig::retry`] policy).
    pub fn retries(&self) -> usize {
        self.db.retries()
    }

    /// Bulk-load chunk halvings performed so far under memory pressure
    /// (0 unless a load hit the executor's budget).
    pub fn load_shrinks(&self) -> usize {
        self.load_shrinks
    }

    /// Degenerate-cluster repairs performed so far.
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Materialize per-point cluster assignments (the `score` of §3.2,
    /// via the X/XMAX tables) and return them in RID order, 0-based.
    pub fn scores(&mut self) -> Result<Vec<usize>, SqlemError> {
        let stmts = self.generator.score_step();
        execute_stmts(&mut self.db, &stmts)?;
        let sql = format!(
            "SELECT rid, score FROM {ys} ORDER BY rid",
            ys = self.names.ys()
        );
        let r = self
            .db
            .execute(&sql)
            .map_err(|e| SqlemError::from_sql("read scores", e))?;
        r.rows
            .iter()
            .map(|row| {
                row[1]
                    .as_i64()
                    .filter(|&s| s >= 1)
                    .map(|s| s as usize - 1)
                    .ok_or_else(|| SqlemError::BadParamTable(format!("bad score cell {}", row[1])))
            })
            .collect()
    }

    /// Drop every table this session created.
    pub fn cleanup(&mut self) -> Result<(), SqlemError> {
        for table in self.names.all(self.config.k) {
            self.db
                .execute(&format!("DROP TABLE IF EXISTS {table}"))
                .map_err(|e| SqlemError::from_sql("cleanup", e))?;
        }
        Ok(())
    }

    /// The underlying executor (e.g. to inspect a remote connection's
    /// state or issue ad-hoc statements between iterations).
    pub fn executor(&mut self) -> &mut E {
        self.db.inner_mut()
    }

    /// Turn on per-iteration cost-model telemetry: the engine starts
    /// recording one [`sqlengine::ExecMetrics`] per statement, and every
    /// subsequent [`EmSession::iterate_once`] appends an
    /// [`IterationReport`] retrievable via
    /// [`EmSession::iteration_reports`] (and included in
    /// [`SqlemRun::iteration_reports`]). Fallible because a remote
    /// executor must tell the server to start recording.
    pub fn enable_telemetry(&mut self) -> Result<(), SqlemError> {
        self.db
            .set_metrics_enabled(true)
            .map_err(|e| SqlemError::from_sql("enable telemetry", e))
    }

    /// Stop recording telemetry (existing reports are kept).
    pub fn disable_telemetry(&mut self) -> Result<(), SqlemError> {
        self.db
            .set_metrics_enabled(false)
            .map_err(|e| SqlemError::from_sql("disable telemetry", e))
    }

    /// Per-iteration cost-model reports recorded so far.
    pub fn iteration_reports(&self) -> &[IterationReport] {
        &self.iteration_reports
    }
}

impl<'a, G: Generator> EmSession<'a, Database, G> {
    /// Immutable access to the underlying in-process database (metrics
    /// inspection). Only available when the session runs in-process; a
    /// remote session has no local `Database` to look at.
    pub fn database(&self) -> &Database {
        self.db.inner()
    }
}

/// Submit `stmts` in order, tagging a failure with its statement's
/// purpose. Retry, if any, is the executor's business (see
/// [`Retrying`]).
pub(crate) fn execute_stmts(db: &mut dyn SqlExecutor, stmts: &[Stmt]) -> Result<(), SqlemError> {
    for stmt in stmts {
        db.execute(&stmt.sql)
            .map_err(|e| SqlemError::from_sql(&stmt.purpose, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..40 {
            let t = (i % 4) as f64 * 0.1;
            pts.push(vec![t, t]);
            pts.push(vec![10.0 + t, 10.0 - t]);
        }
        pts
    }

    fn init_params() -> GmmParams {
        GmmParams::new(
            vec![vec![3.0, 3.0], vec![7.0, 7.0]],
            vec![10.0, 10.0],
            vec![0.5, 0.5],
        )
    }

    fn run_strategy(strategy: Strategy) -> SqlemRun {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, strategy)
            .with_epsilon(1e-9)
            .with_max_iterations(30);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        session.run().unwrap()
    }

    #[test]
    fn hybrid_recovers_blobs() {
        let run = run_strategy(Strategy::Hybrid);
        run.params.validate().unwrap();
        let mut xs: Vec<f64> = run.params.means.iter().map(|m| m[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] - 0.15).abs() < 0.2, "means {xs:?}");
        assert!((xs[1] - 10.15).abs() < 0.2, "means {xs:?}");
        assert!((run.params.weights[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn horizontal_recovers_blobs() {
        let run = run_strategy(Strategy::Horizontal);
        let mut xs: Vec<f64> = run.params.means.iter().map(|m| m[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] - 0.15).abs() < 0.2, "means {xs:?}");
        assert!((xs[1] - 10.15).abs() < 0.2, "means {xs:?}");
    }

    #[test]
    fn vertical_recovers_blobs() {
        let run = run_strategy(Strategy::Vertical);
        let mut xs: Vec<f64> = run.params.means.iter().map(|m| m[0]).collect();
        xs.sort_by(f64::total_cmp);
        assert!((xs[0] - 0.15).abs() < 0.2, "means {xs:?}");
        assert!((xs[1] - 10.15).abs() < 0.2, "means {xs:?}");
    }

    #[test]
    fn llh_monotone_across_strategies() {
        for strategy in Strategy::ALL {
            let run = run_strategy(strategy);
            for w in run.llh_history.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{strategy}: llh decreased {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn scores_separate_the_blobs() {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, Strategy::Hybrid).with_max_iterations(10);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        let pts = blobs();
        session.load_points(&pts).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        session.run().unwrap();
        let scores = session.scores().unwrap();
        assert_eq!(scores.len(), pts.len());
        // Same-blob points share a label, cross-blob points differ.
        assert_eq!(scores[0], scores[2]);
        assert_ne!(scores[0], scores[1]);
    }

    #[test]
    fn param_epsilon_stops_early() {
        // llh ε of 0 never converges on its own within the cap; parameter
        // stability must cut the run short on this trivially-stable data.
        let mut db = Database::new();
        let config = SqlemConfig::new(2, Strategy::Hybrid)
            .with_epsilon(0.0)
            .with_max_iterations(25)
            .with_param_epsilon(1e-9);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        let run = session.run().unwrap();
        assert_eq!(run.outcome, emcore::EmOutcome::Converged);
        assert!(run.iterations < 25, "ran {} iterations", run.iterations);
    }

    #[test]
    fn run_requires_load_and_init() {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, Strategy::Hybrid);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        assert!(matches!(
            session.iterate_once(),
            Err(SqlemError::BadInput(_))
        ));
        session.load_points(&blobs()).unwrap();
        assert!(matches!(
            session.iterate_once(),
            Err(SqlemError::BadInput(_))
        ));
    }

    #[test]
    fn cleanup_drops_tables() {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, Strategy::Hybrid);
        {
            let mut session = EmSession::create(&mut db, &config, 2).unwrap();
            session.load_points(&blobs()).unwrap();
            session.cleanup().unwrap();
        }
        assert!(!db.contains_table("z"));
        assert!(!db.contains_table("yx"));
    }

    #[test]
    fn prefixed_sessions_coexist() {
        let mut db = Database::new();
        let cfg_a = SqlemConfig::new(2, Strategy::Hybrid).with_prefix("a_");
        let mut a = EmSession::create(&mut db, &cfg_a, 2).unwrap();
        a.load_points(&blobs()).unwrap();
        a.initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        a.run().unwrap();
        drop(a);
        let cfg_b = SqlemConfig::new(2, Strategy::Vertical).with_prefix("b_");
        let mut b = EmSession::create(&mut db, &cfg_b, 2).unwrap();
        b.load_points(&blobs()).unwrap();
        b.initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        b.run().unwrap();
        assert!(db.contains_table("a_z"));
        assert!(db.contains_table("b_y"));
        assert!(!db.contains_table("b_z"));
    }

    #[test]
    fn load_from_table_requires_explicit_init() {
        let mut db = Database::new();
        db.execute("CREATE TABLE src (id BIGINT PRIMARY KEY, a DOUBLE, b DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO src VALUES (1, 0.0, 0.0), (2, 10.0, 10.0)")
            .unwrap();
        let config = SqlemConfig::new(2, Strategy::Hybrid).with_max_iterations(2);
        let mut session = EmSession::create(&mut db, &config, 2).unwrap();
        session.load_from_table("src", "id", &["a", "b"]).unwrap();
        assert!(matches!(
            session.initialize(&InitStrategy::random()),
            Err(SqlemError::BadInput(_))
        ));
        session
            .initialize(&InitStrategy::Explicit(init_params()))
            .unwrap();
        let run = session.run().unwrap();
        assert_eq!(run.iterations, 2);
    }

    #[test]
    fn wrong_dimension_points_rejected() {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, Strategy::Hybrid);
        let mut session = EmSession::create(&mut db, &config, 3).unwrap();
        assert!(matches!(
            session.load_points(&blobs()),
            Err(SqlemError::BadInput(_))
        ));
    }
}
