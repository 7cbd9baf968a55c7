//! Cost-model conformance tests (tier 1): the paper's §3 scan-count
//! claims, checked against **engine-reported** execution telemetry
//! rather than hard-coded expectations.
//!
//! * §3.6 — one hybrid iteration performs exactly `2k+3` scans of
//!   `n`-row tables plus one scan of a `pn`-row table;
//! * §3.4 — the vertical M step flows through `kpn`-row temporaries;
//! * §3.3 — horizontal computes distances in a single scan of the
//!   `n`-row points table (`z`), touching no `pn`-row table at all.
//!
//! Every count below is derived from [`sqlengine::ExecMetrics`] records
//! produced by the engine while the generated SQL runs — the tests
//! recompute the classification with [`sqlem::scan_threshold`] instead
//! of trusting the driver's own [`sqlem::IterationReport`] numbers,
//! then cross-check that both layers agree.

use std::collections::HashMap;

use datagen::generate_dataset;
use emcore::emfull::FullParams;
use emcore::init::InitStrategy;
use sqlem::{
    scan_threshold, EmSession, IterationReport, KmeansGenerator, PerClusterGenerator, SqlemConfig,
    Strategy,
};
use sqlengine::parser::parse_one;
use sqlengine::plan::{plan_statement, InsertRows, Join, StatementPlan};
use sqlengine::{
    Database, ExecMetrics, Limits, PrepareError, PreparedId, QueryResult, SqlExecutor,
    SymbolicCatalog, Value,
};

/// Build a session, run one warm-up iteration (so every work table
/// exists in steady state), enable telemetry and run one measured
/// iteration. Returns the raw engine metrics for the measured iteration.
fn measured_iteration(
    db: &mut Database,
    strategy: Strategy,
    n: usize,
    p: usize,
    k: usize,
) -> (Vec<ExecMetrics>, IterationReport) {
    let data = generate_dataset(n, p, k, 7);
    let config = SqlemConfig::new(k, strategy)
        .with_epsilon(0.0)
        .with_max_iterations(3);
    let mut session = EmSession::create(db, &config, p).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 11 })
        .unwrap();
    session.iterate_once().unwrap(); // warm-up
    session.enable_telemetry().unwrap();
    let from = session.database().metrics().len();
    session.iterate_once().unwrap();
    let entries = session.database().metrics().entries()[from..].to_vec();
    let report = session
        .iteration_reports()
        .last()
        .expect("telemetry enabled")
        .clone();
    (entries, report)
}

/// Classify one statement's driver scans the way §3.5 counts table
/// passes: build-side scans are free (they feed hash tables over tiny
/// parameter tables), a driver scan of `threshold..=n` rows is an
/// `n`-scan, anything larger is a `pn`-scan.
fn classify(entries: &[ExecMetrics], n: usize, p: usize, k: usize) -> (usize, usize) {
    let threshold = scan_threshold(n, p, k);
    let mut n_scans = 0;
    let mut pn_scans = 0;
    for e in entries {
        for s in e.scans.iter().filter(|s| !s.build) {
            if s.rows > n {
                pn_scans += 1;
            } else if s.rows >= threshold {
                n_scans += 1;
            }
        }
    }
    (n_scans, pn_scans)
}

#[test]
fn hybrid_iteration_costs_2k_plus_3_n_scans_plus_one_pn_scan() {
    for (n, p, k) in [(500, 4, 3), (800, 6, 5), (400, 3, 2), (600, 2, 7)] {
        let mut db = Database::new();
        let (entries, report) = measured_iteration(&mut db, Strategy::Hybrid, n, p, k);
        let (n_scans, pn_scans) = classify(&entries, n, p, k);
        assert_eq!(
            n_scans,
            2 * k + 3,
            "hybrid n-scans for (n={n}, p={p}, k={k})"
        );
        assert_eq!(pn_scans, 1, "hybrid pn-scans for (n={n}, p={p}, k={k})");
        // The driver's per-iteration report must agree with the counts
        // recomputed here straight from the engine records.
        assert_eq!(report.n_scans, n_scans);
        assert_eq!(report.pn_scans, pn_scans);
    }
}

#[test]
fn hybrid_fused_e_step_saves_exactly_one_n_scan() {
    let (n, p, k) = (500, 4, 3);
    let data = generate_dataset(n, p, k, 7);
    let config = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(3)
        .with_fused_e_step();
    let mut db = Database::new();
    let mut session = EmSession::create(&mut db, &config, p).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 11 })
        .unwrap();
    session.iterate_once().unwrap();
    session.enable_telemetry().unwrap();
    let from = session.database().metrics().len();
    session.iterate_once().unwrap();
    let entries = session.database().metrics().entries()[from..].to_vec();
    let (n_scans, pn_scans) = classify(&entries, n, p, k);
    assert_eq!(n_scans, 2 * k + 2, "fusing YP+YX removes one n-scan");
    assert_eq!(pn_scans, 1);
}

#[test]
fn vertical_m_step_materializes_kpn_row_temporaries() {
    let (n, p, k) = (300, 4, 3);
    let mut db = Database::new();
    let (entries, report) = measured_iteration(&mut db, Strategy::Vertical, n, p, k);

    // §3.4: the squared-differences temporary (YC) is literally kpn rows.
    let yc = report
        .steps
        .iter()
        .position(|s| s.purpose.contains("YC"))
        .expect("vertical M step has the YC statement");
    assert_eq!(
        entries[yc].rows_inserted,
        k * p * n,
        "YC holds one row per (point, cluster, dimension)"
    );
    // The C' GROUP BY flows kpn join rows even though its output is tiny.
    let ctmp = report
        .steps
        .iter()
        .position(|s| s.purpose.contains("CTMP"))
        .expect("vertical M step has the CTMP statement");
    assert!(
        entries[ctmp].join_probe_rows as usize >= k * p * n,
        "C' join flows at least kpn rows, got {}",
        entries[ctmp].join_probe_rows
    );
    assert_eq!(entries[ctmp].rows_inserted, k * p);

    // The iteration as a whole writes at least kpn temporary rows and
    // repeatedly re-reads pn-row tables — the §3.4 cost the hybrid fixes.
    assert!(report.temp_rows_materialized >= (k * p * n) as u64);
    let (_, pn_scans) = classify(&entries, n, p, k);
    assert!(
        pn_scans >= 4,
        "vertical re-scans pn-row tables, got {pn_scans}"
    );
    assert_eq!(report.pn_scans, pn_scans);
}

#[test]
fn horizontal_distances_are_one_scan_of_the_points_table() {
    let (n, p, k) = (400, 4, 3);
    let mut db = Database::new();
    let (entries, report) = measured_iteration(&mut db, Strategy::Horizontal, n, p, k);

    // §3.3: the wide Mahalanobis expression reads the points table (z)
    // exactly once — one driver scan, n rows, no other table driven.
    let yd = report
        .steps
        .iter()
        .position(|s| s.purpose.contains("one wide expression"))
        .expect("horizontal E step has the wide-expression statement");
    let driver_scans: Vec<_> = entries[yd].scans.iter().filter(|s| !s.build).collect();
    assert_eq!(driver_scans.len(), 1, "single pass over the points table");
    assert_eq!(driver_scans[0].table, "z");
    assert_eq!(driver_scans[0].rows, n);

    // Horizontal never touches a pn-row table (that is its selling
    // point; the price is the Θ(kp)-character expression).
    let (n_scans, pn_scans) = classify(&entries, n, p, k);
    assert_eq!(pn_scans, 0, "horizontal touches no pn-row table");
    assert_eq!(n_scans, 2 * k + 3 + 1, "horizontal pays one extra n-scan");
    assert_eq!(report.pn_scans, 0);
}

// ---------------------------------------------------------------------
// The plan is what runs
// ---------------------------------------------------------------------

/// A `Database` that plans every statement against its catalog before
/// running it and holds the statement's `ExecMetrics` to the plan: the
/// driver and build tables in order, and no join-build rows where the
/// plan says a primary-key index serves every join.
struct PlanChecked {
    db: Database,
    prepared: HashMap<u64, String>,
    checked: usize,
    index_joins: usize,
}

impl PlanChecked {
    fn new() -> Self {
        let mut db = Database::new();
        db.enable_metrics();
        PlanChecked {
            db,
            prepared: HashMap::new(),
            checked: 0,
            index_joins: 0,
        }
    }

    /// `(table, build side?)` per scan the plan implies, the join-build
    /// rows it implies (`None`: a filter decides), and its index joins.
    fn expectation(&self, plan: &StatementPlan) -> (Vec<(String, bool)>, Option<u64>, usize) {
        let rows = |table: &str| self.db.table_len(table).unwrap() as u64;
        match plan {
            StatementPlan::Utility => (Vec::new(), Some(0), 0),
            StatementPlan::Insert(insert) => match &insert.rows {
                InsertRows::Values(_) => (Vec::new(), Some(0), 0),
                InsertRows::Select(select) => {
                    self.expectation(&StatementPlan::Select((**select).clone()))
                }
            },
            StatementPlan::Select(select) => {
                let chain = &select.chain;
                let scans = chain
                    .sources
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.table.clone(), i > 0))
                    .collect();
                let mut built = Some(0);
                let mut index_joins = 0;
                for (stage, source) in chain.stages.iter().zip(&chain.sources[1..]) {
                    match &stage.join {
                        Join::Hash {
                            pk_order: Some(_), ..
                        } => index_joins += 1,
                        _ if stage.filters.is_empty() => {
                            built = built.map(|b| b + rows(&source.table))
                        }
                        _ => built = None,
                    }
                }
                (scans, built, index_joins)
            }
            StatementPlan::Update(update) => {
                let (target, from) = update.chain.sources.split_first().unwrap();
                let mut scans: Vec<(String, bool)> =
                    from.iter().map(|s| (s.table.clone(), true)).collect();
                scans.push((target.table.clone(), false));
                (scans, Some(from.iter().map(|s| rows(&s.table)).sum()), 0)
            }
            StatementPlan::Delete(delete) => {
                (vec![(delete.target.table.clone(), false)], Some(0), 0)
            }
        }
    }

    fn run_checked(
        &mut self,
        sql: &str,
        run: impl FnOnce(&mut Database) -> sqlengine::Result<QueryResult>,
    ) -> sqlengine::Result<QueryResult> {
        let stmt = parse_one(sql)?;
        let plan = plan_statement(self.db.catalog(), &stmt)?;
        let (scans, built, index_joins) = self.expectation(&plan);
        let from = self.db.metrics().len();
        let result = run(&mut self.db)?;
        let entries = &self.db.metrics().entries()[from..];
        assert_eq!(entries.len(), 1, "one metrics entry per statement: {sql}");
        let ran: Vec<(String, bool)> = entries[0]
            .scans
            .iter()
            .map(|s| (s.table.clone(), s.build))
            .collect();
        assert_eq!(ran, scans, "driver/build tables of: {sql}");
        if let Some(built) = built {
            assert_eq!(entries[0].join_build_rows, built, "build rows of: {sql}");
        }
        self.checked += 1;
        self.index_joins += index_joins;
        Ok(result)
    }
}

impl SqlExecutor for PlanChecked {
    fn execute(&mut self, sql: &str) -> sqlengine::Result<QueryResult> {
        self.run_checked(sql, |db| db.execute(sql))
    }

    fn prepare_script(&mut self, statements: &[String]) -> Result<Vec<PreparedId>, PrepareError> {
        let ids = self.db.prepare_script(statements)?;
        for (id, sql) in ids.iter().zip(statements) {
            self.prepared.insert(id.0, sql.clone());
        }
        Ok(ids)
    }

    fn run_prepared(&mut self, id: PreparedId) -> sqlengine::Result<QueryResult> {
        let sql = self.prepared[&id.0].clone();
        self.run_checked(&sql, |db| db.run_prepared(id))
    }

    fn clear_prepared(&mut self) -> sqlengine::Result<()> {
        self.prepared.clear();
        self.db.clear_prepared()
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> sqlengine::Result<usize> {
        self.db.bulk_insert_rows(table, rows)
    }

    fn table_rows(&mut self, table: &str) -> sqlengine::Result<usize> {
        self.db.table_rows(table)
    }

    fn has_table(&mut self, table: &str) -> sqlengine::Result<bool> {
        self.db.has_table(table)
    }

    fn catalog_snapshot(&mut self) -> sqlengine::Result<SymbolicCatalog> {
        self.db.catalog_snapshot()
    }

    fn max_statement_len(&self) -> usize {
        SqlExecutor::max_statement_len(&self.db)
    }

    fn analyze_limits(&self) -> Limits {
        self.db.analyze_limits()
    }

    fn note_statement_retry(&mut self) {
        self.db.note_statement_retry();
    }

    // The checks read the metrics log, so it stays on.
    fn set_metrics_enabled(&mut self, _on: bool) -> sqlengine::Result<()> {
        Ok(())
    }

    fn metrics_enabled(&self) -> bool {
        true
    }

    fn metrics_len(&mut self) -> sqlengine::Result<usize> {
        self.db.metrics_len()
    }

    fn metrics_since(&mut self, from: usize) -> sqlengine::Result<Vec<ExecMetrics>> {
        SqlExecutor::metrics_since(&mut self.db, from)
    }

    fn describe(&self) -> String {
        self.db.describe()
    }
}

/// Every statement of the horizontal / vertical / hybrid / fused-E-step
/// scripts and of the K-means and per-cluster scripts — set-up, two
/// iterations, scoring — scans the driver and build tables its plan
/// names, and builds nothing where the plan chose the table's index.
#[test]
fn every_generated_statement_runs_as_its_plan_says() {
    let (n, p, k) = (240, 3, 2);
    let data = generate_dataset(n, p, k, 7);
    let mut totals = Vec::new();
    for (strategy, fused) in [
        (Strategy::Horizontal, false),
        (Strategy::Vertical, false),
        (Strategy::Hybrid, false),
        (Strategy::Hybrid, true),
    ] {
        let mut db = PlanChecked::new();
        let mut config = SqlemConfig::new(k, strategy).with_epsilon(0.0);
        if fused {
            config = config.with_fused_e_step();
        }
        let mut session = EmSession::create(&mut db, &config, p).unwrap();
        session.load_points(&data.points).unwrap();
        session
            .initialize(&InitStrategy::Random { seed: 11 })
            .unwrap();
        session.iterate_once().unwrap();
        session.iterate_once().unwrap();
        assert_eq!(session.scores().unwrap().len(), n);
        totals.push((db.checked, db.index_joins));
    }

    let kmeans = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20);
    let mut db = PlanChecked::new();
    let mut session = EmSession::create_with(&mut db, &kmeans, p, KmeansGenerator::new).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .set_params(&KmeansGenerator::params(vec![vec![0.0; p], vec![5.0; p]]))
        .unwrap();
    session.iterate_once().unwrap();
    session.iterate_once().unwrap();
    assert_eq!(session.scores().unwrap().len(), n);
    totals.push((db.checked, db.index_joins));

    let mut db = PlanChecked::new();
    let config = SqlemConfig::new(k, Strategy::Hybrid);
    let mut session =
        EmSession::create_with(&mut db, &config, p, PerClusterGenerator::new).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .set_params(&FullParams {
            means: vec![vec![0.0; p], vec![5.0; p]],
            covs: vec![vec![8.0; p]; k],
            weights: vec![0.5; k],
        })
        .unwrap();
    session.iterate_once().unwrap();
    session.iterate_once().unwrap();
    assert_eq!(session.scores().unwrap().len(), n);
    totals.push((db.checked, db.index_joins));

    for (script, (checked, index_joins)) in totals.iter().enumerate() {
        assert!(*checked >= 20, "script {script}: only {checked} statements");
        assert!(*index_joins >= 1, "script {script}: no index join checked");
    }
}
