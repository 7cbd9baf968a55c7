//! SQLEM with *per-cluster* covariances — the §2.1 extension ("it is not
//! hard to extend this work to handle a different Σ for each cluster"),
//! implemented on the hybrid layout.
//!
//! Differences from the shared-R hybrid:
//!
//! * `R` holds `k` rows `(i, y1…yp)` instead of one;
//! * `CR` transposes *k* covariance columns (`r1…rk`) next to the means;
//! * the determinants live in a one-row `DETS(detr1…detrk,
//!   sqrtdetr1…sqrtdetrk)` table filled by `k` UPDATE…FROM statements
//!   (zero entries skipped per §2.5);
//! * the distance terms divide by `cr.r{j}` per cluster, and the density
//!   uses `sqrtdetr{j}`;
//! * the M step normalizes each covariance by its own cluster mass
//!   (`Σ x_j`), the MLE for a free Σ_j — no RK/global averaging.
//!
//! The E step uses the fused YP+YX form (see
//! [`crate::config::SqlemConfig::fused_e_step`]). Scoring reuses the
//! X/XMAX machinery.

use std::time::{Duration, Instant};

use emcore::emfull::FullParams;
use emcore::EmOutcome;
use sqlengine::{Database, SqlExecutor};

use crate::config::Strategy;
use crate::driver::execute_stmts;
use crate::error::SqlemError;
use crate::generator::{
    create_table, double_cols, guarded_r, horizontal_score, read_f64_grid, recreate, two_pi_p_div2,
    values_insert, values_insert_chunked, w_update, Stmt,
};
use crate::loader;
use crate::naming::Names;
use crate::retry::Retrying;
use crate::sqlfmt::lit;

/// Configuration for a per-cluster-covariance run.
#[derive(Debug, Clone)]
pub struct PerClusterConfig {
    /// Number of clusters.
    pub k: usize,
    /// Stop when |Δllh| ≤ ε.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Table-name prefix.
    pub table_prefix: String,
}

impl PerClusterConfig {
    /// Paper-style defaults.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        PerClusterConfig {
            k,
            epsilon: 1e-3,
            max_iterations: 10,
            table_prefix: String::new(),
        }
    }
}

/// Result of a per-cluster-covariance run.
#[derive(Debug, Clone)]
pub struct PerClusterRun {
    /// Final parameters.
    pub params: FullParams,
    /// Loglikelihood per iteration.
    pub llh_history: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Stop reason.
    pub outcome: EmOutcome,
    /// Per-iteration wall time.
    pub iteration_times: Vec<Duration>,
}

/// A per-cluster-covariance SQLEM session against any [`SqlExecutor`]
/// (in-process by default), through the same statement runner and loader
/// as [`crate::EmSession`].
pub struct PerClusterSession<'a, E: SqlExecutor = Database> {
    db: Retrying<'a, E>,
    config: PerClusterConfig,
    names: Names,
    p: usize,
    n: Option<usize>,
    initialized: bool,
}

impl<'a, E: SqlExecutor> PerClusterSession<'a, E> {
    /// Create the session and its tables.
    pub fn create(db: &'a mut E, config: &PerClusterConfig, p: usize) -> Result<Self, SqlemError> {
        assert!(p >= 1);
        let names = Names::new(&config.table_prefix);
        let mut session = PerClusterSession {
            db: Retrying::new(db, None),
            config: config.clone(),
            names,
            p,
            n: None,
            initialized: false,
        };
        let ddl = session.create_tables();
        execute_stmts(&mut session.db, &ddl)?;
        Ok(session)
    }

    fn yx_body(&self) -> String {
        format!(
            "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}, llh DOUBLE",
            double_cols("p", self.config.k),
            double_cols("x", self.config.k),
        )
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.config.k);
        let mut stmts = Vec::new();
        let mut add = |table: String, body: String| stmts.extend(create_table(&table, &body));
        add(
            n.z(),
            format!("rid BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(
            n.y(),
            "rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v)".into(),
        );
        add(
            n.c(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(
            n.r(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(
            n.cr(),
            format!(
                "v BIGINT PRIMARY KEY, {}, {}",
                double_cols("c", k),
                double_cols("r", k)
            ),
        );
        add(
            n.dett(),
            format!("{}, {}", double_cols("detr", k), double_cols("sqrtdetr", k)),
        );
        add(
            n.yd(),
            format!("rid BIGINT PRIMARY KEY, {}", double_cols("d", k)),
        );
        add(n.yx(), self.yx_body());
        add(n.w(), format!("{}, llh DOUBLE", double_cols("w", k)));
        add(n.gmm(), "n BIGINT, twopipdiv2 DOUBLE".into());
        stmts
    }

    /// Load points into both layouts and seed the scalar tables.
    pub fn load_points(&mut self, points: &[Vec<f64>]) -> Result<(), SqlemError> {
        if points.first().map(Vec::len) != Some(self.p) {
            return Err(SqlemError::BadInput(format!(
                "expected {}-dimensional points",
                self.p
            )));
        }
        let (n, _) =
            loader::load_points(&mut self.db, &self.names, Strategy::Hybrid, points, None)?;
        self.n = Some(n);
        let mut stmts = vec![Stmt::new(
            "seed GMM",
            format!(
                "INSERT INTO {gmm} VALUES ({n}, {tp})",
                gmm = self.names.gmm(),
                tp = lit(two_pi_p_div2(self.p)),
            ),
        )];
        let cr_rows: Vec<(Vec<i64>, Vec<f64>)> = (1..=self.p as i64)
            .map(|v| (vec![v], vec![0.0; 2 * self.config.k]))
            .collect();
        stmts.extend(values_insert_chunked(
            "seed CR skeleton",
            &self.names.cr(),
            &cr_rows,
            4096,
        ));
        stmts.push(values_insert(
            "seed DETS skeleton",
            &self.names.dett(),
            &[(vec![], vec![0.0; 2 * self.config.k])],
        ));
        execute_stmts(&mut self.db, &stmts)?;
        Ok(())
    }

    /// Write initial parameters.
    pub fn set_params(&mut self, params: &FullParams) -> Result<(), SqlemError> {
        if params.k() != self.config.k || params.p() != self.p {
            return Err(SqlemError::BadInput(
                "parameters have the wrong shape".into(),
            ));
        }
        params.validate().map_err(SqlemError::BadInput)?;
        let n = &self.names;
        let c_rows: Vec<(Vec<i64>, Vec<f64>)> = params
            .means
            .iter()
            .enumerate()
            .map(|(j, m)| (vec![j as i64 + 1], m.clone()))
            .collect();
        let r_rows: Vec<(Vec<i64>, Vec<f64>)> = params
            .covs
            .iter()
            .enumerate()
            .map(|(j, c)| (vec![j as i64 + 1], c.clone()))
            .collect();
        let mut w_row = params.weights.clone();
        w_row.push(0.0);
        let mut stmts = vec![Stmt::new("init: clear C", format!("DELETE FROM {}", n.c()))];
        stmts.extend(values_insert_chunked(
            "init: write C",
            &n.c(),
            &c_rows,
            4096,
        ));
        stmts.push(Stmt::new("init: clear R", format!("DELETE FROM {}", n.r())));
        stmts.extend(values_insert_chunked(
            "init: write R",
            &n.r(),
            &r_rows,
            4096,
        ));
        stmts.push(Stmt::new("init: clear W", format!("DELETE FROM {}", n.w())));
        stmts.push(values_insert("init: write W", &n.w(), &[(vec![], w_row)]));
        execute_stmts(&mut self.db, &stmts)?;
        self.initialized = true;
        Ok(())
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.config.k);
        let mut stmts = Vec::new();

        // Per-cluster determinants into DETS: k UPDATE…FROM statements.
        for j in 1..=k {
            let prod = (1..=p)
                .map(|d| format!("({})", guarded_r(&n.r(), d)))
                .collect::<Vec<_>>()
                .join(" * ");
            stmts.push(Stmt::new(
                format!("E: |R_{j}| into DETS"),
                format!(
                    "UPDATE {dets} FROM {r} SET detr{j} = {prod}, \
                     sqrtdetr{j} = detr{j} ** 0.5 WHERE {r}.i = {j}",
                    dets = n.dett(),
                    r = n.r(),
                ),
            ));
        }

        // Transpose C and the k covariance rows into CR.
        for j in 1..=k {
            let arms = (1..=p)
                .map(|d| format!("WHEN {cr}.v = {d} THEN {c}.y{d}", cr = n.cr(), c = n.c()))
                .collect::<Vec<_>>()
                .join(" ");
            stmts.push(Stmt::new(
                format!("E: transpose C{j} into CR"),
                format!(
                    "UPDATE {cr} FROM {c} SET c{j} = CASE {arms} END WHERE {c}.i = {j}",
                    cr = n.cr(),
                    c = n.c(),
                ),
            ));
        }
        for j in 1..=k {
            let arms = (1..=p)
                .map(|d| {
                    format!(
                        "WHEN {cr}.v = {d} THEN ({g})",
                        cr = n.cr(),
                        g = guarded_r(&n.r(), d),
                    )
                })
                .collect::<Vec<_>>()
                .join(" ");
            stmts.push(Stmt::new(
                format!("E: transpose R{j} into CR (zero-guarded)"),
                format!(
                    "UPDATE {cr} FROM {r} SET r{j} = CASE {arms} END WHERE {r}.i = {j}",
                    cr = n.cr(),
                    r = n.r(),
                ),
            ));
        }

        // Distances: divide by the cluster's own covariance column.
        stmts.extend(recreate(
            &n.yd(),
            &format!("rid BIGINT PRIMARY KEY, {}", double_cols("d", k)),
        ));
        let dist_terms = (1..=k)
            .map(|j| {
                format!(
                    "sum(({y}.val - {cr}.c{j}) ** 2 / {cr}.r{j})",
                    y = n.y(),
                    cr = n.cr(),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        stmts.push(Stmt::new(
            "E: per-cluster Mahalanobis distances (YD)",
            format!(
                "INSERT INTO {yd} SELECT rid, {dist_terms} FROM {y}, {cr} \
                 WHERE {y}.v = {cr}.v GROUP BY rid",
                yd = n.yd(),
                y = n.y(),
                cr = n.cr(),
            ),
        ));

        // Fused probabilities + responsibilities with per-cluster norms.
        stmts.extend(recreate(&n.yx(), &self.yx_body()));
        let mut cols = vec!["rid".to_string()];
        for j in 1..=k {
            cols.push(format!(
                "w{j} / (twopipdiv2 * sqrtdetr{j}) * exp(-0.5 * d{j}) AS p{j}"
            ));
        }
        let sump = (1..=k)
            .map(|j| format!("p{j}"))
            .collect::<Vec<_>>()
            .join(" + ");
        cols.push(format!("{sump} AS sump"));
        let suminvd = (1..=k)
            .map(|j| format!("1 / (d{j} + 1.0E-100)"))
            .collect::<Vec<_>>()
            .join(" + ");
        cols.push(format!("{suminvd} AS suminvd"));
        for j in 1..=k {
            cols.push(format!(
                "CASE WHEN sump > 0 THEN p{j} / sump \
                 ELSE (1 / (d{j} + 1.0E-100)) / suminvd END AS x{j}"
            ));
        }
        cols.push("CASE WHEN sump > 0 THEN ln(sump) END".to_string());
        stmts.push(Stmt::new(
            "E: fused probabilities + responsibilities (YX)",
            format!(
                "INSERT INTO {yx} SELECT {cols} FROM {yd}, {gmm}, {w}, {dets}",
                yx = n.yx(),
                cols = cols.join(", "),
                yd = n.yd(),
                gmm = n.gmm(),
                w = n.w(),
                dets = n.dett(),
            ),
        ));
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.config.k);
        let mut stmts = vec![Stmt::new(
            "M: clear C",
            format!("DELETE FROM {c}", c = n.c()),
        )];
        for j in 1..=k {
            let cols = (1..=p)
                .map(|d| format!("sum({z}.y{d} * x{j}) / sum(x{j})", z = n.z()))
                .collect::<Vec<_>>()
                .join(", ");
            stmts.push(Stmt::new(
                format!("M: mean of cluster {j} (C)"),
                format!(
                    "INSERT INTO {c} SELECT {j}, {cols} FROM {z}, {yx} \
                     WHERE {z}.rid = {yx}.rid",
                    c = n.c(),
                    z = n.z(),
                    yx = n.yx(),
                ),
            ));
        }
        stmts.extend(w_update(n, k));
        stmts.push(Stmt::new(
            "M: clear R",
            format!("DELETE FROM {r}", r = n.r()),
        ));
        for j in 1..=k {
            let cols = (1..=p)
                .map(|d| {
                    format!(
                        "sum(x{j} * ({z}.y{d} - {c}.y{d}) ** 2) / sum(x{j})",
                        z = n.z(),
                        c = n.c(),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            stmts.push(Stmt::new(
                format!("M: covariance of cluster {j} (R)"),
                format!(
                    "INSERT INTO {r} SELECT {j}, {cols} FROM {z}, {c}, {yx} \
                     WHERE {z}.rid = {yx}.rid AND {c}.i = {j}",
                    r = n.r(),
                    z = n.z(),
                    c = n.c(),
                    yx = n.yx(),
                ),
            ));
        }
        stmts
    }

    /// One E+M iteration; returns the E-step loglikelihood.
    pub fn iterate_once(&mut self) -> Result<f64, SqlemError> {
        if self.n.is_none() || !self.initialized {
            return Err(SqlemError::BadInput(
                "load points and set parameters first".into(),
            ));
        }
        let e = self.e_step();
        execute_stmts(&mut self.db, &e)?;
        let m = self.m_step();
        execute_stmts(&mut self.db, &m)?;
        let r = self
            .db
            .execute(&format!("SELECT llh FROM {w}", w = self.names.w()))
            .map_err(|e| SqlemError::from_sql("read llh", e))?;
        Ok(r.scalar_f64().unwrap_or(0.0))
    }

    /// Run to convergence.
    pub fn run(&mut self) -> Result<PerClusterRun, SqlemError> {
        let mut llh_history = Vec::new();
        let mut iteration_times = Vec::new();
        let mut prev: Option<f64> = None;
        let mut outcome = EmOutcome::MaxIterations;
        for _ in 0..self.config.max_iterations {
            let t0 = Instant::now();
            let llh = self.iterate_once()?;
            iteration_times.push(t0.elapsed());
            llh_history.push(llh);
            if let Some(prev) = prev {
                if (llh - prev).abs() <= self.config.epsilon {
                    outcome = EmOutcome::Converged;
                    break;
                }
            }
            prev = Some(llh);
        }
        let params = self.params()?;
        Ok(PerClusterRun {
            params,
            iterations: llh_history.len(),
            llh_history,
            outcome,
            iteration_times,
        })
    }

    /// Read current parameters from C/R/W.
    pub fn params(&mut self) -> Result<FullParams, SqlemError> {
        let n = &self.names;
        let y_cols = (1..=self.p)
            .map(|d| format!("y{d}"))
            .collect::<Vec<_>>()
            .join(", ");
        let means = read_f64_grid(
            &mut self.db,
            &format!("SELECT {y_cols} FROM {c} ORDER BY i", c = n.c()),
            "read C",
        )?;
        let covs = read_f64_grid(
            &mut self.db,
            &format!("SELECT {y_cols} FROM {r} ORDER BY i", r = n.r()),
            "read R",
        )?;
        let w_cols = (1..=self.config.k)
            .map(|j| format!("w{j}"))
            .collect::<Vec<_>>()
            .join(", ");
        let weights = read_f64_grid(
            &mut self.db,
            &format!("SELECT {w_cols} FROM {w}", w = n.w()),
            "read W",
        )?
        .into_iter()
        .next()
        .ok_or_else(|| SqlemError::BadParamTable("W is empty".into()))?;
        if means.len() != self.config.k || covs.len() != self.config.k {
            return Err(SqlemError::BadParamTable(format!(
                "C/R have {}/{} rows, expected {}",
                means.len(),
                covs.len(),
                self.config.k
            )));
        }
        Ok(FullParams {
            means,
            covs,
            weights,
        })
    }

    /// Per-point winning cluster, 0-based, via the X/XMAX tables.
    pub fn scores(&mut self) -> Result<Vec<usize>, SqlemError> {
        let stmts = horizontal_score(&self.names, self.config.k);
        execute_stmts(&mut self.db, &stmts)?;
        let sql = format!("SELECT score FROM {ys} ORDER BY rid", ys = self.names.ys());
        let r = self
            .db
            .execute(&sql)
            .map_err(|e| SqlemError::from_sql("read scores", e))?;
        r.rows
            .iter()
            .map(|row| {
                row[0]
                    .as_i64()
                    .filter(|&s| s >= 1)
                    .map(|s| s as usize - 1)
                    .ok_or_else(|| SqlemError::BadParamTable("bad score".into()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::emfull::{em_step_full, FullParams};

    /// Heteroscedastic 2-d data: tight blob + wide blob.
    fn hetero() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..150 {
            let t = ((i % 21) as f64 - 10.0) / 10.0;
            pts.push(vec![t * 0.3, t * 0.2]);
            pts.push(vec![25.0 + t * 6.0, -10.0 + t * 4.0]);
        }
        pts
    }

    fn init() -> FullParams {
        FullParams {
            means: vec![vec![5.0, 2.0], vec![20.0, -8.0]],
            covs: vec![vec![30.0, 30.0], vec![30.0, 30.0]],
            weights: vec![0.5, 0.5],
        }
    }

    #[test]
    fn matches_in_memory_full_em_in_lockstep() {
        let pts = hetero();
        let mut db = Database::new();
        let config = PerClusterConfig::new(2);
        let mut session = PerClusterSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&pts).unwrap();
        session.set_params(&init()).unwrap();

        let mut oracle = init();
        for _ in 0..5 {
            let sql_llh = session.iterate_once().unwrap();
            let (next, mem_llh) = em_step_full(&oracle, &pts).unwrap();
            oracle = next;
            assert!(
                ((sql_llh - mem_llh) / mem_llh.abs().max(1.0)).abs() < 1e-9,
                "llh {sql_llh} vs {mem_llh}"
            );
            let got = session.params().unwrap();
            for j in 0..2 {
                for d in 0..2 {
                    assert!((got.means[j][d] - oracle.means[j][d]).abs() < 1e-8);
                    assert!((got.covs[j][d] - oracle.covs[j][d]).abs() < 1e-8);
                }
                assert!((got.weights[j] - oracle.weights[j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn recovers_per_cluster_spreads() {
        let pts = hetero();
        let mut db = Database::new();
        let mut config = PerClusterConfig::new(2);
        config.epsilon = 1e-9;
        config.max_iterations = 40;
        let mut session = PerClusterSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&pts).unwrap();
        session.set_params(&init()).unwrap();
        let run = session.run().unwrap();
        run.params.validate().unwrap();
        let (tight, wide) = if run.params.covs[0][0] < run.params.covs[1][0] {
            (0, 1)
        } else {
            (1, 0)
        };
        assert!(
            run.params.covs[wide][0] > 10.0 * run.params.covs[tight][0],
            "covs {:?}",
            run.params.covs
        );
        // Scores separate the blobs perfectly — they are far apart.
        let scores = session.scores().unwrap();
        assert_eq!(scores.len(), pts.len());
        assert_ne!(scores[0], scores[1]);
        assert_eq!(scores[0], scores[2]);
    }

    #[test]
    fn llh_monotone() {
        let pts = hetero();
        let mut db = Database::new();
        let mut config = PerClusterConfig::new(2);
        config.epsilon = 0.0;
        config.max_iterations = 10;
        let mut session = PerClusterSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&pts).unwrap();
        session.set_params(&init()).unwrap();
        let run = session.run().unwrap();
        for w in run.llh_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-7, "llh decreased {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn requires_setup_and_shape() {
        let mut db = Database::new();
        let config = PerClusterConfig::new(2);
        let mut session = PerClusterSession::create(&mut db, &config, 2).unwrap();
        assert!(session.iterate_once().is_err());
        let mut bad = init();
        bad.means.pop();
        bad.covs.pop();
        bad.weights = vec![1.0];
        assert!(session.set_params(&bad).is_err());
    }
}
