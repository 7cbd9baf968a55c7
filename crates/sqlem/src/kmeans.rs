//! K-means in SQL — the paper's §2.2 remark made concrete: "the popular
//! K-means clustering algorithm is a particular case of EM when W and R
//! are fixed: W = 1/k, R = I. It is trivial to simplify SQLEM to do
//! clustering based on K-means."
//!
//! The simplification keeps the hybrid layout (vertical distances,
//! horizontal everything else) and replaces the E step's soft
//! responsibilities with a hard argmin: an `UPDATE` computes
//! `mind = least(d1…dk)` per point, then a CASE chain sets `x_j = 1` for
//! the nearest centroid and 0 elsewhere. The M step reuses the same
//! `Σ x·y / Σ x` mean update; R and W never change. Convergence is
//! tracked by total within-cluster squared distance (SSE) instead of
//! loglikelihood.
//!
//! The assignment CASE chain is `Θ(k²)` characters (each cluster must
//! exclude ties with lower-indexed clusters), so this variant is only
//! generated for moderate k — the same kind of expression-size ceiling
//! §3.3 describes.

use std::time::{Duration, Instant};

use sqlengine::{Database, SqlExecutor, Value};

use crate::config::Strategy;
use crate::driver::execute_stmts;
use crate::error::SqlemError;
use crate::generator::{
    create_table, double_cols, read_f64_grid, recreate, values_insert_chunked, Stmt,
};
use crate::loader;
use crate::naming::Names;
use crate::retry::Retrying;

/// Configuration for a SQL K-means run.
#[derive(Debug, Clone)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Stop when |ΔSSE| ≤ ε.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Table-name prefix.
    pub table_prefix: String,
}

impl KmeansConfig {
    /// Defaults: ε = 1e-6·SSE-scale-free, 20 iterations.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        KmeansConfig {
            k,
            epsilon: 1e-6,
            max_iterations: 20,
            table_prefix: String::new(),
        }
    }
}

/// Result of a SQL K-means run.
#[derive(Debug, Clone)]
pub struct KmeansRun {
    /// Final centroids, `k × p`.
    pub centroids: Vec<Vec<f64>>,
    /// SSE after each iteration.
    pub sse_history: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the ε test ended the run.
    pub converged: bool,
    /// Wall-clock time per iteration.
    pub iteration_times: Vec<Duration>,
}

/// A SQL K-means session against any [`SqlExecutor`] (in-process by
/// default), through the same statement runner and loader as
/// [`crate::EmSession`].
pub struct KmeansSession<'a, E: SqlExecutor = Database> {
    db: Retrying<'a, E>,
    config: KmeansConfig,
    names: Names,
    p: usize,
    n: Option<usize>,
    initialized: bool,
}

impl<'a, E: SqlExecutor> KmeansSession<'a, E> {
    /// Create the session and its tables.
    pub fn create(db: &'a mut E, config: &KmeansConfig, p: usize) -> Result<Self, SqlemError> {
        assert!(p >= 1);
        let names = Names::new(&config.table_prefix);
        let mut session = KmeansSession {
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
            n.cr(),
            format!("v BIGINT PRIMARY KEY, {}", double_cols("c", k)),
        );
        add(
            n.yd(),
            format!(
                "rid BIGINT PRIMARY KEY, {}, mind DOUBLE",
                double_cols("d", k)
            ),
        );
        add(
            n.yx(),
            format!("rid BIGINT PRIMARY KEY, {}", double_cols("x", k)),
        );
        add(n.ys(), "rid BIGINT PRIMARY KEY, score BIGINT".into());
        stmts
    }

    /// Load points (both layouts, like the hybrid EM).
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
        // CR skeleton.
        let rows: Vec<(Vec<i64>, Vec<f64>)> = (1..=self.p as i64)
            .map(|v| (vec![v], vec![0.0; self.config.k]))
            .collect();
        let seed = values_insert_chunked("seed CR skeleton", &self.names.cr(), &rows, 4096);
        execute_stmts(&mut self.db, &seed)?;
        Ok(())
    }

    /// Write the starting centroids.
    pub fn set_centroids(&mut self, centroids: &[Vec<f64>]) -> Result<(), SqlemError> {
        if centroids.len() != self.config.k || centroids.iter().any(|c| c.len() != self.p) {
            return Err(SqlemError::BadInput(
                "centroids have the wrong shape".into(),
            ));
        }
        let rows: Vec<(Vec<i64>, Vec<f64>)> = centroids
            .iter()
            .enumerate()
            .map(|(j, c)| (vec![j as i64 + 1], c.clone()))
            .collect();
        let mut stmts = vec![Stmt::new(
            "init: clear C",
            format!("DELETE FROM {}", self.names.c()),
        )];
        stmts.extend(values_insert_chunked(
            "init: write C",
            &self.names.c(),
            &rows,
            4096,
        ));
        execute_stmts(&mut self.db, &stmts)?;
        self.initialized = true;
        Ok(())
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.config.k);
        let mut stmts = Vec::new();
        // Transpose C into CR.
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
        // Euclidean distances (R = I) + per-point minimum, lateral alias.
        stmts.extend(recreate(
            &n.yd(),
            &format!(
                "rid BIGINT PRIMARY KEY, {}, mind DOUBLE",
                double_cols("d", k)
            ),
        ));
        let dist_terms = (1..=k)
            .map(|j| {
                format!(
                    "sum(({y}.val - {cr}.c{j}) ** 2) AS d{j}",
                    y = n.y(),
                    cr = n.cr(),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        stmts.push(Stmt::new(
            "E: Euclidean distances (YD)",
            format!(
                "INSERT INTO {yd} SELECT rid, {dist_terms}, 0 \
                 FROM {y}, {cr} WHERE {y}.v = {cr}.v GROUP BY rid",
                yd = n.yd(),
                y = n.y(),
                cr = n.cr(),
            ),
        ));
        let least = (1..=k)
            .map(|j| format!("d{j}"))
            .collect::<Vec<_>>()
            .join(", ");
        stmts.push(Stmt::new(
            "E: per-point min distance (YD.mind)",
            format!("UPDATE {yd} SET mind = least({least})", yd = n.yd()),
        ));
        // Hard assignment with lower-index tie-breaking.
        stmts.extend(recreate(
            &n.yx(),
            &format!("rid BIGINT PRIMARY KEY, {}", double_cols("x", k)),
        ));
        let mut cols = vec!["rid".to_string()];
        for j in 1..=k {
            let mut cond = format!("d{j} = mind");
            for prior in 1..j {
                cond.push_str(&format!(" AND d{prior} > mind"));
            }
            cols.push(format!("CASE WHEN {cond} THEN 1.0 ELSE 0.0 END"));
        }
        stmts.push(Stmt::new(
            "E: hard assignment (YX)",
            format!(
                "INSERT INTO {yx} SELECT {cols} FROM {yd}",
                yx = n.yx(),
                cols = cols.join(", "),
                yd = n.yd(),
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
        stmts
    }

    /// One iteration; returns the SSE measured in the E step.
    pub fn iterate_once(&mut self) -> Result<f64, SqlemError> {
        if self.n.is_none() || !self.initialized {
            return Err(SqlemError::BadInput(
                "load points and set centroids first".into(),
            ));
        }
        let e = self.e_step();
        execute_stmts(&mut self.db, &e)?;
        let sse_sql = format!("SELECT sum(mind) FROM {yd}", yd = self.names.yd());
        let sse = self
            .db
            .execute(&sse_sql)
            .map_err(|e| SqlemError::from_sql("read SSE", e))?
            .scalar_f64()
            .unwrap_or(0.0);
        let m = self.m_step();
        execute_stmts(&mut self.db, &m)?;
        Ok(sse)
    }

    /// Run to convergence.
    pub fn run(&mut self) -> Result<KmeansRun, SqlemError> {
        let mut sse_history = Vec::new();
        let mut iteration_times = Vec::new();
        let mut prev: Option<f64> = None;
        let mut converged = false;
        for _ in 0..self.config.max_iterations {
            let t0 = Instant::now();
            let sse = self.iterate_once()?;
            iteration_times.push(t0.elapsed());
            sse_history.push(sse);
            if let Some(prev) = prev {
                if (sse - prev).abs() <= self.config.epsilon {
                    converged = true;
                    break;
                }
            }
            prev = Some(sse);
        }
        let centroids = self.centroids()?;
        Ok(KmeansRun {
            centroids,
            iterations: sse_history.len(),
            sse_history,
            converged,
            iteration_times,
        })
    }

    /// Read the centroids back.
    pub fn centroids(&mut self) -> Result<Vec<Vec<f64>>, SqlemError> {
        let cols = (1..=self.p)
            .map(|d| format!("y{d}"))
            .collect::<Vec<_>>()
            .join(", ");
        let sql = format!("SELECT {cols} FROM {c} ORDER BY i", c = self.names.c());
        read_f64_grid(&mut self.db, &sql, "read centroids")
    }

    /// Per-point assignments in RID order, 0-based: `score = Σ j·x_j`.
    pub fn assignments(&mut self) -> Result<Vec<usize>, SqlemError> {
        let score_expr = (1..=self.config.k)
            .map(|j| format!("{j} * x{j}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let stmts = vec![
            Stmt::new(
                "score: clear YS",
                format!("DELETE FROM {}", self.names.ys()),
            ),
            Stmt::new(
                "score: argmin cluster (YS)",
                format!(
                    "INSERT INTO {ys} SELECT rid, {score_expr} FROM {yx}",
                    ys = self.names.ys(),
                    yx = self.names.yx(),
                ),
            ),
        ];
        execute_stmts(&mut self.db, &stmts)?;
        let sql = format!("SELECT score FROM {ys} ORDER BY rid", ys = self.names.ys());
        let r = self
            .db
            .execute(&sql)
            .map_err(|e| SqlemError::from_sql("read assignments", e))?;
        r.rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(s) if *s >= 1 => Ok(*s as usize - 1),
                other => Err(SqlemError::BadParamTable(format!(
                    "bad assignment cell {other}"
                ))),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..30 {
            let t = (i % 3) as f64 * 0.1;
            pts.push(vec![t, 0.0]);
            pts.push(vec![8.0 + t, 8.0]);
        }
        pts
    }

    #[test]
    fn sql_kmeans_matches_in_memory_kmeans() {
        let pts = blobs();
        let init = vec![vec![1.0, 1.0], vec![7.0, 7.0]];

        let mut db = Database::new();
        let config = KmeansConfig::new(2);
        let mut session = KmeansSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&pts).unwrap();
        session.set_centroids(&init).unwrap();
        let sql_run = session.run().unwrap();

        let mem_run = emcore::kmeans::kmeans_from(&pts, init, 20);

        for (a, b) in sql_run.centroids.iter().zip(&mem_run.centroids) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
        let assignments = session.assignments().unwrap();
        assert_eq!(assignments, mem_run.assignments);
    }

    #[test]
    fn sse_non_increasing() {
        let mut db = Database::new();
        let config = KmeansConfig::new(2);
        let mut session = KmeansSession::create(&mut db, &config, 2).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .set_centroids(&[vec![3.0, 3.0], vec![5.0, 5.0]])
            .unwrap();
        let run = session.run().unwrap();
        for w in run.sse_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "SSE increased: {} -> {}", w[0], w[1]);
        }
        assert!(run.converged);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        // A point exactly between two centroids must be assigned to
        // cluster 1 only (Σ x = 1 per row).
        let pts = vec![vec![0.0], vec![10.0], vec![5.0]];
        let mut db = Database::new();
        let config = KmeansConfig::new(2);
        let mut session = KmeansSession::create(&mut db, &config, 1).unwrap();
        session.load_points(&pts).unwrap();
        session.set_centroids(&[vec![0.0], vec![10.0]]).unwrap();
        session.iterate_once().unwrap();
        let r = db.execute("SELECT x1 + x2 FROM yx ORDER BY rid").unwrap();
        for row in &r.rows {
            assert_eq!(row[0].as_f64(), Some(1.0));
        }
        let r = db.execute("SELECT x1 FROM yx WHERE rid = 3").unwrap();
        assert_eq!(r.scalar_f64(), Some(1.0));
    }

    #[test]
    fn requires_setup() {
        let mut db = Database::new();
        let config = KmeansConfig::new(2);
        let mut session = KmeansSession::create(&mut db, &config, 1).unwrap();
        assert!(session.iterate_once().is_err());
    }
}
