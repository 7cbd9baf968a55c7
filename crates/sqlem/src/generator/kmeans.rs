//! K-means in SQL — the paper's §2.2 remark made concrete: "the popular
//! K-means clustering algorithm is a particular case of EM when W and R
//! are fixed: W = 1/k, R = I. It is trivial to simplify SQLEM to do
//! clustering based on K-means."
//!
//! So the model is [`GmmParams`] with R = I and W = 1/k: the generator
//! writes C only and reads R back as ones and W as 1/k. It keeps the
//! hybrid layout (vertical distances, horizontal everything else) and
//! replaces the E step's soft responsibilities with a hard argmin: an
//! `UPDATE` computes `mind = least(d1…dk)` per point, then a CASE chain
//! sets `x_j = 1` for the nearest centroid and 0 elsewhere. The M step
//! stages `Σ x_j` and `Σ x_j·y` per cluster in CTMP and divides them into
//! C only where `Σ x_j > 0`, so an empty cluster keeps its centroid, as
//! Lloyd's algorithm does (`emcore::kmeans::kmeans_from`). The objective
//! is the total within-cluster squared distance (SSE), not a
//! loglikelihood.
//!
//! The assignment CASE chain is `Θ(k²)` characters (each cluster must
//! exclude ties with lower-indexed clusters), so this variant is only
//! generated for moderate k — the same kind of expression-size ceiling
//! §3.3 describes.

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::config::SqlemConfig;
use crate::error::SqlemError;
use crate::generator::{
    create_table, double_cols, point_tables, read_keyed, recreate, seed_cr, transpose_c,
    write_keyed, Generator, Stmt,
};
use crate::naming::Names;
use crate::sqlfmt::unroll;

/// Generator for SQL K-means (§2.2).
#[derive(Debug, Clone)]
pub struct KmeansGenerator {
    names: Names,
    p: usize,
    k: usize,
}

impl KmeansGenerator {
    /// Build from a session's configuration: its `k` and table prefix
    /// (the strategy options do not apply — K-means runs on the hybrid
    /// layout).
    pub fn new(config: &SqlemConfig, p: usize) -> Self {
        assert!(p >= 1 && config.k >= 1);
        KmeansGenerator {
            names: Names::new(&config.table_prefix),
            p,
            k: config.k,
        }
    }

    /// The K-means model centred on `centroids`: R = I, W = 1/k.
    pub fn params(centroids: Vec<Vec<f64>>) -> GmmParams {
        let (k, p) = (centroids.len(), centroids.first().map_or(0, Vec::len));
        GmmParams {
            means: centroids,
            cov: vec![1.0; p],
            weights: vec![1.0 / k as f64; k],
        }
    }

    fn yd_body(&self) -> String {
        format!(
            "rid BIGINT PRIMARY KEY, {}, mind DOUBLE",
            double_cols("d", self.k)
        )
    }

    fn yx_body(&self) -> String {
        format!("rid BIGINT PRIMARY KEY, {}", double_cols("x", self.k))
    }
}

impl Generator for KmeansGenerator {
    type Params = GmmParams;

    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn layouts(&self) -> (bool, bool) {
        (true, true)
    }

    /// The YD distance join reads Y (the pn-scan); the `mind` UPDATE,
    /// the assignment projection, the k mean sums and the SSE read each
    /// scan one n-row table.
    fn expected_scans(&self) -> (usize, usize) {
        (self.k + 3, 1)
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = point_tables(n, p, self.layouts());
        let mut add = |table: String, body: String| stmts.extend(create_table(&table, &body));
        add(
            n.c(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(
            n.cr(),
            format!("v BIGINT PRIMARY KEY, {}", double_cols("c", k)),
        );
        add(n.yd(), self.yd_body());
        add(n.yx(), self.yx_body());
        add(n.ys(), "rid BIGINT PRIMARY KEY, score BIGINT".into());
        stmts
    }

    fn post_load(&self, _n_points: usize) -> Vec<Stmt> {
        seed_cr(&self.names, self.p, self.k)
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = transpose_c(n, p, k);
        // Euclidean distances (R = I) + per-point minimum.
        stmts.extend(recreate(&n.yd(), &self.yd_body()));
        let dist_terms = unroll(k, ", ", |j| {
            format!(
                "sum(({y}.val - {cr}.c{j}) ** 2) AS d{j}",
                y = n.y(),
                cr = n.cr()
            )
        });
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
        let least = unroll(k, ", ", |j| format!("d{j}"));
        stmts.push(Stmt::new(
            "E: per-point min distance (YD.mind)",
            format!("UPDATE {yd} SET mind = least({least})", yd = n.yd()),
        ));
        // Hard assignment with lower-index tie-breaking.
        stmts.extend(recreate(&n.yx(), &self.yx_body()));
        let mut cols = vec!["rid".to_string()];
        for j in 1..=k {
            let ties: String = (1..j).map(|i| format!(" AND d{i} > mind")).collect();
            cols.push(format!("CASE WHEN d{j} = mind{ties} THEN 1.0 ELSE 0.0 END"));
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
        let (p, k) = (self.p, self.k);
        let (c, ctmp, z, yx) = (n.c(), n.ctmp(), n.z(), n.yx());
        let body = format!("i BIGINT PRIMARY KEY, x DOUBLE, {}", double_cols("y", p));
        let mut stmts = recreate(&ctmp, &body).to_vec();
        for j in 1..=k {
            let sums = unroll(p, ", ", |d| format!("sum({z}.y{d} * x{j})"));
            stmts.push(Stmt::new(
                format!("M: Σx and Σx·y of cluster {j} (CTMP)"),
                format!(
                    "INSERT INTO {ctmp} SELECT {j}, sum(x{j}), {sums} FROM {z}, {yx} \
                     WHERE {z}.rid = {yx}.rid"
                ),
            ));
        }
        let means = unroll(p, ", ", |d| {
            format!("y{d} = CASE WHEN {ctmp}.x > 0 THEN {ctmp}.y{d} / {ctmp}.x ELSE {c}.y{d} END")
        });
        stmts.push(Stmt::new(
            "M: C = Σx·y / Σx (empty clusters keep their centroid)",
            format!("UPDATE {c} FROM {ctmp} SET {means} WHERE {c}.i = {ctmp}.i"),
        ));
        stmts
    }

    fn score_step(&self) -> Vec<Stmt> {
        let (ys, yx) = (self.names.ys(), self.names.yx());
        let score_expr = unroll(self.k, " + ", |j| format!("{j} * x{j}"));
        vec![
            Stmt::new("score: clear YS", format!("DELETE FROM {ys}")),
            Stmt::new(
                "score: argmin cluster (YS)",
                format!("INSERT INTO {ys} SELECT rid, {score_expr} FROM {yx}"),
            ),
        ]
    }

    fn llh_sql(&self) -> String {
        format!("SELECT sum(mind) FROM {yd}", yd = self.names.yd())
    }

    fn write_params(&self, params: &GmmParams) -> Vec<Stmt> {
        assert_eq!((params.k(), params.p()), (self.k, self.p));
        write_keyed(&self.names.c(), "C", &params.means)
    }

    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<GmmParams, SqlemError> {
        let means = read_keyed(db, &self.names.c(), "C", self.p, self.k)?;
        Ok(KmeansGenerator::params(means))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmSession, Strategy};
    use emcore::EmOutcome;
    use sqlengine::Database;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..30 {
            let t = (i % 3) as f64 * 0.1;
            pts.push(vec![t, 0.0]);
            pts.push(vec![8.0 + t, 8.0]);
        }
        pts
    }

    /// K-means' ε and iteration cap.
    fn config() -> SqlemConfig {
        SqlemConfig::new(2, Strategy::Hybrid)
            .with_epsilon(1e-6)
            .with_max_iterations(20)
    }

    #[test]
    fn sql_kmeans_matches_in_memory_kmeans() {
        let pts = blobs();
        let init = vec![vec![1.0, 1.0], vec![7.0, 7.0]];

        let mut db = Database::new();
        let mut session =
            EmSession::create_with(&mut db, &config(), 2, KmeansGenerator::new).unwrap();
        session.load_points(&pts).unwrap();
        session
            .set_params(&KmeansGenerator::params(init.clone()))
            .unwrap();
        let sql_run = session.run().unwrap();

        let mem_run = emcore::kmeans::kmeans_from(&pts, init, 20);

        for (a, b) in sql_run.params.means.iter().zip(&mem_run.centroids) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
        let assignments = session.scores().unwrap();
        assert_eq!(assignments, mem_run.assignments);
    }

    #[test]
    fn sse_non_increasing() {
        let mut db = Database::new();
        let mut session =
            EmSession::create_with(&mut db, &config(), 2, KmeansGenerator::new).unwrap();
        session.load_points(&blobs()).unwrap();
        session
            .set_params(&KmeansGenerator::params(vec![
                vec![3.0, 3.0],
                vec![5.0, 5.0],
            ]))
            .unwrap();
        let run = session.run().unwrap();
        for w in run.llh_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "SSE increased: {} -> {}", w[0], w[1]);
        }
        assert_eq!(run.outcome, EmOutcome::Converged);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        // A point exactly between two centroids must be assigned to
        // cluster 1 only (Σ x = 1 per row).
        let pts = vec![vec![0.0], vec![10.0], vec![5.0]];
        let mut db = Database::new();
        let mut session =
            EmSession::create_with(&mut db, &config(), 1, KmeansGenerator::new).unwrap();
        session.load_points(&pts).unwrap();
        session
            .set_params(&KmeansGenerator::params(vec![vec![0.0], vec![10.0]]))
            .unwrap();
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
        let mut session =
            EmSession::create_with(&mut db, &config(), 1, KmeansGenerator::new).unwrap();
        assert!(session.iterate_once().is_err());
    }
}
