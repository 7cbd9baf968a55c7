//! SQLEM with *per-cluster* covariances — the §2.1 extension ("it is not
//! hard to extend this work to handle a different Σ for each cluster"),
//! implemented on the hybrid layout; the model is [`FullParams`].
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

use emcore::emfull::FullParams;
use sqlengine::SqlExecutor;

use crate::config::SqlemConfig;
use crate::error::SqlemError;
use crate::generator::{
    create_table, double_cols, fused_yx_body, fused_yx_insert, guarded_r, horizontal_score,
    mean_inserts, point_tables, read_keyed, read_row, recreate, seed_cr, transpose_c,
    transpose_r_arms, two_pi_p_div2, values_insert, w_llh_sql, w_update, write_keyed, write_row,
    yd_body, yx_dead_cluster, Generator, Stmt,
};
use crate::naming::Names;
use crate::sqlfmt::{lit, unroll};

/// Generator for SQLEM with per-cluster covariances (§2.1).
#[derive(Debug, Clone)]
pub struct PerClusterGenerator {
    names: Names,
    p: usize,
    k: usize,
}

impl PerClusterGenerator {
    /// Build from a session's configuration: its `k` and table prefix
    /// (the strategy options do not apply — the model runs on the hybrid
    /// layout with the fused E step).
    pub fn new(config: &SqlemConfig, p: usize) -> Self {
        assert!(p >= 1 && config.k >= 1);
        PerClusterGenerator {
            names: Names::new(&config.table_prefix),
            p,
            k: config.k,
        }
    }

    fn keyed_body(&self) -> String {
        format!("i BIGINT PRIMARY KEY, {}", double_cols("y", self.p))
    }
}

impl Generator for PerClusterGenerator {
    type Params = FullParams;

    fn name(&self) -> &'static str {
        "per-cluster"
    }

    fn fused(&self) -> bool {
        true
    }

    fn layouts(&self) -> (bool, bool) {
        (true, true)
    }

    /// The YD distance join reads Y (the pn-scan); the fused YX
    /// projection, the k means, W' and the k covariances each scan one
    /// n-row table.
    fn expected_scans(&self) -> (usize, usize) {
        (2 * self.k + 2, 1)
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = point_tables(n, p, self.layouts());
        let mut add = |table: String, body: String| stmts.extend(create_table(&table, &body));
        add(n.c(), self.keyed_body());
        add(n.r(), self.keyed_body());
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
        add(n.yd(), yd_body(k));
        add(n.yx(), fused_yx_body(k));
        add(n.w(), format!("{}, llh DOUBLE", double_cols("w", k)));
        add(n.gmm(), "n BIGINT, twopipdiv2 DOUBLE".into());
        stmts
    }

    fn post_load(&self, n_points: usize) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = vec![Stmt::new(
            "seed GMM",
            format!(
                "INSERT INTO {gmm} VALUES ({n_points}, {tp})",
                gmm = n.gmm(),
                tp = lit(two_pi_p_div2(self.p)),
            ),
        )];
        stmts.extend(seed_cr(n, self.p, 2 * self.k));
        stmts.push(values_insert(
            "seed DETS skeleton",
            &n.dett(),
            &[(vec![], vec![0.0; 2 * self.k])],
        ));
        stmts
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let (cr, r, dets) = (n.cr(), n.r(), n.dett());

        // Per-cluster determinants into DETS: k UPDATE…FROM statements.
        let prod = unroll(p, " * ", |d| format!("({})", guarded_r(&r, d)));
        let mut stmts: Vec<Stmt> = (1..=k)
            .map(|j| {
                Stmt::new(
                    format!("E: |R_{j}| into DETS"),
                    format!(
                        "UPDATE {dets} FROM {r} SET detr{j} = {prod}, \
                         sqrtdetr{j} = detr{j} ** 0.5 WHERE {r}.i = {j}"
                    ),
                )
            })
            .collect();

        // Transpose C and the k covariance rows into CR.
        stmts.extend(transpose_c(n, p, k));
        let arms = transpose_r_arms(n, p);
        stmts.extend((1..=k).map(|j| {
            Stmt::new(
                format!("E: transpose R{j} into CR (zero-guarded)"),
                format!("UPDATE {cr} FROM {r} SET r{j} = CASE {arms} END WHERE {r}.i = {j}"),
            )
        }));

        // Distances: divide by the cluster's own covariance column.
        stmts.extend(recreate(&n.yd(), &yd_body(k)));
        let y = n.y();
        let dist_terms = unroll(k, ", ", |j| {
            format!("sum(({y}.val - {cr}.c{j}) ** 2 / {cr}.r{j})")
        });
        stmts.push(Stmt::new(
            "E: per-cluster Mahalanobis distances (YD)",
            format!(
                "INSERT INTO {yd} SELECT rid, {dist_terms} FROM {y}, {cr} \
                 WHERE {y}.v = {cr}.v GROUP BY rid",
                yd = n.yd(),
            ),
        ));

        // Fused probabilities + responsibilities with per-cluster norms.
        stmts.extend(recreate(&n.yx(), &fused_yx_body(k)));
        stmts.push(fused_yx_insert(n, k, true));
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let (r, z, c, yx) = (n.r(), n.z(), n.c(), n.yx());
        let mut stmts = mean_inserts(n, p, k);
        stmts.extend(w_update(n, k));
        stmts.push(Stmt::new("M: clear R", format!("DELETE FROM {r}")));
        for j in 1..=k {
            let cols = unroll(p, ", ", |d| {
                format!("sum(x{j} * ({z}.y{d} - {c}.y{d}) ** 2) / sum(x{j})")
            });
            stmts.push(Stmt::new(
                format!("M: covariance of cluster {j} (R)"),
                format!(
                    "INSERT INTO {r} SELECT {j}, {cols} FROM {z}, {c}, {yx} \
                     WHERE {z}.rid = {yx}.rid AND {c}.i = {j}"
                ),
            ));
        }
        stmts
    }

    fn score_step(&self) -> Vec<Stmt> {
        horizontal_score(&self.names, self.k)
    }

    fn llh_sql(&self) -> String {
        w_llh_sql(&self.names)
    }

    fn dead_cluster(&self, db: &mut dyn SqlExecutor) -> Option<usize> {
        yx_dead_cluster(db, &self.names, self.k)
    }

    fn write_params(&self, params: &FullParams) -> Vec<Stmt> {
        let n = &self.names;
        assert_eq!((params.k(), params.p()), (self.k, self.p));
        let mut stmts = write_keyed(&n.c(), "C", &params.means);
        stmts.extend(write_keyed(&n.r(), "R", &params.covs));
        stmts.extend(write_row(
            &n.w(),
            "W",
            [&params.weights[..], &[0.0]].concat(),
        ));
        stmts
    }

    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<FullParams, SqlemError> {
        let n = &self.names;
        Ok(FullParams {
            means: read_keyed(db, &n.c(), "C", self.p, self.k)?,
            covs: read_keyed(db, &n.r(), "R", self.p, self.k)?,
            weights: read_row(db, &n.w(), "W", &unroll(self.k, ", ", |j| format!("w{j}")))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmSession, Strategy};
    use emcore::emfull::em_step_full;
    use sqlengine::Database;

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

    fn config() -> SqlemConfig {
        SqlemConfig::new(2, Strategy::Hybrid)
    }

    #[test]
    fn matches_in_memory_full_em_in_lockstep() {
        let pts = hetero();
        let mut db = Database::new();
        let mut session =
            EmSession::create_with(&mut db, &config(), 2, PerClusterGenerator::new).unwrap();
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
        let config = config().with_epsilon(1e-9).with_max_iterations(40);
        let mut session =
            EmSession::create_with(&mut db, &config, 2, PerClusterGenerator::new).unwrap();
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
        let config = config().with_epsilon(0.0).with_max_iterations(10);
        let mut session =
            EmSession::create_with(&mut db, &config, 2, PerClusterGenerator::new).unwrap();
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
        let mut session =
            EmSession::create_with(&mut db, &config(), 2, PerClusterGenerator::new).unwrap();
        assert!(session.iterate_once().is_err());
        let mut bad = init();
        bad.means.pop();
        bad.covs.pop();
        bad.weights = vec![1.0];
        assert!(session.set_params(&bad).is_err());
    }
}
