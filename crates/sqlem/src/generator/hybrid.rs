//! The hybrid strategy (paper §3.5, Figs. 8–10) — the paper's solution.
//!
//! Distances are computed *vertically*: the points live both horizontally
//! in `Z(RID, y1…yp)` for the M step and vertically in `Y(RID, v, val)`
//! for the distance join against the transposed parameter table
//! `CR(v, C1…Ck, R)`. Probabilities, responsibilities and parameter
//! updates are all *horizontal*, so every statement after the distance
//! join touches only `n`-row, `k`-column tables.
//!
//! Cost per iteration (§3.5): one driver scan of the `pn`-row `Y`, plus
//! `2k+3` driver scans of `n`-row tables (1 × YP source, 1 × YX source,
//! k × C updates, 1 × W update, k × RK updates) — verified by
//! `tests/scan_counts.rs`.

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::error::SqlemError;
use crate::generator::{
    create_table, det_r_update, double_cols, fused_yx_body, fused_yx_insert, horizontal_score,
    mean_inserts, point_tables, read_keyed, read_row, recreate, seed_cr, seed_gmm, transpose_c,
    transpose_r_arms, w_llh_sql, w_update, write_keyed, write_row, yd_body, yp_body, yp_then_yx,
    yx_body, yx_dead_cluster, Generator, Stmt,
};
use crate::naming::Names;
use crate::sqlfmt::unroll;

/// Generator for [`crate::Strategy::Hybrid`].
#[derive(Debug, Clone)]
pub struct HybridGenerator {
    names: Names,
    p: usize,
    k: usize,
    fused: bool,
}

impl HybridGenerator {
    /// Build for `p` dimensions and `k` clusters.
    pub fn new(names: Names, p: usize, k: usize) -> Self {
        assert!(p >= 1 && k >= 1);
        HybridGenerator {
            names,
            p,
            k,
            fused: false,
        }
    }

    /// Build with the fused E step (§5 future work): YP and YX become a
    /// single statement — the YX insert computes densities, `sump`,
    /// `suminvd` and the responsibilities in one projection using lateral
    /// aliases, reading YD once instead of twice.
    pub fn new_fused(names: Names, p: usize, k: usize) -> Self {
        let mut g = HybridGenerator::new(names, p, k);
        g.fused = true;
        g
    }

    fn yx_body(&self) -> String {
        if self.fused {
            fused_yx_body(self.k)
        } else {
            yx_body(self.k)
        }
    }
}

impl Generator for HybridGenerator {
    type Params = GmmParams;

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn fused(&self) -> bool {
        self.fused
    }

    fn layouts(&self) -> (bool, bool) {
        (true, true)
    }

    fn expected_scans(&self) -> (usize, usize) {
        if self.fused {
            (2 * self.k + 2, 1)
        } else {
            (2 * self.k + 3, 1)
        }
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = point_tables(n, p, self.layouts());
        let mut add = |table: String, body: String| stmts.extend(create_table(&table, &body));
        add(n.yd(), yd_body(k));
        if !self.fused {
            add(n.yp(), yp_body(k));
        }
        add(n.yx(), self.yx_body());
        add(
            n.c(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(
            n.rk(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(n.r(), double_cols("y", p));
        add(
            n.cr(),
            format!("v BIGINT PRIMARY KEY, {}, r DOUBLE", double_cols("c", k)),
        );
        add(n.w(), format!("{}, llh DOUBLE", double_cols("w", k)));
        add(
            n.gmm(),
            "n BIGINT, twopipdiv2 DOUBLE, detr DOUBLE, sqrtdetr DOUBLE".into(),
        );
        stmts
    }

    fn post_load(&self, n_points: usize) -> Vec<Stmt> {
        let mut stmts = vec![seed_gmm(&self.names, n_points, self.p)];
        stmts.extend(seed_cr(&self.names, self.p, self.k + 1));
        stmts
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = vec![det_r_update(n, p)];
        // The k+1 transposes of C and R into CR (§3.5); zero covariances
        // become 1 inside CR (§2.5).
        stmts.extend(transpose_c(n, p, k));
        stmts.push(Stmt::new(
            "E: transpose R into CR (zero-guarded)",
            format!(
                "UPDATE {cr} FROM {r} SET r = CASE {arms} END",
                cr = n.cr(),
                r = n.r(),
                arms = transpose_r_arms(n, p),
            ),
        ));

        // Distances: the one pn-row scan (Fig. 9 second statement).
        stmts.extend(recreate(&n.yd(), &yd_body(k)));
        let dist_terms = unroll(k, ", ", |j| {
            format!(
                "sum(({y}.val - {cr}.c{j}) ** 2 / {cr}.r)",
                y = n.y(),
                cr = n.cr()
            )
        });
        stmts.push(Stmt::new(
            "E: Mahalanobis distances (YD, vertical)",
            format!(
                "INSERT INTO {yd} SELECT rid, {dist_terms} FROM {y}, {cr} \
                 WHERE {y}.v = {cr}.v GROUP BY rid",
                yd = n.yd(),
                y = n.y(),
                cr = n.cr(),
            ),
        ));

        // Probabilities and responsibilities: horizontal (Fig. 9), or
        // fused into one statement (§5 future work).
        if self.fused {
            stmts.extend(recreate(&n.yx(), &self.yx_body()));
            stmts.push(fused_yx_insert(n, k, false));
        } else {
            stmts.extend(yp_then_yx(n, k));
        }
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        // Means: k INSERT…SELECT joining Z and YX on RID (Fig. 10 top).
        let mut stmts = mean_inserts(n, p, k);

        // Weights + llh (Fig. 10 middle).
        stmts.extend(w_update(n, k));

        // Per-cluster covariances into RK (Fig. 10 bottom), then the
        // global R = Σ_j RK_j / n.
        stmts.push(Stmt::new(
            "M: clear RK",
            format!("DELETE FROM {rk}", rk = n.rk()),
        ));
        for j in 1..=k {
            let cols = unroll(p, ", ", |d| {
                format!(
                    "sum(x{j} * ({z}.y{d} - {c}.y{d}) ** 2)",
                    z = n.z(),
                    c = n.c()
                )
            });
            stmts.push(Stmt::new(
                format!("M: covariance contribution of cluster {j} (RK)"),
                format!(
                    "INSERT INTO {rk} SELECT {j}, {cols} FROM {z}, {c}, {yx} \
                     WHERE {z}.rid = {yx}.rid AND {c}.i = {j}",
                    rk = n.rk(),
                    z = n.z(),
                    c = n.c(),
                    yx = n.yx(),
                ),
            ));
        }
        stmts.push(Stmt::new(
            "M: clear R",
            format!("DELETE FROM {r}", r = n.r()),
        ));
        let r_cols = unroll(p, ", ", |d| format!("sum(y{d} / {gmm}.n)", gmm = n.gmm()));
        stmts.push(Stmt::new(
            "M: global covariance R = ΣRK/n",
            format!(
                "INSERT INTO {r} SELECT {r_cols} FROM {rk}, {gmm}",
                r = n.r(),
                rk = n.rk(),
                gmm = n.gmm(),
            ),
        ));
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

    fn write_params(&self, params: &GmmParams) -> Vec<Stmt> {
        let n = &self.names;
        assert_eq!((params.k(), params.p()), (self.k, self.p));
        let mut stmts = write_keyed(&n.c(), "C", &params.means);
        stmts.extend(write_row(&n.r(), "R", params.cov.clone()));
        stmts.extend(write_row(
            &n.w(),
            "W",
            [&params.weights[..], &[0.0]].concat(),
        ));
        stmts
    }

    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<GmmParams, SqlemError> {
        let n = &self.names;
        let y_cols = unroll(self.p, ", ", |d| format!("y{d}"));
        Ok(GmmParams {
            means: read_keyed(db, &n.c(), "C", self.p, self.k)?,
            cov: read_row(db, &n.r(), "R", &y_cols)?,
            weights: read_row(db, &n.w(), "W", &unroll(self.k, ", ", |j| format!("w{j}")))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::parser::parse;

    fn generator() -> HybridGenerator {
        HybridGenerator::new(Names::new(""), 3, 2)
    }

    #[test]
    fn all_statements_parse() {
        let g = generator();
        let mut all = g.create_tables();
        all.extend(g.post_load(100));
        all.extend(g.e_step());
        all.extend(g.m_step());
        all.extend(g.score_step());
        for s in &all {
            parse(&s.sql).unwrap_or_else(|e| panic!("{}: {e}\n{}", s.purpose, s.sql));
        }
        parse(&g.llh_sql()).unwrap();
    }

    #[test]
    fn distance_insert_is_vertical_with_group_by() {
        let g = generator();
        let e = g.e_step();
        let dist = e
            .iter()
            .find(|s| s.purpose.contains("Mahalanobis"))
            .unwrap();
        assert!(dist.sql.contains("GROUP BY rid"));
        assert!(dist.sql.contains("y.v = cr.v"));
        assert!(dist.sql.contains("sum((y.val - cr.c1) ** 2 / cr.r)"));
        assert!(dist.sql.contains("cr.c2"));
    }

    #[test]
    fn m_step_emits_k_mean_and_k_rk_inserts() {
        let g = generator();
        let m = g.m_step();
        let c_inserts = m
            .iter()
            .filter(|s| s.sql.starts_with("INSERT INTO c "))
            .count();
        let rk_inserts = m
            .iter()
            .filter(|s| s.sql.starts_with("INSERT INTO rk "))
            .count();
        assert_eq!(c_inserts, 2);
        assert_eq!(rk_inserts, 2);
    }

    #[test]
    fn transpose_guards_zero_covariance() {
        let g = generator();
        let e = g.e_step();
        let r_transpose = e
            .iter()
            .find(|s| s.purpose.contains("transpose R"))
            .unwrap();
        assert!(r_transpose.sql.contains("WHEN r.y1 = 0 THEN 1"));
    }

    #[test]
    fn statement_length_is_modest() {
        // The hybrid's point: no Θ(kp) expression. Even at the paper's
        // upper bound (p = k = 100, pk = 10 000) statements stay well
        // under a 64 KiB parser limit.
        let g = HybridGenerator::new(Names::new(""), 100, 100);
        assert!(
            g.longest_statement() < 64 * 1024,
            "longest = {}",
            g.longest_statement()
        );
    }

    #[test]
    fn prefix_propagates() {
        let g = HybridGenerator::new(Names::new("s9_"), 2, 2);
        for s in g.e_step() {
            assert!(
                !s.sql.contains(" yd ") || s.sql.contains("s9_yd"),
                "unprefixed: {}",
                s.sql
            );
        }
    }
}
