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

use crate::config::Strategy;
use crate::error::SqlemError;
use crate::generator::{
    create_table, det_r_update, double_cols, horizontal_score, read_f64_grid, recreate,
    two_pi_p_div2, values_insert, values_insert_chunked, w_update, yp_insert, yx_insert, Generator,
    Stmt,
};
use crate::naming::Names;
use crate::sqlfmt::lit;

/// Generator for [`Strategy::Hybrid`].
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

    /// The fused-YX schema body: the intermediate densities stay visible
    /// as columns (lateral aliases are materialized), so the row is wider
    /// — the space-for-scans trade the paper's §3.6 block-size discussion
    /// anticipates.
    fn fused_yx_body(&self) -> String {
        format!(
            "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}, llh DOUBLE",
            double_cols("p", self.k),
            double_cols("x", self.k),
        )
    }

    /// The fused E-step statement replacing the YP + YX pair.
    fn fused_yx_insert(&self) -> Stmt {
        let n = &self.names;
        let k = self.k;
        let mut cols = vec!["rid".to_string()];
        for j in 1..=k {
            cols.push(format!(
                "w{j} / (twopipdiv2 * sqrtdetr) * exp(-0.5 * d{j}) AS p{j}"
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
        Stmt::new(
            "E: fused probabilities + responsibilities (YX)",
            format!(
                "INSERT INTO {yx} SELECT {cols} FROM {yd}, {gmm}, {w}",
                yx = n.yx(),
                cols = cols.join(", "),
                yd = n.yd(),
                gmm = n.gmm(),
                w = n.w(),
            ),
        )
    }

    /// The k+1 UPDATE statements transposing C and R into CR — the
    /// paper's "launching several UPDATE statements in parallel" (§3.5).
    /// Zero covariances become 1 inside CR (§2.5).
    fn transpose_cr(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = Vec::with_capacity(self.k + 1);
        for j in 1..=self.k {
            let arms = (1..=self.p)
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
        let arms = (1..=self.p)
            .map(|d| {
                format!(
                    "WHEN {cr}.v = {d} THEN (CASE WHEN {r}.y{d} = 0 THEN 1 ELSE {r}.y{d} END)",
                    cr = n.cr(),
                    r = n.r(),
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        stmts.push(Stmt::new(
            "E: transpose R into CR (zero-guarded)",
            format!(
                "UPDATE {cr} FROM {r} SET r = CASE {arms} END",
                cr = n.cr(),
                r = n.r(),
            ),
        ));
        stmts
    }
}

impl Generator for HybridGenerator {
    fn strategy(&self) -> Strategy {
        Strategy::Hybrid
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
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
            n.yd(),
            format!("rid BIGINT PRIMARY KEY, {}", double_cols("d", k)),
        );
        if !self.fused {
            add(
                n.yp(),
                format!(
                    "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}",
                    double_cols("p", k),
                    double_cols("d", k)
                ),
            );
        }
        let yx_body = if self.fused {
            self.fused_yx_body()
        } else {
            format!(
                "rid BIGINT PRIMARY KEY, {}, llh DOUBLE",
                double_cols("x", k)
            )
        };
        add(n.yx(), yx_body);
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
        let n = &self.names;
        let mut stmts = vec![Stmt::new(
            "seed GMM (n, (2π)^{p/2})",
            format!(
                "INSERT INTO {gmm} VALUES ({n_points}, {tp}, 0, 0)",
                gmm = n.gmm(),
                tp = lit(two_pi_p_div2(self.p)),
            ),
        )];
        // CR skeleton: one row per dimension; the transpose UPDATEs fill
        // the C/R columns each iteration.
        let rows: Vec<(Vec<i64>, Vec<f64>)> = (1..=self.p as i64)
            .map(|v| (vec![v], vec![0.0; self.k + 1]))
            .collect();
        stmts.extend(values_insert_chunked(
            "seed CR skeleton",
            &n.cr(),
            &rows,
            4096,
        ));
        stmts
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = Vec::new();
        stmts.push(det_r_update(n, p));
        stmts.extend(self.transpose_cr());

        // Distances: the one pn-row scan (Fig. 9 second statement).
        stmts.extend(recreate(
            &n.yd(),
            &format!("rid BIGINT PRIMARY KEY, {}", double_cols("d", k)),
        ));
        let dist_terms = (1..=k)
            .map(|j| {
                format!(
                    "sum(({y}.val - {cr}.c{j}) ** 2 / {cr}.r)",
                    y = n.y(),
                    cr = n.cr(),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
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
            stmts.extend(recreate(&n.yx(), &self.fused_yx_body()));
            stmts.push(self.fused_yx_insert());
        } else {
            stmts.extend(recreate(
                &n.yp(),
                &format!(
                    "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}",
                    double_cols("p", k),
                    double_cols("d", k)
                ),
            ));
            stmts.push(yp_insert(n, k));
            stmts.extend(recreate(
                &n.yx(),
                &format!(
                    "rid BIGINT PRIMARY KEY, {}, llh DOUBLE",
                    double_cols("x", k)
                ),
            ));
            stmts.push(yx_insert(n, k));
        }
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = Vec::new();

        // Means: k INSERT…SELECT joining Z and YX on RID (Fig. 10 top).
        stmts.push(Stmt::new(
            "M: clear C",
            format!("DELETE FROM {c}", c = n.c()),
        ));
        for j in 1..=k {
            let cols = (1..=p)
                .map(|d| format!("sum({z}.y{d} * x{j}) / sum(x{j})", z = n.z(),))
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

        // Weights + llh (Fig. 10 middle).
        stmts.extend(w_update(n, k));

        // Per-cluster covariances into RK (Fig. 10 bottom), then the
        // global R = Σ_j RK_j / n.
        stmts.push(Stmt::new(
            "M: clear RK",
            format!("DELETE FROM {rk}", rk = n.rk()),
        ));
        for j in 1..=k {
            let cols = (1..=p)
                .map(|d| {
                    format!(
                        "sum(x{j} * ({z}.y{d} - {c}.y{d}) ** 2)",
                        z = n.z(),
                        c = n.c(),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
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
        let r_cols = (1..=p)
            .map(|d| format!("sum(y{d} / {gmm}.n)", gmm = n.gmm()))
            .collect::<Vec<_>>()
            .join(", ");
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
        format!("SELECT llh FROM {w}", w = self.names.w())
    }

    fn write_params(&self, params: &GmmParams) -> Vec<Stmt> {
        let n = &self.names;
        assert_eq!(params.k(), self.k);
        assert_eq!(params.p(), self.p);
        let c_rows: Vec<(Vec<i64>, Vec<f64>)> = params
            .means
            .iter()
            .enumerate()
            .map(|(j, m)| (vec![j as i64 + 1], m.clone()))
            .collect();
        let mut w_row = params.weights.clone();
        w_row.push(0.0); // llh column
        let mut stmts = vec![Stmt::new("init: clear C", format!("DELETE FROM {}", n.c()))];
        stmts.extend(values_insert_chunked(
            "init: write C",
            &n.c(),
            &c_rows,
            4096,
        ));
        stmts.push(Stmt::new("init: clear R", format!("DELETE FROM {}", n.r())));
        stmts.push(values_insert(
            "init: write R",
            &n.r(),
            &[(vec![], params.cov.clone())],
        ));
        stmts.push(Stmt::new("init: clear W", format!("DELETE FROM {}", n.w())));
        stmts.push(values_insert("init: write W", &n.w(), &[(vec![], w_row)]));
        stmts
    }

    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<GmmParams, SqlemError> {
        let n = &self.names;
        let c_cols = (1..=self.p)
            .map(|d| format!("y{d}"))
            .collect::<Vec<_>>()
            .join(", ");
        let means = read_f64_grid(
            db,
            &format!("SELECT {c_cols} FROM {c} ORDER BY i", c = n.c()),
            "read C",
        )?;
        if means.len() != self.k {
            return Err(SqlemError::BadParamTable(format!(
                "C has {} rows, expected {}",
                means.len(),
                self.k
            )));
        }
        let cov_rows = read_f64_grid(
            db,
            &format!("SELECT {c_cols} FROM {r}", r = n.r()),
            "read R",
        )?;
        let cov = cov_rows
            .into_iter()
            .next()
            .ok_or_else(|| SqlemError::BadParamTable("R is empty".into()))?;
        let w_cols = (1..=self.k)
            .map(|j| format!("w{j}"))
            .collect::<Vec<_>>()
            .join(", ");
        let w_rows = read_f64_grid(
            db,
            &format!("SELECT {w_cols} FROM {w}", w = n.w()),
            "read W",
        )?;
        let weights = w_rows
            .into_iter()
            .next()
            .ok_or_else(|| SqlemError::BadParamTable("W is empty".into()))?;
        Ok(GmmParams {
            means,
            cov,
            weights,
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
