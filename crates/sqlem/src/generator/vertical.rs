//! The vertical strategy (paper §3.4, Figs. 6–7).
//!
//! Everything is long and thin: points `Y(RID, v, val)` with `pn` rows,
//! means `C(i, v, val)` with `pk` rows, covariances `R(v, val)` with `p`
//! rows, and all per-point-per-cluster quantities as `kn`-row tables
//! keyed `(RID, i)`. Every computation is a join + GROUP BY, so nothing
//! ever hits a parser limit — but the M step flows through `kpn`-row
//! intermediates (the `CTMP` aggregation input and the materialized `YC`
//! table), which is why the paper calls this "the most flexible approach,
//! but also the most inefficient" (§5).
//!
//! Even the determinant is awkward vertically: SQL has no product
//! aggregate, so `|R|` is staged through `exp(Σ ln r)` with zero entries
//! skipped (§2.5) in a one-row scratch table `DETT`.

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::error::SqlemError;
use crate::generator::{
    create_table, point_tables, read_f64_grid, recreate, seed_gmm, values_insert_chunked,
    Generator, Stmt,
};
use crate::naming::Names;

/// Generator for [`crate::Strategy::Vertical`].
#[derive(Debug, Clone)]
pub struct VerticalGenerator {
    names: Names,
    p: usize,
    k: usize,
}

impl VerticalGenerator {
    /// Build for `p` dimensions and `k` clusters.
    pub fn new(names: Names, p: usize, k: usize) -> Self {
        assert!(p >= 1 && k >= 1);
        VerticalGenerator { names, p, k }
    }
}

impl Generator for VerticalGenerator {
    type Params = GmmParams;

    fn name(&self) -> &'static str {
        "vertical"
    }

    fn layouts(&self) -> (bool, bool) {
        (false, true)
    }

    fn expected_scans(&self) -> (usize, usize) {
        (1, 9)
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = point_tables(n, self.p, self.layouts());
        let mut add = |table: String, body: &str| stmts.extend(create_table(&table, body));
        add(
            n.yd(),
            "rid BIGINT, i BIGINT, d DOUBLE, PRIMARY KEY (rid, i)",
        );
        add(
            n.yp(),
            "rid BIGINT, i BIGINT, p DOUBLE, PRIMARY KEY (rid, i)",
        );
        add(
            n.ysump(),
            "rid BIGINT PRIMARY KEY, sump DOUBLE, suminvd DOUBLE, llh DOUBLE",
        );
        add(
            n.yx(),
            "rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i)",
        );
        add(n.c(), "i BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (i, v)");
        add(n.r(), "v BIGINT PRIMARY KEY, val DOUBLE");
        add(n.w(), "i BIGINT PRIMARY KEY, w DOUBLE");
        add(
            n.gmm(),
            "n BIGINT, twopipdiv2 DOUBLE, detr DOUBLE, sqrtdetr DOUBLE",
        );
        add(
            n.ctmp(),
            "i BIGINT, v BIGINT, cv DOUBLE, PRIMARY KEY (i, v)",
        );
        add(n.wv(), "i BIGINT PRIMARY KEY, sw DOUBLE");
        add(
            n.yc(),
            "rid BIGINT, i BIGINT, v BIGINT, sq DOUBLE, PRIMARY KEY (rid, i, v)",
        );
        add(n.dett(), "d DOUBLE");
        add(n.xmax(), "rid BIGINT PRIMARY KEY, maxx DOUBLE");
        add(n.ys(), "rid BIGINT PRIMARY KEY, score BIGINT");
        stmts
    }

    fn post_load(&self, n_points: usize) -> Vec<Stmt> {
        vec![seed_gmm(&self.names, n_points, self.p)]
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = Vec::new();

        // |R| via exp(Σ ln), skipping zero covariances (§2.5).
        stmts.extend(recreate(&n.dett(), "d DOUBLE"));
        stmts.push(Stmt::new(
            "E: |R| staged through exp(Σ ln r) (DETT)",
            format!(
                "INSERT INTO {dett} SELECT \
                 exp(sum(CASE WHEN val = 0 THEN 0 ELSE ln(val) END)) FROM {r}",
                dett = n.dett(),
                r = n.r(),
            ),
        ));
        stmts.push(Stmt::new(
            "E: detR/sqrtdetR into GMM",
            format!(
                "UPDATE {gmm} FROM {dett} SET detr = {dett}.d, sqrtdetr = detr ** 0.5",
                gmm = n.gmm(),
                dett = n.dett(),
            ),
        ));

        // Distances (Fig. 7 first statement), zero covariances guarded.
        stmts.extend(recreate(
            &n.yd(),
            "rid BIGINT, i BIGINT, d DOUBLE, PRIMARY KEY (rid, i)",
        ));
        stmts.push(Stmt::new(
            "E: Mahalanobis distances (YD)",
            format!(
                "INSERT INTO {yd} SELECT rid, {c}.i, \
                 sum(({y}.val - {c}.val) ** 2 / \
                 (CASE WHEN {r}.val = 0 THEN 1 ELSE {r}.val END)) AS d \
                 FROM {y}, {c}, {r} WHERE {y}.v = {c}.v AND {c}.v = {r}.v \
                 GROUP BY rid, {c}.i",
                yd = n.yd(),
                y = n.y(),
                c = n.c(),
                r = n.r(),
            ),
        ));

        // Probabilities (Fig. 7 second statement).
        stmts.extend(recreate(
            &n.yp(),
            "rid BIGINT, i BIGINT, p DOUBLE, PRIMARY KEY (rid, i)",
        ));
        stmts.push(Stmt::new(
            "E: normal probabilities (YP)",
            format!(
                "INSERT INTO {yp} SELECT rid, {yd}.i, \
                 w / (twopipdiv2 * sqrtdetr) * exp(-0.5 * d) AS p \
                 FROM {yd}, {w}, {gmm} WHERE {yd}.i = {w}.i",
                yp = n.yp(),
                yd = n.yd(),
                w = n.w(),
                gmm = n.gmm(),
            ),
        ));

        // Per-point Σp, Σ1/d and llh (YSUMP).
        stmts.extend(recreate(
            &n.ysump(),
            "rid BIGINT PRIMARY KEY, sump DOUBLE, suminvd DOUBLE, llh DOUBLE",
        ));
        stmts.push(Stmt::new(
            "E: per-point sums (YSUMP)",
            format!(
                "INSERT INTO {ysump} SELECT {yd}.rid, sum({yp}.p), \
                 sum(1 / ({yd}.d + 1.0E-100)), \
                 CASE WHEN sum({yp}.p) > 0 THEN ln(sum({yp}.p)) END \
                 FROM {yd}, {yp} WHERE {yd}.rid = {yp}.rid AND {yd}.i = {yp}.i \
                 GROUP BY {yd}.rid",
                ysump = n.ysump(),
                yd = n.yd(),
                yp = n.yp(),
            ),
        ));

        // Responsibilities (Fig. 7 third statement + §2.5 fallback).
        stmts.extend(recreate(
            &n.yx(),
            "rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i)",
        ));
        stmts.push(Stmt::new(
            "E: responsibilities (YX)",
            format!(
                "INSERT INTO {yx} SELECT {yp}.rid, {yp}.i, \
                 CASE WHEN {ysump}.sump > 0 THEN {yp}.p / {ysump}.sump \
                 ELSE (1 / ({yd}.d + 1.0E-100)) / {ysump}.suminvd END \
                 FROM {yp}, {ysump}, {yd} \
                 WHERE {yp}.rid = {ysump}.rid AND {yp}.rid = {yd}.rid \
                 AND {yp}.i = {yd}.i",
                yx = n.yx(),
                yp = n.yp(),
                ysump = n.ysump(),
                yd = n.yd(),
            ),
        ));
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = Vec::new();

        // C' = Σ y·x via the kpn-row join of Y and YX (§3.4: "this JOIN
        // will produce pk rows for each of the n points").
        stmts.extend(recreate(
            &n.ctmp(),
            "i BIGINT, v BIGINT, cv DOUBLE, PRIMARY KEY (i, v)",
        ));
        stmts.push(Stmt::new(
            "M: C' = Σ y·x (CTMP, kpn-row join)",
            format!(
                "INSERT INTO {ctmp} SELECT {yx}.i, {y}.v, sum({y}.val * {yx}.x) \
                 FROM {y}, {yx} WHERE {y}.rid = {yx}.rid GROUP BY {yx}.i, {y}.v",
                ctmp = n.ctmp(),
                y = n.y(),
                yx = n.yx(),
            ),
        ));

        // W' = Σ x per cluster.
        stmts.extend(recreate(&n.wv(), "i BIGINT PRIMARY KEY, sw DOUBLE"));
        stmts.push(Stmt::new(
            "M: W' = Σ x (WV)",
            format!(
                "INSERT INTO {wv} SELECT i, sum(x) FROM {yx} GROUP BY i",
                wv = n.wv(),
                yx = n.yx(),
            ),
        ));

        // C = C'/W'.
        stmts.push(Stmt::new(
            "M: clear C",
            format!("DELETE FROM {c}", c = n.c()),
        ));
        stmts.push(Stmt::new(
            "M: C = C'/W'",
            format!(
                "INSERT INTO {c} SELECT {ctmp}.i, {ctmp}.v, {ctmp}.cv / {wv}.sw \
                 FROM {ctmp}, {wv} WHERE {ctmp}.i = {wv}.i",
                c = n.c(),
                ctmp = n.ctmp(),
                wv = n.wv(),
            ),
        ));

        // W = W'/n.
        stmts.push(Stmt::new(
            "M: clear W",
            format!("DELETE FROM {w}", w = n.w()),
        ));
        stmts.push(Stmt::new(
            "M: W = Σ x / n",
            format!(
                "INSERT INTO {w} SELECT i, sum(x / {gmm}.n) FROM {yx}, {gmm} GROUP BY i",
                w = n.w(),
                yx = n.yx(),
                gmm = n.gmm(),
            ),
        ));

        // Squared differences materialized as the kpn-row YC (§3.4).
        stmts.extend(recreate(
            &n.yc(),
            "rid BIGINT, i BIGINT, v BIGINT, sq DOUBLE, PRIMARY KEY (rid, i, v)",
        ));
        stmts.push(Stmt::new(
            "M: squared differences (YC, kpn rows materialized)",
            format!(
                "INSERT INTO {yc} SELECT {y}.rid, {c}.i, {y}.v, \
                 ({y}.val - {c}.val) ** 2 FROM {y}, {c} WHERE {y}.v = {c}.v",
                yc = n.yc(),
                y = n.y(),
                c = n.c(),
            ),
        ));

        // R = Σ x·sq / n per dimension.
        stmts.push(Stmt::new(
            "M: clear R",
            format!("DELETE FROM {r}", r = n.r()),
        ));
        stmts.push(Stmt::new(
            "M: R = Σ x·(y−C)² / n",
            format!(
                "INSERT INTO {r} SELECT {yc}.v, sum({yc}.sq * {yx}.x / {gmm}.n) \
                 FROM {yc}, {yx}, {gmm} \
                 WHERE {yc}.rid = {yx}.rid AND {yc}.i = {yx}.i GROUP BY {yc}.v",
                r = n.r(),
                yc = n.yc(),
                yx = n.yx(),
                gmm = n.gmm(),
            ),
        ));
        stmts
    }

    fn score_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = Vec::new();
        stmts.extend(recreate(&n.xmax(), "rid BIGINT PRIMARY KEY, maxx DOUBLE"));
        stmts.push(Stmt::new(
            "score: per-point max responsibility (XMAX)",
            format!(
                "INSERT INTO {xmax} SELECT rid, max(x) FROM {yx} GROUP BY rid",
                xmax = n.xmax(),
                yx = n.yx(),
            ),
        ));
        stmts.extend(recreate(&n.ys(), "rid BIGINT PRIMARY KEY, score BIGINT"));
        stmts.push(Stmt::new(
            "score: argmax cluster (YS)",
            format!(
                "INSERT INTO {ys} SELECT {yx}.rid, min({yx}.i) FROM {yx}, {xmax} \
                 WHERE {yx}.rid = {xmax}.rid AND {yx}.x = {xmax}.maxx \
                 GROUP BY {yx}.rid",
                ys = n.ys(),
                yx = n.yx(),
                xmax = n.xmax(),
            ),
        ));
        stmts
    }

    fn llh_sql(&self) -> String {
        format!("SELECT sum(llh) FROM {ysump}", ysump = self.names.ysump())
    }

    /// Read off WV, the per-cluster masses `C = C'/W'` divides by.
    fn dead_cluster(&self, db: &mut dyn SqlExecutor) -> Option<usize> {
        let sql = format!(
            "SELECT i FROM {wv} WHERE sw = 0.0 ORDER BY i",
            wv = self.names.wv()
        );
        let r = db.execute(&sql).ok()?;
        Some(r.rows.first()?[0].as_i64()? as usize)
    }

    fn write_params(&self, params: &GmmParams) -> Vec<Stmt> {
        let n = &self.names;
        assert_eq!(params.k(), self.k);
        assert_eq!(params.p(), self.p);
        let mut c_rows: Vec<(Vec<i64>, Vec<f64>)> = Vec::with_capacity(self.k * self.p);
        for (j, m) in params.means.iter().enumerate() {
            for (d, val) in m.iter().enumerate() {
                c_rows.push((vec![j as i64 + 1, d as i64 + 1], vec![*val]));
            }
        }
        let r_rows: Vec<(Vec<i64>, Vec<f64>)> = params
            .cov
            .iter()
            .enumerate()
            .map(|(d, val)| (vec![d as i64 + 1], vec![*val]))
            .collect();
        let w_rows: Vec<(Vec<i64>, Vec<f64>)> = params
            .weights
            .iter()
            .enumerate()
            .map(|(j, val)| (vec![j as i64 + 1], vec![*val]))
            .collect();
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
        stmts.extend(values_insert_chunked(
            "init: write W",
            &n.w(),
            &w_rows,
            4096,
        ));
        stmts
    }

    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<GmmParams, SqlemError> {
        let n = &self.names;
        let c_rows = read_f64_grid(
            db,
            &format!("SELECT val FROM {c} ORDER BY i, v", c = n.c()),
            "read C",
        )?;
        if c_rows.len() != self.k * self.p {
            return Err(SqlemError::BadParamTable(format!(
                "C has {} rows, expected {}",
                c_rows.len(),
                self.k * self.p
            )));
        }
        let means: Vec<Vec<f64>> = c_rows
            .chunks(self.p)
            .map(|chunk| chunk.iter().map(|r| r[0]).collect())
            .collect();
        let r_rows = read_f64_grid(
            db,
            &format!("SELECT val FROM {r} ORDER BY v", r = n.r()),
            "read R",
        )?;
        if r_rows.len() != self.p {
            return Err(SqlemError::BadParamTable(format!(
                "R has {} rows, expected {}",
                r_rows.len(),
                self.p
            )));
        }
        let cov: Vec<f64> = r_rows.iter().map(|r| r[0]).collect();
        let w_rows = read_f64_grid(
            db,
            &format!("SELECT w FROM {w} ORDER BY i", w = n.w()),
            "read W",
        )?;
        if w_rows.len() != self.k {
            return Err(SqlemError::BadParamTable(format!(
                "W has {} rows, expected {}",
                w_rows.len(),
                self.k
            )));
        }
        let weights: Vec<f64> = w_rows.iter().map(|r| r[0]).collect();
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

    fn generator() -> VerticalGenerator {
        VerticalGenerator::new(Names::new(""), 3, 2)
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
    fn statement_size_is_independent_of_k_and_p() {
        // The vertical strategy's selling point (§3.4): no expression
        // grows with the problem size.
        let small = VerticalGenerator::new(Names::new(""), 2, 2).longest_statement();
        let big = VerticalGenerator::new(Names::new(""), 100, 100).longest_statement();
        // Only the GMM seed literal differs slightly.
        assert!(
            (big as i64 - small as i64).abs() < 32,
            "small {small}, big {big}"
        );
    }

    #[test]
    fn distance_statement_matches_fig7() {
        let g = generator();
        let e = g.e_step();
        let dist = e
            .iter()
            .find(|s| s.purpose.contains("Mahalanobis"))
            .unwrap();
        assert!(dist.sql.contains("GROUP BY rid, c.i"));
        assert!(dist.sql.contains("y.v = c.v AND c.v = r.v"));
    }

    #[test]
    fn m_step_materializes_yc() {
        let g = generator();
        let m = g.m_step();
        assert!(m
            .iter()
            .any(|s| s.purpose.contains("kpn rows materialized")));
    }

    #[test]
    fn write_params_emits_pk_rows_for_c() {
        let g = generator();
        let params = GmmParams::new(
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
            vec![1.0, 1.0, 1.0],
            vec![0.5, 0.5],
        );
        let stmts = g.write_params(&params);
        let c_insert = stmts.iter().find(|s| s.purpose == "init: write C").unwrap();
        // 2 clusters × 3 dims = 6 rows.
        assert_eq!(c_insert.sql.matches('(').count(), 6);
        for s in &stmts {
            parse(&s.sql).unwrap();
        }
    }
}
