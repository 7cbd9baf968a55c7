//! The horizontal strategy (paper §3.3, Figs. 4–5).
//!
//! Points live in one wide table `Z(RID, y1…yp)`; the means live in `k`
//! one-row tables `C1…CK` so that all `k` Mahalanobis distances come out
//! of a *single* SELECT over `Z × C1 × … × CK × R` — one table scan, no
//! GROUP BY. The price is the distance expression itself: `Θ(kp)`
//! characters, which is exactly what overwhelms real SQL parsers
//! ("50,000 characters … we haven't seen any DBMS handling an expression
//! this long", §3.3). [`Generator::longest_statement`] exposes the size
//! so the failure mode is measurable; running against an engine with a
//! realistic statement-length limit reproduces it.
//!
//! Probabilities, responsibilities, W and R reuse the same horizontal
//! shapes as the hybrid strategy; means update through `k` separate
//! one-row tables.

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::error::SqlemError;
use crate::generator::{
    create_table, det_r_update, double_cols, guarded_r, horizontal_score, point_tables, read_row,
    recreate, seed_gmm, w_llh_sql, w_update, write_row, yd_body, yp_body, yp_then_yx, yx_body,
    yx_dead_cluster, Generator, Stmt,
};
use crate::naming::Names;
use crate::sqlfmt::unroll;

/// Generator for [`crate::Strategy::Horizontal`].
#[derive(Debug, Clone)]
pub struct HorizontalGenerator {
    names: Names,
    p: usize,
    k: usize,
}

impl HorizontalGenerator {
    /// Build for `p` dimensions and `k` clusters.
    pub fn new(names: Names, p: usize, k: usize) -> Self {
        assert!(p >= 1 && k >= 1);
        HorizontalGenerator { names, p, k }
    }

    /// The Θ(kp)-character distance expression (Fig. 5 top): one term per
    /// cluster, each a `p`-term sum of zero-guarded squared differences.
    fn distance_select(&self) -> String {
        let n = &self.names;
        let mut cols = vec!["rid".to_string()];
        for j in 1..=self.k {
            cols.push(unroll(self.p, " + ", |d| {
                format!(
                    "({z}.y{d} - {cj}.y{d}) ** 2 / ({rg})",
                    z = n.z(),
                    cj = n.c_j(j),
                    rg = guarded_r(&n.r(), d),
                )
            }));
        }
        let froms = std::iter::once(n.z())
            .chain((1..=self.k).map(|j| n.c_j(j)))
            .chain(std::iter::once(n.r()))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "INSERT INTO {yd} SELECT {cols} FROM {froms}",
            yd = n.yd(),
            cols = cols.join(", "),
        )
    }

    /// Size in characters of the distance statement — the paper's
    /// `≈ 10·k·p` estimate, measurable.
    pub fn distance_statement_len(&self) -> usize {
        self.distance_select().len()
    }
}

impl Generator for HorizontalGenerator {
    type Params = GmmParams;

    fn name(&self) -> &'static str {
        "horizontal"
    }

    fn layouts(&self) -> (bool, bool) {
        (true, false)
    }

    fn expected_scans(&self) -> (usize, usize) {
        (2 * self.k + 4, 0)
    }

    fn create_tables(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = point_tables(n, p, self.layouts());
        let mut add = |table: String, body: String| stmts.extend(create_table(&table, &body));
        for j in 1..=k {
            add(n.c_j(j), double_cols("y", p));
        }
        add(n.yd(), yd_body(k));
        add(n.yp(), yp_body(k));
        add(n.yx(), yx_body(k));
        add(n.r(), double_cols("y", p));
        add(
            n.rk(),
            format!("i BIGINT PRIMARY KEY, {}", double_cols("y", p)),
        );
        add(n.w(), format!("{}, llh DOUBLE", double_cols("w", k)));
        add(
            n.gmm(),
            "n BIGINT, twopipdiv2 DOUBLE, detr DOUBLE, sqrtdetr DOUBLE".into(),
        );
        stmts
    }

    fn post_load(&self, n_points: usize) -> Vec<Stmt> {
        vec![seed_gmm(&self.names, n_points, self.p)]
    }

    fn e_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let mut stmts = vec![det_r_update(n, self.p)];
        stmts.extend(recreate(&n.yd(), &yd_body(self.k)));
        stmts.push(Stmt::new(
            "E: Mahalanobis distances (YD, one wide expression)",
            self.distance_select(),
        ));
        stmts.extend(yp_then_yx(n, self.k));
        stmts
    }

    fn m_step(&self) -> Vec<Stmt> {
        let n = &self.names;
        let (p, k) = (self.p, self.k);
        let mut stmts = Vec::new();

        // Means: k statements, one per one-row C table (§3.3 prose).
        for j in 1..=k {
            stmts.push(Stmt::new(
                format!("M: clear C{j}"),
                format!("DELETE FROM {cj}", cj = n.c_j(j)),
            ));
            let cols = unroll(p, ", ", |d| {
                format!("sum({z}.y{d} * x{j}) / sum(x{j})", z = n.z())
            });
            stmts.push(Stmt::new(
                format!("M: mean of cluster {j} (C{j})"),
                format!(
                    "INSERT INTO {cj} SELECT {cols} FROM {z}, {yx} \
                     WHERE {z}.rid = {yx}.rid",
                    cj = n.c_j(j),
                    z = n.z(),
                    yx = n.yx(),
                ),
            ));
        }

        stmts.extend(w_update(n, k));

        // Covariances: k per-cluster accumulations against the one-row
        // C{j} tables, then R = ΣRK/n.
        stmts.push(Stmt::new(
            "M: clear RK",
            format!("DELETE FROM {rk}", rk = n.rk()),
        ));
        for j in 1..=k {
            let cols = unroll(p, ", ", |d| {
                format!(
                    "sum(x{j} * ({z}.y{d} - {cj}.y{d}) ** 2)",
                    z = n.z(),
                    cj = n.c_j(j),
                )
            });
            stmts.push(Stmt::new(
                format!("M: covariance contribution of cluster {j} (RK)"),
                format!(
                    "INSERT INTO {rk} SELECT {j}, {cols} FROM {z}, {cj}, {yx} \
                     WHERE {z}.rid = {yx}.rid",
                    rk = n.rk(),
                    z = n.z(),
                    cj = n.c_j(j),
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
        let mut stmts = Vec::new();
        for (j, m) in (1..).zip(&params.means) {
            stmts.extend(write_row(&n.c_j(j), &format!("C{j}"), m.clone()));
        }
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
        let means = (1..=self.k)
            .map(|j| read_row(db, &n.c_j(j), &format!("C{j}"), &y_cols))
            .collect::<Result<_, _>>()?;
        Ok(GmmParams {
            means,
            cov: read_row(db, &n.r(), "R", &y_cols)?,
            weights: read_row(db, &n.w(), "W", &unroll(self.k, ", ", |j| format!("w{j}")))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::parser::parse;

    fn generator() -> HorizontalGenerator {
        HorizontalGenerator::new(Names::new(""), 3, 2)
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
    }

    #[test]
    fn distance_statement_joins_all_k_mean_tables() {
        let g = generator();
        let sql = g.distance_select();
        assert!(sql.contains("FROM z, c1, c2, r"));
        assert!(sql.contains("(z.y1 - c1.y1) ** 2"));
        assert!(sql.contains("(z.y3 - c2.y3) ** 2"));
        assert!(!sql.contains("GROUP BY"));
    }

    #[test]
    fn distance_expression_grows_as_theta_kp() {
        // The §3.3 scaling argument, measured: doubling k (or p)
        // roughly doubles the statement size.
        let base = HorizontalGenerator::new(Names::new(""), 10, 10).distance_statement_len();
        let double_k = HorizontalGenerator::new(Names::new(""), 10, 20).distance_statement_len();
        let double_p = HorizontalGenerator::new(Names::new(""), 20, 10).distance_statement_len();
        assert!(double_k as f64 > 1.8 * base as f64);
        assert!(double_p as f64 > 1.8 * base as f64);
        // And the paper's headline example: k = 50, p = 100 needs tens of
        // thousands of characters.
        let huge = HorizontalGenerator::new(Names::new(""), 100, 50).distance_statement_len();
        assert!(huge > 50_000, "len = {huge}");
    }

    #[test]
    fn longest_statement_is_the_distance_insert() {
        let g = HorizontalGenerator::new(Names::new(""), 30, 30);
        assert_eq!(g.longest_statement(), g.distance_statement_len());
    }

    #[test]
    fn means_live_in_k_separate_tables() {
        let g = generator();
        let ddl: Vec<String> = g.create_tables().into_iter().map(|s| s.sql).collect();
        assert!(ddl.iter().any(|s| s.starts_with("CREATE TABLE c1 ")));
        assert!(ddl.iter().any(|s| s.starts_with("CREATE TABLE c2 ")));
        assert!(!ddl.iter().any(|s| s.starts_with("CREATE TABLE c ")));
    }
}
