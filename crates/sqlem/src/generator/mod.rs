//! The SQL code generators: one per strategy (paper §3).
//!
//! A generator turns `(p, k, table names)` into fixed SQL text: DDL, the
//! E-step statements, the M-step statements and the scoring statements.
//! None of the per-iteration SQL embeds literals derived from data — the
//! mixture parameters live in tables (C, R, W, GMM, CR) and every update
//! is relational — so each step's text is generated once and re-executed
//! every iteration, exactly like the paper's Java generator did over JDBC.

mod horizontal;
mod hybrid;
mod vertical;

pub use horizontal::HorizontalGenerator;
pub use hybrid::HybridGenerator;
pub use vertical::VerticalGenerator;

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::config::{SqlemConfig, Strategy};
use crate::error::SqlemError;
use crate::naming::Names;
use crate::sqlfmt::lit;

/// One generated statement with a human-readable purpose tag (used in
/// error reports, the `sql_trace` example and the EXPLAIN-style docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What this statement does, e.g. `"E: Mahalanobis distances"`.
    pub purpose: String,
    /// The SQL text.
    pub sql: String,
}

impl Stmt {
    /// Build a statement.
    pub fn new(purpose: impl Into<String>, sql: impl Into<String>) -> Self {
        Stmt {
            purpose: purpose.into(),
            sql: sql.into(),
        }
    }
}

/// A strategy's SQL generator.
pub trait Generator {
    /// Which strategy this is.
    fn strategy(&self) -> Strategy;

    /// DDL creating every table the strategy uses (idempotent:
    /// `DROP TABLE IF EXISTS` + `CREATE TABLE`).
    fn create_tables(&self) -> Vec<Stmt>;

    /// Statements to run once after the points are loaded: seed GMM with
    /// `n` and the density constant, plus any skeleton rows (hybrid CR).
    fn post_load(&self, n: usize) -> Vec<Stmt>;

    /// The E step (Fig. 5 / 7 / 9): distances → probabilities →
    /// responsibilities, including work-table refresh.
    fn e_step(&self) -> Vec<Stmt>;

    /// The M step (Fig. 10 and §3.3–3.4 prose): means, weights,
    /// covariances.
    fn m_step(&self) -> Vec<Stmt>;

    /// Scoring: materialize each point's winning cluster into `YS`
    /// (the paper's `score` column, via the X/XMAX tables of Fig. 8).
    fn score_step(&self) -> Vec<Stmt>;

    /// SQL that returns the current iteration's total loglikelihood
    /// (one row, one column; NULL-skipping semantics per §2.5).
    fn llh_sql(&self) -> String;

    /// Statements writing explicit parameters into the C/R/W tables
    /// (initialization, or restoring a checkpoint).
    fn write_params(&self, params: &GmmParams) -> Vec<Stmt>;

    /// Read the current parameters back from the C/R/W tables (through
    /// any [`SqlExecutor`] — in-process or remote).
    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<GmmParams, SqlemError>;

    /// Length in bytes of the longest statement this generator emits —
    /// the §3.3 parser-limit analysis.
    fn longest_statement(&self) -> usize {
        let mut all = self.create_tables();
        all.extend(self.post_load(1_000_000_000));
        all.extend(self.e_step());
        all.extend(self.m_step());
        all.extend(self.score_step());
        all.iter().map(|s| s.sql.len()).max().unwrap_or(0)
    }
}

/// Instantiate the generator for a configuration.
pub fn build_generator(config: &SqlemConfig, p: usize) -> Box<dyn Generator> {
    let names = Names::new(&config.table_prefix);
    match config.strategy {
        Strategy::Horizontal => Box::new(HorizontalGenerator::new(names, p, config.k)),
        Strategy::Vertical => Box::new(VerticalGenerator::new(names, p, config.k)),
        Strategy::Hybrid if config.fused_e_step => {
            Box::new(HybridGenerator::new_fused(names, p, config.k))
        }
        Strategy::Hybrid => Box::new(HybridGenerator::new(names, p, config.k)),
    }
}

// -------------------------------------------------------------------
// Shared fragments
// -------------------------------------------------------------------

/// `(2π)^{p/2}` — the `twopipdiv2` constant stored in GMM (§3.2).
pub(crate) fn two_pi_p_div2(p: usize) -> f64 {
    (2.0 * std::f64::consts::PI).powf(p as f64 / 2.0)
}

/// Zero-guarded covariance reference: `CASE WHEN r.y{d} = 0 THEN 1 ELSE
/// r.y{d} END` (§2.5: "null covariances are handled by inserting a 1").
pub(crate) fn guarded_r(r_table: &str, d: usize) -> String {
    format!("CASE WHEN {r_table}.y{d} = 0 THEN 1 ELSE {r_table}.y{d} END")
}

/// The `UPDATE GMM FROM R SET detR = …, sqrtdetR = detR ** 0.5` statement
/// shared by the horizontal and hybrid strategies (Fig. 9 line 1, with
/// zero-covariance skipping in the product).
pub(crate) fn det_r_update(names: &Names, p: usize) -> Stmt {
    let prod = (1..=p)
        .map(|d| format!("({})", guarded_r(&names.r(), d)))
        .collect::<Vec<_>>()
        .join(" * ");
    Stmt::new(
        "E: |R| and sqrt|R| into GMM",
        format!(
            "UPDATE {gmm} FROM {r} SET detr = {prod}, sqrtdetr = detr ** 0.5",
            gmm = names.gmm(),
            r = names.r(),
        ),
    )
}

/// Setup DDL for one table, idempotent: `DROP TABLE IF EXISTS` +
/// `CREATE TABLE`.
pub(crate) fn create_table(table: &str, ddl_body: &str) -> [Stmt; 2] {
    [
        Stmt::new(
            format!("DDL: drop {table}"),
            format!("DROP TABLE IF EXISTS {table}"),
        ),
        Stmt::new(
            format!("DDL: create {table}"),
            format!("CREATE TABLE {table} ({ddl_body})"),
        ),
    ]
}

/// The same pair mid-iteration, for an n-row work table (§3.6: "for a
/// big table it is faster to drop and create than deleting all the
/// records").
pub(crate) fn recreate(table: &str, ddl_body: &str) -> [Stmt; 2] {
    let [drop, create] = create_table(table, ddl_body);
    [
        Stmt::new(format!("refresh {table}: drop"), drop.sql),
        Stmt::new(format!("refresh {table}: create"), create.sql),
    ]
}

/// Column-definition list `y1 DOUBLE, y2 DOUBLE, …`.
pub(crate) fn double_cols(stem: &str, count: usize) -> String {
    (1..=count)
        .map(|i| format!("{stem}{i} DOUBLE"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The horizontal-layout YP insert shared by the horizontal and hybrid
/// strategies (Fig. 9 middle): densities, `sump`, `suminvd`, and the
/// distances passed through for the YX fallback.
///
/// Note on fidelity: Fig. 9's YX statement reads `d1…dk` from YP although
/// Fig. 8 omits them from YP's schema — an inconsistency in the paper. We
/// carry the distances through YP so the published YX statement is
/// well-formed (see DESIGN.md §5).
pub(crate) fn yp_insert(names: &Names, k: usize) -> Stmt {
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
        cols.push(format!("d{j}"));
    }
    Stmt::new(
        "E: normal probabilities (YP)",
        format!(
            "INSERT INTO {yp} SELECT {cols} FROM {yd}, {gmm}, {w}",
            yp = names.yp(),
            cols = cols.join(", "),
            yd = names.yd(),
            gmm = names.gmm(),
            w = names.w(),
        ),
    )
}

/// The horizontal-layout YX insert shared by the horizontal and hybrid
/// strategies (Fig. 9 bottom): responsibilities with the §2.5 fallback and
/// the NULL-when-underflowed llh cell.
pub(crate) fn yx_insert(names: &Names, k: usize) -> Stmt {
    let mut cols = vec!["rid".to_string()];
    for j in 1..=k {
        cols.push(format!(
            "CASE WHEN sump > 0 THEN p{j} / sump \
             ELSE (1 / (d{j} + 1.0E-100)) / suminvd END"
        ));
    }
    cols.push("CASE WHEN sump > 0 THEN ln(sump) END".to_string());
    Stmt::new(
        "E: responsibilities (YX)",
        format!(
            "INSERT INTO {yx} SELECT {cols} FROM {yp}",
            yx = names.yx(),
            cols = cols.join(", "),
            yp = names.yp(),
        ),
    )
}

/// Weight update shared by the horizontal and hybrid strategies (Fig. 10):
/// `W' = Σ x`, llh alongside, then `W = W'/n`.
pub(crate) fn w_update(names: &Names, k: usize) -> Vec<Stmt> {
    let sums = (1..=k)
        .map(|j| format!("sum(x{j})"))
        .collect::<Vec<_>>()
        .join(", ");
    let divs = (1..=k)
        .map(|j| format!("w{j} = w{j} / {gmm}.n", gmm = names.gmm()))
        .collect::<Vec<_>>()
        .join(", ");
    vec![
        Stmt::new("M: clear W", format!("DELETE FROM {w}", w = names.w())),
        Stmt::new(
            "M: accumulate W' and llh",
            format!(
                "INSERT INTO {w} SELECT {sums}, sum(llh) FROM {yx}",
                w = names.w(),
                yx = names.yx(),
            ),
        ),
        Stmt::new(
            "M: W = W'/n",
            format!(
                "UPDATE {w} FROM {gmm} SET {divs}",
                w = names.w(),
                gmm = names.gmm(),
            ),
        ),
    ]
}

/// Scoring via the X/XMAX tables of Fig. 8, for strategies whose YX is
/// horizontal: pivot responsibilities vertically, take per-point maxima,
/// then record the argmax cluster (ties broken toward the lower index).
pub(crate) fn horizontal_score(names: &Names, k: usize) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    stmts.extend(recreate(
        &names.x(),
        "rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i)",
    ));
    for j in 1..=k {
        stmts.push(Stmt::new(
            format!("score: pivot x{j} into X"),
            format!(
                "INSERT INTO {x} SELECT rid, {j}, x{j} FROM {yx}",
                x = names.x(),
                yx = names.yx(),
            ),
        ));
    }
    stmts.extend(recreate(
        &names.xmax(),
        "rid BIGINT PRIMARY KEY, maxx DOUBLE",
    ));
    stmts.push(Stmt::new(
        "score: per-point max responsibility (XMAX)",
        format!(
            "INSERT INTO {xmax} SELECT rid, max(x) FROM {x} GROUP BY rid",
            xmax = names.xmax(),
            x = names.x(),
        ),
    ));
    stmts.extend(recreate(
        &names.ys(),
        "rid BIGINT PRIMARY KEY, score BIGINT",
    ));
    stmts.push(Stmt::new(
        "score: argmax cluster (YS)",
        format!(
            "INSERT INTO {ys} SELECT {x}.rid, min({x}.i) FROM {x}, {xmax} \
             WHERE {x}.rid = {xmax}.rid AND {x}.x = {xmax}.maxx GROUP BY {x}.rid",
            ys = names.ys(),
            x = names.x(),
            xmax = names.xmax(),
        ),
    ));
    stmts
}

/// Multi-row `INSERT INTO t VALUES …` from literal f64 rows, each row
/// prefixed by optional integer keys.
pub(crate) fn values_insert(purpose: &str, table: &str, rows: &[(Vec<i64>, Vec<f64>)]) -> Stmt {
    let rows_sql = rows
        .iter()
        .map(|(keys, vals)| {
            let mut parts: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
            parts.extend(vals.iter().map(|v| lit(*v)));
            format!("({})", parts.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ");
    Stmt::new(purpose, format!("INSERT INTO {table} VALUES {rows_sql}"))
}

/// Like [`values_insert`] but split into multiple statements so each
/// stays under `max_len` bytes — parameter writes (k×p literals) must not
/// trip the very parser limit the hybrid strategy exists to avoid.
pub(crate) fn values_insert_chunked(
    purpose: &str,
    table: &str,
    rows: &[(Vec<i64>, Vec<f64>)],
    max_len: usize,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut chunk: Vec<(Vec<i64>, Vec<f64>)> = Vec::new();
    let mut chunk_len = 0usize;
    let flush = |chunk: &mut Vec<(Vec<i64>, Vec<f64>)>, out: &mut Vec<Stmt>| {
        if !chunk.is_empty() {
            out.push(values_insert(purpose, table, chunk));
            chunk.clear();
        }
    };
    for row in rows {
        // ~24 bytes per literal is a safe overestimate.
        let row_len = 8 + 24 * (row.0.len() + row.1.len());
        if chunk_len + row_len > max_len && !chunk.is_empty() {
            flush(&mut chunk, &mut out);
            chunk_len = 0;
        }
        chunk.push(row.clone());
        chunk_len += row_len;
    }
    flush(&mut chunk, &mut out);
    out
}

/// Run a read-back query expecting `rows × cols` of f64 (NULL rejected).
pub(crate) fn read_f64_grid(
    db: &mut dyn SqlExecutor,
    sql: &str,
    what: &str,
) -> Result<Vec<Vec<f64>>, SqlemError> {
    let result = db.execute(sql).map_err(|e| SqlemError::from_sql(what, e))?;
    result
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        SqlemError::BadParamTable(format!("{what}: non-numeric cell {v}"))
                    })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pi_constant() {
        assert!((two_pi_p_div2(2) - 2.0 * std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(two_pi_p_div2(0), 1.0);
    }

    #[test]
    fn guarded_r_text() {
        assert_eq!(guarded_r("r", 2), "CASE WHEN r.y2 = 0 THEN 1 ELSE r.y2 END");
    }

    #[test]
    fn det_r_update_parses() {
        let names = Names::new("");
        let stmt = det_r_update(&names, 3);
        sqlengine::parser::parse(&stmt.sql).unwrap();
        assert!(stmt.sql.contains("detr ** 0.5"));
    }

    #[test]
    fn yp_and_yx_inserts_parse() {
        let names = Names::new("");
        for k in [1, 2, 9, 20] {
            sqlengine::parser::parse(&yp_insert(&names, k).sql).unwrap();
            sqlengine::parser::parse(&yx_insert(&names, k).sql).unwrap();
        }
    }

    #[test]
    fn w_update_parses_and_orders() {
        let names = Names::new("");
        let stmts = w_update(&names, 4);
        assert_eq!(stmts.len(), 3);
        for s in &stmts {
            sqlengine::parser::parse(&s.sql).unwrap();
        }
        assert!(stmts[0].sql.starts_with("DELETE"));
        assert!(stmts[2].sql.starts_with("UPDATE"));
    }

    #[test]
    fn score_statements_parse() {
        let names = Names::new("pfx_");
        for s in horizontal_score(&names, 3) {
            sqlengine::parser::parse(&s.sql).unwrap();
            // Every referenced table carries the prefix.
            assert!(!s.sql.contains(" x,"), "unprefixed table in {}", s.sql);
        }
    }

    #[test]
    fn values_insert_formats_keys_and_literals() {
        let s = values_insert(
            "init",
            "c",
            &[(vec![1], vec![0.5, -2.0]), (vec![2], vec![1.0e-100, 3.0])],
        );
        assert_eq!(s.sql, "INSERT INTO c VALUES (1, 0.5, -2), (2, 1e-100, 3)");
        sqlengine::parser::parse(&s.sql).unwrap();
    }
}
