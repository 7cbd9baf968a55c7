//! The SQL code generators: one per strategy (paper §3), plus the two
//! models the paper names as extensions of the same EM — K-means (§2.2)
//! and per-cluster covariances (§2.1).
//!
//! A generator turns `(p, k, table names)` into fixed SQL text: DDL, the
//! E-step statements, the M-step statements and the scoring statements.
//! None of the per-iteration SQL embeds literals derived from data — the
//! mixture parameters live in tables (C, R, W, GMM, CR) and every update
//! is relational — so each step's text is generated once and re-executed
//! every iteration, exactly like the paper's Java generator did over JDBC.
//! A generator *is* the model: [`crate::EmSession`] runs any of them
//! through one loop.

mod horizontal;
mod hybrid;
mod kmeans;
mod percluster;
mod vertical;

pub use horizontal::HorizontalGenerator;
pub use hybrid::HybridGenerator;
pub use kmeans::KmeansGenerator;
pub use percluster::PerClusterGenerator;
pub use vertical::VerticalGenerator;

use emcore::GmmParams;
use sqlengine::SqlExecutor;

use crate::config::{SqlemConfig, Strategy};
use crate::error::SqlemError;
use crate::naming::Names;
use crate::params::ParamSet;
use crate::sqlfmt::{lit, unroll};

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

/// A model's SQL generator: E-step SQL, M-step SQL, parameter tables,
/// objective SQL, score SQL — and the facts about that script the
/// loader and the plan analysis need.
pub trait Generator {
    /// The parameter set the model's tables hold.
    type Params: ParamSet;

    /// Name in plan reports (`"hybrid"`, `"kmeans"`, …).
    fn name(&self) -> &'static str;

    /// Whether probabilities and responsibilities come out of one fused
    /// statement (§5 future work) — shown in plan reports.
    fn fused(&self) -> bool {
        false
    }

    /// Which point layouts the script reads: `(wide Z(RID, y1…yp), long
    /// Y(RID, v, val))`.
    fn layouts(&self) -> (bool, bool);

    /// The closed-form per-iteration base-table scan counts `(n-scans,
    /// pn-scans)` (§3.3–§3.5) the plan analysis verifies.
    fn expected_scans(&self) -> (usize, usize);

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

    /// SQL that returns the objective after an iteration (one row, one
    /// column): the loglikelihood, NULL-skipping per §2.5 — for K-means
    /// the SSE.
    fn llh_sql(&self) -> String;

    /// Statements writing explicit parameters into the parameter tables
    /// (initialization, or restoring a checkpoint).
    fn write_params(&self, params: &Self::Params) -> Vec<Stmt>;

    /// Read the current parameters back from the parameter tables
    /// (through any [`SqlExecutor`] — in-process or remote).
    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<Self::Params, SqlemError>;

    /// The 1-based cluster whose responsibility mass is zero, read off
    /// this strategy's tables after an M-step statement failed on
    /// arithmetic: the dead cluster a mean update divided by. `None`
    /// when every cluster has mass, or when the model's M step divides
    /// by no mass (K-means guards its update).
    fn dead_cluster(&self, db: &mut dyn SqlExecutor) -> Option<usize> {
        let _ = db;
        None
    }

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

impl<G: Generator + ?Sized> Generator for Box<G> {
    type Params = G::Params;
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn fused(&self) -> bool {
        (**self).fused()
    }
    fn layouts(&self) -> (bool, bool) {
        (**self).layouts()
    }
    fn expected_scans(&self) -> (usize, usize) {
        (**self).expected_scans()
    }
    fn create_tables(&self) -> Vec<Stmt> {
        (**self).create_tables()
    }
    fn post_load(&self, n: usize) -> Vec<Stmt> {
        (**self).post_load(n)
    }
    fn e_step(&self) -> Vec<Stmt> {
        (**self).e_step()
    }
    fn m_step(&self) -> Vec<Stmt> {
        (**self).m_step()
    }
    fn score_step(&self) -> Vec<Stmt> {
        (**self).score_step()
    }
    fn llh_sql(&self) -> String {
        (**self).llh_sql()
    }
    fn write_params(&self, params: &Self::Params) -> Vec<Stmt> {
        (**self).write_params(params)
    }
    fn read_params(&self, db: &mut dyn SqlExecutor) -> Result<Self::Params, SqlemError> {
        (**self).read_params(db)
    }
    fn dead_cluster(&self, db: &mut dyn SqlExecutor) -> Option<usize> {
        (**self).dead_cluster(db)
    }
}

/// Instantiate the configured strategy's generator (the paper's model).
pub fn build_generator(config: &SqlemConfig, p: usize) -> Box<dyn Generator<Params = GmmParams>> {
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
    let prod = unroll(p, " * ", |d| format!("({})", guarded_r(&names.r(), d)));
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
    unroll(count, ", ", |i| format!("{stem}{i} DOUBLE"))
}

/// The DDL of the point tables a generator's [`Generator::layouts`]
/// names: wide `Z(RID, y1…yp)`, long `Y(RID, v, val)`.
pub(crate) fn point_tables(names: &Names, p: usize, (wide, long): (bool, bool)) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    if wide {
        let body = format!("rid BIGINT PRIMARY KEY, {}", double_cols("y", p));
        stmts.extend(create_table(&names.z(), &body));
    }
    if long {
        let body = "rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v)";
        stmts.extend(create_table(&names.y(), body));
    }
    stmts
}

/// Seed the shared-R GMM row: `n`, `(2π)^{p/2}`, and the determinant
/// cells the E step fills.
pub(crate) fn seed_gmm(names: &Names, n_points: usize, p: usize) -> Stmt {
    Stmt::new(
        "seed GMM (n, (2π)^{p/2})",
        format!(
            "INSERT INTO {gmm} VALUES ({n_points}, {tp}, 0, 0)",
            gmm = names.gmm(),
            tp = lit(two_pi_p_div2(p)),
        ),
    )
}

/// The CR skeleton: one row per dimension, `width` zero columns the
/// transpose UPDATEs fill each iteration.
pub(crate) fn seed_cr(names: &Names, p: usize, width: usize) -> Vec<Stmt> {
    let rows: Vec<(Vec<i64>, Vec<f64>)> = (1..=p as i64)
        .map(|v| (vec![v], vec![0.0; width]))
        .collect();
    values_insert_chunked("seed CR skeleton", &names.cr(), &rows, 4096)
}

/// The k UPDATE statements transposing C into CR's `c1…ck` columns — the
/// paper's "launching several UPDATE statements in parallel" (§3.5).
pub(crate) fn transpose_c(names: &Names, p: usize, k: usize) -> Vec<Stmt> {
    let (cr, c) = (names.cr(), names.c());
    let arms = unroll(p, " ", |d| format!("WHEN {cr}.v = {d} THEN {c}.y{d}"));
    (1..=k)
        .map(|j| {
            Stmt::new(
                format!("E: transpose C{j} into CR"),
                format!("UPDATE {cr} FROM {c} SET c{j} = CASE {arms} END WHERE {c}.i = {j}"),
            )
        })
        .collect()
}

/// The CASE arms moving R's `y1…yp` into CR's rows, zero covariances
/// replaced by 1 (§2.5).
pub(crate) fn transpose_r_arms(names: &Names, p: usize) -> String {
    let (cr, r) = (names.cr(), names.r());
    unroll(p, " ", |d| {
        format!("WHEN {cr}.v = {d} THEN ({})", guarded_r(&r, d))
    })
}

/// `rid`, the densities `p1…pk`, `sump` and `suminvd` (Fig. 9 YP) —
/// normalized by the shared `sqrtdetr`, or per cluster by `sqrtdetr{j}`.
fn density_cols(k: usize, per_cluster: bool) -> Vec<String> {
    let mut cols = vec!["rid".to_string()];
    for j in 1..=k {
        let det = if per_cluster {
            format!("sqrtdetr{j}")
        } else {
            "sqrtdetr".to_string()
        };
        cols.push(format!(
            "w{j} / (twopipdiv2 * {det}) * exp(-0.5 * d{j}) AS p{j}"
        ));
    }
    cols.push(format!("{} AS sump", unroll(k, " + ", |j| format!("p{j}"))));
    let suminvd = unroll(k, " + ", |j| format!("1 / (d{j} + 1.0E-100)"));
    cols.push(format!("{suminvd} AS suminvd"));
    cols
}

/// Responsibility `x_j` with the §2.5 fallback: `p_j / sump`, or the
/// inverse-distance share when every density underflowed.
fn responsibility(j: usize) -> String {
    format!("CASE WHEN sump > 0 THEN p{j} / sump ELSE (1 / (d{j} + 1.0E-100)) / suminvd END")
}

/// The llh cell: NULL when every density underflowed (§2.5).
const LLH_CELL: &str = "CASE WHEN sump > 0 THEN ln(sump) END";

/// YD's schema in the horizontal layout: one distance per cluster.
pub(crate) fn yd_body(k: usize) -> String {
    format!("rid BIGINT PRIMARY KEY, {}", double_cols("d", k))
}

/// YP's schema: densities, `sump`, `suminvd` and the distances (see
/// [`yp_insert`]).
pub(crate) fn yp_body(k: usize) -> String {
    format!(
        "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}",
        double_cols("p", k),
        double_cols("d", k)
    )
}

/// YX's schema: the responsibilities and the llh cell.
pub(crate) fn yx_body(k: usize) -> String {
    format!(
        "rid BIGINT PRIMARY KEY, {}, llh DOUBLE",
        double_cols("x", k)
    )
}

/// Fig. 9's probabilities then responsibilities, each into a freshly
/// recreated table — the unfused E step of the horizontal and hybrid
/// strategies.
pub(crate) fn yp_then_yx(names: &Names, k: usize) -> Vec<Stmt> {
    let mut stmts = recreate(&names.yp(), &yp_body(k)).to_vec();
    stmts.push(yp_insert(names, k));
    stmts.extend(recreate(&names.yx(), &yx_body(k)));
    stmts.push(yx_insert(names, k));
    stmts
}

/// The horizontal-layout YP insert (Fig. 9 middle): densities, `sump`,
/// `suminvd`, and the distances passed through for the YX fallback.
///
/// Note on fidelity: Fig. 9's YX statement reads `d1…dk` from YP although
/// Fig. 8 omits them from YP's schema — an inconsistency in the paper. We
/// carry the distances through YP so the published YX statement is
/// well-formed (see DESIGN.md §5).
fn yp_insert(names: &Names, k: usize) -> Stmt {
    let mut cols = density_cols(k, false);
    cols.extend((1..=k).map(|j| format!("d{j}")));
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

/// The horizontal-layout YX insert (Fig. 9 bottom): responsibilities
/// with the §2.5 fallback and the NULL-when-underflowed llh cell.
fn yx_insert(names: &Names, k: usize) -> Stmt {
    let mut cols = vec!["rid".to_string()];
    cols.extend((1..=k).map(responsibility));
    cols.push(LLH_CELL.to_string());
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

/// The fused-YX schema body: the intermediate densities stay visible as
/// columns (lateral aliases are materialized), so the row is wider — the
/// space-for-scans trade the paper's §3.6 block-size discussion
/// anticipates.
pub(crate) fn fused_yx_body(k: usize) -> String {
    format!(
        "rid BIGINT PRIMARY KEY, {}, sump DOUBLE, suminvd DOUBLE, {}, llh DOUBLE",
        double_cols("p", k),
        double_cols("x", k),
    )
}

/// The fused E-step statement replacing the YP + YX pair (§5 future
/// work): densities, `sump`, `suminvd` and the responsibilities in one
/// projection using lateral aliases, reading YD once instead of twice.
/// `per_cluster` normalizes by the per-cluster determinants in DETS.
pub(crate) fn fused_yx_insert(names: &Names, k: usize, per_cluster: bool) -> Stmt {
    let mut cols = density_cols(k, per_cluster);
    cols.extend((1..=k).map(|j| format!("{} AS x{j}", responsibility(j))));
    cols.push(LLH_CELL.to_string());
    let dets = if per_cluster {
        format!(", {}", names.dett())
    } else {
        String::new()
    };
    Stmt::new(
        "E: fused probabilities + responsibilities (YX)",
        format!(
            "INSERT INTO {yx} SELECT {cols} FROM {yd}, {gmm}, {w}{dets}",
            yx = names.yx(),
            cols = cols.join(", "),
            yd = names.yd(),
            gmm = names.gmm(),
            w = names.w(),
        ),
    )
}

/// The k mean updates of Fig. 10 top: clear C, then one INSERT…SELECT
/// per cluster joining Z and YX on RID.
pub(crate) fn mean_inserts(names: &Names, p: usize, k: usize) -> Vec<Stmt> {
    let (c, z, yx) = (names.c(), names.z(), names.yx());
    let mut stmts = vec![Stmt::new("M: clear C", format!("DELETE FROM {c}"))];
    for j in 1..=k {
        let cols = unroll(p, ", ", |d| format!("sum({z}.y{d} * x{j}) / sum(x{j})"));
        stmts.push(Stmt::new(
            format!("M: mean of cluster {j} (C)"),
            format!("INSERT INTO {c} SELECT {j}, {cols} FROM {z}, {yx} WHERE {z}.rid = {yx}.rid"),
        ));
    }
    stmts
}

/// Weight update shared by the horizontal and hybrid strategies (Fig. 10):
/// `W' = Σ x`, llh alongside, then `W = W'/n`.
pub(crate) fn w_update(names: &Names, k: usize) -> Vec<Stmt> {
    let sums = unroll(k, ", ", |j| format!("sum(x{j})"));
    let divs = unroll(k, ", ", |j| {
        format!("w{j} = w{j} / {gmm}.n", gmm = names.gmm())
    });
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

/// The first cluster whose responsibilities in a horizontal YX
/// (`x1…xk`) sum to zero, 1-based ([`Generator::dead_cluster`]).
pub(crate) fn yx_dead_cluster(db: &mut dyn SqlExecutor, names: &Names, k: usize) -> Option<usize> {
    let sums = unroll(k, ", ", |j| format!("sum(x{j})"));
    let r = db
        .execute(&format!("SELECT {sums} FROM {yx}", yx = names.yx()))
        .ok()?;
    let masses = r.rows.first()?;
    Some(masses.iter().position(|m| m.as_f64() == Some(0.0))? + 1)
}

/// The loglikelihood the M step stored beside the weights.
pub(crate) fn w_llh_sql(names: &Names) -> String {
    format!("SELECT llh FROM {w}", w = names.w())
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

/// Clear `table` and write `rows` as `(i, …)` rows keyed 1…k (C, and the
/// per-cluster R).
pub(crate) fn write_keyed(table: &str, label: &str, rows: &[Vec<f64>]) -> Vec<Stmt> {
    let keyed: Vec<(Vec<i64>, Vec<f64>)> = (1..)
        .zip(rows)
        .map(|(j, row)| (vec![j], row.clone()))
        .collect();
    let mut stmts = vec![Stmt::new(
        format!("init: clear {label}"),
        format!("DELETE FROM {table}"),
    )];
    stmts.extend(values_insert_chunked(
        &format!("init: write {label}"),
        table,
        &keyed,
        4096,
    ));
    stmts
}

/// Clear a one-row parameter table and write `row` (the shared R, W with
/// its llh cell, a horizontal C{j}).
pub(crate) fn write_row(table: &str, label: &str, row: Vec<f64>) -> [Stmt; 2] {
    [
        Stmt::new(
            format!("init: clear {label}"),
            format!("DELETE FROM {table}"),
        ),
        values_insert(&format!("init: write {label}"), table, &[(vec![], row)]),
    ]
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

/// Read the `k` rows `(y1…yp)` of an `(i, y1…yp)` table back, in key
/// order — the inverse of [`write_keyed`].
pub(crate) fn read_keyed(
    db: &mut dyn SqlExecutor,
    table: &str,
    label: &str,
    p: usize,
    k: usize,
) -> Result<Vec<Vec<f64>>, SqlemError> {
    let cols = unroll(p, ", ", |d| format!("y{d}"));
    let sql = format!("SELECT {cols} FROM {table} ORDER BY i");
    let rows = read_f64_grid(db, &sql, &format!("read {label}"))?;
    if rows.len() != k {
        return Err(SqlemError::BadParamTable(format!(
            "{label} has {} rows, expected {k}",
            rows.len()
        )));
    }
    Ok(rows)
}

/// Read the `cols` of a one-row parameter table back.
pub(crate) fn read_row(
    db: &mut dyn SqlExecutor,
    table: &str,
    label: &str,
    cols: &str,
) -> Result<Vec<f64>, SqlemError> {
    let sql = format!("SELECT {cols} FROM {table}");
    read_f64_grid(db, &sql, &format!("read {label}"))?
        .into_iter()
        .next()
        .ok_or_else(|| SqlemError::BadParamTable(format!("{label} is empty")))
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
            for per_cluster in [false, true] {
                sqlengine::parser::parse(&fused_yx_insert(&names, k, per_cluster).sql).unwrap();
            }
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

    #[test]
    fn keyed_writes_read_back() {
        let mut db = sqlengine::Database::new();
        db.execute("CREATE TABLE c (i BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE)")
            .unwrap();
        let rows = vec![vec![0.5, -2.0], vec![1.0e-100, 3.0]];
        for s in write_keyed("c", "C", &rows) {
            db.execute(&s.sql).unwrap();
        }
        assert_eq!(read_keyed(&mut db, "c", "C", 2, 2).unwrap(), rows);
        assert!(matches!(
            read_keyed(&mut db, "c", "C", 2, 3),
            Err(SqlemError::BadParamTable(_))
        ));
    }
}
