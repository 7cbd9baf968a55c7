//! Loading points into a generator's table layout(s).
//!
//! The horizontal strategy reads points from the wide `Z(RID, y1…yp)`
//! table, the vertical strategy from the long `Y(RID, v, val)` table, and
//! the hybrid from both (Fig. 8 lists Z *and* Y) — each generator says
//! which through [`crate::Generator::layouts`]. Rows are assigned RIDs
//! 1…n in input order. Bulk loading bypasses the SQL parser — the
//! FastLoad / JDBC-batch analogue (DESIGN.md §5) — while
//! [`pivot_from_table`] supports the warehouse scenario where the data
//! already lives in a user table.

use sqlengine::{SqlExecutor, Value};

use crate::error::SqlemError;
use crate::naming::Names;

/// Load rows `0..total` — row `r` is `row(r)` — into `table` in
/// bulk-insert chunks of at most `chunk` rows (all at once when `None`),
/// each chunk's rows made for its statement and handed over, never a
/// copy of them: the degradation rung
/// between "load everything" and "fail the run". A chunk that fails
/// with [`resource exhaustion`](SqlemError::is_resource_exhausted) (for
/// a [`crate::retry::Retrying`] executor: still fails once its retries
/// are spent) and has more than one row *shrinks* — the chunk size
/// halves and the loop re-issues from the same offset. Returns the
/// number of halvings. This is exactly-once safe: a failed bulk INSERT
/// is atomic (the staging buffer is charged and dropped before the
/// table is touched), already-committed chunks stay committed, and the
/// smaller re-issue is a fresh statement over rows no prior statement
/// committed.
fn load_chunked(
    db: &mut dyn SqlExecutor,
    table: &str,
    purpose: &str,
    total: usize,
    row: impl Fn(usize) -> Vec<Value>,
    chunk: Option<usize>,
) -> Result<usize, SqlemError> {
    let mut size = chunk.unwrap_or(total).max(1);
    let mut at = 0usize;
    let mut shrinks = 0usize;
    while at < total {
        let end = (at + size).min(total);
        let res = db
            .bulk_insert_rows(table, (at..end).map(&row).collect())
            .map_err(|e| SqlemError::from_sql(purpose, e));
        match res {
            Ok(_) => at = end,
            Err(e) if e.is_resource_exhausted() && size > 1 => {
                size = (size / 2).max(1);
                shrinks += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(shrinks)
}

/// Bulk-load `points` into the `(wide, long)` layout tables. Returns
/// `(n, shrinks)`.
///
/// `chunk` caps each bulk-insert statement at that many rows; under a
/// memory budget the chunk also shrinks on resource exhaustion (see
/// `load_chunked`), with `shrinks` counting the halvings.
pub fn load_points(
    db: &mut dyn SqlExecutor,
    names: &Names,
    (wide, long): (bool, bool),
    points: &[Vec<f64>],
    chunk: Option<usize>,
) -> Result<(usize, usize), SqlemError> {
    let n = points.len();
    if n == 0 {
        return Err(SqlemError::BadInput("no points to load".into()));
    }
    let p = points[0].len();
    if points.iter().any(|pt| pt.len() != p) {
        return Err(SqlemError::BadInput("ragged point vectors".into()));
    }
    let mut shrinks = 0usize;
    if wide {
        let row = |i: usize| {
            let mut row = Vec::with_capacity(p + 1);
            row.push(Value::Int(i as i64 + 1));
            row.extend(points[i].iter().map(|&v| Value::Double(v)));
            row
        };
        shrinks += load_chunked(&mut *db, &names.z(), "load Z", n, row, chunk)?;
    }
    if long {
        // Row `r` is dimension `r % p` of point `r / p`.
        let row = |r: usize| {
            let (i, d) = (r / p, r % p);
            vec![
                Value::Int(i as i64 + 1),
                Value::Int(d as i64 + 1),
                Value::Double(points[i][d]),
            ]
        };
        shrinks += load_chunked(&mut *db, &names.y(), "load Y", n * p, row, chunk)?;
    }
    Ok((n, shrinks))
}

/// Fill the layout tables from an existing table (the data-warehouse
/// scenario of §1.3: never move the data out). `rid_col` must be a unique
/// integer key; `value_cols` are the `p` variables in order. The vertical
/// pivot issues one `INSERT … SELECT` per dimension — the standard SQL-92
/// unpivot.
pub fn pivot_from_table(
    db: &mut dyn SqlExecutor,
    names: &Names,
    (wide, long): (bool, bool),
    source: &str,
    rid_col: &str,
    value_cols: &[&str],
) -> Result<usize, SqlemError> {
    if value_cols.is_empty() {
        return Err(SqlemError::BadInput("no value columns".into()));
    }
    if wide {
        let cols = value_cols.join(", ");
        let sql = format!(
            "INSERT INTO {z} SELECT {rid_col}, {cols} FROM {source}",
            z = names.z(),
        );
        db.execute(&sql)
            .map_err(|e| SqlemError::from_sql("pivot into Z", e))?;
    }
    if long {
        for (d, col) in value_cols.iter().enumerate() {
            let sql = format!(
                "INSERT INTO {y} SELECT {rid_col}, {v}, {col} FROM {source}",
                y = names.y(),
                v = d + 1,
            );
            db.execute(&sql)
                .map_err(|e| SqlemError::from_sql("pivot into Y", e))?;
        }
    }
    db.table_rows(source)
        .map_err(|e| SqlemError::from_sql("count source", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SqlemConfig, Strategy};
    use crate::generator::{build_generator, Generator};
    use sqlengine::Database;

    const HYBRID: (bool, bool) = (true, true);

    fn setup(strategy: Strategy) -> (Database, Names) {
        let mut db = Database::new();
        let config = SqlemConfig::new(2, strategy);
        let g = build_generator(&config, 2);
        for s in g.create_tables() {
            db.execute(&s.sql).unwrap();
        }
        (db, Names::new(""))
    }

    fn layouts(strategy: Strategy) -> (bool, bool) {
        build_generator(&SqlemConfig::new(2, strategy), 2).layouts()
    }

    #[test]
    fn hybrid_loads_both_layouts() {
        let (mut db, names) = setup(Strategy::Hybrid);
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let (n, _) = load_points(&mut db, &names, HYBRID, &pts, None).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table_len("z").unwrap(), 2);
        assert_eq!(db.table_len("y").unwrap(), 4);
        let r = db
            .execute("SELECT val FROM y WHERE rid = 2 AND v = 1")
            .unwrap();
        assert_eq!(r.scalar_f64(), Some(3.0));
    }

    #[test]
    fn horizontal_loads_wide_only() {
        let (mut db, names) = setup(Strategy::Horizontal);
        let pts = vec![vec![1.0, 2.0]];
        load_points(&mut db, &names, layouts(Strategy::Horizontal), &pts, None).unwrap();
        assert_eq!(db.table_len("z").unwrap(), 1);
        assert!(!db.contains_table("y"));
    }

    #[test]
    fn vertical_loads_long_only() {
        let (mut db, names) = setup(Strategy::Vertical);
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        load_points(&mut db, &names, layouts(Strategy::Vertical), &pts, None).unwrap();
        assert_eq!(db.table_len("y").unwrap(), 6);
        assert!(!db.contains_table("z"));
    }

    #[test]
    fn rejects_bad_input() {
        let (mut db, names) = setup(Strategy::Hybrid);
        assert!(matches!(
            load_points(&mut db, &names, HYBRID, &[], None),
            Err(SqlemError::BadInput(_))
        ));
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            load_points(&mut db, &names, HYBRID, &ragged, None),
            Err(SqlemError::BadInput(_))
        ));
    }

    #[test]
    fn explicit_chunking_loads_everything_exactly_once() {
        let (mut db, names) = setup(Strategy::Hybrid);
        let pts: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64, -(i as f64)]).collect();
        let (n, shrinks) = load_points(&mut db, &names, HYBRID, &pts, Some(7)).unwrap();
        assert_eq!(n, 25);
        assert_eq!(shrinks, 0, "no budget, no shrinking");
        assert_eq!(db.table_len("z").unwrap(), 25);
        assert_eq!(db.table_len("y").unwrap(), 50);
        // RIDs 1..=25 each exactly once: sum is 325.
        let r = db.execute("SELECT sum(rid) FROM z").unwrap();
        assert_eq!(r.scalar_f64(), Some(325.0));
    }

    #[test]
    fn tight_budget_shrinks_chunks_and_still_loads_everything() {
        let (mut db, names) = setup(Strategy::Hybrid);
        // Each staged row charges 72 bytes (24 overhead + 3 × 16); the
        // full 100-row batch charges 7200, far over a 600-byte budget,
        // but 6-row chunks fit.
        db.set_memory_budget(Some(sqlengine::MemoryBudget::new(600)));
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, -(i as f64)]).collect();
        let (n, shrinks) = load_points(&mut db, &names, HYBRID, &pts, None).unwrap();
        assert_eq!(n, 100);
        assert!(shrinks > 0, "tight budget must force chunk halving");
        assert_eq!(db.table_len("z").unwrap(), 100);
        assert_eq!(db.table_len("y").unwrap(), 200);
        // Exactly-once under the shrink loop: RIDs 1..=100 sum to 5050.
        let r = db.execute("SELECT sum(rid) FROM z").unwrap();
        assert_eq!(r.scalar_f64(), Some(5050.0));
    }

    #[test]
    fn budget_below_one_row_fails_typed() {
        let (mut db, names) = setup(Strategy::Hybrid);
        db.set_memory_budget(Some(sqlengine::MemoryBudget::new(50)));
        let pts = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let err = load_points(&mut db, &names, HYBRID, &pts, None).unwrap_err();
        assert!(err.is_resource_exhausted(), "{err}");
        assert!(err.is_transient(), "exhaustion is typed-transient");
    }

    #[test]
    fn pivot_from_existing_table() {
        let (mut db, names) = setup(Strategy::Hybrid);
        db.execute("CREATE TABLE baskets (bid BIGINT PRIMARY KEY, hour DOUBLE, sales DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO baskets VALUES (10, 12.0, 6.5), (11, 17.0, 40.0)")
            .unwrap();
        let n = pivot_from_table(
            &mut db,
            &names,
            HYBRID,
            "baskets",
            "bid",
            &["hour", "sales"],
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table_len("z").unwrap(), 2);
        assert_eq!(db.table_len("y").unwrap(), 4);
        let r = db
            .execute("SELECT val FROM y WHERE rid = 11 AND v = 2")
            .unwrap();
        assert_eq!(r.scalar_f64(), Some(40.0));
    }
}
