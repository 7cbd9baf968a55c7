//! Integration tests driving the engine with the exact SQL shapes the
//! SQLEM generators emit (paper Figs. 5, 7, 9, 10).

use sqlengine::{Database, Error, Value};

fn v(x: f64) -> Value {
    Value::Double(x)
}

/// Fig. 7 first statement: the vertical Mahalanobis-distance join.
/// Y(RID,v,val) ⋈ C(i,v,val) ⋈ R(v,val), SUM … GROUP BY RID, C.i.
#[test]
fn vertical_distance_join_group_by() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE y (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v));
         CREATE TABLE c (i BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (i, v));
         CREATE TABLE r (v BIGINT PRIMARY KEY, val DOUBLE);
         CREATE TABLE yd (rid BIGINT, i BIGINT, d DOUBLE, PRIMARY KEY (rid, i))",
    )
    .unwrap();
    // Two points in 2-d: y1 = (0,0), y2 = (3,4). Two clusters:
    // c1 = (0,0), c2 = (3,4). R = I.
    db.execute(
        "INSERT INTO y VALUES (1,1,0.0),(1,2,0.0),(2,1,3.0),(2,2,4.0);
         INSERT INTO c VALUES (1,1,0.0),(1,2,0.0),(2,1,3.0),(2,2,4.0);
         INSERT INTO r VALUES (1,1.0),(2,1.0)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO yd SELECT rid, c.i, sum((y.val - c.val)**2 / r.val) AS d \
         FROM y, c, r WHERE y.v = c.v AND c.v = r.v GROUP BY rid, c.i",
    )
    .unwrap();
    let out = db
        .execute("SELECT rid, i, d FROM yd ORDER BY rid, i")
        .unwrap();
    assert_eq!(out.rows.len(), 4);
    // δ(y1,c1) = 0, δ(y1,c2) = 25, δ(y2,c1) = 25, δ(y2,c2) = 0.
    assert_eq!(out.rows[0][2], v(0.0));
    assert_eq!(out.rows[1][2], v(25.0));
    assert_eq!(out.rows[2][2], v(25.0));
    assert_eq!(out.rows[3][2], v(0.0));
}

/// Fig. 9 YP statement: lateral aliases (`p1 … pk` referenced by `sump`
/// and `suminvd` in the same projection), cross join with 1-row tables.
#[test]
fn lateral_aliases_and_one_row_cross_joins() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE);
         CREATE TABLE gmm (n BIGINT, twopipdiv2 DOUBLE, sqrtdetr DOUBLE);
         CREATE TABLE w (w1 DOUBLE, w2 DOUBLE);
         CREATE TABLE yp (rid BIGINT PRIMARY KEY, p1 DOUBLE, p2 DOUBLE, \
                          sump DOUBLE, suminvd DOUBLE)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO yd VALUES (1, 0.0, 8.0), (2, 2.0, 2.0);
         INSERT INTO gmm VALUES (2, 6.5, 1.0);
         INSERT INTO w VALUES (0.5, 0.5)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO yp SELECT rid, \
           w1/(twopipdiv2*sqrtdetr)*exp(-0.5*d1) AS p1, \
           w2/(twopipdiv2*sqrtdetr)*exp(-0.5*d2) AS p2, \
           p1+p2 AS sump, \
           1/(d1+1.0E-100) + 1/(d2+1.0E-100) AS suminvd \
         FROM yd, gmm, w",
    )
    .unwrap();
    let out = db.execute("SELECT * FROM yp ORDER BY rid").unwrap();
    assert_eq!(out.rows.len(), 2);
    let p1 = out.rows[0][1].as_f64().unwrap();
    let p2 = out.rows[0][2].as_f64().unwrap();
    let sump = out.rows[0][3].as_f64().unwrap();
    let expect_p1 = 0.5 / 6.5; // exp(0) = 1
    assert!((p1 - expect_p1).abs() < 1e-9);
    assert!((sump - (p1 + p2)).abs() < 1e-12);
    // suminvd for row 1: 1/1e-100 dominates.
    assert!(out.rows[0][4].as_f64().unwrap() > 1e99);
}

/// Fig. 9 YX statement: CASE WHEN with the inverse-distance fallback and a
/// NULL llh cell when sump = 0; SUM must skip that NULL.
#[test]
fn case_fallback_and_null_skipping_sum() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE yp (rid BIGINT PRIMARY KEY, p1 DOUBLE, p2 DOUBLE, \
                          sump DOUBLE, suminvd DOUBLE, d1 DOUBLE, d2 DOUBLE);
         CREATE TABLE yx (rid BIGINT PRIMARY KEY, x1 DOUBLE, x2 DOUBLE, llh DOUBLE)",
    )
    .unwrap();
    // Row 1: normal. Row 2: underflowed probabilities (sump = 0) with
    // distances 1 and 3 → fallback x1 = (1/1)/(1/1+1/3) = 0.75.
    db.execute(
        "INSERT INTO yp VALUES (1, 0.2, 0.3, 0.5, 999.0, 0.1, 0.2), \
                               (2, 0.0, 0.0, 0.0, 1.3333333333333333, 1.0, 3.0)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO yx SELECT rid, \
           CASE WHEN sump > 0 THEN p1/sump ELSE (1/d1)/suminvd END, \
           CASE WHEN sump > 0 THEN p2/sump ELSE (1/d2)/suminvd END, \
           CASE WHEN sump > 0 THEN ln(sump) END \
         FROM yp",
    )
    .unwrap();
    let out = db
        .execute("SELECT x1, x2, llh FROM yx ORDER BY rid")
        .unwrap();
    assert!((out.rows[0][0].as_f64().unwrap() - 0.4).abs() < 1e-12);
    assert!((out.rows[1][0].as_f64().unwrap() - 0.75).abs() < 1e-9);
    assert!((out.rows[1][1].as_f64().unwrap() - 0.25).abs() < 1e-9);
    assert_eq!(out.rows[1][2], Value::Null);
    // The W update sums llh; the NULL must be skipped, not poison the sum.
    let s = db.execute("SELECT sum(llh) FROM yx").unwrap();
    assert!((s.scalar_f64().unwrap() - 0.5f64.ln()).abs() < 1e-12);
    // Responsibilities in each row must sum to 1 either way.
    let sums = db.execute("SELECT x1 + x2 FROM yx ORDER BY rid").unwrap();
    for row in &sums.rows {
        assert!((row[0].as_f64().unwrap() - 1.0).abs() < 1e-9);
    }
}

/// Fig. 10 first statements: the M-step mean update
/// `sum(Z.y1*x1)/sum(x1) … FROM Z, YX WHERE Z.RID = YX.RID`.
#[test]
fn m_step_weighted_mean_join() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE z (rid BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE);
         CREATE TABLE yx (rid BIGINT PRIMARY KEY, x1 DOUBLE, x2 DOUBLE);
         CREATE TABLE c (i BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO z VALUES (1, 0.0, 0.0), (2, 2.0, 2.0), (3, 10.0, 10.0);
         INSERT INTO yx VALUES (1, 1.0, 0.0), (2, 1.0, 0.0), (3, 0.0, 1.0)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO c SELECT 1, sum(z.y1*x1)/sum(x1), sum(z.y2*x1)/sum(x1) \
         FROM z, yx WHERE z.rid = yx.rid;
         INSERT INTO c SELECT 2, sum(z.y1*x2)/sum(x2), sum(z.y2*x2)/sum(x2) \
         FROM z, yx WHERE z.rid = yx.rid",
    )
    .unwrap();
    let out = db.execute("SELECT i, y1, y2 FROM c ORDER BY i").unwrap();
    assert_eq!(out.rows[0][1], v(1.0)); // (0+2)/2
    assert_eq!(out.rows[1][1], v(10.0));
}

/// Fig. 9 first statement: `UPDATE GMM FROM R SET detR = …, sqrtdetR =
/// detR**0.5` — sequential SET visibility across an implicit join.
#[test]
fn update_from_with_sequential_assignment() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE gmm (n BIGINT, detr DOUBLE, sqrtdetr DOUBLE);
         CREATE TABLE r (y1 DOUBLE, y2 DOUBLE, y3 DOUBLE)",
    )
    .unwrap();
    db.execute("INSERT INTO gmm VALUES (100, 0.0, 0.0); INSERT INTO r VALUES (4.0, 9.0, 1.0)")
        .unwrap();
    db.execute("UPDATE gmm FROM r SET detr = r.y1*r.y2*r.y3, sqrtdetr = detr**0.5")
        .unwrap();
    let out = db.execute("SELECT detr, sqrtdetr FROM gmm").unwrap();
    assert_eq!(out.rows[0][0], v(36.0));
    assert_eq!(out.rows[0][1], v(6.0));
}

/// Fig. 10: `UPDATE W FROM GMM SET w1 = w1/GMM.n, …`.
#[test]
fn update_weights_divided_by_n() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE w (w1 DOUBLE, w2 DOUBLE);
         CREATE TABLE gmm (n BIGINT)",
    )
    .unwrap();
    db.execute("INSERT INTO w VALUES (30.0, 70.0); INSERT INTO gmm VALUES (100)")
        .unwrap();
    db.execute("UPDATE w FROM gmm SET w1 = w1/gmm.n, w2 = w2/gmm.n")
        .unwrap();
    let out = db.execute("SELECT w1, w2 FROM w").unwrap();
    assert_eq!(out.rows[0][0], v(0.3));
    assert_eq!(out.rows[0][1], v(0.7));
}

/// The horizontal approach (Fig. 5) joins Y against k one-row mean tables.
#[test]
fn horizontal_distance_expression() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE y (rid BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE);
         CREATE TABLE c1 (y1 DOUBLE, y2 DOUBLE);
         CREATE TABLE c2 (y1 DOUBLE, y2 DOUBLE);
         CREATE TABLE r (y1 DOUBLE, y2 DOUBLE);
         CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE, d2 DOUBLE)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO y VALUES (1, 0.0, 0.0), (2, 3.0, 4.0);
         INSERT INTO c1 VALUES (0.0, 0.0);
         INSERT INTO c2 VALUES (3.0, 4.0);
         INSERT INTO r VALUES (1.0, 1.0)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO yd SELECT rid, \
           (y.y1-c1.y1)**2/r.y1 + (y.y2-c1.y2)**2/r.y2, \
           (y.y1-c2.y1)**2/r.y1 + (y.y2-c2.y2)**2/r.y2 \
         FROM y, c1, c2, r",
    )
    .unwrap();
    let out = db.execute("SELECT d1, d2 FROM yd ORDER BY rid").unwrap();
    assert_eq!(out.rows[0][0], v(0.0));
    assert_eq!(out.rows[0][1], v(25.0));
    assert_eq!(out.rows[1][0], v(25.0));
    assert_eq!(out.rows[1][1], v(0.0));
}

/// XMAX / score computation: vertical responsibilities, `max(x)` per RID,
/// then a join back to find the argmax cluster.
#[test]
fn xmax_argmax_pattern() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE x (rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i));
         CREATE TABLE xmax (rid BIGINT PRIMARY KEY, maxx DOUBLE)",
    )
    .unwrap();
    db.execute("INSERT INTO x VALUES (1,1,0.9),(1,2,0.1),(2,1,0.3),(2,2,0.7)")
        .unwrap();
    db.execute("INSERT INTO xmax SELECT rid, max(x) FROM x GROUP BY rid")
        .unwrap();
    let out = db
        .execute(
            "SELECT x.rid, x.i FROM x, xmax \
             WHERE x.rid = xmax.rid AND x.x = xmax.maxx ORDER BY x.rid",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0][1], Value::Int(1));
    assert_eq!(out.rows[1][1], Value::Int(2));
}

/// DROP/CREATE vs DELETE, and IF EXISTS variants (§3.6 workflow).
#[test]
fn drop_create_delete_workflow() {
    let mut db = Database::new();
    db.execute("DROP TABLE IF EXISTS yd").unwrap();
    db.execute("CREATE TABLE yd (rid BIGINT PRIMARY KEY, d DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO yd VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
        .unwrap();
    let r = db.execute("DELETE FROM yd WHERE d > 1.5").unwrap();
    assert_eq!(r.rows_affected, 2);
    let r = db.execute("DELETE FROM yd").unwrap();
    assert_eq!(r.rows_affected, 1);
    db.execute("DROP TABLE yd").unwrap();
    assert!(db.execute("SELECT * FROM yd").is_err());
}

/// Scan accounting matches the statements executed.
#[test]
fn scan_events_recorded_per_table() {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE big (rid BIGINT PRIMARY KEY, x DOUBLE);
         CREATE TABLE small (i BIGINT PRIMARY KEY, w DOUBLE)",
    )
    .unwrap();
    for i in 0..100 {
        db.bulk_insert("big", vec![vec![Value::Int(i), Value::Double(i as f64)]])
            .unwrap();
    }
    db.execute("INSERT INTO small VALUES (1, 0.5)").unwrap();
    db.enable_metrics();
    db.execute("SELECT sum(x * w) FROM big, small").unwrap();
    let scans = &db.metrics().last().unwrap().scans;
    let passes = |table: &str| scans.iter().filter(|s| s.table == table).count();
    assert_eq!(passes("big"), 1);
    assert_eq!(passes("small"), 1);
    assert_eq!(scans.iter().filter(|s| s.rows >= 100).count(), 1);
}

/// Two shards' partial aggregates, merged and finalized, return what one
/// table holding every row returns.
#[test]
fn two_shards_match_one_table() {
    let sql = "SELECT c.i, count(*), sum((y.val - c.val)**2) AS ss \
               FROM y, c WHERE y.v = c.v GROUP BY c.i ORDER BY c.i";
    let load = |rids: std::ops::Range<i64>| {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE y (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v));
             CREATE TABLE c (i BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (i, v))",
        )
        .unwrap();
        let mut rows = Vec::new();
        for rid in rids {
            for vdim in 1..=2i64 {
                rows.push(vec![
                    Value::Int(rid),
                    Value::Int(vdim),
                    Value::Double(((rid * 31 + vdim * 7) % 97) as f64 / 10.0),
                ]);
            }
        }
        db.bulk_insert("y", rows).unwrap();
        db.execute("INSERT INTO c VALUES (1,1,0.5),(1,2,1.5),(2,1,4.0),(2,2,2.0)")
            .unwrap();
        db
    };
    let whole = load(0..5000).execute(sql).unwrap();
    assert_eq!(whole.rows.len(), 2);
    let mut merged = load(0..2000).execute_partial(sql).unwrap();
    merged
        .merge(&load(2000..5000).execute_partial(sql).unwrap())
        .unwrap();
    let sharded = load(0..0).finalize_partials(sql, &merged).unwrap();
    assert_eq!(whole.rows, sharded.rows);
}

/// Statement-length limit mirrors the parser caps that break the
/// horizontal strategy at high kp (§3.3).
#[test]
fn long_statement_rejected() {
    let mut db = Database::new();
    db.set_max_statement_len(1000);
    let mut sql = String::from("SELECT ");
    for i in 0..200 {
        if i > 0 {
            sql.push_str(" + ");
        }
        sql.push_str(&format!("{i}"));
    }
    let err = db.execute(&sql).unwrap_err();
    assert!(matches!(err, Error::StatementTooLong { .. }));
}

/// Arithmetic faults surface as errors, not silent NULLs.
#[test]
fn arithmetic_errors_are_loud() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (0.0)").unwrap();
    assert!(matches!(
        db.execute("SELECT 1.0 / x FROM t").unwrap_err(),
        Error::Arithmetic(_)
    ));
    assert!(matches!(
        db.execute("SELECT ln(x) FROM t").unwrap_err(),
        Error::Arithmetic(_)
    ));
}

/// INSERT with explicit column list fills missing columns with NULL.
#[test]
fn insert_column_list_defaults_null() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO t (c, a) VALUES ('hi', 7)").unwrap();
    let r = db.execute("SELECT a, b, c FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(7));
    assert_eq!(r.rows[0][1], Value::Null);
    assert_eq!(r.rows[0][2], Value::str("hi"));
}

/// Self-join requires aliases; aliased self-join works.
#[test]
fn self_join_with_aliases() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b BIGINT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 2), (2, 3), (3, 1)")
        .unwrap();
    assert!(db.execute("SELECT * FROM t, t").is_err());
    let r = db
        .execute("SELECT u.a, w.b FROM t u, t w WHERE u.b = w.a ORDER BY u.a")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][1], Value::Int(3)); // 1 → b=2 → t[2].b=3
}

/// NULL join keys never match (SQL semantics).
#[test]
fn null_keys_do_not_join() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (k BIGINT, x DOUBLE); CREATE TABLE b (k BIGINT, y DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO a VALUES (1, 1.0), (NULL, 2.0)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (1, 10.0), (NULL, 20.0)")
        .unwrap();
    let r = db
        .execute("SELECT a.x, b.y FROM a, b WHERE a.k = b.k")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// HAVING filters aggregated groups.
#[test]
fn having_clause() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (i BIGINT, x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.0), (1, 2.0), (2, 10.0)")
        .unwrap();
    let r = db
        .execute("SELECT i, sum(x) FROM t GROUP BY i HAVING sum(x) > 5 ORDER BY i")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(2));
}

/// A query with no FROM evaluates constants.
#[test]
fn constant_select() {
    let mut db = Database::new();
    let r = db.execute("SELECT 2 ** 10, exp(0.0), 1 + 2 * 3").unwrap();
    assert_eq!(r.rows[0][0], v(1024.0));
    assert_eq!(r.rows[0][1], v(1.0));
    assert_eq!(r.rows[0][2], Value::Int(7));
}

/// Insert-select arity mismatch is caught.
#[test]
fn insert_select_arity_checked() {
    let mut db = Database::new();
    db.execute("CREATE TABLE s (a BIGINT, b BIGINT); CREATE TABLE d (a BIGINT)")
        .unwrap();
    db.execute("INSERT INTO s VALUES (1, 2)").unwrap();
    let err = db.execute("INSERT INTO d SELECT a, b FROM s").unwrap_err();
    // Caught statically by the analyze pass, before the SELECT runs.
    assert!(matches!(
        err.as_analyze().expect("analyzer should reject this").kind,
        sqlengine::AnalyzeErrorKind::ArityMismatch { .. }
    ));
}

/// A group key matches across the spellings of one function: `ln`/`log`,
/// `pow`/`power`, `ceil`/`ceiling` compile to the same call.
#[test]
fn group_keys_match_across_function_name_aliases() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (1.5), (1.5), (2.5)")
        .unwrap();
    for (item, alias, spelled_alike) in [
        ("ln(a)", "log(a)", "ln(a)"),
        ("pow(a, 2)", "power(a, 2)", "pow(a, 2)"),
        ("ceil(a)", "ceiling(a)", "ceil(a)"),
    ] {
        let grouped_by = |db: &mut Database, key: &str| {
            db.execute(&format!(
                "SELECT {item}, count(*) FROM t GROUP BY {key} ORDER BY {item}"
            ))
            .unwrap_or_else(|e| panic!("GROUP BY {key}: {e}"))
        };
        let rows = grouped_by(&mut db, alias).rows;
        assert_eq!(rows.len(), 2, "{alias}");
        assert_eq!(rows[0][1], Value::Int(2), "{alias}");
        assert_eq!(rows, grouped_by(&mut db, spelled_alike).rows, "{alias}");
    }
}
