//! Edge cases of the SQL surface that the SQLEM generators rely on but
//! the main integration tests don't isolate.

use sqlengine::{Database, Error, Value};

fn db() -> Database {
    Database::new()
}

#[test]
fn lateral_alias_chain_three_deep() {
    // p1 -> sump -> normalized: each item sees the previous ones.
    let mut d = db();
    d.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (3.0)").unwrap();
    let r = d
        .execute("SELECT x * 2 AS a, a + 1 AS b, b * b AS c FROM t")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Double(6.0));
    assert_eq!(r.rows[0][1], Value::Double(7.0));
    assert_eq!(r.rows[0][2], Value::Double(49.0));
}

#[test]
fn lateral_alias_does_not_shadow_base_column() {
    let mut d = db();
    d.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (5.0)").unwrap();
    // Alias `x` defined from x+1; the second item's `x` must still be the
    // base column (base wins over laterals).
    let r = d.execute("SELECT x + 1 AS x, x AS orig FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Double(6.0));
    assert_eq!(r.rows[0][1], Value::Double(5.0));
}

#[test]
fn four_way_join_with_mixed_hash_and_broadcast() {
    let mut d = db();
    d.execute(
        "CREATE TABLE a (k BIGINT PRIMARY KEY, v DOUBLE);
         CREATE TABLE b (k BIGINT PRIMARY KEY, v DOUBLE);
         CREATE TABLE one (c DOUBLE);
         CREATE TABLE two (d DOUBLE)",
    )
    .unwrap();
    d.execute(
        "INSERT INTO a VALUES (1, 10.0), (2, 20.0);
         INSERT INTO b VALUES (1, 1.0), (2, 2.0);
         INSERT INTO one VALUES (100.0);
         INSERT INTO two VALUES (1000.0)",
    )
    .unwrap();
    let r = d
        .execute(
            "SELECT a.v + b.v + one.c + two.d FROM a, one, b, two \
             WHERE a.k = b.k ORDER BY a.k",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Double(1111.0));
    assert_eq!(r.rows[1][0], Value::Double(1122.0));
}

#[test]
fn join_key_expressions_not_just_columns() {
    let mut d = db();
    d.execute(
        "CREATE TABLE a (k BIGINT PRIMARY KEY);
         CREATE TABLE b (k BIGINT PRIMARY KEY)",
    )
    .unwrap();
    d.execute("INSERT INTO a VALUES (1), (2), (3); INSERT INTO b VALUES (2), (4), (6)")
        .unwrap();
    // a.k * 2 = b.k is an equi-join on computed keys.
    let r = d
        .execute("SELECT a.k, b.k FROM a, b WHERE a.k * 2 = b.k ORDER BY a.k")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[2][0], Value::Int(3));
    assert_eq!(r.rows[2][1], Value::Int(6));
}

#[test]
fn residual_predicate_after_join() {
    let mut d = db();
    d.execute(
        "CREATE TABLE a (k BIGINT PRIMARY KEY, v DOUBLE);
         CREATE TABLE b (k BIGINT PRIMARY KEY, v DOUBLE)",
    )
    .unwrap();
    d.execute(
        "INSERT INTO a VALUES (1, 5.0), (2, 1.0);
         INSERT INTO b VALUES (1, 2.0), (2, 9.0)",
    )
    .unwrap();
    // a.v > b.v cannot be a hash key; it must filter joined rows.
    let r = d
        .execute("SELECT a.k FROM a, b WHERE a.k = b.k AND a.v > b.v")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn group_by_expression_key() {
    let mut d = db();
    d.execute("CREATE TABLE t (x BIGINT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)")
        .unwrap();
    let r = d
        .execute("SELECT mod(x, 2), count(*) FROM t GROUP BY mod(x, 2) ORDER BY mod(x, 2)")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], Value::Int(2)); // evens: 2, 4
    assert_eq!(r.rows[1][1], Value::Int(3)); // odds: 1, 3, 5
}

#[test]
fn scalar_function_of_aggregate() {
    let mut d = db();
    d.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)")
        .unwrap();
    // ln(sum(x)) — Fig. 7's YSUMP llh shape.
    let r = d.execute("SELECT ln(sum(x)) FROM t").unwrap();
    assert!((r.scalar_f64().unwrap() - 6.0f64.ln()).abs() < 1e-12);
}

#[test]
fn aggregate_inside_case_condition() {
    let mut d = db();
    d.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (0.25), (0.25)").unwrap();
    let r = d
        .execute("SELECT CASE WHEN sum(x) > 0 THEN ln(sum(x)) END FROM t")
        .unwrap();
    assert!((r.scalar_f64().unwrap() - 0.5f64.ln()).abs() < 1e-12);
    d.execute("DELETE FROM t").unwrap();
    d.execute("INSERT INTO t VALUES (0.0)").unwrap();
    let r = d
        .execute("SELECT CASE WHEN sum(x) > 0 THEN ln(sum(x)) END FROM t")
        .unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn update_where_referencing_from_table() {
    let mut d = db();
    d.execute(
        "CREATE TABLE t (k BIGINT PRIMARY KEY, x DOUBLE);
         CREATE TABLE limits (lo DOUBLE)",
    )
    .unwrap();
    d.execute("INSERT INTO t VALUES (1, 5.0), (2, 50.0); INSERT INTO limits VALUES (10.0)")
        .unwrap();
    let r = d
        .execute("UPDATE t FROM limits SET x = 0.0 WHERE x > limits.lo")
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = d.execute("SELECT x FROM t ORDER BY k").unwrap();
    assert_eq!(r.rows[0][0], Value::Double(5.0));
    assert_eq!(r.rows[1][0], Value::Double(0.0));
}

#[test]
fn update_pk_collision_is_detected_and_loud() {
    let mut d = db();
    d.execute("CREATE TABLE t (k BIGINT PRIMARY KEY)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let err = d.execute("UPDATE t SET k = 9").unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }));
}

#[test]
fn insert_select_into_keyed_table_enforces_uniqueness() {
    let mut d = db();
    d.execute(
        "CREATE TABLE src (k BIGINT, x DOUBLE);
         CREATE TABLE dst (k BIGINT PRIMARY KEY, x DOUBLE)",
    )
    .unwrap();
    d.execute("INSERT INTO src VALUES (1, 1.0), (1, 2.0)")
        .unwrap();
    let err = d
        .execute("INSERT INTO dst SELECT k, x FROM src")
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }));
}

#[test]
fn empty_table_aggregate_vs_group_by() {
    let mut d = db();
    d.execute("CREATE TABLE t (b BIGINT, x DOUBLE)").unwrap();
    // Implicit aggregation over empty input: one row.
    let r = d.execute("SELECT count(*), sum(x) FROM t").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert!(r.rows[0][1].is_null());
    // GROUP BY over empty input: zero rows.
    let r = d.execute("SELECT b, sum(x) FROM t GROUP BY b").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn unqualified_ambiguity_is_an_error_but_qualification_fixes_it() {
    let mut d = db();
    d.execute("CREATE TABLE a (v DOUBLE); CREATE TABLE b (v DOUBLE)")
        .unwrap();
    d.execute("INSERT INTO a VALUES (1.0); INSERT INTO b VALUES (2.0)")
        .unwrap();
    let err = d.execute("SELECT v FROM a, b").unwrap_err();
    let analysis = err.as_analyze().expect("analyzer should reject this");
    assert!(matches!(
        analysis.kind,
        sqlengine::AnalyzeErrorKind::AmbiguousColumn(_)
    ));
    let r = d.execute("SELECT a.v, b.v FROM a, b").unwrap();
    assert_eq!(r.rows[0][0], Value::Double(1.0));
    assert_eq!(r.rows[0][1], Value::Double(2.0));
}

#[test]
fn cross_join_cardinality() {
    let mut d = db();
    d.execute("CREATE TABLE a (x BIGINT); CREATE TABLE b (y BIGINT)")
        .unwrap();
    d.execute("INSERT INTO a VALUES (1), (2), (3); INSERT INTO b VALUES (10), (20)")
        .unwrap();
    let r = d.execute("SELECT x, y FROM a, b").unwrap();
    assert_eq!(r.rows.len(), 6);
}

#[test]
fn division_null_propagation_vs_zero_error() {
    let mut d = db();
    d.execute("CREATE TABLE t (x DOUBLE, y DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (1.0, NULL)").unwrap();
    // NULL divisor → NULL, not an error.
    let r = d.execute("SELECT x / y FROM t").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn order_by_multiple_keys_mixed_direction() {
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 1), (1, 2), (2, 1), (2, 2)")
        .unwrap();
    let r = d
        .execute("SELECT a, b FROM t ORDER BY a DESC, b ASC")
        .unwrap();
    let got: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(2, 1), (2, 2), (1, 1), (1, 2)]);
}

#[test]
fn wide_table_with_many_columns() {
    // A k = 60 YX-style table: wide rows through the whole pipeline.
    let mut d = db();
    let cols: Vec<String> = (1..=60).map(|j| format!("x{j} DOUBLE")).collect();
    d.execute(&format!(
        "CREATE TABLE yx (rid BIGINT PRIMARY KEY, {})",
        cols.join(", ")
    ))
    .unwrap();
    let vals: Vec<String> = (1..=60).map(|j| format!("{}.0", j)).collect();
    d.execute(&format!("INSERT INTO yx VALUES (1, {})", vals.join(", ")))
        .unwrap();
    let sum: String = (1..=60)
        .map(|j| format!("x{j}"))
        .collect::<Vec<_>>()
        .join(" + ");
    let r = d.execute(&format!("SELECT {sum} FROM yx")).unwrap();
    assert_eq!(r.scalar_f64(), Some(1830.0));
}

#[test]
fn sixty_five_tables_in_from_rejected() {
    let mut d = db();
    for i in 0..66 {
        d.execute(&format!("CREATE TABLE t{i} (x BIGINT)")).unwrap();
        d.execute(&format!("INSERT INTO t{i} VALUES ({i})"))
            .unwrap();
    }
    let froms: Vec<String> = (0..66).map(|i| format!("t{i}")).collect();
    let err = d
        .execute(&format!("SELECT t0.x FROM {}", froms.join(", ")))
        .unwrap_err();
    // The analyzer predicts the executor's 64-bit scope-mask ceiling
    // statically, so this never reaches the join planner.
    let analysis = err.as_analyze().expect("analyzer should reject this");
    assert!(matches!(
        analysis.kind,
        sqlengine::AnalyzeErrorKind::TooComplex {
            metric: sqlengine::Metric::Tables,
            value: 66,
            limit: 64,
        }
    ));
}

#[test]
fn varchar_round_trip_and_grouping() {
    let mut d = db();
    d.execute("CREATE TABLE t (name VARCHAR, x DOUBLE)")
        .unwrap();
    d.execute("INSERT INTO t VALUES ('a', 1.0), ('b', 2.0), ('a', 3.0)")
        .unwrap();
    let r = d
        .execute("SELECT name, sum(x) FROM t GROUP BY name ORDER BY name")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::str("a"));
    assert_eq!(r.rows[0][1], Value::Double(4.0));
    assert_eq!(r.rows[1][0], Value::str("b"));
}

#[test]
fn select_from_missing_table_is_clean_error() {
    let mut d = db();
    let is_unknown_table = |e: Error| {
        matches!(
            e.as_analyze().expect("analyzer should reject this").kind,
            sqlengine::AnalyzeErrorKind::UnknownTable(_)
        )
    };
    assert!(is_unknown_table(
        d.execute("SELECT * FROM nope").unwrap_err()
    ));
    assert!(is_unknown_table(
        d.execute("INSERT INTO nope VALUES (1)").unwrap_err()
    ));
    assert!(is_unknown_table(
        d.execute("UPDATE nope SET x = 1").unwrap_err()
    ));
}

#[test]
fn explain_describes_the_pipeline() {
    let mut d = db();
    d.execute(
        "CREATE TABLE y (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v));
         CREATE TABLE cr (v BIGINT PRIMARY KEY, c1 DOUBLE, r DOUBLE);
         CREATE TABLE gmm (n BIGINT)",
    )
    .unwrap();
    // `y` stored out of `rid` order: the GROUP BY hashes.
    d.execute("INSERT INTO y VALUES (2,1,0.5), (1,1,0.5); INSERT INTO cr VALUES (1, 0.0, 1.0); INSERT INTO gmm VALUES (1)")
        .unwrap();
    let explain = |d: &mut Database, table: &str| -> Vec<String> {
        let sql = format!(
            "EXPLAIN SELECT rid, sum(({table}.val - cr.c1) ** 2 / cr.r) FROM {table}, cr, gmm \
             WHERE {table}.v = cr.v GROUP BY rid"
        );
        let r = d.execute(&sql).unwrap();
        r.rows.iter().map(|row| row[0].to_string()).collect()
    };
    let plan = explain(&mut d, "y");
    assert!(plan[0].starts_with("driver scan: y"), "{plan:?}");
    assert!(plan[1].starts_with("hash join: cr on 1 key(s)"), "{plan:?}");
    assert!(
        plan[2].starts_with("broadcast (cross join): gmm"),
        "{plan:?}"
    );
    assert!(
        plan[3].contains("sink: hash aggregate (1 group key(s), 1 accumulator(s))"),
        "{plan:?}"
    );
    // Its twin stored in `rid` order: the same plan streams.
    d.execute(
        "CREATE TABLE ys (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v));
         INSERT INTO ys VALUES (1,1,0.5), (2,1,0.5)",
    )
    .unwrap();
    let plan = explain(&mut d, "ys");
    assert!(
        plan[3].contains("sink: stream aggregate (1 group key(s), 1 accumulator(s))"),
        "{plan:?}"
    );
}

#[test]
fn explain_scalar_projection_and_limits() {
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT)").unwrap();
    d.execute("INSERT INTO t VALUES (1)").unwrap();
    let r = d
        .execute("EXPLAIN SELECT a, a + 1 FROM t ORDER BY a LIMIT 5")
        .unwrap();
    let plan: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(
        plan.iter().any(|l| l.contains("projection (2 item(s))")),
        "{plan:?}"
    );
    assert!(
        plan.iter().any(|l| l.contains("order by: 1 key(s)")),
        "{plan:?}"
    );
    assert!(plan.iter().any(|l| l.contains("limit: 5")), "{plan:?}");
}

#[test]
fn explain_covers_every_statement_kind() {
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT)").unwrap();
    // Non-SELECT statements get an analysis report instead of a plan.
    let r = d.execute("EXPLAIN DELETE FROM t").unwrap();
    let plan: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(plan.iter().any(|l| l.starts_with("analysis:")), "{plan:?}");
    // Semantic errors are reported as output, with a byte position.
    let r = d.execute("EXPLAIN SELECT bogus FROM t").unwrap();
    let plan: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(
        plan.iter()
            .any(|l| l.starts_with("analysis error:") && l.contains("bogus")),
        "{plan:?}"
    );
}

#[test]
fn explain_output_types_are_the_types_of_the_rows() {
    let mut d = db();
    d.execute("CREATE TABLE t (a DOUBLE, b BIGINT)").unwrap();
    d.execute("INSERT INTO t VALUES (-2.5, -7)").unwrap();
    let sql = "SELECT sign(a), abs(b), mod(b, 2), abs(a), mod(b, 2.0) FROM t";
    let r = d.execute(&format!("EXPLAIN {sql}")).unwrap();
    let plan: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert!(
        plan.iter().any(|l| l
            == "output: col1 BIGINT, col2 BIGINT, col3 BIGINT, col4 DOUBLE, col5 DOUBLE"),
        "{plan:?}"
    );
    let r = d.execute(sql).unwrap();
    assert_eq!(
        r.rows[0].to_vec(),
        vec![
            Value::Int(-1),
            Value::Int(7),
            Value::Int(-1),
            Value::Double(2.5),
            Value::Double(-1.0)
        ]
    );
}

#[test]
fn variance_is_an_unknown_function() {
    // The aggregates are SUM, COUNT, AVG, MIN and MAX, each merging
    // across shards in any order. VARIANCE and STDDEV are not among
    // them: analysis refuses them before a row is read, in a statement
    // and in a shard's partial alike.
    let mut d = db();
    d.execute("CREATE TABLE t (g BIGINT, x DOUBLE)").unwrap();
    d.execute("CREATE TABLE u (v DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2.0), (1, 4.0), (2, 5.0)")
        .unwrap();
    for name in ["variance", "var_pop", "stddev", "stddev_pop"] {
        let select = format!("SELECT g, {name}(x) FROM t GROUP BY g");
        let insert = format!("INSERT INTO u SELECT {name}(x) FROM t");
        let errors = [
            d.execute(&select).unwrap_err(),
            d.execute(&insert).unwrap_err(),
            d.execute_partial(&select).unwrap_err(),
        ];
        for e in errors {
            assert!(e.as_analyze().is_some(), "{name}: {e}");
            assert!(
                e.to_string()
                    .contains(&format!("unknown function {name}()")),
                "{e}"
            );
        }
    }
    let r = d.execute("SELECT count(*) FROM u").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn failed_statement_keeps_earlier_effects() {
    // No transactions (§3.6 workflow): statement 2's failure leaves
    // statement 1's insert in place.
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT PRIMARY KEY)").unwrap();
    let err = d.execute_all("INSERT INTO t VALUES (1); INSERT INTO t VALUES (1)");
    assert!(err.is_err());
    let r = d.execute("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn query_result_accessors() {
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT, b DOUBLE)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 2.5)").unwrap();
    let r = d.execute("SELECT a AS first, b AS second FROM t").unwrap();
    assert_eq!(r.column_index("first"), Some(0));
    assert_eq!(r.column_index("SECOND"), Some(1));
    assert_eq!(r.column_index("third"), None);
    assert_eq!(r.cell(0, 1), Some(&Value::Double(2.5)));
    assert_eq!(r.cell(1, 0), None);
    assert_eq!(r.cell(0, 9), None);
    assert_eq!(r.scalar_f64(), Some(1.0));
}

#[test]
fn update_from_first_match_wins() {
    // Multiple FROM rows satisfy WHERE; the first one (in table order)
    // supplies the bindings — deterministic, documented semantics.
    let mut d = db();
    d.execute(
        "CREATE TABLE t (k BIGINT PRIMARY KEY, x DOUBLE);
         CREATE TABLE lookup (v DOUBLE)",
    )
    .unwrap();
    d.execute("INSERT INTO t VALUES (1, 0.0); INSERT INTO lookup VALUES (10.0), (20.0)")
        .unwrap();
    d.execute("UPDATE t FROM lookup SET x = lookup.v").unwrap();
    let r = d.execute("SELECT x FROM t").unwrap();
    assert_eq!(r.scalar_f64(), Some(10.0));
}

#[test]
fn update_from_first_match_wins_through_joins() {
    // The first match in table order, whichever way the FROM tables
    // join: a hash join whose build side repeats keys, and the cross
    // product of two FROM tables, the first of them varying slowest.
    let mut d = db();
    d.execute(
        "CREATE TABLE t (k BIGINT PRIMARY KEY, x DOUBLE);
         CREATE TABLE lookup (k BIGINT, v DOUBLE);
         CREATE TABLE a (v DOUBLE);
         CREATE TABLE b (w DOUBLE)",
    )
    .unwrap();
    d.execute(
        "INSERT INTO t VALUES (1, 0.0), (2, 0.0), (3, 0.0);
         INSERT INTO lookup VALUES (2, 5.0), (1, 10.0), (2, 6.0), (1, 20.0);
         INSERT INTO a VALUES (1.0), (2.0);
         INSERT INTO b VALUES (3.0), (4.0)",
    )
    .unwrap();
    let xs = |d: &mut Database| -> Vec<Value> {
        let r = d.execute("SELECT x FROM t ORDER BY k").unwrap();
        r.rows.into_iter().map(|row| row[0].clone()).collect()
    };
    let r = d
        .execute("UPDATE t FROM lookup SET x = lookup.v WHERE t.k = lookup.k")
        .unwrap();
    assert_eq!(r.rows_affected, 2);
    let want = [10.0, 5.0, 0.0].map(Value::Double);
    assert_eq!(xs(&mut d), want);
    // (a, b) combinations in order: (1, 3), (1, 4), (2, 3), (2, 4).
    // Row 1 takes (1, 4), not (2, 3); row 3 matches nothing.
    let r = d
        .execute("UPDATE t FROM a, b SET x = a.v * 100 + b.w WHERE a.v + b.w > t.k + 3")
        .unwrap();
    assert_eq!(r.rows_affected, 2);
    let want = [104.0, 204.0, 0.0].map(Value::Double);
    assert_eq!(xs(&mut d), want);
}

#[test]
fn limit_zero_and_limit_beyond_rows() {
    let mut d = db();
    d.execute("CREATE TABLE t (a BIGINT)").unwrap();
    d.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(d.execute("SELECT a FROM t LIMIT 0").unwrap().rows.len(), 0);
    assert_eq!(d.execute("SELECT a FROM t LIMIT 99").unwrap().rows.len(), 2);
}

#[test]
fn drop_recreate_changes_schema() {
    // The per-iteration DROP/CREATE pattern must fully replace schemas
    // (the fused-YX variant reuses the same table name with a wider row).
    let mut d = db();
    d.execute("CREATE TABLE w (a BIGINT)").unwrap();
    d.execute("INSERT INTO w VALUES (1)").unwrap();
    d.execute("DROP TABLE w").unwrap();
    d.execute("CREATE TABLE w (a BIGINT, b DOUBLE, c DOUBLE)")
        .unwrap();
    d.execute("INSERT INTO w VALUES (1, 2.0, 3.0)").unwrap();
    let r = d.execute("SELECT c FROM w").unwrap();
    assert_eq!(r.scalar_f64(), Some(3.0));
}

#[test]
fn sum_and_avg_of_bigints_past_2_53_are_exact() {
    // An addend of 2^53 or more is not its nearest double: added as
    // `n as f64` the first set summed to 0 and the second to 1.
    let cases: [(&[i64], i64); 2] = [
        (&[9007199254740993, -9007199254740992], 1),
        (&[4611686018427387905, -4611686018427387904, 1], 2),
    ];
    let ddl = "CREATE TABLE t (rid BIGINT PRIMARY KEY, n BIGINT)";
    // The CASE mixes types, so its integers reach SUM one value at a time.
    let sql = "SELECT SUM(n), AVG(n), SUM(CASE WHEN rid = 1 THEN 0.5 ELSE n END) FROM t";
    for (big, want) in cases {
        // The big values first and last, small ones between, so each
        // shard below holds one of them.
        let mut ns: Vec<i64> = (0..5000).map(|i| i % 7 - 3).collect();
        ns.splice(0..0, big[..1].iter().copied());
        ns.extend(&big[1..]);
        let total = want + ns[1..=5000].iter().sum::<i64>();
        let rows: Vec<Vec<Value>> = (0..)
            .zip(&ns)
            .map(|(rid, &n)| vec![Value::Int(rid), Value::Int(n)])
            .collect();
        let expected = vec![
            Value::Int(total),
            Value::Double(total as f64 / ns.len() as f64),
            Value::Double((total - ns[1]) as f64 + 0.5),
        ];
        let load = |rows: &[Vec<Value>]| {
            let mut d = db();
            d.execute(ddl).unwrap();
            d.bulk_insert("t", rows.to_vec()).unwrap();
            d
        };
        let got = load(&rows).execute(sql).unwrap();
        assert_eq!(got.rows[0].to_vec(), expected, "one table");
        // Two shards' partials, merged and finalized where no row lives.
        let (left, right) = rows.split_at(1700);
        let mut merged = load(left).execute_partial(sql).unwrap();
        merged
            .merge(&load(right).execute_partial(sql).unwrap())
            .unwrap();
        let got = load(&[]).finalize_partials(sql, &merged).unwrap();
        assert_eq!(got.rows[0].to_vec(), expected, "partials");
    }
}

#[test]
fn bigint_keys_past_2_53_are_distinct_keys() {
    // 2^53 and 2^53 + 1 share a double. Compared through it they were
    // one primary key, one group, one join key and one WHERE match.
    const A: i64 = 9007199254740992;
    const B: i64 = A + 1;
    // `assert_eq!` on values is the equality under test: read the bits.
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("expected a BIGINT, got {other:?}"),
    };
    let rows_of = |range: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        range
            .map(|i| vec![Value::Int(A + i % 2), Value::Double(i as f64)])
            .collect()
    };
    let load = |rows: Vec<Vec<Value>>| {
        let mut d = db();
        d.execute(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, x DOUBLE);
             CREATE TABLE u (id BIGINT, y DOUBLE)",
        )
        .unwrap();
        d.bulk_insert("u", rows).unwrap();
        d
    };
    let grouped = "SELECT id, count(*) FROM u GROUP BY id ORDER BY id";
    let check_groups = |r: &sqlengine::QueryResult, each: i64, what: &str| {
        let got: Vec<(i64, i64)> = r.rows.iter().map(|r| (int(&r[0]), int(&r[1]))).collect();
        assert_eq!(got, vec![(A, each), (B, each)], "{what}");
    };
    let mut d = load(rows_of(0..5000));
    d.execute(&format!("INSERT INTO t VALUES ({A}, 1.0)"))
        .unwrap();
    d.execute(&format!("INSERT INTO t VALUES ({B}, 2.0)"))
        .unwrap();
    let err = d
        .execute(&format!("INSERT INTO t VALUES ({B}, 3.0)"))
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey { .. }), "{err}");

    check_groups(&d.execute(grouped).unwrap(), 2500, "group by");

    // The primary-key index join, and the same join through a hash
    // table built for the statement (a computed build key).
    for on in ["u.id = t.id", "u.id = t.id + 0"] {
        let r = d
            .execute(&format!("SELECT u.id, t.id, t.x FROM u, t WHERE {on}"))
            .unwrap();
        assert_eq!(r.rows.len(), 5000, "{on}");
        for row in r.rows.iter() {
            assert_eq!(int(&row[0]), int(&row[1]), "{on}");
            let x = (int(&row[1]) - A + 1) as f64;
            assert_eq!(row[2].as_f64(), Some(x), "{on}");
        }
    }

    let ids = |d: &mut Database, predicate: &str| -> Vec<i64> {
        let sql = format!("SELECT id FROM t WHERE {predicate} ORDER BY id");
        d.execute(&sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| int(&r[0]))
            .collect()
    };
    assert_eq!(ids(&mut d, &format!("id = {B}")), [B]);
    assert_eq!(ids(&mut d, &format!("id <> {B}")), [A]);
    assert_eq!(ids(&mut d, &format!("id < {B}")), [A]);
    assert_eq!(ids(&mut d, &format!("id >= {B}")), [B]);
    let r = d
        .execute(&format!("SELECT count(*) FROM u WHERE id = {B}"))
        .unwrap();
    assert_eq!(int(&r.rows[0][0]), 2500);
    // Two shards' group tables, merged and finalized where no row lives.
    let mut merged = load(rows_of(0..1700)).execute_partial(grouped).unwrap();
    merged
        .merge(&load(rows_of(1700..5000)).execute_partial(grouped).unwrap())
        .unwrap();
    let got = load(vec![]).finalize_partials(grouped, &merged).unwrap();
    check_groups(&got, 2500, "partials");
}
