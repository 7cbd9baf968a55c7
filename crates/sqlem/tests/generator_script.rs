//! The generator scripts executed end-to-end against a fresh engine.

use sqlem::{build_generator, SqlemConfig, Strategy};

fn all_statements(strategy: Strategy, p: usize, k: usize, fused: bool) -> Vec<sqlem::Stmt> {
    let mut config = SqlemConfig::new(k, strategy);
    if fused {
        config = config.with_fused_e_step();
    }
    let g = build_generator(&config, p);
    let mut all = g.create_tables();
    all.extend(g.post_load(12345));
    all.extend(g.e_step());
    all.extend(g.m_step());
    all.extend(g.score_step());
    all
}

/// Execute a script against a fresh engine; the only acceptable failure
/// is data-dependent, not a missing table or column.
fn run_script<'a>(label: &str, script: impl Iterator<Item = &'a str>) {
    use sqlengine::AnalyzeErrorKind::{UnknownColumn, UnknownTable};
    let mut db = sqlengine::Database::new();
    for sql in script {
        let Err(e) = db.execute(sql) else { continue };
        match e.as_analyze().map(|e| &e.kind) {
            Some(UnknownTable(t)) => panic!("{label}: statement uses unknown table {t}: {sql}"),
            Some(UnknownColumn(c)) => panic!("{label}: unknown column {c}: {sql}"),
            // Empty parameter tables make aggregates NULL and inserts
            // fail coercion — fine for this test.
            _ => {}
        }
    }
}

/// CREATE TABLE statements cover every table the other statements use.
#[test]
fn statements_only_use_created_tables() {
    for strategy in Strategy::ALL {
        let stmts = all_statements(strategy, 4, 3, false);
        let created: std::collections::HashSet<String> = stmts
            .iter()
            .filter_map(|s| {
                s.sql
                    .strip_prefix("CREATE TABLE ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .map(|t| t.to_string())
            })
            .collect();
        run_script(&strategy.to_string(), stmts.iter().map(|s| s.sql.as_str()));
        assert!(
            created.len() >= 8,
            "{strategy} created {} tables",
            created.len()
        );
    }
}

/// The check above can fail: one misspelt table stops the script.
#[test]
#[should_panic(expected = "statement uses unknown table yx_")]
fn a_misspelt_table_is_caught() {
    let stmts = all_statements(Strategy::Hybrid, 4, 3, false);
    let script = stmts.iter().map(|s| s.sql.as_str());
    run_script("hybrid", script.chain(["SELECT count(*) FROM yx_"]));
}
