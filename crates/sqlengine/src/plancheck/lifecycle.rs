//! Table lifecycle analysis over a linear script.
//!
//! Each table moves through `absent → created → dropped`; this pass
//! walks the whole script once and flags the transitions that indicate
//! generator bugs:
//!
//! * **work-table leak** — created by the script, still live at the
//!   end (a failed cleanup section, or none at all);
//! * **use-before-create** — referenced at index `i`, created only at
//!   some `j > i` (a statement-ordering bug);
//! * **read-after-drop** — referenced after its `DROP TABLE`;
//! * **double-create** — plain `CREATE TABLE` over a live table.
//!
//! Tables matching a declared persistent prefix (SQLEM's `ckpt`
//! checkpoint table) are exempt from leak detection: surviving the
//! session is their whole point.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::ast::{InsertSource, Statement};

use super::{find_ident_pos, Diagnostic, DiagnosticKind, ScriptStmt};

/// Lifecycle state of one table during the walk.
enum State {
    /// Live; `Some(i)` when statement `i` of this script created it.
    Live(Option<usize>),
    /// Dropped by an earlier statement.
    Dropped,
}

/// Tables a statement reads or writes (not counting DDL targets).
fn used_tables(stmt: &Statement, out: &mut Vec<String>) {
    match stmt {
        Statement::CreateTable { .. } | Statement::DropTable { .. } => {}
        Statement::Insert { table, source, .. } => {
            out.push(table.to_ascii_lowercase());
            if let InsertSource::Select(sel) = source {
                for t in &sel.from {
                    out.push(t.table.to_ascii_lowercase());
                }
            }
        }
        Statement::Update { table, from, .. } => {
            out.push(table.to_ascii_lowercase());
            for t in from {
                out.push(t.table.to_ascii_lowercase());
            }
        }
        Statement::Delete { table, .. } => out.push(table.to_ascii_lowercase()),
        Statement::Select(sel) => {
            for t in &sel.from {
                out.push(t.table.to_ascii_lowercase());
            }
        }
        // Plain EXPLAIN never touches data; EXPLAIN ANALYZE does.
        Statement::Explain(_) => {}
        Statement::ExplainAnalyze(inner) => used_tables(inner, out),
    }
}

/// Run the lifecycle pass. `parsed[i]` holds the parsed statements of
/// `stmts[i]` (empty when parsing failed — those are reported
/// elsewhere); `preexisting` are tables live before the script runs.
pub(super) fn check(
    parsed: &[Vec<Statement>],
    stmts: &[ScriptStmt],
    preexisting: &BTreeSet<String>,
    persistent_prefixes: &[String],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // First creation index per table, for use-before-create.
    let mut creates: BTreeMap<String, usize> = BTreeMap::new();
    for (i, group) in parsed.iter().enumerate() {
        for stmt in group {
            if let Statement::CreateTable { name, .. } = stmt {
                creates.entry(name.to_ascii_lowercase()).or_insert(i);
            }
        }
    }

    let mut state: BTreeMap<String, State> = preexisting
        .iter()
        .map(|t| (t.clone(), State::Live(None)))
        .collect();

    for (i, group) in parsed.iter().enumerate() {
        let script_stmt = &stmts[i];
        let diag = |kind: DiagnosticKind, table: &str| Diagnostic {
            severity: kind.severity(),
            kind,
            stmt: Some(i),
            purpose: script_stmt.purpose.clone(),
            pos: find_ident_pos(&script_stmt.sql, table),
        };
        for stmt in group {
            let mut used = Vec::new();
            used_tables(stmt, &mut used);
            used.dedup();
            for t in used {
                match state.get(&t) {
                    Some(State::Live(_)) => {}
                    Some(State::Dropped) => {
                        diags.push(diag(DiagnosticKind::ReadAfterDrop { table: t.clone() }, &t));
                    }
                    None => {
                        // Only a lifecycle problem when the script does
                        // create it, later; a table that never exists is
                        // a plain unknown-table semantic error.
                        if creates.get(&t).is_some_and(|&j| j > i) {
                            diags.push(diag(
                                DiagnosticKind::UseBeforeCreate { table: t.clone() },
                                &t,
                            ));
                        }
                    }
                }
            }
            match stmt {
                Statement::CreateTable {
                    name,
                    if_not_exists,
                    ..
                } => {
                    let t = name.to_ascii_lowercase();
                    match state.get(&t) {
                        Some(State::Live(_)) if !*if_not_exists => {
                            diags.push(diag(DiagnosticKind::DoubleCreate { table: t.clone() }, &t));
                        }
                        Some(State::Live(_)) => {}
                        _ => {
                            state.insert(t, State::Live(Some(i)));
                        }
                    }
                }
                Statement::DropTable { name, .. } => {
                    state.insert(name.to_ascii_lowercase(), State::Dropped);
                }
                _ => {}
            }
        }
    }

    // Anything the script created and left live at the end is a leak,
    // unless it is declared persistent.
    for (t, s) in &state {
        if let State::Live(Some(created_at)) = s {
            if persistent_prefixes
                .iter()
                .any(|p| t.starts_with(p.as_str()))
            {
                continue;
            }
            let script_stmt = &stmts[*created_at];
            diags.push(Diagnostic {
                severity: DiagnosticKind::WorkTableLeak { table: t.clone() }.severity(),
                kind: DiagnosticKind::WorkTableLeak { table: t.clone() },
                stmt: Some(*created_at),
                purpose: script_stmt.purpose.clone(),
                pos: find_ident_pos(&script_stmt.sql, t),
            });
        }
    }
    diags
}
