//! `sqlengine-shell` — an interactive SQL shell over the in-memory
//! engine. Useful for poking at the SQLEM work tables by hand (run the
//! `sql_trace` example to get a script, paste statements here) or just
//! exploring the dialect documented in docs/SQL_DIALECT.md.
//!
//! ```text
//! sqlengine-shell [script.sql …]
//! ```
//!
//! Scripts given as arguments run first; then statements are read from
//! stdin (end with `;`, `\q` quits). `EXPLAIN <statement>;` works for
//! every statement kind: it prints the semantic-analysis report (term
//! count, depth, output schema, limit warnings) and, for SELECT, the
//! execution plan — without running anything. Meta-commands:
//!
//! * `\d` — list tables; `\d <table>` — describe one table
//! * `\metrics on|off` — per-statement execution telemetry (printed
//!   after each statement, like a standing EXPLAIN ANALYZE);
//!   `\metrics` — print the recorded log; `\reset` — clear it
//! * `\q` — quit
//!
//! `EXPLAIN ANALYZE <stmt>;` executes the statement with telemetry and
//! prints the measured metrics alongside the plan.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};

use sqlengine::{Database, Value};

fn main() {
    let mut db = Database::new();
    for path in std::env::args().skip(1) {
        match std::fs::read_to_string(&path) {
            Ok(script) => match db.execute_all(&script) {
                Ok(results) => eprintln!("{path}: {} statement(s) ok", results.len()),
                Err(e) => eprintln!("{path}: {e}"),
            },
            Err(e) => eprintln!("cannot read {path}: {e}"),
        }
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let interactive = is_tty();
    if interactive {
        eprintln!(
            "sqlengine shell — end statements with ';', EXPLAIN <stmt>; to analyze, \\q to quit"
        );
    }
    loop {
        if interactive {
            if buffer.is_empty() {
                eprint!("sql> ");
            } else {
                eprint!("...> ");
            }
            let _ = std::io::stderr().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !meta_command(&mut db, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        let metrics_from = db.metrics().len();
        match db.execute_all(&sql) {
            Ok(results) => {
                for r in results {
                    print_result(&r);
                }
                for m in &db.metrics().entries()[metrics_from..] {
                    for line in m.render() {
                        eprintln!("-- {line}");
                    }
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn is_tty() -> bool {
    // Crude but dependency-free: honour an env override, default to
    // prompting (harmless when piped — prompts go to stderr).
    std::env::var_os("SQLENGINE_SHELL_QUIET").is_none()
}

/// Handle a `\…` command; false = quit.
fn meta_command(db: &mut Database, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "\\q" | "\\quit" => return false,
        "\\d" => match parts.next() {
            None => {
                for name in db.catalog().table_names() {
                    let rows = db.table_len(name).unwrap_or(0);
                    println!("{name} ({rows} rows)");
                }
            }
            Some(t) => match db.catalog().table(t) {
                Ok(table) => {
                    for c in table.schema().columns() {
                        let key = if table
                            .schema()
                            .primary_key()
                            .contains(&table.schema().column_index(&c.name).unwrap())
                        {
                            "  [PK]"
                        } else {
                            ""
                        };
                        println!("{} {}{key}", c.name, c.ty);
                    }
                }
                Err(e) => eprintln!("{e}"),
            },
        },
        "\\reset" => db.clear_metrics(),
        "\\metrics" => match parts.next() {
            Some("on") => {
                db.enable_metrics();
                eprintln!("metrics on — telemetry printed after each statement");
            }
            Some("off") => db.disable_metrics(),
            None => {
                for m in db.metrics().entries() {
                    for line in m.render() {
                        println!("{line}");
                    }
                }
                println!("({} statement(s) recorded)", db.metrics().len());
            }
            Some(other) => eprintln!("usage: \\metrics [on|off], got {other}"),
        },
        other => eprintln!("unknown command {other}; try \\d \\metrics \\reset \\q"),
    }
    true
}

fn print_result(r: &sqlengine::QueryResult) {
    if r.columns.is_empty() {
        println!("ok ({} row(s) affected)", r.rows_affected);
        return;
    }
    println!("{}", r.columns.join(" | "));
    for row in &r.rows {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        println!("{}", cells.join(" | "));
    }
    println!("({} row(s))", r.rows.len());
}
