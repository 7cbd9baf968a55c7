//! `sqlem-server` — serve a SQLEM database over TCP.
//!
//! The DBMS half of the paper's two-tier deployment: start this where
//! the data lives, point `sqlem-cli --connect host:port` (or any
//! [`sqlwire::RemoteConnection`]) at it, and the EM clustering client
//! runs its generated SQL here.
//!
//! ```text
//! sqlem-server [--listen ADDR] [--durable] [--data-dir DIR]
//!              [--max-connections N]
//!              [--idle-timeout SECS] [--lock-timeout SECS]
//!              [--auth-token TOKEN] [--drop-nth-connection N]
//!              [--memory-budget BYTES] [--session-memory-budget BYTES]
//!              [--inject-fault SPEC]...
//! ```
//!
//! Prints `listening on ADDR` once ready (scripts wait for that line),
//! then serves until stdin closes or reads a `shutdown` line, at which
//! point it stops accepting and drains live sessions. `--durable`
//! write-ahead-logs every mutation under `--data-dir` (default
//! `sqlem_data`), so `kill -9` + restart recovers to the last
//! acknowledged statement and remote clients resume from their
//! checkpoint table.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use sqlengine::{Database, FaultPlan, FaultRule, MemoryBudget, SharedDatabase};
use sqlwire::{Server, ServerConfig};

struct Args {
    listen: String,
    data_dir: Option<String>,
    faults: Vec<FaultRule>,
    server: ServerConfig,
}

const USAGE: &str = "usage: sqlem-server [--listen ADDR] [--durable] [--data-dir DIR]\n\
     [--max-connections N] [--idle-timeout SECS]\n\
     [--lock-timeout SECS] [--auth-token TOKEN]\n\
     [--drop-nth-connection N] [--memory-budget BYTES]\n\
     [--session-memory-budget BYTES] [--inject-fault SPEC]...\n\
\n\
Serves a SQLEM database over TCP (see docs/SERVER.md). Prints\n\
'listening on ADDR' when ready; type 'shutdown' (or close stdin) for\n\
a graceful drain. --durable persists to --data-dir (default\n\
sqlem_data) via the write-ahead log.";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7878".to_string(),
        data_dir: None,
        faults: Vec::new(),
        server: ServerConfig::default(),
    };
    let mut durable = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut req = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--listen" => args.listen = req("--listen")?,
            "--durable" => durable = true,
            "--data-dir" => args.data_dir = Some(req("--data-dir")?),
            "--max-connections" => {
                args.server.max_connections = req("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections needs an integer".to_string())?;
            }
            "--idle-timeout" => {
                args.server.idle_timeout = Duration::from_secs_f64(
                    req("--idle-timeout")?
                        .parse()
                        .map_err(|_| "--idle-timeout needs seconds".to_string())?,
                );
            }
            "--lock-timeout" => {
                args.server.lock_timeout = Duration::from_secs_f64(
                    req("--lock-timeout")?
                        .parse()
                        .map_err(|_| "--lock-timeout needs seconds".to_string())?,
                );
            }
            "--auth-token" => args.server.auth_token = req("--auth-token")?,
            "--drop-nth-connection" => {
                args.server.drop_nth_connection = Some(
                    req("--drop-nth-connection")?
                        .parse()
                        .map_err(|_| "--drop-nth-connection needs an integer".to_string())?,
                );
            }
            "--memory-budget" => {
                args.server.memory_budget =
                    Some(parse_budget("--memory-budget", &req("--memory-budget")?)?);
            }
            "--session-memory-budget" => {
                args.server.session_memory_budget = Some(parse_budget(
                    "--session-memory-budget",
                    &req("--session-memory-budget")?,
                )?);
            }
            "--inject-fault" => args.faults.push(req("--inject-fault")?.parse()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    if durable && args.data_dir.is_none() {
        args.data_dir = Some("sqlem_data".to_string());
    }
    Ok(args)
}

/// Parse a byte budget: a positive count, K/M/G suffixes accepted.
fn parse_budget(flag: &str, value: &str) -> Result<u64, String> {
    MemoryBudget::parse_limit(value)
        .ok_or_else(|| format!("{flag} needs a positive byte count (K/M/G suffixes accepted)"))
}

fn run(args: Args) -> Result<(), String> {
    let mut db = match &args.data_dir {
        Some(dir) => {
            let db = Database::open_durable(dir)
                .map_err(|e| format!("cannot open durable database at {dir}: {e}"))?;
            eprintln!("durable database at {dir} (write-ahead logged)");
            db
        }
        None => Database::new(),
    };
    if !args.faults.is_empty() {
        eprintln!("fault plan armed ({} rule(s))", args.faults.len());
        db.set_fault_plan(FaultPlan::new(args.faults));
    }
    if let Some(b) = args.server.memory_budget {
        eprintln!("global working-memory budget: {b} byte(s)");
    }
    if let Some(b) = args.server.session_memory_budget {
        eprintln!("per-session working-memory budget: {b} byte(s)");
    }

    let server = Server::bind(&args.listen, SharedDatabase::new(db), args.server)
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    println!("listening on {addr}");
    std::io::stdout().flush().ok();

    // The accept loop gets its own thread; this one watches stdin so an
    // operator (or a test harness closing the pipe) can drain us.
    let accept = std::thread::spawn(move || server.run());
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    eprintln!("draining {} live session(s)", handle.active_sessions());
    handle.shutdown();
    accept
        .join()
        .map_err(|_| "accept loop panicked".to_string())?
        .map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sqlem-server: {msg}");
            ExitCode::FAILURE
        }
    }
}
