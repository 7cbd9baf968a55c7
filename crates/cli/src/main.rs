//! `sqlem-cli` — cluster a numeric CSV with EM running as generated SQL.
//!
//! ```text
//! sqlem-cli <input.csv> --k <clusters> [options]
//! sqlem-cli lint --p <dims> --k <clusters> [lint / analyze options]
//! sqlem-cli analyze --p <dims> --k <clusters> [lint / analyze options]
//!
//! options:
//!   --k N                 number of clusters (required)
//!   --strategy S          horizontal | vertical | hybrid (default hybrid)
//!   --epsilon E           llh convergence tolerance (default 1e-3)
//!   --max-iterations N    iteration cap (default 10, paper §3.1)
//!   --seed N              RNG seed for initialization (default 0)
//!   --sample F            init from an F-fraction sample (default 0.1)
//!   --no-header           first CSV row is data, not column names
//!   --scores PATH         write per-row cluster assignments as CSV
//!   --sql                 print the generated SQL instead of running
//!   --fused               use the fused E step (one fewer scan/iteration)
//!   --trace-metrics       print per-iteration cost-model telemetry
//!                         (n-scans / pn-scans / temp rows / E+M timings)
//!                         beside the strategy's closed-form scan counts
//!   --retries N           retry transiently-failed statements up to N
//!                         times each (exponential backoff)
//!   --durable             persist the database under a write-ahead
//!                         logged directory (default ./sqlem_data); a
//!                         killed, failed or capped run resumes from its
//!                         in-database checkpoint on the next invocation
//!   --data-dir PATH       where the durable database lives (implies
//!                         --durable)
//!   --recover             re-seed degenerate (empty/NaN) clusters
//!                         deterministically instead of aborting
//!   --inject-fault SPEC   deterministic fault injection for testing.
//!                         SPEC = SELECTOR[:MOD]... with SELECTOR one of
//!                         a statement number, kind=insert|update|
//!                         delete|select, or table=SUBSTRING; MODs:
//!                         transient (default), permanent, exhaustion
//!                         (a typed out-of-memory failure), once
//!                         (default), always. Repeatable.
//!   --memory-budget B     cap the engine's working memory at B bytes
//!                         (K/M/G suffixes accepted). The load halves
//!                         its chunks under memory pressure; a
//!                         statement that still does not fit fails
//!                         with a typed transient error instead of
//!                         growing without bound.
//!   --load-chunk N        bulk-load at most N rows per INSERT; under
//!                         a budget the chunk also halves on memory
//!                         pressure instead of failing the load.
//!   --connect HOST:PORT   run against a remote sqlem-server instead of
//!                         an in-process database (the paper's two-tier
//!                         deployment, §1.4). Server-side options
//!                         (--durable, --data-dir, --inject-fault,
//!                         --memory-budget) then belong to the server.
//!   --shards ADDR,...     run against a *cluster* of sqlem-servers:
//!                         rid-bearing tables are hash-partitioned
//!                         across the comma-separated HOST:PORT shards
//!                         and every statement is fragmented by the
//!                         scatter/gather coordinator (docs/CLUSTER.md),
//!                         bit-identically to a single node. Mutually
//!                         exclusive with --connect; an unreachable or
//!                         version-mismatched shard exits with code 5.
//!                         A remote or sharded run checkpoints like a
//!                         durable one, in the server's database.
//!   --namespace PREFIX    work-table prefix to claim exclusively on the
//!                         server (lets concurrent clients share it)
//!   --auth-token TOKEN    shared secret for the server handshake
//!   --deadline SECS       per-statement deadline (fractional seconds),
//!                         enforced by the server against lock waits and
//!                         execution; requires --connect or --shards. An
//!                         expired deadline fails the run with a typed
//!                         error and a hint to raise the budget.
//!
//! lint / analyze options (one analysis, two renderings):
//!   --p N                 dimensionality (required)
//!   --k N                 number of clusters (required)
//!   --strategy S          one strategy only (default: all three)
//!   --fused               hybrid only: analyze the fused E step
//!   --max-statement-len N parser byte cap to check against (default 65536)
//!   --max-terms N         analyzer term-count cap (default 16384)
//!   --verbose             lint: print every finding, not just the summaries
//! ```
//!
//! One parser reads every command's flags: a flag the chosen command
//! does not read, a missing or malformed value, or a missing required
//! flag is a usage error.
//!
//! Both subcommands statically analyze the strategies' generated
//! scripts for one `(p, k)` — no data needed, nothing executes — with
//! the analysis `EmSession::create` runs as its preflight (see
//! `docs/STATIC_ANALYSIS.md`).
//!
//! `lint` prints one line per strategy saying whether it would survive
//! the configured parser limits (§3.3), and whether the driver would
//! fall back from horizontal to hybrid.
//!
//! `analyze` prints the full report: per-statement mutation classes and
//! symbolic scan cardinalities, the table lifecycle verdict, the
//! steady-state proof of the iteration span, and the per-iteration scan
//! counts checked against the paper's closed forms (`2k+3` n-scans + 1
//! pn-scan for the hybrid, §3.5). Exits non-zero when any analyzed
//! strategy fails a check.
//!
//! Exit codes: 0 success, 1 runtime failure (a failed `analyze` check
//! included), 2 usage error, 4 the `--connect` target is unreachable or
//! the handshake was rejected (version/token mismatch), 5 a `--shards`
//! shard is unreachable, version-mismatched, or its catalog could not be
//! adopted. Code 3 is not used.

#![forbid(unsafe_code)]

mod csv;

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use emcore::init::InitStrategy;
use sqlem::{
    build_generator, EmSession, Generator, PlanReport, RetryPolicy, SqlemConfig, Strategy,
};
use sqlengine::{Database, Error as SqlError, FaultPlan, FaultRule, MemoryBudget, SqlExecutor};
use sqlwire::{ClientConfig, Coordinator, RemoteConnection};

/// Exit code for a `--connect` target that is unreachable or whose
/// handshake was rejected (protocol version / auth token mismatch) —
/// distinct from runtime failure (1) so scripts can branch on "the
/// server is not there".
const EXIT_CONNECT: u8 = 4;

/// Exit code for a `--shards` cluster that could not be assembled: a
/// shard is unreachable, speaks a different protocol version, rejected
/// the handshake, or the coordinator could not adopt its catalog —
/// distinct from the single-server case (4) so scripts can tell "the
/// server is down" from "the cluster is degraded".
const EXIT_SHARDS: u8 = 5;

/// A CLI failure carrying the process exit code to report it with.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    /// Wrap a failed `--connect` with an actionable next step.
    fn connect(addr: &str, e: &SqlError) -> Self {
        let hint = match &e {
            SqlError::Net { message, .. } if message.contains("version mismatch") => {
                "client and server speak different protocol versions; \
                 rebuild both from the same source tree"
            }
            SqlError::Net { message, .. } if message.contains("auth token") => {
                "pass the server's secret with --auth-token"
            }
            _ => "is sqlem-server running there? start one with: sqlem-server --listen HOST:PORT",
        };
        CliError {
            code: EXIT_CONNECT,
            message: format!("cannot establish a session with {addr}: {e}\n  hint: {hint}"),
        }
    }

    /// Wrap a failed `--shards` connection with the shard that broke
    /// the cluster and an actionable next step.
    fn shard(addr: &str, e: &SqlError) -> Self {
        let hint = match &e {
            SqlError::Net { message, .. } if message.contains("version mismatch") => {
                "this shard speaks a different protocol version; rebuild every \
                 sqlem-server and the client from the same source tree"
            }
            SqlError::Net { message, .. } if message.contains("auth token") => {
                "pass the shared secret with --auth-token (every shard must use the same token)"
            }
            _ => {
                "is sqlem-server running there? every address in --shards needs a live \
                 server: sqlem-server --listen HOST:PORT"
            }
        };
        CliError {
            code: EXIT_SHARDS,
            message: format!("cannot bring up shard {addr}: {e}\n  hint: {hint}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<sqlem::SqlemError> for CliError {
    /// Runtime failures exit 1; a deadline expiry additionally names
    /// the knob that controls the budget.
    fn from(e: sqlem::SqlemError) -> Self {
        let mut message = e.to_string();
        if let sqlem::SqlemError::Sql {
            source: SqlError::Deadline { budget_ms, .. },
            ..
        } = &e
        {
            message.push_str(&format!(
                "\n  hint: the {budget_ms} ms statement deadline expired before the server \
                 finished; raise --deadline (or drop it) and rerun — the run resumes from \
                 its checkpoint, and retried statements are replayed exactly once"
            ));
        }
        CliError { code: 1, message }
    }
}

/// What the command line asks for: a clustering run, or one of the two
/// static-analysis subcommands.
#[derive(Clone, Copy, PartialEq)]
enum Command {
    Cluster,
    Lint,
    Analyze,
}

/// The flags only `lint` and `analyze` read. `--k`, `--strategy` and
/// `--fused` are every command's; every other flag is the clustering
/// run's.
const PLAN_FLAGS: [&str; 4] = ["--p", "--max-statement-len", "--max-terms", "--verbose"];

struct Args {
    command: Command,
    input: String,
    k: usize,
    /// `None`: hybrid for a run, all three for `lint` / `analyze`.
    strategy: Option<Strategy>,
    fused: bool,
    p: usize,
    max_statement_len: Option<usize>,
    max_terms: Option<usize>,
    verbose: bool,
    epsilon: f64,
    max_iterations: usize,
    seed: u64,
    sample: f64,
    has_header: bool,
    scores_path: Option<String>,
    print_sql: bool,
    trace_metrics: bool,
    retries: Option<usize>,
    data_dir: Option<String>,
    recover: bool,
    memory_budget: Option<u64>,
    load_chunk: Option<usize>,
    faults: Vec<FaultRule>,
    connect: Option<String>,
    shards: Vec<String>,
    namespace: String,
    auth_token: String,
    deadline: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sqlem-cli <input.csv> --k <clusters> [--strategy hybrid|horizontal|vertical] \
         [--epsilon E] [--max-iterations N] [--seed N] [--sample F] [--no-header] \
         [--scores PATH] [--sql] [--fused] [--trace-metrics] \
         [--retries N] [--durable] [--data-dir PATH] \
         [--recover] [--inject-fault SPEC]... \
         [--memory-budget BYTES] [--load-chunk ROWS] \
         [--connect HOST:PORT | --shards HOST:PORT,...] [--namespace PREFIX] \
         [--auth-token TOKEN] [--deadline SECS]\n\
         \x20      sqlem-cli lint|analyze --p <dims> --k <clusters> [--strategy S] [--fused] \
         [--max-statement-len N] [--max-terms N] [--verbose]"
    );
    std::process::exit(2);
}

/// Say what is wrong with the command line, then print the usage and
/// exit 2.
fn usage_error(message: impl Display) -> ! {
    eprintln!("{message}");
    usage()
}

/// `flag`'s value parsed as a `T`, or a usage error.
fn parsed<T: FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("{flag}: cannot parse {value:?}")))
}

/// Parse the command line (without the program name). Every usage
/// error exits here, before anything runs.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let mut argv = argv.into_iter().peekable();
    let (command, command_name) = match argv.peek().map(String::as_str) {
        Some("lint") => (Command::Lint, "lint"),
        Some("analyze") => (Command::Analyze, "analyze"),
        _ => (Command::Cluster, "a clustering run"),
    };
    let plan = command != Command::Cluster;
    if plan {
        argv.next();
    }
    let mut args = Args {
        command,
        input: String::new(),
        k: 0,
        strategy: None,
        fused: false,
        p: 0,
        max_statement_len: None,
        max_terms: None,
        verbose: false,
        epsilon: 1e-3,
        max_iterations: 10,
        seed: 0,
        sample: 0.1,
        has_header: true,
        scores_path: None,
        print_sql: false,
        trace_metrics: false,
        retries: None,
        data_dir: None,
        recover: false,
        memory_budget: None,
        load_chunk: None,
        faults: Vec::new(),
        connect: None,
        shards: Vec::new(),
        namespace: String::new(),
        auth_token: String::new(),
        deadline: None,
    };
    let mut durable = false;
    while let Some(flag) = argv.next() {
        let shared = matches!(
            flag.as_str(),
            "--k" | "--strategy" | "--fused" | "--help" | "-h"
        );
        if flag.starts_with('-') && !shared && PLAN_FLAGS.contains(&flag.as_str()) != plan {
            usage_error(format!("{flag} is not an option of {command_name}"));
        }
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--k" => args.k = parsed(&flag, value()),
            "--strategy" => {
                let name = value();
                let strategy = Strategy::ALL.into_iter().find(|s| s.to_string() == name);
                args.strategy = Some(
                    strategy.unwrap_or_else(|| usage_error(format!("unknown strategy {name}"))),
                )
            }
            "--fused" => args.fused = true,
            "--p" => args.p = parsed(&flag, value()),
            "--max-statement-len" => args.max_statement_len = Some(parsed(&flag, value())),
            "--max-terms" => args.max_terms = Some(parsed(&flag, value())),
            "--verbose" => args.verbose = true,
            "--epsilon" => args.epsilon = parsed(&flag, value()),
            "--max-iterations" => args.max_iterations = parsed(&flag, value()),
            "--seed" => args.seed = parsed(&flag, value()),
            "--sample" => args.sample = parsed(&flag, value()),
            "--no-header" => args.has_header = false,
            "--scores" => args.scores_path = Some(value()),
            "--sql" => args.print_sql = true,
            "--trace-metrics" => args.trace_metrics = true,
            "--retries" => args.retries = Some(parsed(&flag, value())),
            "--durable" => durable = true,
            "--data-dir" => args.data_dir = Some(value()),
            "--recover" => args.recover = true,
            "--memory-budget" => {
                let v = value();
                match MemoryBudget::parse_limit(&v) {
                    Some(b) => args.memory_budget = Some(b),
                    _ => usage_error(format!(
                        "--memory-budget needs a positive byte count, got {v:?}"
                    )),
                }
            }
            "--load-chunk" => match parsed(&flag, value()) {
                0 => usage_error("--load-chunk must be at least 1 row"),
                rows => args.load_chunk = Some(rows),
            },
            "--inject-fault" => {
                let rule = value().parse().unwrap_or_else(|e: String| usage_error(e));
                args.faults.push(rule)
            }
            "--connect" => args.connect = Some(value()),
            "--shards" => {
                args.shards = value()
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if args.shards.is_empty() {
                    usage_error("--shards needs a comma-separated list of HOST:PORT addresses");
                }
            }
            "--namespace" => args.namespace = value(),
            "--auth-token" => args.auth_token = value(),
            "--deadline" => {
                let secs: f64 = parsed(&flag, value());
                if !(secs > 0.0 && secs.is_finite()) {
                    usage_error("--deadline must be a positive number of seconds");
                }
                args.deadline = Some(secs);
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && !plan && args.input.is_empty() => args.input = flag,
            other => usage_error(format!("unknown argument {other}")),
        }
    }
    if args.k == 0 {
        usage_error("--k is required and must be at least 1");
    }
    if plan {
        if args.p == 0 {
            usage_error(format!("{command_name} requires --p, at least 1"));
        }
        return args;
    }
    if args.input.is_empty() {
        usage_error("missing input file");
    }
    if durable && args.data_dir.is_none() {
        args.data_dir = Some("sqlem_data".to_string());
    }
    let remote = args.connect.is_some() || !args.shards.is_empty();
    if args.deadline.is_some() && !remote {
        usage_error("--deadline budgets remote statements; it requires --connect or --shards");
    }
    if args.connect.is_some() && !args.shards.is_empty() {
        usage_error(
            "--connect and --shards are mutually exclusive: --connect targets one \
             server, --shards assembles a hash-partitioned cluster",
        );
    }
    let mode = if args.connect.is_some() {
        "--connect"
    } else {
        "--shards"
    };
    for (flag, set) in [
        ("--durable/--data-dir", args.data_dir.is_some()),
        ("--inject-fault", !args.faults.is_empty()),
        ("--memory-budget", args.memory_budget.is_some()),
    ] {
        if remote && set {
            usage_error(format!(
                "{flag} configures the database process; with {mode}, pass it \
                 to sqlem-server instead"
            ));
        }
    }
    args
}

fn run(args: &Args) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let data = csv::parse_numeric(&text, args.has_header)?;
    let (n, p) = (data.rows.len(), data.columns.len());
    eprintln!(
        "loaded {n} rows × {p} columns from {} ({})",
        args.input,
        data.columns.join(", ")
    );
    if args.k > n {
        return Err(format!("--k {} exceeds the number of rows {n}", args.k).into());
    }

    let mut config = SqlemConfig::new(args.k, args.strategy.unwrap_or(Strategy::Hybrid))
        .with_epsilon(args.epsilon)
        .with_max_iterations(args.max_iterations)
        .with_prefix(&args.namespace);
    if args.fused {
        config = config.with_fused_e_step();
    }
    if let Some(n) = args.retries {
        // N retries = N+1 attempts per statement.
        config = config.with_retry(RetryPolicy::new(n + 1).with_seed(args.seed));
    }
    let remote = args.connect.is_some() || !args.shards.is_empty();
    if remote || args.data_dir.is_some() {
        // Durable, remote and sharded runs always checkpoint: the
        // database (or its servers) can outlive this process, and the
        // checkpoint table is what a later invocation resumes from.
        config = config.with_checkpoints();
    }
    if args.recover {
        config = config.with_degenerate_recovery(args.seed);
    }
    if let Some(rows) = args.load_chunk {
        config = config.with_load_chunk_rows(rows);
    }

    if remote {
        let client = ClientConfig {
            auth_token: args.auth_token.clone(),
            namespace: args.namespace.clone(),
            statement_deadline: args.deadline.map(Duration::from_secs_f64),
            ..ClientConfig::default()
        };
        if let Some(addr) = &args.connect {
            let mut conn =
                RemoteConnection::connect(addr, client).map_err(|e| CliError::connect(addr, &e))?;
            eprintln!("connected: {}", conn.describe());
            return run_clustering(args, &config, &data, p, &mut conn);
        }
        let mut conns = Vec::with_capacity(args.shards.len());
        for addr in &args.shards {
            conns.push(
                RemoteConnection::connect(addr, client.clone())
                    .map_err(|e| CliError::shard(addr, &e))?,
            );
        }
        // Adopting the shard catalogs can itself fail (a shard died
        // between connect and snapshot); that is still a cluster
        // bring-up failure, so it shares exit code 5.
        let mut coord = Coordinator::new(conns).map_err(|e| CliError {
            code: EXIT_SHARDS,
            message: format!("cannot assemble the shard cluster: {e}"),
        })?;
        eprintln!("connected: {}", coord.describe());
        return run_clustering(args, &config, &data, p, &mut coord);
    }

    let mut db = match &args.data_dir {
        Some(dir) => {
            let db = Database::open_durable(dir)
                .map_err(|e| format!("cannot open durable database at {dir}: {e}"))?;
            eprintln!("durable database at {dir} (write-ahead logged)");
            db
        }
        None => Database::new(),
    };
    if let Some(b) = args.memory_budget {
        db.set_memory_budget(Some(MemoryBudget::new(b)));
        eprintln!("working-memory budget: {b} byte(s)");
    }
    if !args.faults.is_empty() {
        db.set_fault_plan(FaultPlan::new(args.faults.clone()));
    }
    run_clustering(args, &config, &data, p, &mut db)
}

/// The clustering run proper, generic over where the SQL executes: an
/// in-process [`Database`], a [`RemoteConnection`] to a server or a
/// [`Coordinator`] over shards. A run that checkpoints
/// (`config.checkpoint`: its database outlives this process) resumes
/// from the checkpoint it finds, keeps it when the iteration cap stops
/// the run, and clears it on convergence.
fn run_clustering<E: SqlExecutor>(
    args: &Args,
    config: &SqlemConfig,
    data: &csv::NumericCsv,
    p: usize,
    db: &mut E,
) -> Result<(), CliError> {
    let mut session = EmSession::create(&mut *db, config, p)?;
    if let Some(decision) = session.fallback() {
        eprintln!("sqlem preflight: {decision}");
    }

    if args.print_sql {
        for stmt in session.script() {
            println!("-- {}", stmt.purpose);
            println!("{};\n", stmt.sql);
        }
        return Ok(());
    }

    session.load_points(&data.rows)?;
    let resumed_at = if config.checkpoint {
        session.resume_from_checkpoint()?
    } else {
        None
    };
    match resumed_at {
        Some(done) => eprintln!("resumed from checkpoint: {done} iteration(s) already complete"),
        None => {
            session.initialize(&InitStrategy::FromSample {
                fraction: args.sample.clamp(0.01, 1.0),
                seed: args.seed,
                em_iterations: 5,
            })?;
        }
    }

    if args.trace_metrics {
        session.enable_telemetry()?;
    }
    let run = session.run()?;
    if run.retries > 0 {
        eprintln!("retried {} transient statement failure(s)", run.retries);
    }
    for rec in &run.recoveries {
        eprintln!(
            "iteration {}: re-seeded degenerate cluster {} ({})",
            rec.iteration + 1,
            rec.cluster + 1,
            rec.reason
        );
    }
    eprintln!(
        "{} iterations ({:?}), {:.3}s per iteration, final llh {:.3}",
        run.iterations,
        run.outcome,
        run.secs_per_iteration(),
        run.llh_history.last().copied().unwrap_or(f64::NAN),
    );
    if args.trace_metrics {
        let generator = build_generator(session.config(), p);
        let (n_scans, pn_scans) = generator.expected_scans();
        let fused = if generator.fused() { " fused" } else { "" };
        eprintln!(
            "cost model: the {}{fused} closed form predicts {n_scans} n-scan(s) + \
             {pn_scans} pn-scan(s) per iteration",
            generator.name()
        );
        for report in &run.iteration_reports {
            eprintln!("{}", report.summary());
        }
    }

    let col_names: Vec<&str> = data.columns.iter().map(String::as_str).collect();
    println!("{}", sqlem::summary::format_table(&run.params, &col_names));

    if let Some(path) = &args.scores_path {
        let scores = session.scores()?;
        let rows: Vec<Vec<String>> = scores
            .iter()
            .enumerate()
            .map(|(i, s)| vec![(i + 1).to_string(), s.to_string()])
            .collect();
        let out = csv::write_csv(&["rid", "cluster"], &rows);
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} assignments to {path}", scores.len());
    }
    if config.checkpoint {
        if run.outcome == emcore::EmOutcome::Converged {
            // Clear the in-database checkpoint so the next invocation
            // starts fresh instead of "resuming" a finished run.
            session.clear_checkpoint()?;
        } else {
            // Stopped at the iteration cap: keep the checkpoint so a
            // rerun with a higher --max-iterations picks up from here.
            eprintln!("iteration cap reached; rerun with a higher --max-iterations to continue");
        }
    }
    Ok(())
}

/// The `lint` and `analyze` subcommands: one static analysis (nothing
/// executes), rendered two ways.
///
/// * `lint` prints one summary line per strategy (`--verbose` adds every
///   finding) plus the horizontal→hybrid fallback advisory, mirroring
///   the preflight check `EmSession::create` runs; it succeeds whatever
///   the verdicts.
/// * `analyze` prints the full report (scan derivation, lifecycle,
///   mutation classes, steady-state proof, closed-form cost check) and
///   errs when any analyzed strategy fails a check.
fn run_plan(args: &Args) -> Result<(), CliError> {
    let (p, k) = (args.p, args.k);
    let mut db = Database::new();
    if let Some(len) = args.max_statement_len {
        db.set_max_statement_len(len);
    }
    if let Some(terms) = args.max_terms {
        db.config_mut().limits.max_terms = terms;
    }
    let mut config = SqlemConfig::new(k, Strategy::Hybrid);
    config.fused_e_step = args.fused;
    let mut reports = sqlem::analyze_all(&mut db, &config, p).map_err(|e| e.to_string())?;
    reports.retain(|r| args.strategy.is_none_or(|s| r.strategy == s));

    if args.command == Command::Analyze {
        for report in &reports {
            print!("{}", report.render());
            println!();
        }
        let failed: Vec<String> = reports
            .iter()
            .filter(|r| !r.ok())
            .map(|r| r.strategy.to_string())
            .collect();
        return if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("static analysis failed for: {}", failed.join(", ")).into())
        };
    }

    println!(
        "lint for p={p}, k={k} (kp = {}), parser cap {} byte(s), term cap {}:",
        p * k,
        db.config().max_statement_len,
        db.config().limits.max_terms
    );
    for report in &reports {
        println!("  {}", report.summary());
        if args.verbose {
            for error in report.errors() {
                println!("    {error}");
            }
        }
    }
    let verdict = |s: Strategy| reports.iter().find(|r| r.strategy == s).map(PlanReport::ok);
    if verdict(Strategy::Horizontal) == Some(false) && verdict(Strategy::Hybrid) == Some(true) {
        println!(
            "horizontal over-runs the limits at this size; the driver \
             would auto-fall back to hybrid (§3.6)"
        );
    }
    if reports.iter().all(PlanReport::ok) {
        println!("all strategies lint clean");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    let result = match args.command {
        Command::Cluster => run(&args),
        Command::Lint | Command::Analyze => run_plan(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if let Some(dir) = &args.data_dir {
                eprintln!(
                    "durable database kept at {dir}; rerun the same command to resume or retry"
                );
            }
            ExitCode::from(e.code)
        }
    }
}
