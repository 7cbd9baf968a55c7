//! The per-layer numbers of a traced run.
//!
//! Three sources, all outside the crates under test: the spans
//! [`crate::span::SpanExecutor`] recorded around executor calls, the
//! engine's own per-statement `ExecMetrics` fetched through the
//! executor, and direct calls on a layer's public functions (parser,
//! WAL codec, wire codec, native EM) with the run's own inputs.

use std::path::Path;

use datagen::retail::{retail_dataset, RetailConfig};
use sqlem::{EmSession, Stmt};
use sqlengine::storage::snapshot::snapshot_path;
use sqlengine::{wal, Database, QueryResult, SqlExecutor, Value};
use sqlwire::frame::encode_frame;
use sqlwire::{RemoteConnection, Request, Response, StmtMeta};

use crate::run::{repeat_for, timed, Ctx, Measured};
use crate::span::{rollup, Layer, Span};
use crate::stats::{median, quantile};
use crate::workload::Executor;

/// Named per-layer values.
pub type Numbers = Vec<(&'static str, f64)>;

fn sql<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn is_statement(span: &Span) -> bool {
    span.layer == Layer::Call && matches!(span.name, "execute" | "execute_partial" | "run_prepared")
}

/// Median seconds of the phase spans called `name`.
fn phase_median(spans: &[Span], name: &str) -> f64 {
    let secs: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Phase && s.name == name)
        .map(Span::secs)
        .collect();
    median(&secs)
}

/// What the spans and the engine's telemetry say about the traced
/// iterations, per iteration.
pub fn from_trace(ctx: &Ctx<'_>, m: &Measured, spans: &[Span]) -> Result<Numbers, String> {
    let iters = m.traced.len() as f64;
    let phases: Vec<usize> = m.traced.iter().map(|t| t.phase).collect();
    let r = rollup(spans, &phases);
    if r.failed > 0 {
        return Err(format!("{} executor calls failed while tracing", r.failed));
    }
    // The first warm-up iteration is the one that prepares the script.
    let prepare_s: f64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Call && s.name == "prepare_script")
        .map(Span::secs)
        .sum();

    let entries = || m.traced.iter().flat_map(|t| &t.entries);
    let total = |f: &dyn Fn(&sqlengine::ExecMetrics) -> f64| entries().map(f).sum::<f64>() / iters;
    let plan_s = total(&|e| e.plan_time.as_secs_f64());
    let exec_s = total(&|e| (e.elapsed - e.plan_time).as_secs_f64());
    let rows_scanned = total(&|e| e.scans.iter().map(|s| s.rows as f64).sum());
    let scans =
        |f: fn(&(usize, usize)) -> usize| m.scans.iter().map(f).sum::<usize>() as f64 / iters;

    // Client-side time of each statement minus the time the engine
    // reports for it: what the wire, the session layer and the lock
    // added. Statements and telemetry entries pair up in order.
    let (mut wire_overhead_s, mut rtt_us) = (0.0, Vec::new());
    if ctx.workload.executor == Executor::Wire {
        for t in &m.traced {
            let calls: Vec<&Span> = spans
                .iter()
                .filter(|s| s.parent == Some(t.phase) && is_statement(s))
                .collect();
            if calls.len() != t.entries.len() {
                return Err(format!(
                    "{} statement spans but {} telemetry entries in one iteration",
                    calls.len(),
                    t.entries.len()
                ));
            }
            for (call, entry) in calls.iter().zip(&t.entries) {
                let over = call.secs() - entry.elapsed.as_secs_f64();
                wire_overhead_s += over / iters;
                rtt_us.push(over * 1e6);
            }
        }
    }

    Ok(vec![
        ("sqlem.stmts_per_iter", r.stmts as f64 / iters),
        ("sqlem.sql_bytes_per_iter", r.sql_bytes as f64 / iters),
        ("sqlem.e_step_s", r.e_step_s / iters),
        ("sqlem.m_step_s", r.m_step_s / iters),
        ("sqlem.driver_self_s", r.driver_self_s / iters),
        ("sqlem.load_s", phase_median(spans, "load")),
        ("sqlem.init_s", phase_median(spans, "init")),
        ("sqlem.prepare_s", prepare_s),
        ("sqlem.iter_s_p25", quantile(&m.iter_s.raw, 0.25)),
        ("sqlem.iter_s_p50", median(&m.iter_s.raw)),
        ("sqlem.iter_s_p75", quantile(&m.iter_s.raw, 0.75)),
        ("sqlem.iter_cpu_s", m.iter_cpu_s),
        ("sqlengine.plan_s", plan_s),
        ("sqlengine.exec_s", exec_s),
        ("sqlengine.n_scans", scans(|s| s.0)),
        ("sqlengine.pn_scans", scans(|s| s.1)),
        ("sqlengine.rows_scanned", rows_scanned),
        (
            "sqlengine.rows_written",
            total(&|e| e.rows_written() as f64),
        ),
        (
            "sqlengine.join_build_rows",
            total(&|e| e.join_build_rows as f64),
        ),
        (
            "sqlengine.join_probe_rows",
            total(&|e| e.join_probe_rows as f64),
        ),
        ("sqlengine.expr_evals", total(&|e| e.expr_evals as f64)),
        ("sqlengine.groups", total(&|e| e.groups as f64)),
        (
            "sqlengine.exec_ns_per_row_scanned",
            exec_s * 1e9 / rows_scanned,
        ),
        (
            "sqlengine.peak_mem_bytes",
            entries().map(|e| e.peak_mem_bytes).max().unwrap_or(0) as f64,
        ),
        ("wire.overhead_s", wire_overhead_s),
        (
            "wire.rtt_us_p50",
            if rtt_us.is_empty() {
                0.0
            } else {
                median(&rtt_us)
            },
        ),
        ("cluster.coord_self_s", r.coord_self_s / iters),
        (
            "cluster.shard_busy_max_over_mean",
            r.shard_busy_max_over_mean(),
        ),
        ("cluster.shard_calls_per_iter", r.shard_calls as f64 / iters),
        (
            "trace.overhead_share",
            median(&m.traced_iter_s.calibrated) / median(&m.iter_s.calibrated) - 1.0,
        ),
        ("calib.slowdown", median(&m.iter_s.slowdown)),
        ("trace.span_coverage", 1.0 - r.driver_self_s / r.wall_s),
    ])
}

/// `sqlengine.parse_s`: parse + analyze of one iteration's whole script
/// (`prepare_script` on a database that holds the session's tables).
pub fn parse(ctx: &Ctx<'_>) -> Result<Numbers, String> {
    let w = &ctx.workload;
    let iteration_sql = iteration_sql(ctx);
    let mut db = Database::new();
    drop(sql("create", EmSession::create(&mut db, &w.config(), w.p))?);
    // The llh read is submitted as text every iteration, never prepared.
    let script = &iteration_sql[..iteration_sql.len() - 1];
    let samples = repeat_for(ctx.budget.micro_s, ctx.budget.parse_min, || {
        let (secs, ids) = timed(|| db.prepare_script(script));
        sql("prepare_script", ids)?;
        sql("clear_prepared", db.clear_prepared())?;
        Ok(secs)
    })?;
    Ok(vec![("sqlengine.parse_s", median(&samples))])
}

/// `emcore.*`: native in-memory EM on the same points.
pub fn native(ctx: &Ctx<'_>, iter_s: f64) -> Result<Numbers, String> {
    let w = &ctx.workload;
    let init = emcore::init::initialize(ctx.points, w.k, ctx.init);
    let samples = repeat_for(ctx.budget.micro_s, 3, || {
        let (secs, step) = timed(|| emcore::em::em_step(&init, ctx.points));
        sql("native EM", step)?;
        Ok(secs)
    })?;
    let native_s = median(&samples);
    Ok(vec![
        ("emcore.iter_s", native_s),
        ("emcore.native_ratio", iter_s / native_s),
    ])
}

/// Median seconds of `f`, a direct call on one layer's codec.
fn micro(ctx: &Ctx<'_>, f: &mut dyn FnMut()) -> Result<f64, String> {
    let samples = repeat_for(ctx.budget.micro_s / 4.0, 3, || Ok(timed(&mut *f).0))?;
    Ok(median(&samples))
}

/// Bytes per second → MB/s.
fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// `wire.*_bytes_per_iter`, `proto.*`, `wire.bulk_rows_per_s`: the wire
/// codec on one iteration's traffic and on a retail-sized bulk load and
/// its scores reply, then that load through the live connection.
pub fn wire(exec: &mut RemoteConnection, ctx: &Ctx<'_>) -> Result<Numbers, String> {
    let iteration_sql = iteration_sql(ctx);
    // One more iteration, statement by statement, to see the replies.
    // The driver replays prepared ids for all but the llh read; an
    // `ExecutePrepared` frame has the same length whatever the id.
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    let meta = StmtMeta::seq(0);
    for (i, text) in iteration_sql.iter().enumerate() {
        let request = if i + 1 < iteration_sql.len() {
            Request::ExecutePrepared { meta, id: 0 }
        } else {
            Request::Query {
                meta,
                sql: text.clone(),
            }
        };
        req_bytes += encode_frame(&request.encode()).len();
        let result = sql("replay iteration", exec.execute(text))?;
        resp_bytes += encode_frame(&Response::Rows(result).encode()).len();
    }

    let n = ctx.budget.bulk_rows;
    let baskets = retail_dataset(&RetailConfig { n, seed: ctx.seed }).points;
    let rows: Vec<Vec<Value>> = baskets
        .iter()
        .enumerate()
        .map(|(i, y)| {
            let mut row = vec![Value::Int(i as i64 + 1)];
            row.extend(y.iter().map(|v| Value::Double(*v)));
            row
        })
        .collect();
    let load = Request::BulkInsert {
        meta,
        table: "pb_bulk".into(),
        rows: rows.clone(),
    };
    let reply = Response::Rows(QueryResult {
        columns: vec!["rid".into(), "score".into()],
        rows: (0..n as i64)
            .map(|i| vec![Value::Int(i + 1), Value::Int(i % 9 + 1)].into_boxed_slice())
            .collect(),
        rows_affected: n,
    });
    let (load_bytes, reply_bytes) = (load.encode(), reply.encode());
    let encode_s = micro(ctx, &mut || drop(std::hint::black_box(load.encode())))?
        + micro(ctx, &mut || drop(std::hint::black_box(reply.encode())))?;
    let decode_s = micro(ctx, &mut || {
        drop(std::hint::black_box(Request::decode(&load_bytes)))
    })? + micro(ctx, &mut || {
        drop(std::hint::black_box(Response::decode(&reply_bytes)))
    })?;
    let codec_bytes = load_bytes.len() + reply_bytes.len();

    let columns: String = (1..=baskets[0].len())
        .map(|d| format!(", y{d} DOUBLE"))
        .collect();
    let bulk_s = repeat_for(0.0, 3, || {
        sql("drop", exec.execute("DROP TABLE IF EXISTS pb_bulk"))?;
        sql(
            "create",
            exec.execute(&format!(
                "CREATE TABLE pb_bulk (rid BIGINT PRIMARY KEY{columns})"
            )),
        )?;
        let batch = rows.clone();
        let (secs, loaded) = timed(|| exec.bulk_insert_rows("pb_bulk", batch));
        if sql("bulk load", loaded)? != n {
            return Err("bulk load did not insert every row".into());
        }
        Ok(secs)
    })?;

    Ok(vec![
        ("wire.req_bytes_per_iter", req_bytes as f64),
        ("wire.resp_bytes_per_iter", resp_bytes as f64),
        ("proto.encode_mb_per_s", mb_per_s(codec_bytes, encode_s)),
        ("proto.decode_mb_per_s", mb_per_s(codec_bytes, decode_s)),
        ("wire.bulk_rows_per_s", n as f64 / median(&bulk_s)),
    ])
}

/// The workload run embedded on `db`, without spans.
struct EmbeddedRun {
    /// Lower-quartile seconds per iteration.
    iter_s: f64,
    /// WAL bytes `load_points` wrote (0 for an in-memory database).
    load_wal_bytes: u64,
    /// Median WAL bytes one iteration wrote.
    iter_wal_bytes: u64,
}

fn embedded_run(db: &mut Database, ctx: &Ctx<'_>) -> Result<EmbeddedRun, String> {
    let w = &ctx.workload;
    let mut session = sql("create", EmSession::create(db, &w.config(), w.p))?;
    let wal_len = |s: &EmSession<'_, Database>| s.database().wal_len().unwrap_or(0);
    let before = wal_len(&session);
    sql("load_points", session.load_points(ctx.points))?;
    let load_wal_bytes = wal_len(&session) - before;
    sql("initialize", session.initialize(ctx.init))?;
    sql("warm-up", session.iterate_once())?;
    let mut iter_wal_bytes = Vec::new();
    let samples = repeat_for(ctx.budget.micro_s, 5, || {
        let before = wal_len(&session);
        let (secs, llh) = timed(|| session.iterate_once());
        sql("iteration", llh)?;
        // Auto-compaction resets the log: skip the iteration it hit.
        iter_wal_bytes.extend(wal_len(&session).checked_sub(before));
        Ok(secs)
    })?;
    iter_wal_bytes.sort_unstable();
    Ok(EmbeddedRun {
        iter_s: quantile(&samples, 0.25),
        load_wal_bytes,
        iter_wal_bytes: iter_wal_bytes[iter_wal_bytes.len() / 2],
    })
}

/// `wal.*`, `storage.*`: the workload's script run embedded on a durable
/// database in `dir` (default flush policy: fsync per commit,
/// auto-compact at 8 MiB), its log read back through the WAL codec,
/// then reopened and compacted. `dir` is on the checkout's disk, so the
/// times are that disk's and repeat poorly; the byte counts are exact.
pub fn durable(ctx: &Ctx<'_>, dir: &Path) -> Result<Numbers, String> {
    let mut db = sql("open_durable", Database::open_durable(dir))?;
    let on_disk = embedded_run(&mut db, ctx)?;
    let in_memory = embedded_run(&mut Database::new(), ctx)?;

    let log = sql("read wal", std::fs::read(wal::wal_path(dir)))?;
    let scanned = sql("wal scan", wal::scan(&log))?;
    let scan_s = micro(ctx, &mut || drop(std::hint::black_box(wal::scan(&log))))?;
    let mut encoded = 0usize;
    let encode_s = micro(ctx, &mut || {
        encoded = scanned
            .committed
            .iter()
            .map(|(seq, op)| wal::encode_frame(*seq, op).len() + wal::encode_commit(*seq).len())
            .sum();
    })?;

    drop(db);
    let (reopen_s, reopened) = timed(|| Database::open_durable(dir));
    let mut db = sql("reopen", reopened)?;
    let (compact_s, compacted) = timed(|| db.compact());
    sql("compact", compacted)?;
    let snapshot_bytes = sql("snapshot size", std::fs::metadata(snapshot_path(dir)))?.len();
    drop(db);
    sql("remove wal probe", std::fs::remove_dir_all(dir))?;

    Ok(vec![
        ("wal.bytes_per_iter", on_disk.iter_wal_bytes as f64),
        (
            "wal.bytes_per_loaded_row",
            on_disk.load_wal_bytes as f64 / ctx.points.len() as f64,
        ),
        ("wal.encode_mb_per_s", mb_per_s(encoded, encode_s)),
        ("wal.scan_mb_per_s", mb_per_s(log.len(), scan_s)),
        ("storage.compact_s", compact_s),
        ("storage.snapshot_bytes", snapshot_bytes as f64),
        ("storage.reopen_s", reopen_s),
        ("wal.disk_overhead_s", on_disk.iter_s - in_memory.iter_s),
    ])
}

/// One iteration's statements in submission order: the E- and M-step
/// script the driver prepares once (work-table DDL included), then the
/// llh read it submits as text.
fn iteration_stmts(ctx: &Ctx<'_>) -> Vec<Stmt> {
    let w = &ctx.workload;
    let generator = sqlem::build_generator(&w.config(), w.p);
    let mut all = generator.e_step();
    all.extend(generator.m_step());
    all.push(Stmt::new("read llh", generator.llh_sql()));
    all
}

/// The SQL of [`iteration_stmts`].
fn iteration_sql(ctx: &Ctx<'_>) -> Vec<String> {
    iteration_stmts(ctx).into_iter().map(|s| s.sql).collect()
}

/// Where the engine's time goes inside a traced iteration: its
/// `ExecMetrics::elapsed` summed by statement purpose (cluster numbers
/// folded into `#`), largest first — one line each, for people. This is
/// as far as a view from outside reaches; per-operator time needs
/// instrumentation inside the engine.
pub fn top_statements(ctx: &Ctx<'_>, m: &Measured, top: usize) -> Vec<String> {
    let purposes: Vec<String> = iteration_stmts(ctx)
        .iter()
        .map(|s| {
            s.purpose
                .chars()
                .map(|c| if c.is_ascii_digit() { '#' } else { c })
                .collect()
        })
        .collect();
    let mut by_purpose: Vec<(String, f64, usize)> = Vec::new();
    for t in m
        .traced
        .iter()
        .filter(|t| t.entries.len() == purposes.len())
    {
        for (purpose, entry) in purposes.iter().zip(&t.entries) {
            let secs = entry.elapsed.as_secs_f64() / m.traced.len() as f64;
            match by_purpose.iter_mut().find(|(p, _, _)| p == purpose) {
                Some(row) => {
                    row.1 += secs;
                    row.2 += 1;
                }
                None => by_purpose.push((purpose.clone(), secs, 1)),
            }
        }
    }
    let total: f64 = by_purpose.iter().map(|row| row.1).sum();
    by_purpose.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_purpose
        .iter()
        .take(top)
        .map(|(purpose, secs, count)| {
            format!(
                "# {secs:.6} s {:5.1} %  {purpose} (x{})",
                100.0 * secs / total,
                count / m.traced.len().max(1)
            )
        })
        .collect()
}
