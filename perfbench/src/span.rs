//! Spans recorded from outside the program under test.
//!
//! [`SpanExecutor`] wraps any [`SqlExecutor`] and records one in-memory
//! [`Span`] per trait call into a shared [`SpanStore`]; the benchmark
//! opens *phase* spans (set-up, iteration, score) around the driver
//! calls it times, so every executor call has the phase that caused it
//! as its parent. A [`sqlwire::Coordinator`] is generic over its
//! shards, so each shard is wrapped too ([`Layer::Shard`]) and its
//! spans nest under the coordinator call in flight.
//!
//! Nothing inside `sqlengine`, `sqlem` or `sqlwire` is instrumented:
//! the only things known about a call are its name, how long it took,
//! how many bytes went in, whether it failed, and — through the SQL
//! text — which `Stmt::purpose` class (E step, M step, other) the
//! generator gave it.
//!
//! The store always counts executor calls and failures (the
//! `attempted` / `failed` numbers of every run); spans are only kept
//! while [`SpanStore::set_recording`] is on, so an untraced run pays one
//! relaxed atomic add per call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sqlem::Stmt;
use sqlengine::analyze::{Limits, SymbolicCatalog};
use sqlengine::{
    ExecMetrics, PartialAggResult, PrepareError, PreparedId, QueryResult, Result, SqlExecutor,
    Value,
};

/// Index of a span in its store.
pub type SpanId = usize;

/// Who recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Opened by the benchmark around a driver call (`EmSession::…`).
    Phase,
    /// One `SqlExecutor` call made by the driver on the executor under
    /// test.
    Call,
    /// One `SqlExecutor` call a coordinator made on shard `i`.
    Shard(usize),
}

/// `Stmt::purpose` class of the statement a call carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Class {
    /// Purpose starts with `E:`.
    EStep,
    /// Purpose starts with `M:`.
    MStep,
    /// Everything else: DDL, loads, parameter reads, the llh read.
    #[default]
    Other,
}

impl Class {
    /// Class of a generator purpose tag.
    pub fn of_purpose(purpose: &str) -> Class {
        if purpose.starts_with("E:") {
            Class::EStep
        } else if purpose.starts_with("M:") {
            Class::MStep
        } else {
            Class::Other
        }
    }
}

/// One recorded interval. Times are nanoseconds since the store was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Who recorded it.
    pub layer: Layer,
    /// Phase name, or the `SqlExecutor` method called.
    pub name: &'static str,
    /// Purpose class (shard spans inherit their coordinator call's).
    pub class: Class,
    /// Start, ns since the store's epoch.
    pub start_ns: u64,
    /// End, ns since the store's epoch.
    pub end_ns: u64,
    /// Bytes of SQL text or row payload handed to the call.
    pub bytes: u64,
    /// `false` when the call returned `Err`.
    pub ok: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Spans opened on the driver thread and not yet closed.
    stack: Vec<SpanId>,
}

/// Shared in-memory span store plus the always-on call counters.
pub struct SpanStore {
    epoch: Instant,
    recording: AtomicBool,
    attempted: AtomicU64,
    failed: AtomicU64,
    inner: Mutex<Inner>,
}

impl SpanStore {
    /// A store that counts calls but records no spans yet.
    pub fn new() -> Arc<SpanStore> {
        Arc::new(SpanStore {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Start or stop keeping spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Are spans being kept?
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Driver-level executor calls made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Driver-level executor calls that returned `Err`.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span on the driver thread; later spans nest under it
    /// until it is closed. `None` while not recording.
    pub fn open(
        &self,
        layer: Layer,
        name: &'static str,
        class: Class,
        bytes: u64,
    ) -> Option<SpanId> {
        if !self.recording() {
            return None;
        }
        let mut inner = self.lock();
        let id = inner.spans.len();
        let parent = inner.stack.last().copied();
        let start_ns = self.now_ns();
        inner.spans.push(Span {
            parent,
            layer,
            name,
            class,
            start_ns,
            end_ns: start_ns,
            bytes,
            ok: true,
        });
        inner.stack.push(id);
        Some(id)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&self, id: Option<SpanId>, ok: bool) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        assert_eq!(
            inner.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        inner.spans[id].end_ns = end_ns;
        inner.spans[id].ok = ok;
    }

    /// Open a phase span closed when the guard drops.
    pub fn phase(self: &Arc<Self>, name: &'static str) -> PhaseGuard {
        PhaseGuard {
            id: self.open(Layer::Phase, name, Class::Other, 0),
            store: Arc::clone(self),
        }
    }

    /// Record a finished span from a shard worker thread: its parent and
    /// class are the innermost span open on the driver thread, which is
    /// blocked in the coordinator call for as long as the workers run.
    fn leaf(&self, shard: usize, name: &'static str, bytes: u64, start_ns: u64, ok: bool) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let class = parent.map_or(Class::Other, |p| inner.spans[p].class);
        inner.spans.push(Span {
            parent,
            layer: Layer::Shard(shard),
            name,
            class,
            start_ns,
            end_ns,
            bytes,
            ok,
        });
    }

    /// Copy of every span recorded so far; a span's id is its index.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans().iter().enumerate() {
            let (layer, shard) = match s.layer {
                Layer::Phase => ("phase", None),
                Layer::Call => ("call", None),
                Layer::Shard(i) => ("shard", Some(i)),
            };
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"layer\":\"{layer}\",\"shard\":{},\
                 \"name\":\"{}\",\"class\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\
                 \"bytes\":{},\"ok\":{}}}",
                opt(s.parent),
                opt(shard),
                s.name,
                s.class,
                s.start_ns,
                s.end_ns,
                s.bytes,
                s.ok
            )?;
        }
        Ok(())
    }
}

/// Closes its phase span on drop.
pub struct PhaseGuard {
    id: Option<SpanId>,
    store: Arc<SpanStore>,
}

impl PhaseGuard {
    /// The phase span's id (`None` while not recording).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.store.close(self.id.take(), true);
    }
}

/// Records one span per [`SqlExecutor`] call on the wrapped executor.
pub struct SpanExecutor<E> {
    inner: E,
    store: Arc<SpanStore>,
    layer: Layer,
    /// SQL text → purpose class, from the session's generated script.
    purposes: HashMap<String, Class>,
    /// Prepared id → (class, SQL bytes) of the statement it replays.
    prepared: HashMap<u64, (Class, u64)>,
}

impl<E: SqlExecutor> SpanExecutor<E> {
    /// Wrap the executor the driver talks to.
    pub fn driver(inner: E, store: &Arc<SpanStore>) -> Self {
        SpanExecutor::new(inner, store, Layer::Call)
    }

    /// Wrap shard `index` of a coordinator.
    pub fn shard(inner: E, store: &Arc<SpanStore>, index: usize) -> Self {
        SpanExecutor::new(inner, store, Layer::Shard(index))
    }

    fn new(inner: E, store: &Arc<SpanStore>, layer: Layer) -> Self {
        SpanExecutor {
            inner,
            store: Arc::clone(store),
            layer,
            purposes: HashMap::new(),
            prepared: HashMap::new(),
        }
    }

    /// Teach the wrapper which purpose each generated statement has, so
    /// calls can be summed by class.
    pub fn learn_purposes(&mut self, script: &[Stmt]) {
        for stmt in script {
            self.purposes
                .insert(stmt.sql.clone(), Class::of_purpose(&stmt.purpose));
        }
    }

    /// The wrapped executor.
    pub fn inner(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> E {
        self.inner
    }

    fn class_of(&self, sql: &str) -> Class {
        self.purposes.get(sql).copied().unwrap_or_default()
    }

    /// Run `f` on the wrapped executor as one span; `is_err` tells a
    /// failed call from a successful one.
    fn record<T>(
        &mut self,
        name: &'static str,
        class: Class,
        bytes: u64,
        is_err: impl FnOnce(&T) -> bool,
        f: impl FnOnce(&mut E) -> T,
    ) -> T {
        match self.layer {
            Layer::Shard(i) => {
                if !self.store.recording() {
                    return f(&mut self.inner);
                }
                let start_ns = self.store.now_ns();
                let out = f(&mut self.inner);
                self.store.leaf(i, name, bytes, start_ns, !is_err(&out));
                out
            }
            layer => {
                self.store.attempted.fetch_add(1, Ordering::Relaxed);
                let id = self.store.open(layer, name, class, bytes);
                let out = f(&mut self.inner);
                let failed = is_err(&out);
                if failed {
                    self.store.failed.fetch_add(1, Ordering::Relaxed);
                }
                self.store.close(id, !failed);
                out
            }
        }
    }
}

fn rows_bytes(rows: &[Vec<Value>]) -> u64 {
    // Logical payload: 8 bytes per cell (every generated column is a
    // BIGINT or a DOUBLE).
    rows.iter().map(|r| 8 * r.len() as u64).sum()
}

impl<E: SqlExecutor> SqlExecutor for SpanExecutor<E> {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let class = self.class_of(sql);
        self.record("execute", class, sql.len() as u64, Result::is_err, |e| {
            e.execute(sql)
        })
    }

    fn execute_partial(&mut self, sql: &str) -> Result<PartialAggResult> {
        let class = self.class_of(sql);
        self.record(
            "execute_partial",
            class,
            sql.len() as u64,
            Result::is_err,
            |e| e.execute_partial(sql),
        )
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        let bytes = statements.iter().map(|s| s.len() as u64).sum();
        let ids = self.record(
            "prepare_script",
            Class::Other,
            bytes,
            std::result::Result::is_err,
            |e| e.prepare_script(statements),
        )?;
        for (id, sql) in ids.iter().zip(statements) {
            self.prepared
                .insert(id.0, (self.class_of(sql), sql.len() as u64));
        }
        Ok(ids)
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        let (class, bytes) = self.prepared.get(&id.0).copied().unwrap_or_default();
        self.record("run_prepared", class, bytes, Result::is_err, |e| {
            e.run_prepared(id)
        })
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.prepared.clear();
        self.record("clear_prepared", Class::Other, 0, Result::is_err, |e| {
            e.clear_prepared()
        })
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let bytes = rows_bytes(&rows);
        self.record(
            "bulk_insert_rows",
            Class::Other,
            bytes,
            Result::is_err,
            |e| e.bulk_insert_rows(table, rows),
        )
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        self.record("table_rows", Class::Other, 0, Result::is_err, |e| {
            e.table_rows(table)
        })
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        self.record("has_table", Class::Other, 0, Result::is_err, |e| {
            e.has_table(table)
        })
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        self.record("catalog_snapshot", Class::Other, 0, Result::is_err, |e| {
            e.catalog_snapshot()
        })
    }

    fn max_statement_len(&self) -> usize {
        self.inner.max_statement_len()
    }

    fn analyze_limits(&self) -> Limits {
        self.inner.analyze_limits()
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.inner.memory_budget_bytes()
    }

    fn note_statement_retry(&mut self) {
        self.inner.note_statement_retry();
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        self.record(
            "set_metrics_enabled",
            Class::Other,
            0,
            Result::is_err,
            |e| e.set_metrics_enabled(on),
        )
    }

    fn metrics_enabled(&self) -> bool {
        self.inner.metrics_enabled()
    }

    fn metrics_len(&mut self) -> Result<usize> {
        self.record("metrics_len", Class::Other, 0, Result::is_err, |e| {
            e.metrics_len()
        })
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        self.record("metrics_since", Class::Other, 0, Result::is_err, |e| {
            e.metrics_since(from)
        })
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Self time of every span, in ns: its duration minus the part of that
/// interval its child spans cover. Children may overlap each other
/// (shards run in parallel), so the covered part is the union of their
/// intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// What the spans under one set of phase spans add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Σ phase wall time, s.
    pub wall_s: f64,
    /// Σ phase self time: wall not covered by any executor call, s.
    pub driver_self_s: f64,
    /// Σ driver-level call time by purpose class, s.
    pub e_step_s: f64,
    /// See [`Rollup::e_step_s`].
    pub m_step_s: f64,
    /// Calls that carry neither an E- nor an M-step statement.
    pub other_s: f64,
    /// Driver-level calls.
    pub calls: u64,
    /// Driver-level calls that carried a statement (`execute`,
    /// `execute_partial`, `run_prepared`).
    pub stmts: u64,
    /// Σ bytes over those statement calls.
    pub sql_bytes: u64,
    /// Driver-level calls that returned `Err`.
    pub failed: u64,
    /// Σ self time of driver-level calls that have shard children: the
    /// coordinator's own classify/merge work, s.
    pub coord_self_s: f64,
    /// Shard-level calls.
    pub shard_calls: u64,
    /// Busy seconds per shard index.
    pub shard_busy_s: Vec<f64>,
}

impl Rollup {
    /// Busiest shard's time over the mean shard's (1 = perfectly
    /// balanced, 0 when there are no shards).
    pub fn shard_busy_max_over_mean(&self) -> f64 {
        let total: f64 = self.shard_busy_s.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let max = self.shard_busy_s.iter().copied().fold(0.0, f64::max);
        max / (total / self.shard_busy_s.len() as f64)
    }
}

/// Roll up everything recorded under the given phase spans.
pub fn rollup(spans: &[Span], phases: &[SpanId]) -> Rollup {
    let self_ns = self_times_ns(spans);
    let mut has_shard_child = vec![false; spans.len()];
    for s in spans {
        if let (Layer::Shard(_), Some(p)) = (s.layer, s.parent) {
            has_shard_child[p] = true;
        }
    }
    // A span belongs to a phase when walking up its parents reaches it.
    let in_phase = |mut id: SpanId| loop {
        if phases.contains(&id) {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let mut r = Rollup::default();
    for (id, s) in spans.iter().enumerate() {
        if !in_phase(id) {
            continue;
        }
        match s.layer {
            Layer::Phase => {
                if phases.contains(&id) {
                    r.wall_s += s.secs();
                    r.driver_self_s += self_ns[id] as f64 * 1e-9;
                }
            }
            Layer::Call => {
                r.calls += 1;
                r.failed += u64::from(!s.ok);
                match s.class {
                    Class::EStep => r.e_step_s += s.secs(),
                    Class::MStep => r.m_step_s += s.secs(),
                    Class::Other => r.other_s += s.secs(),
                }
                if matches!(s.name, "execute" | "execute_partial" | "run_prepared") {
                    r.stmts += 1;
                    r.sql_bytes += s.bytes;
                }
                if has_shard_child[id] {
                    r.coord_self_s += self_ns[id] as f64 * 1e-9;
                }
            }
            Layer::Shard(i) => {
                r.shard_calls += 1;
                if r.shard_busy_s.len() <= i {
                    r.shard_busy_s.resize(i + 1, 0.0);
                }
                r.shard_busy_s[i] += s.secs();
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Database;
    use sqlwire::Coordinator;

    fn span(parent: Option<SpanId>, layer: Layer, class: Class, start: u64, end: u64) -> Span {
        Span {
            parent,
            layer,
            name: "run_prepared",
            class,
            start_ns: start,
            end_ns: end,
            bytes: 10,
            ok: true,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, Layer::Phase, Class::Other, 0, 1000),
            // Sequential calls 100..400 and 500..900 under the phase.
            span(Some(0), Layer::Call, Class::EStep, 100, 400),
            span(Some(0), Layer::Call, Class::MStep, 500, 900),
            // Two shards overlapping under the second call: union 520..880.
            span(Some(2), Layer::Shard(0), Class::MStep, 520, 800),
            span(Some(2), Layer::Shard(1), Class::MStep, 600, 880),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 1000 - 300 - 400);
        assert_eq!(self_ns[1], 300);
        assert_eq!(self_ns[2], 400 - 360);
        assert_eq!(self_ns[3], 280);
    }

    #[test]
    fn rollup_sums_by_class_and_skips_other_phases() {
        let mut spans = vec![
            span(None, Layer::Phase, Class::Other, 0, 1000),
            span(Some(0), Layer::Call, Class::EStep, 100, 400),
            span(Some(0), Layer::Call, Class::MStep, 500, 900),
            span(Some(2), Layer::Shard(0), Class::MStep, 520, 800),
            span(Some(2), Layer::Shard(1), Class::MStep, 600, 880),
            // A second phase the roll-up is not asked about.
            span(None, Layer::Phase, Class::Other, 2000, 3000),
            span(Some(5), Layer::Call, Class::EStep, 2000, 3000),
        ];
        spans[2].ok = false;
        let r = rollup(&spans, &[0]);
        assert_eq!(r.calls, 2);
        assert_eq!(r.stmts, 2);
        assert_eq!(r.sql_bytes, 20);
        assert_eq!(r.failed, 1);
        assert_eq!(r.shard_calls, 2);
        assert!((r.wall_s - 1000e-9).abs() < 1e-15);
        assert!((r.driver_self_s - 300e-9).abs() < 1e-15);
        assert!((r.e_step_s - 300e-9).abs() < 1e-15);
        assert!((r.m_step_s - 400e-9).abs() < 1e-15);
        assert!((r.coord_self_s - 40e-9).abs() < 1e-15);
        assert_eq!(r.shard_busy_s.len(), 2);
        // Both shards were busy 280 ns: perfectly balanced.
        assert!((r.shard_busy_max_over_mean() - 1.0).abs() < 1e-12);
    }

    fn two_shard_coordinator(
        store: &Arc<SpanStore>,
    ) -> SpanExecutor<Coordinator<SpanExecutor<Database>>> {
        let shards = (0..2)
            .map(|i| SpanExecutor::shard(Database::new(), store, i))
            .collect();
        SpanExecutor::driver(Coordinator::new(shards).unwrap(), store)
    }

    #[test]
    fn executor_calls_nest_under_the_open_phase_and_shards_under_calls() {
        let store = SpanStore::new();
        let mut exec = two_shard_coordinator(&store);
        store.set_recording(true);
        let phase = store.phase("setup");
        let phase_id = phase.id().unwrap();
        exec.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE)")
            .unwrap();
        // Every row hashes somewhere; with one row, one shard is skipped
        // by the routed insert and records nothing for it.
        exec.bulk_insert_rows("y", vec![vec![Value::Int(1), Value::Double(0.5)]])
            .unwrap();
        drop(phase);

        let spans = store.spans();
        let calls: Vec<SpanId> = (0..spans.len())
            .filter(|&i| spans[i].layer == Layer::Call)
            .collect();
        assert_eq!(calls.len(), 2);
        assert!(calls.iter().all(|&c| spans[c].parent == Some(phase_id)));
        let (ddl, bulk) = (calls[0], calls[1]);
        let shards_under = |call: SpanId| {
            spans
                .iter()
                .filter(|s| matches!(s.layer, Layer::Shard(_)) && s.parent == Some(call))
                .count()
        };
        assert_eq!(shards_under(ddl), 2, "DDL is broadcast to both shards");
        assert_eq!(shards_under(bulk), 1, "the empty partition is skipped");
        let r = rollup(&spans, &[phase_id]);
        assert_eq!((r.calls, r.shard_calls), (2, 3));
        assert!(r.coord_self_s > 0.0 && r.coord_self_s < r.wall_s);
    }

    #[test]
    fn errors_are_counted_whether_or_not_spans_are_kept() {
        let store = SpanStore::new();
        let mut exec = SpanExecutor::driver(Database::new(), &store);
        assert!(exec.execute("SELECT * FROM missing").is_err());
        assert_eq!((store.attempted(), store.failed()), (1, 1));
        assert!(store.spans().is_empty(), "not recording yet");

        store.set_recording(true);
        let phase = store.phase("iteration");
        let id = phase.id().unwrap();
        assert!(exec.run_prepared(PreparedId(99)).is_err());
        exec.execute("CREATE TABLE t (a BIGINT)").unwrap();
        drop(phase);
        assert_eq!((store.attempted(), store.failed()), (3, 2));
        let spans = store.spans();
        assert!(!spans[1].ok && spans[2].ok);
        assert_eq!(rollup(&spans, &[id]).failed, 1);
    }

    #[test]
    fn prepared_calls_carry_the_purpose_class_of_their_statement() {
        let store = SpanStore::new();
        let mut exec = SpanExecutor::driver(Database::new(), &store);
        exec.execute("CREATE TABLE t (a BIGINT)").unwrap();
        let e = "INSERT INTO t VALUES (1)".to_string();
        let m = "DELETE FROM t".to_string();
        exec.learn_purposes(&[
            Stmt::new("E: fill", e.clone()),
            Stmt::new("M: clear", m.clone()),
        ]);
        let ids = exec.prepare_script(&[e.clone(), m]).unwrap();
        store.set_recording(true);
        let phase = store.phase("iteration");
        exec.run_prepared(ids[0]).unwrap();
        exec.run_prepared(ids[1]).unwrap();
        exec.execute("SELECT count(*) FROM t").unwrap();
        drop(phase);
        let classes: Vec<Class> = store.spans()[1..].iter().map(|s| s.class).collect();
        assert_eq!(classes, [Class::EStep, Class::MStep, Class::Other]);
        assert_eq!(store.spans()[1].bytes, e.len() as u64);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let store = SpanStore::new();
        store.set_recording(true);
        drop(store.phase("setup"));
        drop(store.phase("score"));
        let mut text = Vec::new();
        store.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"layer\":\"phase\""));
    }
}
