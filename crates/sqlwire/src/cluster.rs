//! Sharded scale-out: a hash-partitioned cluster behind one executor.
//!
//! The paper's performance argument (§1.4, §3.5) is that SQL-generated
//! EM inherits the DBMS's parallelism for free: every generated
//! statement is a scan, a rid-equi-join or a GROUP BY aggregate, all of
//! which partition cleanly. This module supplies that parallelism
//! across *processes*: [`Coordinator`] implements
//! [`sqlengine::SqlExecutor`] over N shard executors (remote
//! [`crate::RemoteConnection`]s or embedded [`sqlengine::Database`]s), so the
//! whole `sqlem` driver runs against a cluster **unchanged**.
//!
//! ## Partitioning
//!
//! Tables are classified by schema at `CREATE TABLE` time:
//!
//! * **partitioned** — tables with a `rid` column (`y`, `z`, `yd`,
//!   `yp`, `yx`, `x`, `xmax`, `ysump`, …): each row lives on exactly
//!   one shard, chosen by `splitmix64(rid) % nshards`.
//! * **broadcast** — everything else (the model tables `c`, `r`, `w`,
//!   `gmm`, `rk`, …): replicated in full on every shard, kept
//!   bit-identical by running every mutation on every shard.
//!
//! ## Statement fragmentation
//!
//! Each driver statement is planned against the coordinator's schema
//! mirror ([`SymbolicCatalog`], adopted from shard 0 and advanced by
//! every CREATE/DROP the shards applied) with [`sqlengine::plan`], the
//! plan every shard's executor instantiates, and its class read off
//! that plan and the mirror's `rid` columns — the coordinator analyzes
//! no SQL of its own, and a statement no rule turns into a distributed
//! plan is `Unsupported`:
//!
//! * DDL and broadcast-table mutations run verbatim on every shard.
//! * Statements over partitioned tables whose output stays partitioned
//!   (rid-preserving `INSERT … SELECT`, `UPDATE … FROM`, `DELETE`) run
//!   verbatim on every shard — each shard operates on its own rid
//!   slice, and rid-equi-joins never cross shards because joined
//!   tables are co-partitioned on `rid`.
//! * Aggregates over partitioned data *scatter*: each shard runs the
//!   statement through [`sqlengine::Database::execute_partial`],
//!   returning its group table un-finalized ([`sqlengine::PartialAggResult`]);
//!   the coordinator merges the tables in shard order and finalizes
//!   once, from the plan it classified the statement by.
//!   Because `SUM`/`AVG` accumulate exactly and round once
//!   ([`sqlengine::ExactSum`]), the merged result is **bit-identical**
//!   to a single-node run for any shard count.
//! * Non-aggregate reads over partitioned data *gather*: each shard
//!   executes the statement with the plan's hidden sort keys appended
//!   as trailing columns, and the coordinator sorts the shards' runs,
//!   concatenated in shard order, through the engine's own ORDER BY /
//!   LIMIT tail ([`finish_select`]).
//!
//! A prepared script is checked by the engine's own
//! [`prepare_statements`] against the mirror, under the tightest of the
//! shards' limits, so the cluster rejects at prepare time what any of its
//! shards would reject. A prepared statement is fragmented on its first
//! run and keeps its class, plan and shard text while every table its
//! plan reads or writes keeps its schema on the mirror, as the engine
//! keeps a prepared plan.
//!
//! Bulk loads route each row by its rid hash; per-shard exactly-once
//! delivery is inherited from the shard executor (the remote client's
//! idempotent session protocol). Multi-shard mutations track per-shard
//! completion so a retry after a partial failure re-runs only the
//! shards that did not finish — the cluster-level analogue of the
//! wire-level replay cache.
//!
//! Per-shard telemetry is merged into **one [`ExecMetrics`] entry per
//! driver statement** (counters add, partitioned scans add to the full
//! `n`, duplicated broadcast scans are masked, gauges take the
//! per-shard max), so the paper's `2k+3` scans-per-iteration cost
//! model verifies against a cluster exactly as it does single-node.
//!
//! ## Threads
//!
//! Shard 0's executor stays on the thread that built the coordinator;
//! every other shard's moves onto a worker thread of its own, which
//! lives as long as the coordinator (dropping it joins the workers, and
//! they drop their executors on the way out). A fan-out sends each
//! worker a job over a channel, runs shard 0's part inline meanwhile,
//! and collects the replies in shard order, so a statement starts no
//! thread and a 1-shard coordinator never starts one. A shard that
//! panics panics the caller.
//!
//! See `docs/CLUSTER.md` for the full fragment/merge grammar and the
//! failure semantics.

use sqlengine::analyze::SchemaProvider;
use sqlengine::ast::{InsertSource, Select, SelectItem, Statement};
use sqlengine::exec::{finalize_select_partials, finish_select};
use sqlengine::parser::{parse, parse_one};
use sqlengine::plan::{
    constant_rows, plan_statement, Chain, InsertPlan, InsertRows, Output, SelectPlan, Source,
    StatementPlan,
};
use sqlengine::{
    check_statement_len, prepare_statements, Error, ExecMetrics, Kept, Limits, PartialAggResult,
    PrepareError, PreparedId, QueryResult, Result, SqlExecutor, StatementKind, SymbolicCatalog,
    Value,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// The shard owning `rid` in an `nshards`-way cluster: a splitmix64
/// finalizer over the rid, reduced mod `nshards`. Stateless and
/// version-stable — loaders, the coordinator and tests must agree on
/// this function exactly.
pub fn shard_of_rid(rid: i64, nshards: usize) -> usize {
    let mut z = (rid as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % nshards as u64) as usize
}

/// How a statement executes across the cluster: a function of its
/// [`StatementPlan`] and which tables are partitioned, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// DDL / broadcast-table mutation: verbatim on every shard, result
    /// identical everywhere (shard 0's is returned).
    AllShards,
    /// Pure read over broadcast tables only: shard 0 answers alone.
    ReadOne,
    /// Partition-local statement: verbatim on every shard, each shard
    /// touching only its rid slice; affected-row counts add.
    Local,
    /// Aggregate read over partitioned data: scatter partials, merge,
    /// finalize once from the plan.
    ScatterRead,
    /// `INSERT` of a scattered aggregate into a broadcast table:
    /// finalize coordinator-side, then replicate the finished rows.
    ScatterInsert,
    /// Non-aggregate read over partitioned data: per-shard execution
    /// plus an ordered (or concatenating) gather.
    GatherRead,
    /// `INSERT` of a gathered read into a broadcast table.
    GatherInsert,
    /// `INSERT … VALUES` into a partitioned table: rows route to their
    /// owning shard by rid hash.
    RoutedValues,
}

impl Class {
    /// The name `EXPLAIN` prints on its `distribution:` line.
    fn name(self) -> &'static str {
        match self {
            Class::AllShards => "all-shards",
            Class::ReadOne => "read-one",
            Class::Local => "local",
            Class::ScatterRead => "scatter",
            Class::ScatterInsert => "scatter-insert",
            Class::GatherRead => "gather",
            Class::GatherInsert => "gather-insert",
            Class::RoutedValues => "routed-values",
        }
    }
}

/// A multi-shard mutation whose acknowledgement may have been lost:
/// per-shard completion flags keyed by a statement fingerprint, so a
/// retry of the *same* statement skips shards that already applied it
/// (re-running them would double-apply — the cluster-level analogue of
/// the wire protocol's reply cache).
#[derive(Debug)]
struct Inflight {
    fingerprint: u64,
    done: Vec<bool>,
}

/// A statement as the cluster runs it, read off its plan on the mirror.
struct Fragmented {
    class: Class,
    plan: StatementPlan,
    /// The SELECT the shards run for a read that is not the statement
    /// itself: a scatter-insert's SELECT, or a gather's with its hidden
    /// sort keys appended ([`gather_text`]). It also keys the per-shard
    /// completion of the rows an INSERT replicates.
    read_text: Option<String>,
}

/// The text a gathered SELECT sends the shards: `sel` with the plan's
/// hidden sort keys appended as trailing columns `__gk0`, `__gk1`, ….
fn gather_text(sel: &Select, plan: &SelectPlan) -> String {
    let mut shard_sel = sel.clone();
    for (j, (expr, _)) in plan.sort_keys.iter().enumerate() {
        shard_sel.items.push(SelectItem::Expr {
            expr: expr.clone(),
            alias: Some(format!("__gk{j}")),
        });
    }
    shard_sel.to_string()
}

/// A prepared script entry: the text as prepared (analysis errors are
/// located in it), its statement's rendering — the text the shards run —
/// and what the coordinator keeps of it.
struct Prepared {
    sql: String,
    text: String,
    kept: Kept<Fragmented>,
}

/// A job for a shard worker: runs on the worker's thread against the
/// shard's executor.
type Job<E> = Box<dyn FnOnce(&mut E) + Send>;

/// A shard executor on a thread of its own for the coordinator's
/// lifetime; its jobs run in the order they were sent.
struct Worker<E> {
    jobs: Sender<Job<E>>,
    thread: JoinHandle<()>,
}

impl<E: SqlExecutor + Send + 'static> Worker<E> {
    /// Move shard `index`'s executor onto a new thread. The thread ends,
    /// dropping the executor, once the job channel closes.
    fn spawn(index: usize, mut shard: E) -> Result<Self> {
        let (jobs, queue) = mpsc::channel::<Job<E>>();
        let thread = thread::Builder::new()
            .name(format!("shard-{index}"))
            .spawn(move || {
                for job in queue {
                    job(&mut shard);
                }
            })
            .map_err(|e| Error::io(format!("start the worker of shard {index}"), e))?;
        Ok(Worker { jobs, thread })
    }

    /// Queue `f` on the worker; [`reply`] waits for its value.
    fn submit<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut E) -> R + Send + 'static,
    ) -> Receiver<R> {
        let (tx, rx) = mpsc::sync_channel(1);
        // Neither send fails unless a job panicked: the caller then
        // panics in `reply`, or is already unwinding.
        let _ = self.jobs.send(Box::new(move |shard: &mut E| {
            let _ = tx.send(f(shard));
        }));
        rx
    }
}

/// Wait for a worker's reply. A job that panicked dropped its reply
/// channel, so the shard's panic becomes the caller's here.
fn reply<R>(rx: Receiver<R>) -> R {
    rx.recv().expect("shard worker panicked")
}

/// Hash-partitioned scatter/gather coordinator over `E` shards.
///
/// Implements [`SqlExecutor`], so the EM driver, the plancheck
/// harness and the CLI run against a cluster without modification.
/// Construct with [`Coordinator::new`] over any executors — remote
/// connections for a real cluster, embedded [`sqlengine::Database`]s for tests
/// and benchmarks.
pub struct Coordinator<E: SqlExecutor + Send + 'static> {
    /// Shard 0's executor, on the caller's thread.
    local: E,
    /// Shards 1.., each on a worker thread of its own; dropping the
    /// coordinator joins them.
    shard_workers: Vec<Worker<E>>,
    /// The shards' schemas: shard 0's catalog at construction, then
    /// every CREATE/DROP all shards applied. Every statement is planned
    /// and every prepared script checked against it; a table is
    /// partitioned iff its schema has a `rid` column.
    catalog: SymbolicCatalog,
    /// The smallest shard's statement-length cap, read at construction.
    max_len: usize,
    /// The tightest of the shards' analysis limits, field by field, read
    /// at construction: a script prepares only if every shard would
    /// prepare it.
    limits: Limits,
    /// Prepared-statement id → its script entry. Shards are not
    /// pre-prepared; a statement keeps its fragmentation while its plan
    /// holds on the mirror ([`Coordinator::run_kept`]).
    prepared: HashMap<u64, Prepared>,
    /// The next prepared-statement id (ids are never reused).
    next_prepared: u64,
    inflight: Option<Inflight>,
    /// Coordinator-level telemetry: one merged entry per statement.
    metrics: Vec<ExecMetrics>,
    metrics_on: bool,
    /// Per-shard drain cursor into each shard's metrics log.
    cursors: Vec<usize>,
}

impl<E: SqlExecutor + Send + 'static> Coordinator<E> {
    /// Build a coordinator over `shards` (at least one). Adopts the
    /// first shard's catalog as its schema mirror, so a coordinator can
    /// attach to a cluster that already holds tables. Shard 0 stays on
    /// the calling thread; every other shard moves to a worker thread.
    pub fn new(mut shards: Vec<E>) -> Result<Self> {
        if shards.is_empty() {
            return Err(Error::Unsupported(
                "a cluster needs at least one shard".into(),
            ));
        }
        let max_len = shards.iter().map(|s| s.max_statement_len()).min().unwrap();
        let limits = shards.iter().map(|s| s.analyze_limits()).reduce(tightest);
        let catalog = shards[0].catalog_snapshot()?;
        let cursors = vec![0; shards.len()];
        // Drain any pre-existing metrics so merged entries start clean.
        let metrics_on = shards[0].metrics_enabled();
        let mut shards = shards.into_iter();
        let mut coord = Coordinator {
            local: shards.next().expect("checked non-empty"),
            shard_workers: Vec::new(),
            catalog,
            max_len,
            limits: limits.expect("checked non-empty"),
            prepared: HashMap::new(),
            next_prepared: 0,
            inflight: None,
            metrics: Vec::new(),
            metrics_on,
            cursors,
        };
        for (shard, index) in shards.zip(1..) {
            // On failure `coord` drops, joining the workers already started.
            coord.shard_workers.push(Worker::spawn(index, shard)?);
        }
        if metrics_on {
            coord.reset_cursors()?;
        }
        Ok(coord)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shard_workers.len() + 1
    }

    /// Is `table` hash-partitioned (as opposed to broadcast)?
    pub fn is_partitioned(&self, table: &str) -> bool {
        self.partition_slot(table).is_some()
    }

    /// The `rid` column slot of `table`, if it is partitioned.
    fn partition_slot(&self, table: &str) -> Option<usize> {
        self.catalog.table_schema(table)?.column_index("rid")
    }

    fn reset_cursors(&mut self) -> Result<()> {
        self.cursors = self
            .fan_out(&[], |_, shard| shard.metrics_len())
            .into_iter()
            .flatten()
            .collect::<Result<_>>()?;
        Ok(())
    }

    // ---- classification ----------------------------------------------

    /// The partition-column slot of `source`, if its table is partitioned.
    fn partition_column(&self, source: &Source) -> Option<usize> {
        self.partition_slot(&source.table)
    }

    /// Are the partitioned sources of `chain` co-located — all connected
    /// through equalities between their partition columns? That is what
    /// keeps a shard-local join equal to its slice of the global join.
    fn co_located(&self, chain: &Chain) -> bool {
        let is_key = |(source, column): (usize, usize)| {
            self.partition_column(&chain.sources[source]) == Some(column)
        };
        let mut group: Vec<usize> = (0..chain.sources.len()).collect();
        for (a, b) in chain.equi_pairs() {
            if is_key(a) && is_key(b) {
                let (from, to) = (group[a.0], group[b.0]);
                group
                    .iter_mut()
                    .filter(|g| **g == from)
                    .for_each(|g| *g = to);
            }
        }
        let mut groups = (0..chain.sources.len())
            .filter(|&i| self.partition_column(&chain.sources[i]).is_some())
            .map(|i| group[i]);
        let first = groups.next();
        groups.all(|g| Some(g) == first)
    }

    /// How a SELECT's rows come together: `ReadOne` (broadcast sources
    /// only), `ScatterRead` (aggregate over partitioned input) or
    /// `GatherRead`.
    fn select_class(&self, plan: &SelectPlan) -> Result<Class> {
        let chain = &plan.chain;
        if !chain
            .sources
            .iter()
            .any(|s| self.partition_column(s).is_some())
        {
            return Ok(Class::ReadOne);
        }
        if !self.co_located(chain) {
            return Err(Error::Unsupported(
                "joins between partitioned tables must include a rid equality \
                 for every table (cross-shard joins are not supported)"
                    .into(),
            ));
        }
        if plan.limit.is_some() && plan.sort_keys.is_empty() {
            return Err(Error::Unsupported(
                "LIMIT without ORDER BY over partitioned data keeps whichever rows \
                 come first, which depends on the sharding"
                    .into(),
            ));
        }
        Ok(if plan.is_aggregate() {
            Class::ScatterRead
        } else {
            Class::GatherRead
        })
    }

    /// Plan `stmt` against the catalog's schemas and read its
    /// distribution class off the plan: no rule, no distributed plan —
    /// `Unsupported`.
    fn classify(&self, stmt: &Statement) -> Result<(Class, StatementPlan)> {
        match stmt {
            Statement::Explain(_) => return Ok((Class::ReadOne, StatementPlan::Utility)),
            Statement::ExplainAnalyze(_) => {
                return Err(Error::Unsupported(
                    "EXPLAIN ANALYZE is not supported on a cluster (per-shard \
                     side effects cannot merge into one plan)"
                        .into(),
                ))
            }
            _ => {}
        }
        let plan = plan_statement(&self.catalog, stmt)?;
        let class = match &plan {
            StatementPlan::Utility => Class::AllShards,
            StatementPlan::Select(select) => self.select_class(select)?,
            StatementPlan::Insert(insert) => self.insert_class(insert)?,
            StatementPlan::Update(update) => {
                let (target, from) = update
                    .chain
                    .sources
                    .split_first()
                    .expect("an UPDATE plan starts with its target");
                let table = &target.table;
                let from_partitioned = from.iter().any(|s| self.partition_column(s).is_some());
                match self.partition_column(target) {
                    None if from_partitioned => {
                        return Err(Error::Unsupported(format!(
                            "UPDATE {table}: cannot update a broadcast table from \
                             partitioned data; aggregate into it with INSERT … SELECT instead"
                        )))
                    }
                    None => Class::AllShards,
                    Some(_) if !self.co_located(&update.chain) => {
                        return Err(Error::Unsupported(format!(
                            "UPDATE {table}: partitioned FROM tables must join \
                             the target on rid to execute shard-locally"
                        )))
                    }
                    Some(key) if update.assignments.iter().any(|(slot, _)| *slot == key) => {
                        return Err(Error::Unsupported(format!(
                            "UPDATE {table}: assigning the partition column would \
                             leave rows on the wrong shard"
                        )))
                    }
                    Some(_) => Class::Local,
                }
            }
            StatementPlan::Delete(delete) => match self.partition_column(&delete.target) {
                Some(_) => Class::Local,
                None => Class::AllShards,
            },
        };
        Ok((class, plan))
    }

    fn insert_class(&self, insert: &InsertPlan) -> Result<Class> {
        let table = &insert.target.table;
        let key = self.partition_column(&insert.target);
        let select = match &insert.rows {
            // Constant VALUES: every shard computes the identical rows
            // of a broadcast table; a partitioned one routes them.
            InsertRows::Values(_) => {
                return Ok(key.map_or(Class::AllShards, |_| Class::RoutedValues))
            }
            InsertRows::Select(select) => select,
        };
        let inner = self.select_class(select)?;
        let Some(key) = key else {
            // Broadcast target: re-reading it while writing it breaks
            // scatter/gather re-execution on retry.
            if select.chain.sources.iter().any(|s| s.table == *table) {
                return Err(Error::Unsupported(format!(
                    "INSERT INTO {table}: self-referential insert into a \
                     broadcast table is not supported on a cluster"
                )));
            }
            return Ok(match inner {
                Class::ScatterRead => Class::ScatterInsert,
                Class::GatherRead => Class::GatherInsert,
                _ => Class::AllShards,
            });
        };
        if inner == Class::ReadOne {
            return Err(Error::Unsupported(format!(
                "INSERT INTO {table}: inserting broadcast-derived rows \
                 into a partitioned table would replicate them on every \
                 shard; load partitioned data with the bulk loader"
            )));
        }
        if select.limit.is_some() {
            return Err(Error::Unsupported(format!(
                "INSERT INTO {table}: a LIMIT over partitioned data cannot run \
                 shard-locally (every shard would keep its own LIMIT rows)"
            )));
        }
        // Every produced row stays on the shard that computes it when
        // the target's partition column is a copy of a source's: the
        // produced keys are then a subset of the shard's own partition.
        let fed_by = (0..insert.incoming_arity()).find(|&j| insert.target_slot(j) == key);
        let keeps_partition = fed_by.is_some_and(|j| {
            matches!(select.output(j), Output::Column(source, column)
                if self.partition_column(&select.chain.sources[source]) == Some(column))
        });
        if !keeps_partition {
            return Err(Error::Unsupported(format!(
                "INSERT INTO {table}: a partitioned target requires \
                 the rid column to be copied from a partitioned \
                 source (rows must stay on their shard)"
            )));
        }
        Ok(Class::Local)
    }

    // ---- execution ---------------------------------------------------

    /// Run `f` on every shard whose `skip` flag is false (a missing flag
    /// is false): each worker's part goes out over its channel, shard
    /// 0's runs on this thread meanwhile, and the results come back in
    /// shard order; skipped shards yield `None`.
    fn fan_out<T, F>(&mut self, skip: &[bool], f: F) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: Fn(usize, &mut E) -> T + Send + Sync + 'static,
    {
        let runs = |i: usize| !skip.get(i).copied().unwrap_or(false);
        let f = Arc::new(f);
        let pending: Vec<Option<Receiver<T>>> = self
            .shard_workers
            .iter()
            .zip(1..)
            .map(|(worker, i)| {
                runs(i).then(|| {
                    let f = Arc::clone(&f);
                    worker.submit(move |shard| f(i, shard))
                })
            })
            .collect();
        let first = runs(0).then(|| f(0, &mut self.local));
        std::iter::once(first)
            .chain(pending.into_iter().map(|rx| rx.map(reply)))
            .collect()
    }

    /// [`Self::fan_out`] of a read-only question to every shard.
    fn ask<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&E) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let pending: Vec<Receiver<T>> = self
            .shard_workers
            .iter()
            .map(|worker| {
                let f = Arc::clone(&f);
                worker.submit(move |shard| f(shard))
            })
            .collect();
        std::iter::once(f(&self.local))
            .chain(pending.into_iter().map(reply))
            .collect()
    }

    /// Per-shard completion flags for a mutating fan-out: fresh unless
    /// this exact statement is the one whose last attempt failed.
    fn arm_inflight(&mut self, fingerprint: u64) -> Vec<bool> {
        match &self.inflight {
            Some(f) if f.fingerprint == fingerprint => f.done.clone(),
            _ => vec![false; self.num_shards()],
        }
    }

    /// Run a mutating operation on every not-yet-done shard, recording
    /// completion so a retry after a partial failure skips the shards
    /// that already applied it.
    fn mutate_all<R, F>(&mut self, fingerprint: u64, f: F) -> Result<Vec<Option<R>>>
    where
        R: Send + 'static,
        F: Fn(usize, &mut E) -> Result<R> + Send + Sync + 'static,
    {
        let mut done = self.arm_inflight(fingerprint);
        let results = self.fan_out(&done, f);
        let mut out = Vec::with_capacity(results.len());
        let mut first_err = None;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                None => out.push(None), // already applied in an earlier attempt
                Some(Ok(v)) => {
                    done[i] = true;
                    out.push(Some(v));
                }
                Some(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    out.push(None);
                }
            }
        }
        match first_err {
            Some(e) => {
                self.inflight = Some(Inflight { fingerprint, done });
                Err(e)
            }
            None => {
                self.inflight = None;
                Ok(out)
            }
        }
    }

    /// [`Self::classify`] `stmt`, and render the SELECT its read sends
    /// the shards when that is not the statement's own text.
    fn fragment(&self, stmt: &Statement) -> Result<Fragmented> {
        let (class, plan) = self.classify(stmt)?;
        let read_text = match (class, stmt, &plan) {
            (Class::GatherRead, Statement::Select(sel), StatementPlan::Select(select)) => {
                Some(gather_text(sel, select))
            }
            (
                Class::ScatterInsert | Class::GatherInsert,
                Statement::Insert {
                    source: InsertSource::Select(sel),
                    ..
                },
                StatementPlan::Insert(InsertPlan {
                    rows: InsertRows::Select(select),
                    ..
                }),
            ) => Some(match class {
                Class::ScatterInsert => sel.to_string(),
                _ => gather_text(sel, select),
            }),
            _ => None,
        };
        Ok(Fragmented {
            class,
            plan,
            read_text,
        })
    }

    /// Execute one fragmented statement, rendered as `text`, across the
    /// cluster. `parsed` is the statement, when the caller keeps it: a
    /// CREATE or DROP every shard applied advances the mirror, and an
    /// EXPLAIN reports the distribution of its inner statement.
    fn run_fragmented(
        &mut self,
        text: &str,
        fragmented: &Fragmented,
        parsed: Option<&Statement>,
    ) -> Result<QueryResult> {
        let Fragmented {
            class,
            plan,
            read_text,
        } = fragmented;
        match (*class, plan, read_text.as_deref()) {
            (Class::AllShards, ..) => {
                let fp = fingerprint_text(text);
                let sql = text.to_string();
                let results = self.mutate_all(fp, move |_, shard| shard.execute(&sql))?;
                // Every shard applied it: the mirror follows.
                if let Some(ddl @ (Statement::CreateTable { .. } | Statement::DropTable { .. })) =
                    parsed
                {
                    self.catalog.apply(ddl, &self.limits)?;
                }
                self.drain_metrics(MergeMode::KeepFirst, None)?;
                Ok(results
                    .into_iter()
                    .flatten()
                    .next()
                    .unwrap_or(QueryResult::affected(0)))
            }
            (Class::Local, ..) => {
                let fp = fingerprint_text(text);
                let sql = text.to_string();
                let results = self.mutate_all(fp, move |_, shard| shard.execute(&sql))?;
                self.drain_metrics(MergeMode::MergeMasked, None)?;
                let affected: usize = results
                    .iter()
                    .flatten()
                    .map(|q: &QueryResult| q.rows_affected)
                    .sum();
                Ok(QueryResult::affected(affected))
            }
            (Class::ReadOne, ..) => {
                let mut result = self.local.execute(text)?;
                self.drain_metrics(MergeMode::KeepFirst, None)?;
                if let Some(Statement::Explain(inner)) = parsed {
                    // The class `run_fragmented` would match on for the
                    // inner statement, as one more plan line.
                    let distribution = match self.classify(inner) {
                        Ok((class, _)) => class.name().to_string(),
                        Err(e) => format!("none ({e})"),
                    };
                    let line = format!("distribution: {distribution}");
                    result.rows.push(vec![Value::from(line)].into_boxed_slice());
                    result.rows_affected = result.rows.len();
                }
                Ok(result)
            }
            (Class::ScatterRead, StatementPlan::Select(select), _) => {
                let merged = self.scatter_partials(text)?;
                let groups = merged.group_count();
                let result = finalize_select_partials(select, merged)?;
                self.drain_metrics(MergeMode::MergeMasked, Some((groups, result.rows.len())))?;
                Ok(result)
            }
            (Class::GatherRead, StatementPlan::Select(select), Some(read)) => {
                let result = self.gather_read(read, select)?;
                self.drain_metrics(MergeMode::MergeMasked, Some((0, result.rows.len())))?;
                Ok(result)
            }
            (
                Class::ScatterInsert | Class::GatherInsert,
                StatementPlan::Insert(
                    insert @ InsertPlan {
                        rows: InsertRows::Select(select),
                        ..
                    },
                ),
                Some(read),
            ) => {
                let produced = if *class == Class::ScatterInsert {
                    finalize_select_partials(select, self.scatter_partials(read)?)?
                } else {
                    self.gather_read(read, select)?
                };
                let rows = full_rows(insert, produced.rows)?;
                self.replicate_rows(read, &insert.target.table, rows)
            }
            (
                Class::RoutedValues,
                StatementPlan::Insert(
                    insert @ InsertPlan {
                        rows: InsertRows::Values(rows),
                        ..
                    },
                ),
                _,
            ) => {
                let rows = full_rows(insert, constant_rows(rows)?)?;
                let n = self.route_bulk(&insert.target.table, rows)?;
                self.drain_metrics(MergeMode::MergeMasked, None)?;
                Ok(QueryResult::affected(n))
            }
            _ => unreachable!("fragment pairs every class with its plan kind and read text"),
        }
    }

    /// Run a prepared statement. A SELECT, INSERT, UPDATE or DELETE runs
    /// the fragmentation it keeps while its plan holds on the mirror
    /// ([`StatementPlan::holds_on`]: equal schemas also mean the same
    /// partitioning, which is all its class reads besides the plan);
    /// otherwise it is fragmented again from its text, and kept. DDL and
    /// EXPLAIN are fragmented afresh on every run.
    fn run_kept(&mut self, prepared: &mut Prepared) -> Result<QueryResult> {
        let Prepared { text, kept, .. } = prepared;
        let kept = match kept {
            Kept::Parsed(stmt) => {
                let fragmented = self.fragment(stmt)?;
                return self.run_fragmented(text, &fragmented, Some(stmt));
            }
            Kept::Planned(kept) => kept,
        };
        if !kept
            .as_mut()
            .is_some_and(|f| f.plan.holds_on(&self.catalog))
        {
            *kept = Some(self.fragment(&parse_one(text)?)?);
        }
        self.run_fragmented(text, kept.as_ref().expect("fragmented above"), None)
    }

    /// Scatter an aggregate select: every shard computes its group table
    /// over its slice; merge the tables in shard index order (which fixes
    /// the merged table's group order; each aggregate merges order-free)
    /// into one the coordinator's thread owns.
    fn scatter_partials(&mut self, text: &str) -> Result<PartialAggResult> {
        let sql = text.to_string();
        let results = self.fan_out(&[], move |_, shard| shard.execute_partial(&sql));
        let mut merged = PartialAggResult::default();
        for r in results.into_iter().flatten() {
            merged.merge(&r?)?;
        }
        Ok(merged)
    }

    /// Gather a non-aggregate select: each shard executes it with the
    /// plan's hidden sort keys appended as trailing columns (`read`, see
    /// [`gather_text`]), and the shards' sorted runs, concatenated in
    /// shard order, go through the engine's own ORDER BY / LIMIT tail — a
    /// stable sort, so equal keys keep shard order. Without ORDER BY the
    /// runs stay in shard order.
    fn gather_read(&mut self, read: &str, plan: &SelectPlan) -> Result<QueryResult> {
        let text = read.to_string();
        let results = self.fan_out(&[], move |_, shard| shard.execute(&text));
        let mut rows = Vec::new();
        for r in results.into_iter().flatten() {
            rows.extend(r?.rows);
        }
        Ok(finish_select(plan, rows))
    }

    /// Replicate finished rows into a broadcast table on every shard
    /// (the merge step of a scatter/gather insert), with per-shard
    /// completion tracking keyed on the originating statement.
    fn replicate_rows(
        &mut self,
        origin_text: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<QueryResult> {
        let n = rows.len();
        self.replicate_bulk(fingerprint_text(origin_text), table, rows)?;
        Ok(QueryResult::affected(n))
    }

    /// Bulk-load the same rows into a broadcast table on every shard,
    /// with per-shard completion tracking keyed on `fingerprint`.
    fn replicate_bulk(
        &mut self,
        fingerprint: u64,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<()> {
        let rows = Arc::new(rows);
        let table_name = table.to_string();
        self.mutate_all(fingerprint, move |_, shard| {
            if rows.is_empty() {
                return Ok(0usize);
            }
            shard.bulk_insert_rows(&table_name, rows.to_vec())
        })?;
        self.drain_metrics(MergeMode::MergeReplicated, None)
    }

    /// Route full-arity rows of a partitioned table to their owning
    /// shards by rid hash and bulk-load each slice in parallel.
    fn route_bulk(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let slot = self.partition_slot(table).ok_or_else(|| {
            Error::Unsupported(format!("table {table} is not partitioned by rid"))
        })?;
        let n = self.num_shards();
        let mut buckets: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
        let fp = fingerprint_bulk(table, &rows);
        for row in rows {
            let rid = match row.get(slot) {
                Some(Value::Int(r)) => *r,
                other => {
                    return Err(Error::Unsupported(format!(
                        "partitioned table {table} requires an integer rid to \
                         route rows (got {other:?})"
                    )))
                }
            };
            buckets[shard_of_rid(rid, n)].push(row);
        }
        let table_name = table.to_string();
        // Each shard's job moves its bucket out of a take-once slot (the
        // job is an `Fn`, run once per shard); a retried load brings
        // fresh rows from its caller.
        let buckets: Arc<Vec<Mutex<Vec<Vec<Value>>>>> =
            Arc::new(buckets.into_iter().map(Mutex::new).collect());
        let counts = self.mutate_all(fp, move |i, shard| {
            let rows = std::mem::take(&mut *buckets[i].lock().unwrap_or_else(|e| e.into_inner()));
            if rows.is_empty() {
                return Ok(0usize);
            }
            shard.bulk_insert_rows(&table_name, rows)
        })?;
        Ok(counts.into_iter().flatten().sum())
    }

    // ---- telemetry ---------------------------------------------------

    /// Drain every shard's new metrics entries and append **one**
    /// merged entry per driver statement to the coordinator log.
    ///
    /// `KeepFirst`: the statement ran identically everywhere (or on
    /// shard 0 alone) — shard 0's entries stand for the cluster.
    /// `MergeMasked`: the statement split across shards — counters and
    /// partitioned-table scan rows add up to the single-node totals,
    /// duplicated broadcast-table scans on shards ≥ 1 are masked to 0
    /// rows, and gauges take the per-shard max. `finalize` overrides
    /// `(groups, rows_produced)` for scattered aggregates, whose true
    /// totals only exist after the coordinator's merge.
    fn drain_metrics(&mut self, mode: MergeMode, finalize: Option<(usize, usize)>) -> Result<()> {
        if !self.metrics_on {
            return Ok(());
        }
        let cursors = self.cursors.clone();
        let fetched = self.fan_out(&[], move |i, shard| shard.metrics_since(cursors[i]));
        let mut per_shard: Vec<Vec<ExecMetrics>> = Vec::with_capacity(fetched.len());
        for (i, entries) in fetched.into_iter().flatten().enumerate() {
            let entries = entries?;
            self.cursors[i] += entries.len();
            per_shard.push(entries);
        }
        let merged = match mode {
            MergeMode::KeepFirst => fold_entries(per_shard.swap_remove(0)),
            MergeMode::MergeMasked | MergeMode::MergeReplicated => {
                let mut acc: Option<ExecMetrics> = None;
                for entries in per_shard {
                    let Some(mut folded) = fold_entries(entries) else {
                        continue;
                    };
                    // The first contributing shard stands in for the
                    // single node; later shards' broadcast-table scans
                    // are duplicates of it and mask to zero rows. For a
                    // replicated mutation the *effects* are duplicates
                    // too: a single node would write those rows once.
                    if acc.is_some() {
                        for scan in &mut folded.scans {
                            if !self.is_partitioned(&scan.table) {
                                scan.rows = 0;
                            }
                        }
                        if matches!(mode, MergeMode::MergeReplicated) {
                            folded.rows_inserted = 0;
                            folded.rows_updated = 0;
                            folded.rows_deleted = 0;
                        }
                    }
                    match &mut acc {
                        None => acc = Some(folded),
                        Some(a) => a.merge(&folded),
                    }
                }
                acc
            }
        };
        if let Some(mut entry) = merged {
            if let Some((groups, rows_produced)) = finalize {
                entry.groups = groups;
                entry.rows_produced = rows_produced;
                entry.kind = Some(StatementKind::Select);
            }
            self.metrics.push(entry);
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum MergeMode {
    /// Shard 0's entries stand for the cluster (identical everywhere).
    KeepFirst,
    /// Counters and effects add across shards (partition-split work).
    MergeMasked,
    /// Like `MergeMasked`, but mutation effect counters (`rows_*`) come
    /// from the first contributor only — the statement replicated the
    /// same write to every shard, which a single node performs once.
    MergeReplicated,
}

/// Fold one shard's entries for a statement into one entry (bulk loads
/// record one entry per chunk server-side).
fn fold_entries(entries: Vec<ExecMetrics>) -> Option<ExecMetrics> {
    let mut it = entries.into_iter();
    let mut first = it.next()?;
    for e in it {
        first.merge(&e);
    }
    Some(first)
}

/// Each limit of `a` and `b`, whichever is tighter.
fn tightest(a: Limits, b: Limits) -> Limits {
    Limits {
        max_terms: a.max_terms.min(b.max_terms),
        max_depth: a.max_depth.min(b.max_depth),
        max_columns: a.max_columns.min(b.max_columns),
        max_tables: a.max_tables.min(b.max_tables),
    }
}

/// An analysis error located in `sql`, the text it was found in, as an
/// embedded engine reports it; any other error as it is.
fn located_in(sql: &str) -> impl Fn(Error) -> Error + '_ {
    move |e| match e {
        Error::Analyze(e) => Error::Analyze(e.locate(sql)),
        e => e,
    }
}

fn fingerprint_text(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    "stmt".hash(&mut h);
    text.hash(&mut h);
    h.finish()
}

fn fingerprint_bulk(table: &str, rows: &[Vec<Value>]) -> u64 {
    let mut h = DefaultHasher::new();
    "bulk".hash(&mut h);
    table.hash(&mut h);
    rows.len().hash(&mut h);
    if let Some(first) = rows.first() {
        first.hash(&mut h);
    }
    if let Some(last) = rows.last() {
        last.hash(&mut h);
    }
    h.finish()
}

/// Widen produced rows to the INSERT target's arity (the engine's own
/// column mapping) for the row-shipping calls.
fn full_rows(insert: &InsertPlan, rows: Vec<sqlengine::Row>) -> Result<Vec<Vec<Value>>> {
    rows.into_iter()
        .map(|row| Ok(insert.full_row(row)?.into_vec()))
        .collect()
}

impl<E: SqlExecutor + Send + 'static> Drop for Coordinator<E> {
    /// Close every worker's queue, then join them all: each drops its
    /// executor on the way out, so every shard is gone when this
    /// returns.
    fn drop(&mut self) {
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut self.shard_workers)
            .into_iter()
            .map(|worker| worker.thread)
            .collect();
        for thread in threads {
            // A worker that panicked has already panicked its caller.
            let _ = thread.join();
        }
    }
}

impl<E: SqlExecutor + Send + 'static> SqlExecutor for Coordinator<E> {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        check_statement_len(sql, self.max_len)?;
        let mut last = None;
        for stmt in parse(sql)? {
            let fragmented = self.fragment(&stmt).map_err(located_in(sql))?;
            let result = self.run_fragmented(&stmt.to_string(), &fragmented, Some(&stmt));
            last = Some(result.map_err(located_in(sql))?);
        }
        last.ok_or(Error::Parse {
            pos: 0,
            message: "empty statement".into(),
        })
    }

    fn execute_partial(&mut self, sql: &str) -> Result<PartialAggResult> {
        let stmts = parse(sql)?;
        let [stmt @ Statement::Select(_)] = stmts.as_slice() else {
            return Err(Error::Unsupported(
                "partial execution requires a single SELECT".into(),
            ));
        };
        match self.classify(stmt)?.0 {
            Class::ReadOne => {
                let partial = self.local.execute_partial(sql)?;
                self.drain_metrics(MergeMode::KeepFirst, None)?;
                Ok(partial)
            }
            Class::ScatterRead => {
                let merged = self.scatter_partials(&stmt.to_string())?;
                self.drain_metrics(MergeMode::MergeMasked, None)?;
                Ok(merged)
            }
            _ => Err(Error::Unsupported(
                "partial execution requires an aggregate SELECT".into(),
            )),
        }
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        // Checked as a shard would check it; shards see each statement
        // only when it runs.
        let stmts =
            prepare_statements(self.catalog.clone(), statements, self.max_len, &self.limits)?;
        Ok(stmts
            .into_iter()
            .zip(statements)
            .map(|(stmt, sql)| {
                let id = self.next_prepared;
                self.next_prepared += 1;
                let prepared = Prepared {
                    sql: sql.clone(),
                    text: stmt.to_string(),
                    kept: Kept::new(stmt),
                };
                self.prepared.insert(id, prepared);
                PreparedId(id)
            })
            .collect())
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        // Out of the map for the run, so the run can borrow it.
        let mut prepared = self
            .prepared
            .remove(&id.0)
            .ok_or_else(|| Error::Unsupported(format!("unknown prepared id {}", id.0)))?;
        let result = self.run_kept(&mut prepared);
        let result = result.map_err(located_in(&prepared.sql));
        self.prepared.insert(id.0, prepared);
        result
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.prepared.clear();
        Ok(())
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        let lname = table.to_ascii_lowercase();
        if self.is_partitioned(&lname) {
            let inserted = self.route_bulk(&lname, rows)?;
            self.drain_metrics(MergeMode::MergeMasked, None)?;
            Ok(inserted)
        } else {
            let n = rows.len();
            self.replicate_bulk(fingerprint_bulk(&lname, &rows), &lname, rows)?;
            Ok(n)
        }
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        if self.is_partitioned(table) {
            let table = table.to_string();
            let results = self.fan_out(&[], move |_, shard| shard.table_rows(&table));
            let mut total = 0;
            for r in results.into_iter().flatten() {
                total += r?;
            }
            Ok(total)
        } else {
            self.local.table_rows(table)
        }
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        self.local.has_table(table)
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        Ok(self.catalog.clone())
    }

    fn max_statement_len(&self) -> usize {
        self.max_len
    }

    fn analyze_limits(&self) -> Limits {
        self.limits.clone()
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.ask(|shard| shard.memory_budget_bytes())
            .into_iter()
            .flatten()
            .min()
    }

    fn note_statement_retry(&mut self) {
        self.fan_out(&[], |_, shard| shard.note_statement_retry());
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        let results = self.fan_out(&[], move |_, shard| shard.set_metrics_enabled(on));
        for r in results.into_iter().flatten() {
            r?;
        }
        self.metrics_on = on;
        if on {
            self.reset_cursors()?;
        }
        Ok(())
    }

    fn metrics_enabled(&self) -> bool {
        self.metrics_on
    }

    fn metrics_len(&mut self) -> Result<usize> {
        Ok(self.metrics.len())
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        let from = from.min(self.metrics.len());
        Ok(self.metrics[from..].to_vec())
    }

    fn describe(&self) -> String {
        let shards = self.ask(|shard| shard.describe());
        format!(
            "cluster coordinator over {} shard(s): [{}]",
            shards.len(),
            shards.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Database;

    impl<E: SqlExecutor + Send + 'static> Coordinator<E> {
        /// Run `f` on shard `i`'s executor, on the thread that owns it.
        fn on_shard<R: Send + 'static>(
            &mut self,
            i: usize,
            f: impl FnOnce(&mut E) -> R + Send + 'static,
        ) -> R {
            match i {
                0 => f(&mut self.local),
                _ => reply(self.shard_workers[i - 1].submit(f)),
            }
        }
    }

    fn cluster(n: usize) -> Coordinator<Database> {
        Coordinator::new((0..n).map(|_| Database::new()).collect()).unwrap()
    }

    /// Run `sqls` against both a fresh single-node database and a
    /// fresh n-shard cluster; assert the final statement's result is
    /// identical (columns, rows, bit-for-bit values).
    fn assert_parity(n: usize, sqls: &[&str]) {
        let mut single = Database::new();
        let mut coord = cluster(n);
        let mut last_single = None;
        let mut last_coord = None;
        for sql in sqls {
            last_single = Some(single.execute(sql).unwrap());
            last_coord = Some(coord.execute(sql).unwrap());
        }
        let s = last_single.unwrap();
        let c = last_coord.unwrap();
        assert_eq!(s.columns, c.columns);
        assert_eq!(s.rows, c.rows, "rows diverge at {n} shards");
    }

    const SETUP: &[&str] = &[
        "CREATE TABLE y (rid BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE)",
        "CREATE TABLE c (j BIGINT PRIMARY KEY, c1 DOUBLE, c2 DOUBLE)",
        "INSERT INTO y VALUES (1, 1.0, 10.0), (2, 2.0, 20.0), (3, 3.5, 30.5), \
         (4, -4.25, 40.0), (5, 0.125, -50.0), (6, 6.0, 60.0), (7, 7.75, 70.0)",
        "INSERT INTO c VALUES (1, 0.5, 9.0), (2, 5.0, 55.0)",
    ];

    #[test]
    fn rid_routing_is_stable_and_total() {
        for n in [1usize, 2, 4, 7] {
            for rid in -100i64..100 {
                let s = shard_of_rid(rid, n);
                assert!(s < n);
                assert_eq!(s, shard_of_rid(rid, n), "must be deterministic");
            }
        }
        // One shard takes everything.
        assert!((0..64).all(|r| shard_of_rid(r, 1) == 0));
        // Several shards each get some rows for a modest rid range.
        let hit: std::collections::HashSet<usize> = (0..64).map(|r| shard_of_rid(r, 4)).collect();
        assert_eq!(hit.len(), 4, "64 rids should reach all 4 shards");
    }

    #[test]
    fn partition_map_tracks_ddl() {
        let mut coord = cluster(2);
        coord
            .execute("CREATE TABLE y (rid BIGINT, v DOUBLE)")
            .unwrap();
        coord
            .execute("CREATE TABLE w (j BIGINT, w DOUBLE)")
            .unwrap();
        assert!(coord.is_partitioned("y"));
        assert!(!coord.is_partitioned("w"));
        coord.execute("DROP TABLE y").unwrap();
        assert!(!coord.is_partitioned("y"));
    }

    #[test]
    fn routed_values_land_on_owning_shards_only() {
        let mut coord = cluster(4);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        assert_eq!(coord.table_rows("y").unwrap(), 7);
        // Per-shard counts match the hash routing exactly, and rows
        // are not replicated.
        let mut expect = [0usize; 4];
        for rid in 1..=7i64 {
            expect[shard_of_rid(rid, 4)] += 1;
        }
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(coord.on_shard(i, |s| s.table_len("y")).unwrap(), *want);
        }
        // Broadcast tables replicate in full.
        for i in 0..coord.num_shards() {
            assert_eq!(coord.on_shard(i, |s| s.table_len("c")).unwrap(), 2);
        }
    }

    #[test]
    fn scatter_aggregates_match_single_node_bit_for_bit() {
        for n in [1, 2, 4] {
            let mut sqls = SETUP.to_vec();
            sqls.push("SELECT count(rid), sum(y1), avg(y2), min(y1), max(y2) FROM y");
            assert_parity(n, &sqls);
        }
    }

    #[test]
    fn grouped_scatter_with_join_matches_single_node() {
        for n in [1, 2, 4] {
            let mut sqls = SETUP.to_vec();
            sqls.push(
                "SELECT c.j, sum(y.y1 * c.c1), count(y.rid) FROM y, c \
                 GROUP BY c.j ORDER BY c.j",
            );
            assert_parity(n, &sqls);
        }
    }

    #[test]
    fn gather_read_merges_order_by_streams() {
        for n in [1, 2, 4] {
            let mut sqls = SETUP.to_vec();
            sqls.push("SELECT rid, y1 + y2 AS s FROM y ORDER BY s DESC, rid");
            assert_parity(n, &sqls);
        }
    }

    #[test]
    fn gather_read_orders_by_the_output_name_of_a_qualified_column() {
        // `ORDER BY rid` names output 0 (`y.rid`), as the engine reads
        // it; shipped to the shards as a bare hidden key it would be
        // ambiguous between y and z.
        for n in [1, 2, 4] {
            let mut sqls = SETUP.to_vec();
            sqls.push("CREATE TABLE z (rid BIGINT PRIMARY KEY, z1 DOUBLE)");
            sqls.push("INSERT INTO z VALUES (1, 0.5), (2, -1.5), (3, 2.25), (5, 8.0), (7, 0.0)");
            sqls.push("SELECT y.rid, z.z1 FROM y, z WHERE y.rid = z.rid ORDER BY rid");
            assert_parity(n, &sqls);
        }
    }

    #[test]
    fn local_insert_select_with_limit_is_rejected_not_applied_per_shard() {
        // Run shard-locally, every shard would keep its own 3 rows: 6
        // rows at 2 shards where a single node inserts 3.
        for n in [1, 2, 4] {
            let mut coord = cluster(n);
            for sql in SETUP {
                coord.execute(sql).unwrap();
            }
            coord
                .execute("CREATE TABLE w (rid BIGINT, y1 DOUBLE)")
                .unwrap();
            for sql in [
                "INSERT INTO w SELECT rid, y1 FROM y ORDER BY y1 DESC LIMIT 3",
                "INSERT INTO w SELECT rid, y1 FROM y LIMIT 3",
            ] {
                match coord.execute(sql) {
                    Err(Error::Unsupported(m)) => assert!(m.contains("LIMIT"), "{m}"),
                    other => panic!("{sql} at {n} shard(s): {other:?}"),
                }
            }
            assert_eq!(coord.table_rows("w").unwrap(), 0);
        }
    }

    #[test]
    fn explain_reports_the_distribution_class() {
        let mut coord = cluster(2);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        let mut distribution = |sql: &str| {
            let plan = coord.execute(&format!("EXPLAIN {sql}")).unwrap();
            plan.rows.last().unwrap()[0].to_string()
        };
        for (sql, want) in [
            ("SELECT sum(y1) FROM y", "distribution: scatter"),
            ("SELECT rid FROM y ORDER BY rid", "distribution: gather"),
            ("SELECT j FROM c", "distribution: read-one"),
            ("DELETE FROM y WHERE y1 < 0.0", "distribution: local"),
            ("UPDATE c SET c1 = 0.0", "distribution: all-shards"),
            (
                "INSERT INTO y VALUES (9, 0.0, 0.0)",
                "distribution: routed-values",
            ),
            (
                "INSERT INTO c SELECT rid, sum(y1), max(y2) FROM y GROUP BY rid",
                "distribution: scatter-insert",
            ),
            (
                "INSERT INTO c SELECT rid, y1, y2 FROM y",
                "distribution: gather-insert",
            ),
        ] {
            assert_eq!(distribution(sql), want, "{sql}");
        }
        let rejected = distribution("SELECT rid FROM y LIMIT 2");
        assert!(rejected.starts_with("distribution: none (") && rejected.contains("LIMIT"));
    }

    #[test]
    fn gather_read_honors_limit_after_merge() {
        for n in [2, 4] {
            let mut sqls = SETUP.to_vec();
            sqls.push("SELECT rid FROM y ORDER BY rid LIMIT 3");
            assert_parity(n, &sqls);
        }
    }

    #[test]
    fn local_insert_select_keeps_rows_on_their_shard() {
        let mut coord = cluster(4);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        coord
            .execute("CREATE TABLE yd (rid BIGINT, d DOUBLE)")
            .unwrap();
        let r = coord
            .execute(
                "INSERT INTO yd SELECT y.rid, sum((y.y1 - c.c1) * (y.y1 - c.c1)) \
                 FROM y, c GROUP BY y.rid",
            )
            .unwrap();
        assert_eq!(r.rows_affected, 7);
        // Derived rows co-locate with their source rows.
        for i in 0..4 {
            assert_eq!(
                coord.on_shard(i, |s| s.table_len("yd")).unwrap(),
                coord.on_shard(i, |s| s.table_len("y")).unwrap()
            );
        }
        // And the derived table reads back identically to single node.
        let mut sqls: Vec<&str> = SETUP.to_vec();
        sqls.push("CREATE TABLE yd (rid BIGINT, d DOUBLE)");
        sqls.push(
            "INSERT INTO yd SELECT y.rid, sum((y.y1 - c.c1) * (y.y1 - c.c1)) \
             FROM y, c GROUP BY y.rid",
        );
        sqls.push("SELECT rid, d FROM yd ORDER BY rid");
        assert_parity(4, &sqls);
    }

    #[test]
    fn scatter_insert_replicates_finalized_aggregates() {
        let mut coord = cluster(3);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        coord
            .execute("CREATE TABLE stats (j BIGINT, total DOUBLE, n BIGINT)")
            .unwrap();
        coord
            .execute(
                "INSERT INTO stats SELECT c.j, sum(y.y1 * c.c1), count(y.rid) \
                 FROM y, c GROUP BY c.j",
            )
            .unwrap();
        // The broadcast result lands in full on every shard.
        for i in 0..coord.num_shards() {
            assert_eq!(coord.on_shard(i, |s| s.table_len("stats")).unwrap(), 2);
        }
        let mut sqls: Vec<&str> = SETUP.to_vec();
        sqls.push("CREATE TABLE stats (j BIGINT, total DOUBLE, n BIGINT)");
        sqls.push(
            "INSERT INTO stats SELECT c.j, sum(y.y1 * c.c1), count(y.rid) \
             FROM y, c GROUP BY c.j",
        );
        sqls.push("SELECT j, total, n FROM stats ORDER BY j");
        assert_parity(3, &sqls);
    }

    #[test]
    fn broadcast_update_and_delete_stay_replica_identical() {
        let mut sqls: Vec<&str> = SETUP.to_vec();
        sqls.push("UPDATE c SET c1 = c1 * 2.0 WHERE j = 1");
        sqls.push("DELETE FROM y WHERE y1 < 0.0");
        sqls.push("SELECT rid, y1 FROM y ORDER BY rid");
        assert_parity(2, &sqls);
        let mut sqls: Vec<&str> = SETUP.to_vec();
        sqls.push("UPDATE c SET c1 = c1 * 2.0 WHERE j = 1");
        sqls.push("SELECT j, c1, c2 FROM c ORDER BY j");
        assert_parity(2, &sqls);
    }

    #[test]
    fn cross_shard_joins_are_rejected_with_a_typed_error() {
        let mut coord = cluster(2);
        coord
            .execute("CREATE TABLE a (rid BIGINT, v DOUBLE)")
            .unwrap();
        coord
            .execute("CREATE TABLE b (rid BIGINT, w DOUBLE)")
            .unwrap();
        // No rid equality between the two partitioned tables.
        let err = coord
            .execute("SELECT sum(a.v * b.w) FROM a, b")
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
        // With the rid join it scatters fine.
        coord
            .execute("SELECT sum(a.v * b.w) FROM a, b WHERE a.rid = b.rid")
            .unwrap();
    }

    #[test]
    fn update_broadcast_from_partitioned_is_rejected() {
        let mut coord = cluster(2);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        let err = coord
            .execute("UPDATE c FROM y SET c1 = y.y1 WHERE c.j = 1")
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
    }

    #[test]
    fn partial_retry_does_not_double_apply() {
        // Shard 1 fails the statement once (transient, not applied);
        // shard 0 applies it. The retry must skip shard 0.
        let mut coord = cluster(2);
        coord
            .execute("CREATE TABLE w (j BIGINT, v DOUBLE)")
            .unwrap();
        let plan =
            sqlengine::FaultPlan::single(sqlengine::FaultRule::table("w").transient().once());
        coord.on_shard(1, move |s| s.set_fault_plan(plan));
        let sql = "INSERT INTO w VALUES (1, 1.0)";
        let err = coord.execute(sql).unwrap_err();
        assert!(matches!(
            err,
            Error::Injected {
                transient: true,
                ..
            }
        ));
        coord.note_statement_retry();
        coord.execute(sql).unwrap();
        for i in 0..coord.num_shards() {
            assert_eq!(
                coord.on_shard(i, |s| s.table_len("w")).unwrap(),
                1,
                "exactly once per shard"
            );
        }
    }

    #[test]
    fn merged_metrics_match_single_node_scan_counts() {
        let mut single = Database::new();
        let mut coord = cluster(4);
        for sql in SETUP {
            single.execute(sql).unwrap();
            coord.execute(sql).unwrap();
        }
        SqlExecutor::set_metrics_enabled(&mut single, true).unwrap();
        coord.set_metrics_enabled(true).unwrap();
        let sqls = [
            "SELECT c.j, sum(y.y1), count(y.rid) FROM y, c GROUP BY c.j",
            "SELECT rid, y1 FROM y ORDER BY rid",
            "SELECT j, c1 FROM c ORDER BY j",
        ];
        for sql in sqls {
            single.execute(sql).unwrap();
            coord.execute(sql).unwrap();
        }
        let s = SqlExecutor::metrics_since(&mut single, 0).unwrap();
        let c = coord.metrics_since(0).unwrap();
        assert_eq!(s.len(), c.len(), "one merged entry per statement");
        for (se, ce) in s.iter().zip(&c) {
            let srows: Vec<(String, usize)> =
                se.scans.iter().map(|m| (m.table.clone(), m.rows)).collect();
            let crows: Vec<(String, usize)> =
                ce.scans.iter().map(|m| (m.table.clone(), m.rows)).collect();
            assert_eq!(srows, crows, "scan rows must merge to single-node counts");
            assert_eq!(se.groups, ce.groups);
        }
    }

    #[test]
    fn prepared_scripts_run_through_classification() {
        let mut coord = cluster(2);
        for sql in SETUP {
            coord.execute(sql).unwrap();
        }
        let ids = coord
            .prepare_script(&[
                "SELECT count(rid) FROM y".to_string(),
                "SELECT sum(y1) FROM y".to_string(),
            ])
            .unwrap();
        let r = coord.run_prepared(ids[0]).unwrap();
        assert_eq!(r.scalar_f64(), Some(7.0));
        coord.clear_prepared().unwrap();
        assert!(coord.run_prepared(ids[0]).is_err());
    }

    #[test]
    fn prepare_rejects_what_the_shards_limits_reject() {
        let tight = || {
            let mut db = Database::new();
            db.config_mut().limits.max_terms = 8;
            db
        };
        let mut embedded = tight();
        let mut coord = Coordinator::new(vec![tight(), tight()]).unwrap();
        let ddl = "CREATE TABLE t (rid BIGINT, a DOUBLE)";
        embedded.execute(ddl).unwrap();
        coord.execute(ddl).unwrap();
        let sum = vec!["a"; 40].join(" + ");
        let script = [format!("SELECT sum({sum}) FROM t")];
        let want = SqlExecutor::prepare_script(&mut embedded, &script).unwrap_err();
        let got = coord.prepare_script(&script).unwrap_err();
        assert_eq!(got.index, 0);
        assert_eq!(got.to_string(), want.to_string());
    }

    #[test]
    fn prepare_rejects_what_any_shard_rejects() {
        let mut embedded = Database::new();
        embedded.config_mut().limits.max_terms = 8;
        let mut tight = Database::new();
        tight.config_mut().limits.max_terms = 8;
        let mut coord = Coordinator::new(vec![Database::new(), tight]).unwrap();
        let ddl = "CREATE TABLE t (rid BIGINT, a DOUBLE)";
        embedded.execute(ddl).unwrap();
        coord.execute(ddl).unwrap();
        let sum = vec!["a"; 40].join(" + ");
        let script = [format!("SELECT sum({sum}) FROM t")];
        let want = SqlExecutor::prepare_script(&mut embedded, &script).unwrap_err();
        let got = coord.prepare_script(&script).unwrap_err();
        assert_eq!(got.index, 0);
        assert_eq!(got.to_string(), want.to_string());
        assert_eq!(coord.analyze_limits().max_terms, 8);
    }

    #[test]
    fn bulk_insert_routes_partitioned_and_replicates_broadcast() {
        let mut coord = cluster(3);
        coord
            .execute("CREATE TABLE y (rid BIGINT, v DOUBLE)")
            .unwrap();
        coord
            .execute("CREATE TABLE m (j BIGINT, v DOUBLE)")
            .unwrap();
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i), Value::Double(i as f64 / 8.0)])
            .collect();
        assert_eq!(coord.bulk_insert_rows("y", rows.clone()).unwrap(), 30);
        assert_eq!(coord.bulk_insert_rows("m", rows).unwrap(), 30);
        assert_eq!(coord.table_rows("y").unwrap(), 30);
        let spread: usize = (0..3)
            .map(|i| coord.on_shard(i, |s| s.table_len("y")).unwrap())
            .sum();
        assert_eq!(spread, 30);
        for i in 0..coord.num_shards() {
            assert_eq!(coord.on_shard(i, |s| s.table_len("m")).unwrap(), 30);
        }
    }

    #[test]
    fn a_panicking_shard_panics_the_caller_and_the_coordinator_still_drops() {
        let mut coord = cluster(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            coord.fan_out(&[], |i, _: &mut Database| {
                assert_eq!(i, 0, "shard {i} fails")
            })
        }));
        assert!(caught.is_err(), "shard 1's panic must reach the caller");
        drop(coord);
    }

    #[test]
    fn coordinator_adopts_existing_catalog() {
        let mut shard0 = Database::new();
        let mut shard1 = Database::new();
        for db in [&mut shard0, &mut shard1] {
            db.execute("CREATE TABLE y (rid BIGINT, v DOUBLE)").unwrap();
            db.execute("CREATE TABLE c (j BIGINT, v DOUBLE)").unwrap();
        }
        let mut coord = Coordinator::new(vec![shard0, shard1]).unwrap();
        assert!(coord.is_partitioned("y"));
        assert!(!coord.is_partitioned("c"));
        assert!(coord.has_table("y").unwrap());
        let snap = coord.catalog_snapshot().unwrap();
        assert!(snap.contains("y") && snap.contains("c"));
    }
}
