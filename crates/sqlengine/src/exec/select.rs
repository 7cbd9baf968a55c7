//! SELECT execution: a batch-at-a-time left-deep join pipeline.
//!
//! What runs is decided by [`crate::plan`]: this module *instantiates* a
//! [`Chain`] against the stored columns — join tables, filtered
//! positions, memory charges, scan records — and drives batches
//! through it. SELECT and `INSERT … SELECT` sink the batches into a
//! projection or an aggregation; UPDATE and DELETE (the `dml` module)
//! run the same pipeline into their own sinks, with one more slot the
//! driver fills with its row positions.
//!
//! The FROM list is joined left-deep in declaration order: the first table
//! is the *driver* and is scanned once; every later table becomes a build
//! stage — a hash join when an equi-join conjunct connects it to the
//! accumulated prefix (the common case in SQLEM's generated SQL, always on
//! `RID` or `v`/`i`), or a broadcast (cross product) otherwise (the 1-row
//! parameter tables `GMM`, `W`, `R`).
//!
//! Rows move in batches of at most [`BATCH_ROWS`]. A table stores typed
//! [`Column`]s, so a batch of the driver is a range of its rows: the
//! slots some expression references — probe keys, residuals, the sink's
//! items — are filled with slices of the stored columns; nothing else is
//! copied. A join stage evaluates its probe keys over the batch, emits
//! the matches as two index vectors (probing row, build row) and takes
//! the build table's referenced columns at the matched positions; when
//! every probing row matched exactly once (a key lookup that always
//! hits, a one-row parameter table) the probing side is the batch as it
//! is and goes on uncopied. Joined batches go straight into a sink —
//! scalar projection, or hash or stream aggregation — so no intermediate
//! join result is ever materialized beyond one batch. Every stage emits
//! its matches in probing-row order, so rows leave the pipeline in driver
//! order: a GROUP BY whose one key is a driver column stored in
//! non-decreasing order sees each group's rows together and streams
//! ([`StreamSink`]: one open group, no group table), which keeps the
//! `pn`-row distance join of the hybrid E step within one batch's groups
//! of memory. Every sink hands its output over as columns — the
//! projection the item columns of its batches, the hash aggregation what
//! its group table finalizes into, the stream aggregation the groups each
//! batch finished: `INSERT … SELECT` stages them into the target as
//! they are made ([`run_select_columns`]), and rows are built only for
//! a client ([`run_select`]), or to sort and cut a result that is
//! ordered or limited.
//!
//! A hash stage whose build keys are exactly its table's PRIMARY KEY,
//! with no filter on the build side, probes the index the table already
//! maintains (`Lookup::PrimaryKey`, a batch of key columns at a time)
//! instead of hashing the table again for every statement. The choice is
//! read off the schema, by the plan. Either way the stage's table is
//! recorded as a build-side scan, so the paper's scan counts are what
//! they were. Whether an aggregate streams is read off the stored driver
//! column when the plan is instantiated (`streams`), and `EXPLAIN`
//! names the sink that runs.
//!
//! An expression that fails on some row cuts its batch to the rows before
//! it and parks the error ([`Batch::eval_cut`]); each step raises its
//! parked error only after the steps downstream of it have run on the
//! shortened batch, so the statement fails with the error of the first
//! failing row, as it would reading one row at a time.
//!
//! A statement runs on one thread. The AMP parallelism of the paper's
//! Teradata installation is the shard coordinator's (`sqlwire`): it runs
//! this pipeline on every shard and merges what they return — partial
//! aggregates through [`PartialAggResult::merge`], sorted rows through
//! [`finish_select`].

use std::ops::Range;
use std::time::Instant;

use crate::ast::BinOp;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::aggregate::{AggPlan, AggSink, GroupSink, PartialAggResult, StreamSink};
use crate::exec::{ExecConfig, QueryResult};
use crate::expr::{Batch, CExpr, Column, BATCH_ROWS};
use crate::keytable::{hash_rows, JoinBuild, JoinTable};
use crate::metrics::StmtProbe;
use crate::plan::{Chain, Join, SelectPlan, Sink};
use crate::resource::{rows_bytes, ResourceTracker, ENTRY_OVERHEAD_BYTES};
use crate::table::{Row, Table, NO_ROW};
use crate::value::Value;

/// The post-sink tail shared by full and gathered execution: sort by the
/// hidden key columns, strip them, apply LIMIT. The sort is stable, so
/// sorted runs concatenated in shard order come out as a merge of them
/// that breaks ties by shard.
pub fn finish_select(plan: &SelectPlan, mut rows: Vec<Row>) -> QueryResult {
    let n_visible = plan.output_names.len();
    if !plan.sort_keys.is_empty() {
        let descs: Vec<bool> = plan.sort_keys.iter().map(|(_, desc)| *desc).collect();
        sort_by_hidden(&mut rows, n_visible, &descs);
        for row in rows.iter_mut() {
            let mut v = std::mem::take(row).into_vec();
            v.truncate(n_visible);
            *row = v.into_boxed_slice();
        }
    }
    if let Some(limit) = plan.limit {
        rows.truncate(limit);
    }
    let n = rows.len();
    QueryResult {
        columns: plan.output_names.clone(),
        rows,
        rows_affected: n,
    }
}

/// Run the pipeline into a GROUP BY sink and charge the most of a group
/// table it held at once, after the pipeline drains: an accumulation
/// error, the first failing row's, comes first. A finalize-tail error
/// comes after the charge — the hash sink's raised by its `finalize`,
/// the stream sink's, met while it ran the tail batch by batch, parked
/// until its `finish`.
fn run_aggregate<S: GroupSink>(
    pipeline: &Pipeline<'_>,
    config: &ExecConfig,
    probe: &mut StmtProbe,
    sink: S,
) -> Result<S> {
    let sink = run_pipeline(pipeline, config, probe, sink)?;
    probe
        .tracker()
        .charge("group table", sink.footprint_bytes())?;
    probe.set_groups(sink.group_count());
    Ok(sink)
}

/// Does the aggregate stream ([`StreamSink`])? Only when its input is in
/// key order: one GROUP BY key, a column of the driver, stored as
/// BIGINTs without NULLs in non-decreasing order — every pipeline stage
/// emits its matches in probing-row order, so each group's rows then
/// arrive together. The order is read off the stored column, one pass
/// that stops at the first descent, each time the plan is instantiated:
/// there is no flag to keep true through appends, DELETE, UPDATE, WAL
/// replay and snapshot loads, and the plan stays free of data.
fn streams(pipeline: &Pipeline<'_>, agg: &AggPlan) -> bool {
    let (Some(driver), [CExpr::Col(slot)]) = (&pipeline.driver, agg.keys.as_slice()) else {
        return false;
    };
    matches!(
        driver.table.columns().get(*slot),
        Some(Column::I64(v, None)) if v.windows(2).all(|w| w[0] <= w[1])
    )
}

/// Rows for a client, made of batches of output columns: the one place
/// a result becomes rows.
fn rows_of(chunks: Vec<Vec<Column>>) -> Vec<Row> {
    let mut rows = Vec::new();
    for cols in chunks {
        let row = |_| Vec::with_capacity(cols.len());
        let mut chunk: Vec<Vec<Value>> = (0..cols[0].len()).map(row).collect();
        cols.iter().for_each(|col| col.append_to(&mut chunk));
        rows.extend(chunk.into_iter().map(Vec::into_boxed_slice));
    }
    rows
}

/// A finalized group table's output columns as the batches
/// [`run_columns`] hands on: one, or none when no group is left.
fn one_chunk(cols: Vec<Column>) -> Vec<Vec<Column>> {
    match cols.first() {
        Some(first) if !first.is_empty() => vec![cols],
        _ => Vec::new(),
    }
}

/// Run a planned SELECT up to its sink, handing the output to `out` as
/// it is made: non-empty batches of columns, one column per item
/// (hidden sort keys included), before ORDER BY and LIMIT. No row is
/// built on the way: a projection hands on its batches' item columns, a
/// streamed aggregate the groups each batch finished, a hashed one what
/// its group table finalizes into.
fn run_columns(
    catalog: &Catalog,
    config: &ExecConfig,
    plan: &SelectPlan,
    probe: &mut StmtProbe,
    out: impl FnMut(Vec<Column>),
) -> Result<()> {
    let agg = match &plan.sink {
        Sink::Aggregate(agg) => agg,
        Sink::Project(items) => return run_project(catalog, config, plan, items, probe, out),
    };
    let pipeline = build_pipeline(catalog, &plan.chain, &sink_reads(&plan.sink), false, probe)?;
    if streams(&pipeline, agg) {
        let sink = StreamSink::new(agg, out);
        return run_aggregate(&pipeline, config, probe, sink)?.finish();
    }
    let sink = run_aggregate(&pipeline, config, probe, AggSink::new(agg))?;
    one_chunk(sink.finalize()?).into_iter().for_each(out);
    Ok(())
}

/// Run a planned SELECT and materialize its result, recording telemetry
/// into `probe` (pass a disabled probe to skip).
pub fn run_select(
    catalog: &Catalog,
    config: &ExecConfig,
    plan: &SelectPlan,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let mut chunks = Vec::new();
    run_columns(catalog, config, plan, probe, |cols| chunks.push(cols))?;
    let result = finish_select(plan, rows_of(chunks));
    probe.set_rows_produced(result.rows.len());
    Ok(result)
}

/// The scalar projection of `plan`: its output handed to `out` as the
/// sink's batches of item columns, in driver order.
fn run_project(
    catalog: &Catalog,
    config: &ExecConfig,
    plan: &SelectPlan,
    items: &[CExpr],
    probe: &mut StmtProbe,
    out: impl FnMut(Vec<Column>),
) -> Result<()> {
    let pipeline = build_pipeline(catalog, &plan.chain, &sink_reads(&plan.sink), false, probe)?;
    let base_width = plan.chain.width();
    let sink = ScalarSink {
        items,
        base_width,
        out,
        rows: 0,
        mem: probe.tracker(),
    };
    run_pipeline(&pipeline, config, probe, sink)?;
    Ok(())
}

/// Run a planned SELECT for `INSERT … SELECT`: the result of
/// [`run_select`] handed to `out` as non-empty batches of columns, one
/// column per output. A projection's or an aggregate's columns go to the
/// target as they are made (`run_columns`), so the INSERT stages each
/// batch before the next is made, and no row is ever built; only a sorted
/// or limited result is sorted and cut as rows and converted once, here.
pub fn run_select_columns(
    catalog: &Catalog,
    config: &ExecConfig,
    plan: &SelectPlan,
    probe: &mut StmtProbe,
    mut out: impl FnMut(Vec<Column>),
) -> Result<()> {
    if plan.sort_keys.is_empty() && plan.limit.is_none() {
        let mut rows = 0;
        run_columns(catalog, config, plan, probe, |cols| {
            rows += cols[0].len();
            out(cols)
        })?;
        probe.set_rows_produced(rows);
        return Ok(());
    }
    let rows = run_select(catalog, config, plan, probe)?.rows;
    if !rows.is_empty() {
        let column = |j: usize| Column::from_values(rows.iter().map(|r| r[j].clone()).collect());
        out((0..plan.output_names.len()).map(column).collect());
    }
    Ok(())
}

/// The aggregation of `plan`; partial execution and partial finalize
/// only make sense for an aggregate SELECT.
fn aggregate_of<'p>(plan: &'p SelectPlan, what: &str) -> Result<&'p AggPlan> {
    match &plan.sink {
        Sink::Aggregate(agg) => Ok(agg),
        Sink::Project(_) => Err(Error::Unsupported(format!(
            "{what} requires an aggregate SELECT"
        ))),
    }
}

/// Run the scatter half of a distributed aggregate: the same pipeline
/// and the same scan accounting as [`run_select`] (the data really was
/// scanned), but the group table is returned un-finalized; the finalize
/// tail moves to the gatherer.
pub fn run_select_partial(
    catalog: &Catalog,
    config: &ExecConfig,
    plan: &SelectPlan,
    probe: &mut StmtProbe,
) -> Result<PartialAggResult> {
    let agg = aggregate_of(plan, "partial execution")?;
    let pipeline = build_pipeline(catalog, &plan.chain, &sink_reads(&plan.sink), false, probe)?;
    let sink = run_aggregate(&pipeline, config, probe, AggSink::new(agg))?;
    probe.set_rows_produced(sink.group_count());
    Ok(sink.into_partial())
}

/// Run the gather half: adopt the merged group table and run the
/// finalize tail (implicit empty group, HAVING, projection, ORDER BY,
/// LIMIT). From the plan only — no rows are scanned and no tables need
/// data; shards and the gatherer plan the same statement text over the
/// same schemas, so the accumulator layout is identical by construction
/// (and checked, since the table may have crossed the wire).
pub fn finalize_select_partials(
    plan: &SelectPlan,
    partial: PartialAggResult,
) -> Result<QueryResult> {
    let agg = aggregate_of(plan, "partial finalize")?;
    let cols = AggSink::from_partial(agg, partial)?.finalize()?;
    Ok(finish_select(plan, rows_of(one_chunk(cols))))
}

// ---------------------------------------------------------------------
// Pipeline construction
// ---------------------------------------------------------------------

/// Where a hash stage finds the build rows matching a probe key.
enum Lookup<'a> {
    /// The build keys are exactly the build table's PRIMARY KEY and no
    /// filter thins the table: probe the index the table maintains
    /// anyway (§2.6's "primary index"). Nothing is built, charged or
    /// dropped, and a key matches at most one row.
    PrimaryKey(&'a Table),
    /// Build key → row positions, built for this statement over the
    /// (filtered) stage rows: the distinct keys as columns under the
    /// engine's one hash table, their positions as one CSR array.
    Built(JoinTable),
}

/// How a non-driver table joins into the pipeline.
enum StageKind<'a> {
    /// Equi-join: probe keys are evaluated over the accumulated columns.
    Hash {
        lookup: Lookup<'a>,
        /// The plan's probe keys, in the index's key order for a
        /// primary-key lookup.
        probe_keys: Vec<&'a CExpr>,
    },
    /// Cross product with the (filtered) stage rows.
    Broadcast { indices: Vec<u32> },
}

/// One FROM table as the pipeline reads it: its columns and where they
/// sit in the joined row.
struct Source<'a> {
    table: &'a Table,
    /// Slot of the table's first column in the joined row.
    offset: usize,
}

impl Source<'_> {
    /// Fill the slots of this table that `needed` marks with `rows` of
    /// its stored columns: a slice of a driver range, or the matched
    /// build positions taken.
    fn fill(&self, batch: &mut Batch, needed: &[bool], rows: impl Fn(&Column) -> Column) {
        for (c, column) in self.table.columns().iter().enumerate() {
            if needed[self.offset + c] {
                batch.set(self.offset + c, rows(column));
            }
        }
    }
}

/// Mark the slots `expr` references in `needed`. Slots beyond it (a
/// projection's lateral aliases) are the sink's own.
fn mark_slots(expr: &CExpr, needed: &mut [bool]) {
    expr.for_each_slot(&mut |slot| {
        if let Some(n) = needed.get_mut(slot) {
            *n = true;
        }
    });
}

/// One build-side stage.
struct Stage<'a> {
    source: Source<'a>,
    kind: StageKind<'a>,
    /// Residual predicates evaluated over the accumulated columns once
    /// this stage's are filled in.
    residuals: &'a [CExpr],
}

/// The whole FROM/WHERE pipeline.
pub(super) struct Pipeline<'a> {
    /// `None` for a FROM-less SELECT, which emits exactly one empty row.
    driver: Option<Source<'a>>,
    driver_filter: Option<CExpr>,
    stages: Vec<Stage<'a>>,
    /// Per slot of the joined row: does any expression — of the
    /// pipeline or of the sink — read it? Only these slots are filled
    /// in a batch.
    needed: Vec<bool>,
    /// The slot the driver fills with the table positions of its rows,
    /// for a DML sink; `filter` and `take` carry it like any column.
    positions: Option<usize>,
}

/// `rows` cut into ranges of at most [`BATCH_ROWS`].
fn batches(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = rows.end;
    rows.step_by(BATCH_ROWS)
        .map(move |first| first..end.min(first + BATCH_ROWS))
}

/// Walk the rows of `table` that pass `filter` (all of them without
/// one) in batches of the columns `exprs` reference (slots relative to
/// the table), handing each batch and the table positions of its rows to
/// `each`. Rows the filter rejects never reach `exprs`, as in
/// row-at-a-time execution; a failing row cuts its batch
/// ([`Batch::eval_cut`]) — `each` may cut it further through the parked
/// error it is handed, which is raised once `each` returns.
fn scan_filtered(
    table: &Table,
    filter: Option<&CExpr>,
    exprs: &[CExpr],
    mut each: impl FnMut(&mut Batch, &[u32], &mut Option<Error>) -> Result<()>,
) -> Result<()> {
    let source = Source { table, offset: 0 };
    let mut needed = vec![false; table.schema().arity()];
    for e in filter.into_iter().chain(exprs) {
        mark_slots(e, &mut needed);
    }
    for rows in batches(0..table.len()) {
        // A table holds at most `u32::MAX` rows.
        let (first, end) = (rows.start as u32, rows.end as u32);
        let mut batch = Batch::new(needed.len(), rows.len());
        source.fill(&mut batch, &needed, |col| col.slice(rows.clone()));
        let mut pending = None;
        let positions: Vec<u32> = match filter {
            Some(f) => batch
                .filter(f, &mut pending)
                .iter()
                .map(|p| first + p)
                .collect(),
            None => (first..end).collect(),
        };
        each(&mut batch, &positions, &mut pending)?;
        pending.map_or(Ok(()), Err)?;
    }
    Ok(())
}

/// Positions of the rows of `table` that pass `filter` (all of them
/// without one).
fn filtered_positions(table: &Table, filter: Option<&CExpr>) -> Result<Vec<u32>> {
    let mut kept = Vec::new();
    scan_filtered(table, filter, &[], |_, positions, _| {
        kept.extend_from_slice(positions);
        Ok(())
    })?;
    Ok(kept)
}

/// Build the per-statement join table of a stage whose keys are not its
/// table's primary key: build key → positions of the (filtered) rows.
fn build_join_table(
    table: &Table,
    filter: Option<&CExpr>,
    build_keys: &[CExpr],
    probe: &mut StmtProbe,
) -> Result<JoinTable> {
    let mut build = JoinBuild::new(build_keys.len());
    scan_filtered(table, filter, build_keys, |batch, positions, pending| {
        let keys: Vec<Column> = build_keys
            .iter()
            .map(|k| batch.eval_cut(k, pending))
            .collect();
        let hashes = hash_rows(&keys, 0..batch.len());
        // Charge the build side as it grows: a new entry costs its
        // key plus one index slot, a repeated key one slot.
        build.push(&keys, &hashes, positions, |row, new| {
            let key_bytes = if new {
                rows_bytes(&keys, row..row + 1)
            } else {
                0
            };
            probe
                .tracker()
                .charge("join build", key_bytes + ENTRY_OVERHEAD_BYTES)
        })
    })?;
    Ok(build.finish())
}

/// AND the conjuncts of one table's filter together.
fn and_all(conjuncts: &[CExpr]) -> Option<CExpr> {
    conjuncts
        .iter()
        .cloned()
        .reduce(|acc, e| CExpr::Binary(BinOp::And, Box::new(acc), Box::new(e)))
}

/// The expressions a SELECT's sink evaluates over the joined row.
fn sink_reads(sink: &Sink) -> Vec<&CExpr> {
    match sink {
        Sink::Aggregate(agg) => {
            let args = agg.aggs.iter().filter_map(|a| a.arg.as_ref());
            agg.keys.iter().chain(args).collect()
        }
        Sink::Project(items) => items.iter().collect(),
    }
}

/// Per slot of the joined row: does a filter, probe key or residual of
/// the chain, or an expression of the sink (`reads`), read it?
fn slots_read(chain: &Chain, reads: &[&CExpr]) -> Vec<bool> {
    let mut needed = vec![false; chain.width()];
    let mut mark = |e: &CExpr| mark_slots(e, &mut needed);
    chain.driver_filters.iter().for_each(&mut mark);
    for stage in &chain.stages {
        if let Join::Hash { probe_keys, .. } = &stage.join {
            probe_keys.iter().for_each(&mut mark);
        }
        stage.residuals.iter().for_each(&mut mark);
    }
    reads.iter().for_each(|e| mark(e));
    needed
}

/// Instantiate `chain` against the stored tables: record the scans, filter
/// and hash (or borrow the index of) each build side, charge what that
/// allocates. `reads` are the sink's expressions. A `dml` pipeline
/// carries the driver's row positions in slot `chain.width()`.
pub(super) fn build_pipeline<'a>(
    catalog: &'a Catalog,
    chain: &'a Chain,
    reads: &[&CExpr],
    dml: bool,
    probe: &mut StmtProbe,
) -> Result<Pipeline<'a>> {
    let needed = slots_read(chain, reads);
    let Some(driver) = chain.sources.first() else {
        return Ok(Pipeline {
            driver: None,
            driver_filter: None,
            stages: Vec::new(),
            needed,
            positions: None,
        });
    };
    // A DML statement reports each FROM table read whole into its build
    // side, then its target's pass.
    let n = chain.sources.len();
    for i in (0..n).map(|i| (i + usize::from(dml)) % n) {
        let table = catalog.table(&chain.sources[i].table)?;
        probe.record_scan(table.name(), table.len(), i > 0);
        if dml && i > 0 {
            probe.add_build_rows(table.len() as u64);
        }
    }
    let driver_table = catalog.table(&driver.table)?;
    let driver_filter = and_all(&chain.driver_filters);

    let mut stages = Vec::with_capacity(chain.stages.len());
    for (source, stage) in chain.sources[1..].iter().zip(&chain.stages) {
        let table = catalog.table(&source.table)?;
        let build_filter = and_all(&stage.filters);
        let kind = match &stage.join {
            Join::Broadcast => {
                let indices = filtered_positions(table, build_filter.as_ref())?;
                if !dml {
                    probe.add_build_rows(indices.len() as u64);
                }
                probe.tracker().charge(
                    "join broadcast",
                    indices.len() as u64 * ENTRY_OVERHEAD_BYTES,
                )?;
                StageKind::Broadcast { indices }
            }
            Join::Hash {
                probe_keys,
                pk_order: Some(order),
                ..
            } => StageKind::Hash {
                lookup: Lookup::PrimaryKey(table),
                // Probe keys in the index's key order.
                probe_keys: order.iter().map(|&j| &probe_keys[j]).collect(),
            },
            Join::Hash {
                probe_keys,
                build_keys,
                pk_order: None,
            } => {
                let built = build_join_table(table, build_filter.as_ref(), build_keys, probe)?;
                if !dml {
                    probe.add_build_rows(built.rows() as u64);
                }
                StageKind::Hash {
                    lookup: Lookup::Built(built),
                    probe_keys: probe_keys.iter().collect(),
                }
            }
        };
        stages.push(Stage {
            source: Source {
                table,
                offset: source.offset,
            },
            kind,
            residuals: &stage.residuals,
        });
    }
    Ok(Pipeline {
        driver: Some(Source {
            table: driver_table,
            offset: 0,
        }),
        driver_filter,
        stages,
        needed,
        positions: dml.then_some(chain.width()),
    })
}

// ---------------------------------------------------------------------
// Pipeline execution
// ---------------------------------------------------------------------

/// A consumer of joined batches.
pub trait BatchSink {
    /// Accept one batch of joined rows: the referenced columns of every
    /// FROM table, at the slots the sink's expressions were compiled for.
    fn push(&mut self, batch: Batch) -> Result<()>;

    /// Scalar expression evaluations this sink performed, reported after
    /// the pipeline drains (telemetry; 0 when untracked).
    fn expr_evals(&self) -> u64 {
        0
    }
}

/// Scalar projection sink with Teradata-style lateral aliases: each
/// computed item becomes one more column of the batch, at the slot the
/// items after it were compiled to read it from. The item columns of
/// every batch are what it hands to `out`.
struct ScalarSink<'t, E> {
    items: &'t [CExpr],
    base_width: usize,
    out: E,
    /// Rows handed to `out`.
    rows: u64,
    /// Statement working-memory account; every batch of output rows is
    /// charged before it is handed on, so an over-budget SELECT aborts
    /// mid-stream instead of after buffering the whole result.
    mem: &'t ResourceTracker,
}

impl<E: FnMut(Vec<Column>)> BatchSink for ScalarSink<'_, E> {
    fn push(&mut self, mut batch: Batch) -> Result<()> {
        let mut pending = None;
        for (j, item) in self.items.iter().enumerate() {
            let col = batch.eval_cut(item, &mut pending);
            batch.set(self.base_width + j, col);
        }
        if !batch.is_empty() {
            let slots = self.base_width..self.base_width + self.items.len();
            let cols: Vec<Column> = slots
                .map(|slot| batch.take_slot(slot).expect("item column set"))
                .collect();
            self.mem.charge_rows("select output", &cols, batch.len())?;
            self.rows += batch.len() as u64;
            (self.out)(cols);
        }
        pending.map_or(Ok(()), Err)
    }

    fn expr_evals(&self) -> u64 {
        self.rows * (self.items.len() as u64)
    }
}

/// The pipeline's telemetry counters, reported to the [`StmtProbe`] once
/// the driver is drained so the hot loop never touches the probe — and
/// the match buffers, kept from batch to batch.
#[derive(Default)]
struct Tally {
    probe_rows: u64,
    expr_evals: u64,
    /// Per stage, the `(probing row, build row)` index vectors
    /// [`Pipeline::run_stage`] fills; a stage takes its pair for the
    /// length of a call and puts it back emptied.
    matches: Vec<(Vec<u32>, Vec<u32>)>,
}

/// Run the pipeline into `sink` and return it. Join-probe and
/// expression-eval counts go to `probe`.
pub(super) fn run_pipeline<S: BatchSink>(
    pipeline: &Pipeline<'_>,
    config: &ExecConfig,
    probe: &StmtProbe,
    mut sink: S,
) -> Result<S> {
    let mut tally = Tally::default();
    match &pipeline.driver {
        Some(driver) => pipeline.run_driver(driver, config.deadline, &mut sink, &mut tally)?,
        None => sink.push(Batch::new(0, 1))?,
    }
    probe.add_probe_rows(tally.probe_rows);
    probe.add_expr_evals(tally.expr_evals + sink.expr_evals());
    Ok(sink)
}

impl Pipeline<'_> {
    /// Drive the rows of `driver` through the stages into `sink`, a
    /// batch at a time. The deadline is checked once per batch, so
    /// overrun is bounded by one batch's work.
    fn run_driver<S: BatchSink>(
        &self,
        driver: &Source<'_>,
        deadline: Option<Instant>,
        sink: &mut S,
        tally: &mut Tally,
    ) -> Result<()> {
        for rows in batches(0..driver.table.len()) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::deadline("table scan", 0));
            }
            let mut batch = Batch::new(self.needed.len(), rows.len());
            driver.fill(&mut batch, &self.needed, |col| col.slice(rows.clone()));
            if let Some(slot) = self.positions {
                let positions = (rows.start as i64..rows.end as i64).collect();
                batch.set(slot, Column::I64(positions, None));
            }
            let mut pending = None;
            if let Some(f) = &self.driver_filter {
                tally.expr_evals += rows.len() as u64;
                batch.filter(f, &mut pending);
            }
            self.run_stage(0, batch, sink, tally)?;
            pending.map_or(Ok(()), Err)?;
        }
        Ok(())
    }

    /// Join `batch` with stage `idx` and hand the result on (to the sink
    /// after the last stage). Matches are index vectors — the probing
    /// row's position and the build row's — emitted in chunks of at most
    /// [`BATCH_ROWS`], so a wide fan-out never grows a batch.
    fn run_stage<S: BatchSink>(
        &self,
        idx: usize,
        mut batch: Batch,
        sink: &mut S,
        tally: &mut Tally,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let Some(stage) = self.stages.get(idx) else {
            return sink.push(batch);
        };
        let mut pending = None;
        let probe_keys: Vec<Column> = match &stage.kind {
            StageKind::Hash { probe_keys, .. } => {
                tally.expr_evals += (probe_keys.len() * batch.len()) as u64;
                probe_keys
                    .iter()
                    .map(|k| batch.eval_cut(k, &mut pending))
                    .collect()
            }
            StageKind::Broadcast { .. } => Vec::new(),
        };

        let n = batch.len();
        let hits = match &stage.kind {
            StageKind::Hash {
                lookup: Lookup::PrimaryKey(table),
                ..
            } => table.probe(&probe_keys, n),
            StageKind::Hash {
                lookup: Lookup::Built(built),
                ..
            } => built.probe(&probe_keys, &hash_rows(&probe_keys, 0..n)),
            StageKind::Broadcast { .. } => Vec::new(),
        };
        // The build rows probing row `pos` matched, ascending.
        let matches = |pos: usize| match &stage.kind {
            StageKind::Broadcast { indices } => &indices[..],
            StageKind::Hash { .. } if hits[pos] == NO_ROW => &[],
            StageKind::Hash {
                lookup: Lookup::PrimaryKey(_),
                ..
            } => std::slice::from_ref(&hits[pos]),
            StageKind::Hash {
                lookup: Lookup::Built(built),
                ..
            } => built.matches(hits[pos]),
        };

        // Every probing row matched exactly once (a key lookup that
        // always hits, a one-row parameter table): the probing rows are
        // the batch as it is, which goes on uncopied.
        let once = |pos: usize| match matches(pos) {
            [row] => Some(*row),
            _ => None,
        };
        if let Some(build_rows) = (0..n).map(once).collect::<Option<Vec<u32>>>() {
            tally.probe_rows += n as u64;
            self.emit(idx, batch, &build_rows, sink, tally)?;
            return pending.map_or(Ok(()), Err);
        }

        if tally.matches.len() <= idx {
            tally.matches.resize_with(idx + 1, Default::default);
        }
        let (mut left, mut right) = std::mem::take(&mut tally.matches[idx]);
        for pos in 0..n {
            let build_rows = matches(pos);
            tally.probe_rows += build_rows.len() as u64;
            for &row in build_rows {
                if left.len() == BATCH_ROWS {
                    self.emit(idx, batch.take(&left), &right, sink, tally)?;
                    left.clear();
                    right.clear();
                }
                left.push(pos as u32);
                right.push(row);
            }
        }
        self.emit(idx, batch.take(&left), &right, sink, tally)?;
        left.clear();
        right.clear();
        tally.matches[idx] = (left, right);
        pending.map_or(Ok(()), Err)
    }

    /// Complete the rows joined at stage `idx` — take the stage's
    /// columns at the matched build rows, apply its residual predicates —
    /// and run the next stage on them.
    fn emit<S: BatchSink>(
        &self,
        idx: usize,
        mut batch: Batch,
        build_rows: &[u32],
        sink: &mut S,
        tally: &mut Tally,
    ) -> Result<()> {
        let stage = &self.stages[idx];
        let matched = |col: &Column| col.take(build_rows);
        stage.source.fill(&mut batch, &self.needed, matched);
        tally.expr_evals += (stage.residuals.len() * batch.len()) as u64;
        let mut pending = None;
        for residual in stage.residuals {
            batch.filter(residual, &mut pending);
        }
        self.run_stage(idx + 1, batch, sink, tally)?;
        pending.map_or(Ok(()), Err)
    }
}

// ---------------------------------------------------------------------
// ORDER BY
// ---------------------------------------------------------------------

/// Stable-sort rows by the hidden sort columns at positions
/// `n_real..n_real+descs.len()`.
fn sort_by_hidden(rows: &mut [Row], n_real: usize, descs: &[bool]) {
    rows.sort_by(|a, b| {
        for (j, desc) in descs.iter().enumerate() {
            let ord = a[n_real + j].total_cmp(&b[n_real + j]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

// ---------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------

/// Describe how a SELECT executes without running it to completion: the
/// lines of [`SelectPlan::explain`] with the row counts its
/// instantiation finds, one line per plan step.
pub fn explain_select(catalog: &Catalog, plan: &SelectPlan) -> Result<Vec<String>> {
    let (reads, mut probe) = (sink_reads(&plan.sink), StmtProbe::disabled());
    let pipeline = build_pipeline(catalog, &plan.chain, &reads, false, &mut probe)?;
    let mut counts = vec![pipeline.driver.as_ref().map_or(0, |d| d.table.len())];
    counts.extend(pipeline.stages.iter().map(|stage| match &stage.kind {
        StageKind::Hash {
            lookup: Lookup::PrimaryKey(_),
            ..
        } => 0,
        StageKind::Hash {
            lookup: Lookup::Built(built),
            ..
        } => built.distinct_keys(),
        StageKind::Broadcast { indices } => indices.len(),
    }));
    let streamed = match &plan.sink {
        Sink::Aggregate(agg) => streams(&pipeline, agg),
        Sink::Project(_) => false,
    };
    Ok(plan.explain(&counts, streamed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_by_hidden_orders_and_respects_desc() {
        let mk = |a: i64, key: f64| -> Row {
            vec![Value::Int(a), Value::Double(key)].into_boxed_slice()
        };
        let mut rows = vec![mk(1, 3.0), mk(2, 1.0), mk(3, 2.0)];
        sort_by_hidden(&mut rows, 1, &[false]);
        let order: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(order, vec![2, 3, 1]);
        sort_by_hidden(&mut rows, 1, &[true]);
        let order: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }
}
