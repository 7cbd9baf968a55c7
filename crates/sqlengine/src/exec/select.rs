//! SELECT execution: a batch-at-a-time left-deep join pipeline.
//!
//! The FROM list is joined left-deep in declaration order: the first table
//! is the *driver* and is scanned once; every later table becomes a build
//! stage — a hash join when an equi-join conjunct connects it to the
//! accumulated prefix (the common case in SQLEM's generated SQL, always on
//! `RID` or `v`/`i`), or a broadcast (cross product) otherwise (the 1-row
//! parameter tables `GMM`, `W`, `R`).
//!
//! Rows move in batches of at most [`BATCH_ROWS`]. The driver's rows are
//! cut into batches and the slots some expression references — probe
//! keys, residuals, the sink's items — are gathered from the stored rows
//! into typed [`Column`]s; nothing else is copied. A join stage evaluates
//! its probe keys over the batch, emits the matches as two index vectors
//! (probing row, build row) and gathers the build table's referenced
//! columns by index. Joined batches go straight into a sink — scalar
//! projection or hash aggregation — so no intermediate join result is
//! ever materialized beyond one batch; this is what keeps the `pn`-row
//! distance join of the hybrid E step linear in memory.
//!
//! A hash stage whose build keys are exactly its table's PRIMARY KEY,
//! with no filter on the build side, probes the index the table already
//! maintains (`Lookup::PrimaryKey`) instead of hashing the table again
//! for every statement. The choice is read off the schema. Either way
//! the stage's table is recorded as a build-side scan, so the paper's
//! scan counts are what they were.
//!
//! An expression that fails on some row cuts its batch to the rows before
//! it and parks the error ([`Batch::eval_cut`]); each step raises its
//! parked error only after the steps downstream of it have run on the
//! shortened batch, so the statement fails with the error of the first
//! failing row, as it would reading one row at a time.
//!
//! When [`ExecConfig::workers`] > 1 the driver scan is partitioned and each
//! worker runs the identical pipeline into a private sink; results merge in
//! partition order, mimicking the AMP parallelism of the paper's Teradata
//! installation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::ast::{BinOp, Expr, Select, SelectItem};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::aggregate::{plan_aggregate, AggPlan, AggSink, PartialAggResult};
use crate::exec::{ExecConfig, QueryResult};
use crate::expr::{compile, Batch, CExpr, Column, ColumnResolver, BATCH_ROWS};
use crate::metrics::StmtProbe;
use crate::resource::{row_bytes, ResourceTracker, ENTRY_OVERHEAD_BYTES};
use crate::table::{Row, Table};
use crate::value::Value;

/// Minimum driver rows before parallel execution is worth spawning.
const PARALLEL_THRESHOLD: usize = 4096;

/// The schema-level preparation every SELECT path shares: resolved FROM
/// scopes, expanded projection items, and the hidden-sort-column
/// planning inputs. Derivable from the catalog's *schemas* alone, so
/// the cluster coordinator (whose shadow catalog holds no rows) plans
/// identically to the shards.
struct SelectPrep {
    scopes: Vec<(String, Vec<String>)>,
    resolver: ColumnResolver,
    output_names: Vec<String>,
    /// Visible projection width; columns beyond it are hidden sort keys.
    n_real: usize,
    /// Projection items plus hidden ORDER BY key expressions.
    all_items: Vec<Expr>,
    is_aggregate: bool,
}

fn prepare_select(catalog: &Catalog, select: &Select) -> Result<SelectPrep> {
    // ---- resolve FROM scopes ------------------------------------------
    let mut scopes: Vec<(String, Vec<String>)> = Vec::with_capacity(select.from.len());
    for tref in &select.from {
        let table = catalog.table(&tref.table)?;
        let visible = tref.visible_name().to_ascii_lowercase();
        if scopes.iter().any(|(n, _)| *n == visible) {
            return Err(Error::DuplicateTable(format!(
                "{visible} appears twice in FROM; use aliases"
            )));
        }
        let cols = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        scopes.push((visible, cols));
    }
    let resolver = ColumnResolver::from_tables(&scopes);

    // ---- expand projection wildcards ----------------------------------
    let (item_exprs, output_names) = expand_items(&select.items, &scopes)?;

    // ORDER BY may reference output aliases (`ORDER BY sump`) or base
    // columns absent from the projection (`ORDER BY rid` under
    // `SELECT x1, x2`). Both are handled uniformly by materializing every
    // sort key as a trailing *hidden* output column: aliases are
    // substituted by their defining expressions first, then the key is
    // planned like any projection item, and the hidden columns are
    // stripped after sorting.
    let n_real = item_exprs.len();
    let order_exprs: Vec<Expr> = select
        .order_by
        .iter()
        .map(|k| substitute_output_aliases(&k.expr, &output_names, &item_exprs))
        .collect();
    let all_items: Vec<Expr> = item_exprs.iter().chain(&order_exprs).cloned().collect();

    let is_aggregate = !select.group_by.is_empty()
        || all_items.iter().any(Expr::contains_aggregate)
        || select.having.as_ref().is_some_and(Expr::contains_aggregate);

    Ok(SelectPrep {
        scopes,
        resolver,
        output_names,
        n_real,
        all_items,
        is_aggregate,
    })
}

impl SelectPrep {
    /// Partial execution and partial finalize only make sense for an
    /// aggregate SELECT.
    fn require_aggregate(&self, what: &str) -> Result<()> {
        if self.is_aggregate {
            Ok(())
        } else {
            Err(Error::Unsupported(format!(
                "{what} requires an aggregate SELECT"
            )))
        }
    }

    /// The aggregation plan. Shards and the gathering coordinator both
    /// derive it from the same statement text and the same schemas, so
    /// the accumulator layout is identical by construction.
    fn aggregate_plan(&self, select: &Select) -> Result<AggPlan> {
        plan_aggregate(
            &self.all_items,
            &select.group_by,
            select.having.as_ref(),
            &self.resolver,
        )
    }

    /// The post-sink tail shared by full and gathered execution: sort by
    /// the hidden key columns, strip them, apply LIMIT.
    fn finish(self, select: &Select, mut rows: Vec<Row>) -> QueryResult {
        if !select.order_by.is_empty() {
            let descs: Vec<bool> = select.order_by.iter().map(|k| k.desc).collect();
            sort_by_hidden(&mut rows, self.n_real, &descs);
        }
        if self.n_real < self.all_items.len() {
            for row in rows.iter_mut() {
                let mut v = std::mem::take(row).into_vec();
                v.truncate(self.n_real);
                *row = v.into_boxed_slice();
            }
        }
        if let Some(limit) = select.limit {
            rows.truncate(limit);
        }
        let n = rows.len();
        QueryResult {
            columns: self.output_names,
            rows,
            rows_affected: n,
        }
    }
}

/// The one aggregate path: scan/join pipeline into one [`AggSink`] per
/// partition, merged in partition order. A full SELECT finalizes the
/// returned sink, a shard exports it, and the gather step rebuilds an
/// equivalent one from the shards' exports — so single-node execution
/// is the one-shard case of partial + finalize.
fn run_aggregate(
    catalog: &Catalog,
    config: &ExecConfig,
    select: &Select,
    prep: &SelectPrep,
    probe: &mut StmtProbe,
) -> Result<AggSink> {
    let mut pipeline = build_pipeline(catalog, select, &prep.scopes, probe)?;
    let plan = prep.aggregate_plan(select)?;
    pipeline.reference(
        plan.keys
            .iter()
            .chain(plan.aggs.iter().filter_map(|a| a.arg.as_ref())),
    );
    let mut sinks =
        run_pipeline(&pipeline, config, probe, || AggSink::new(plan.clone()))?.into_iter();
    let mut merged = sinks.next().expect("at least one sink");
    for sink in sinks {
        merged.merge(sink)?;
    }
    // The merged table is charged (not the per-partition partials):
    // its contents are identical under serial and parallel execution,
    // which keeps the peak-memory gauge partition-order-independent.
    probe
        .tracker()
        .charge("group table", merged.footprint_bytes())?;
    probe.set_groups(merged.group_count());
    Ok(merged)
}

/// Run a SELECT and materialize its result, recording telemetry into
/// `probe` (pass a disabled probe to skip).
pub fn run_select(
    catalog: &Catalog,
    config: &ExecConfig,
    select: &Select,
    probe: &mut StmtProbe,
) -> Result<QueryResult> {
    let prep = prepare_select(catalog, select)?;
    let out_rows = if prep.is_aggregate {
        run_aggregate(catalog, config, select, &prep, probe)?.finalize()?
    } else {
        let mut pipeline = build_pipeline(catalog, select, &prep.scopes, probe)?;
        if select.having.is_some() {
            return Err(Error::InvalidAggregate(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        let compiled = compile_scalar_items(&prep.all_items, &prep.output_names, &prep.resolver)?;
        pipeline.reference(&compiled);
        let base_width = prep.resolver.width();
        let mem = probe.tracker();
        let sinks = run_pipeline(&pipeline, config, probe, || ScalarSink {
            items: compiled.clone(),
            base_width,
            out: Vec::new(),
            mem,
        })?;
        let mut out_rows = Vec::new();
        for s in sinks {
            out_rows.extend(s.out);
        }
        out_rows
    };
    let result = prep.finish(select, out_rows);
    probe.set_rows_produced(result.rows.len());
    Ok(result)
}

/// Run the scatter half of a distributed aggregate: the same pipeline
/// and the same scan accounting as [`run_select`] (the data really was
/// scanned), but the group table is returned un-finalized; the finalize
/// tail moves to the gatherer.
pub fn run_select_partial(
    catalog: &Catalog,
    config: &ExecConfig,
    select: &Select,
    probe: &mut StmtProbe,
) -> Result<PartialAggResult> {
    let prep = prepare_select(catalog, select)?;
    prep.require_aggregate("partial execution")?;
    let sink = run_aggregate(catalog, config, select, &prep, probe)?;
    probe.set_rows_produced(sink.group_count());
    Ok(sink.into_partial())
}

/// Run the gather half: rebuild the group table from the merged partial
/// states (against schemas only — no rows are scanned and no tables
/// need data) and run the finalize tail (implicit empty group, HAVING,
/// projection, ORDER BY, LIMIT).
pub fn finalize_select_partials(
    catalog: &Catalog,
    select: &Select,
    partial: &PartialAggResult,
) -> Result<QueryResult> {
    let prep = prepare_select(catalog, select)?;
    prep.require_aggregate("partial finalize")?;
    let rows = AggSink::from_partial(prep.aggregate_plan(select)?, partial)?.finalize()?;
    Ok(prep.finish(select, rows))
}

/// Expand wildcards; return per-item expressions and output names.
fn expand_items(
    items: &[SelectItem],
    scopes: &[(String, Vec<String>)],
) -> Result<(Vec<Expr>, Vec<String>)> {
    let mut exprs = Vec::new();
    let mut names = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                if scopes.is_empty() {
                    return Err(Error::Unsupported("SELECT * requires a FROM clause".into()));
                }
                for (t, cols) in scopes {
                    for c in cols {
                        exprs.push(Expr::qcol(t, c));
                        names.push(c.clone());
                    }
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let (_, cols) = scopes
                    .iter()
                    .find(|(n, _)| *n == lt)
                    .ok_or_else(|| Error::UnknownTable(lt.clone()))?;
                for c in cols {
                    exprs.push(Expr::qcol(&lt, c));
                    names.push(c.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_lowercase(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        _ => format!("col{}", exprs.len() + 1),
                    },
                };
                exprs.push(expr.clone());
                names.push(name);
            }
        }
    }
    Ok((exprs, names))
}

/// Split an expression on top-level ANDs.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e.clone());
        }
    }
    walk(expr, &mut out);
    out
}

/// Bitmask of scopes an expression references. Errors on unknown /
/// ambiguous columns so classification failures surface as the same errors
/// compilation would give.
fn scope_mask(expr: &Expr, scopes: &[(String, Vec<String>)]) -> Result<u64> {
    let mut mask = 0u64;
    collect_mask(expr, scopes, &mut mask)?;
    Ok(mask)
}

fn collect_mask(expr: &Expr, scopes: &[(String, Vec<String>)], mask: &mut u64) -> Result<()> {
    match expr {
        Expr::Literal(_) => Ok(()),
        Expr::Column { table, name } => {
            match table {
                Some(t) => {
                    let i = scopes
                        .iter()
                        .position(|(n, _)| n == t)
                        .ok_or_else(|| Error::UnknownTable(t.clone()))?;
                    if !scopes[i].1.contains(name) {
                        return Err(Error::UnknownColumn(format!("{t}.{name}")));
                    }
                    *mask |= 1 << i;
                }
                None => {
                    let mut found = None;
                    for (i, (_, cols)) in scopes.iter().enumerate() {
                        if cols.contains(name) {
                            if found.is_some() {
                                return Err(Error::AmbiguousColumn(name.clone()));
                            }
                            found = Some(i);
                        }
                    }
                    let i = found.ok_or_else(|| Error::UnknownColumn(name.clone()))?;
                    *mask |= 1 << i;
                }
            }
            Ok(())
        }
        Expr::Unary { expr, .. } => collect_mask(expr, scopes, mask),
        Expr::Binary { left, right, .. } => {
            collect_mask(left, scopes, mask)?;
            collect_mask(right, scopes, mask)
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_mask(a, scopes, mask)?;
            }
            Ok(())
        }
        Expr::Case { whens, else_expr } => {
            for (c, r) in whens {
                collect_mask(c, scopes, mask)?;
                collect_mask(r, scopes, mask)?;
            }
            if let Some(e) = else_expr {
                collect_mask(e, scopes, mask)?;
            }
            Ok(())
        }
        Expr::IsNull { expr, .. } => collect_mask(expr, scopes, mask),
    }
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
    /// A map from build key to row positions, built for this statement
    /// over the (filtered) stage rows.
    Built(HashMap<Row, Vec<u32>>),
}

/// How a non-driver table joins into the pipeline.
enum StageKind<'a> {
    /// Equi-join: probe keys are evaluated over the accumulated columns.
    Hash {
        lookup: Lookup<'a>,
        probe_keys: Vec<CExpr>,
    },
    /// Cross product with the (filtered) stage rows.
    Broadcast { indices: Vec<u32> },
}

/// One FROM table as the pipeline reads it: its rows and where its
/// columns sit in the joined row.
struct Source<'a> {
    table: &'a Table,
    /// Slot of the table's first column in the joined row.
    offset: usize,
}

impl<'a> Source<'a> {
    /// Gather the columns of `rows` whose slots `needed` marks into
    /// `batch`.
    fn gather<I>(&self, batch: &mut Batch, rows: I, needed: &[bool])
    where
        I: Iterator<Item = &'a Row> + Clone,
    {
        for (c, column) in self.table.schema().columns().iter().enumerate() {
            if needed[self.offset + c] {
                let cells = rows.clone().map(|r| &r[c]);
                batch.set(self.offset + c, Column::gather(cells, column.ty));
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
    /// this stage's are gathered.
    residuals: Vec<CExpr>,
    /// Visible table name (for EXPLAIN).
    name: String,
}

/// The whole FROM/WHERE pipeline.
struct Pipeline<'a> {
    /// `None` for a FROM-less SELECT, which emits exactly one empty row.
    driver: Option<Source<'a>>,
    driver_filter: Option<CExpr>,
    stages: Vec<Stage<'a>>,
    /// Per slot of the joined row: does any expression — of the
    /// pipeline or, once [`Pipeline::reference`]d, of the sink — read it?
    /// Only these slots are gathered into batches.
    needed: Vec<bool>,
}

impl Pipeline<'_> {
    /// Have the slots the sink's expressions reference gathered too.
    fn reference<'e>(&mut self, exprs: impl IntoIterator<Item = &'e CExpr>) {
        for e in exprs {
            mark_slots(e, &mut self.needed);
        }
    }
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
    for (i, rows) in table.rows().chunks(BATCH_ROWS).enumerate() {
        let first = (i * BATCH_ROWS) as u32;
        let mut batch = Batch::new(needed.len(), rows.len());
        source.gather(&mut batch, rows.iter(), &needed);
        let mut pending = None;
        let positions: Vec<u32> = match filter {
            Some(f) => batch
                .filter(f, &mut pending)
                .iter()
                .map(|p| first + p)
                .collect(),
            None => (first..first + rows.len() as u32).collect(),
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

/// Build the per-statement hash map of a stage whose keys are not its
/// table's primary key: build key → positions of the (filtered) rows.
fn build_hash_map(
    table: &Table,
    filter: Option<&CExpr>,
    build_keys: &[CExpr],
    probe: &mut StmtProbe,
) -> Result<HashMap<Row, Vec<u32>>> {
    let mut map: HashMap<Row, Vec<u32>> = HashMap::with_capacity(table.len());
    scan_filtered(table, filter, build_keys, |batch, positions, pending| {
        let keys: Vec<Column> = build_keys
            .iter()
            .map(|k| batch.eval_cut(k, pending))
            .collect();
        for (i, &position) in positions.iter().enumerate().take(batch.len()) {
            let key: Row = keys.iter().map(|k| k.value(i)).collect();
            // SQL join semantics: a NULL key never matches.
            if key.iter().any(Value::is_null) {
                continue;
            }
            // Charge the build side as it grows: a new entry costs its
            // key plus one index slot, a collision one slot. The build
            // phase is single-threaded, so these charges are
            // deterministic regardless of worker count.
            let key_bytes = row_bytes(&key);
            let slots = map.entry(key).or_default();
            let bytes = if slots.is_empty() {
                key_bytes + ENTRY_OVERHEAD_BYTES
            } else {
                ENTRY_OVERHEAD_BYTES
            };
            probe.tracker().charge("join build", bytes)?;
            slots.push(position);
        }
        Ok(())
    })?;
    Ok(map)
}

fn build_pipeline<'a>(
    catalog: &'a Catalog,
    select: &Select,
    scopes: &[(String, Vec<String>)],
    probe: &mut StmtProbe,
) -> Result<Pipeline<'a>> {
    let plan_t0 = Instant::now();
    // Time spent building join structures: execution, not planning.
    let mut build_time = Duration::ZERO;
    // Aggregates in WHERE are rejected by the analyze pass up front and
    // again by `compile` when the predicates are lowered, so no separate
    // scan is needed here.
    let conjuncts = match &select.where_clause {
        Some(w) => split_conjuncts(w),
        None => Vec::new(),
    };
    if select.from.is_empty() {
        if !conjuncts.is_empty() {
            return Err(Error::Unsupported("WHERE requires a FROM clause".into()));
        }
        probe.add_plan_time(plan_t0.elapsed());
        return Ok(Pipeline {
            driver: None,
            driver_filter: None,
            stages: Vec::new(),
            needed: Vec::new(),
        });
    }
    if select.from.len() > 64 {
        return Err(Error::Unsupported("more than 64 tables in FROM".into()));
    }

    // Classify conjuncts.
    let n_tables = select.from.len();
    let mut table_filters: Vec<Vec<&Expr>> = vec![Vec::new(); n_tables];
    // (conjunct, mask) still unassigned after single-table filtering.
    let mut pending: Vec<(&Expr, u64)> = Vec::new();
    for c in &conjuncts {
        let mask = scope_mask(c, scopes)?;
        if mask.count_ones() <= 1 {
            let idx = if mask == 0 {
                0
            } else {
                mask.trailing_zeros() as usize
            };
            table_filters[idx].push(c);
        } else {
            pending.push((c, mask));
        }
    }

    // Resolver over one table alone (offset 0).
    let single_resolver =
        |i: usize| ColumnResolver::from_tables(&[(scopes[i].0.clone(), scopes[i].1.clone())]);
    let prefix_resolver = |upto: usize| ColumnResolver::from_tables(&scopes[..=upto]);

    // Driver.
    let driver_table = catalog.table(&select.from[0].table)?;
    probe.record_scan(driver_table.name(), driver_table.len(), false);
    let driver_filter = combine_filters(&table_filters[0], &single_resolver(0))?;

    // Stages.
    let mut stages = Vec::with_capacity(n_tables - 1);
    let mut needed = vec![false; scopes.iter().map(|(_, cols)| cols.len()).sum()];
    if let Some(f) = &driver_filter {
        mark_slots(f, &mut needed);
    }
    let mut offset = driver_table.schema().arity();
    for i in 1..n_tables {
        let table = catalog.table(&select.from[i].table)?;
        probe.record_scan(table.name(), table.len(), true);
        let stage_res = single_resolver(i);
        let build_filter = combine_filters(&table_filters[i], &stage_res)?;

        // Find equi-join conjuncts usable as hash keys for this stage.
        let prefix_mask: u64 = (1 << i) - 1;
        let this_bit: u64 = 1 << i;
        let mut probe_keys: Vec<CExpr> = Vec::new();
        let mut build_keys: Vec<CExpr> = Vec::new();
        let prev_res = prefix_resolver(i - 1);
        for (c, mask) in pending.iter_mut() {
            if *mask == u64::MAX {
                continue; // consumed
            }
            if mask.count_ones() < 2
                || (*mask & this_bit) == 0
                || (*mask & !(prefix_mask | this_bit)) != 0
            {
                continue;
            }
            if let Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            {
                let lm = scope_mask(left, scopes)?;
                let rm = scope_mask(right, scopes)?;
                let (probe_side, build_side) = if lm & this_bit == 0 && rm == this_bit {
                    (left, right)
                } else if rm & this_bit == 0 && lm == this_bit {
                    (right, left)
                } else {
                    continue; // mixed sides → residual
                };
                probe_keys.push(compile(probe_side, &prev_res)?);
                build_keys.push(compile(build_side, &stage_res)?);
                *mask = u64::MAX; // mark consumed
            }
        }

        // Residuals that become checkable at this stage.
        let full_prefix = prefix_mask | this_bit;
        let mut residuals = Vec::new();
        let cur_res = prefix_resolver(i);
        for (c, mask) in pending.iter_mut() {
            if *mask == u64::MAX {
                continue;
            }
            if *mask & !full_prefix == 0 {
                residuals.push(compile(c, &cur_res)?);
                *mask = u64::MAX;
            }
        }

        for e in probe_keys.iter().chain(&residuals) {
            mark_slots(e, &mut needed);
        }

        // Build the stage.
        let build_t0 = Instant::now();
        let kind = if probe_keys.is_empty() {
            let indices = filtered_positions(table, build_filter.as_ref())?;
            probe.add_build_rows(indices.len() as u64);
            probe.tracker().charge(
                "join broadcast",
                indices.len() as u64 * ENTRY_OVERHEAD_BYTES,
            )?;
            StageKind::Broadcast { indices }
        } else if let Some(order) = primary_key_order(table, &build_keys, &build_filter) {
            // Probe keys in the index's key order.
            let probe_keys = order.iter().map(|&j| probe_keys[j].clone()).collect();
            StageKind::Hash {
                lookup: Lookup::PrimaryKey(table),
                probe_keys,
            }
        } else {
            let map = build_hash_map(table, build_filter.as_ref(), &build_keys, probe)?;
            probe.add_build_rows(map.values().map(|v| v.len() as u64).sum());
            StageKind::Hash {
                lookup: Lookup::Built(map),
                probe_keys,
            }
        };
        build_time += build_t0.elapsed();
        stages.push(Stage {
            source: Source { table, offset },
            kind,
            residuals,
            name: scopes[i].0.clone(),
        });
        offset += table.schema().arity();
    }

    // Any conjunct still pending means classification failed (should be
    // impossible: every mask is ⊆ full prefix at the last stage).
    if pending.iter().any(|(_, m)| *m != u64::MAX) && n_tables == 1 {
        return Err(Error::Unsupported(
            "multi-table predicate with single-table FROM".into(),
        ));
    }

    probe.add_plan_time(plan_t0.elapsed().saturating_sub(build_time));
    Ok(Pipeline {
        driver: Some(Source {
            table: driver_table,
            offset: 0,
        }),
        driver_filter,
        stages,
        needed,
    })
}

/// If the build keys of a hash stage are exactly `table`'s primary-key
/// columns and no filter thins the table, the table's own index serves
/// the join: returns, for each key column in index order, which build
/// key (hence which probe key) addresses it.
fn primary_key_order(
    table: &Table,
    build_keys: &[CExpr],
    build_filter: &Option<CExpr>,
) -> Option<Vec<usize>> {
    let pk = table.schema().primary_key();
    if build_filter.is_some() || pk.is_empty() || pk.len() != build_keys.len() {
        return None;
    }
    pk.iter()
        .map(|c| build_keys.iter().position(|k| *k == CExpr::Col(*c)))
        .collect()
}

fn combine_filters(filters: &[&Expr], resolver: &ColumnResolver) -> Result<Option<CExpr>> {
    let mut compiled = Vec::with_capacity(filters.len());
    for f in filters {
        compiled.push(compile(f, resolver)?);
    }
    Ok(compiled
        .into_iter()
        .reduce(|acc, e| CExpr::Binary(BinOp::And, Box::new(acc), Box::new(e))))
}

// ---------------------------------------------------------------------
// Pipeline execution
// ---------------------------------------------------------------------

/// A consumer of joined batches.
pub trait BatchSink {
    /// Accept one batch of joined rows: the gathered columns of every
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
/// items after it were compiled to read it from.
struct ScalarSink<'t> {
    items: Vec<CExpr>,
    base_width: usize,
    out: Vec<Row>,
    /// Statement working-memory account; every materialized output row
    /// is charged before it is kept, so an over-budget SELECT aborts
    /// mid-stream instead of after buffering the whole result.
    mem: &'t ResourceTracker,
}

impl BatchSink for ScalarSink<'_> {
    fn push(&mut self, mut batch: Batch) -> Result<()> {
        let mut pending = None;
        for (j, item) in self.items.iter().enumerate() {
            let col = batch.eval_cut(item, &mut pending);
            batch.set(self.base_width + j, col);
        }
        let mut rows: Vec<Vec<Value>> = (0..batch.len())
            .map(|_| Vec::with_capacity(self.items.len()))
            .collect();
        for j in 0..self.items.len() {
            let col = batch.column(self.base_width + j).expect("item column set");
            col.append_to(&mut rows);
        }
        for row in rows {
            let row = row.into_boxed_slice();
            self.mem.charge("select output", row_bytes(&row))?;
            self.out.push(row);
        }
        pending.map_or(Ok(()), Err)
    }

    fn expr_evals(&self) -> u64 {
        (self.out.len() as u64) * (self.items.len() as u64)
    }
}

/// Compile scalar items, registering each real item's output name as a
/// lateral alias for the items after it. Items beyond `output_names.len()`
/// are hidden sort columns and get no alias.
fn compile_scalar_items(
    item_exprs: &[Expr],
    output_names: &[String],
    resolver: &ColumnResolver,
) -> Result<Vec<CExpr>> {
    let mut res = resolver.clone();
    let base = res.width();
    let mut compiled = Vec::with_capacity(item_exprs.len());
    for (j, expr) in item_exprs.iter().enumerate() {
        compiled.push(compile(expr, &res)?);
        if let Some(name) = output_names.get(j) {
            res.add_lateral(name, base + j);
        }
    }
    Ok(compiled)
}

/// Worker-local telemetry counters, flushed into the shared [`StmtProbe`]
/// once per partition so the hot loop never touches an atomic.
#[derive(Default)]
struct Tally {
    probe_rows: u64,
    expr_evals: u64,
}

impl Tally {
    fn flush(&self, probe: &StmtProbe) {
        probe.add_probe_rows(self.probe_rows);
        probe.add_expr_evals(self.expr_evals);
    }
}

/// Run the pipeline into one sink per partition; returns the sinks in
/// partition order. Join-probe and expression-eval counts accumulate into
/// `probe` (shared across workers through relaxed atomics).
fn run_pipeline<S, F>(
    pipeline: &Pipeline<'_>,
    config: &ExecConfig,
    probe: &StmtProbe,
    make_sink: F,
) -> Result<Vec<S>>
where
    S: BatchSink + Send,
    F: Fn() -> S + Sync,
{
    let run = |rows: Option<&[Row]>| -> Result<S> {
        let mut sink = make_sink();
        let mut tally = Tally::default();
        match rows {
            Some(rows) => pipeline.run_partition(rows, config.deadline, &mut sink, &mut tally)?,
            None => sink.push(Batch::new(0, 1))?,
        }
        tally.expr_evals += sink.expr_evals();
        tally.flush(probe);
        Ok(sink)
    };
    let Some(driver) = &pipeline.driver else {
        return Ok(vec![run(None)?]);
    };
    let rows = driver.table.rows();
    let workers = config.workers.max(1);
    if workers == 1 || rows.len() < PARALLEL_THRESHOLD {
        return Ok(vec![run(Some(rows))?]);
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(rows.len().div_ceil(workers))
            .map(|part| scope.spawn(move || run(Some(part))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

impl Pipeline<'_> {
    /// Drive one partition of the driver table through the stages into
    /// `sink`, a batch at a time. The deadline is checked once per
    /// batch, so overrun is bounded by one batch's work.
    fn run_partition<S: BatchSink>(
        &self,
        rows: &[Row],
        deadline: Option<Instant>,
        sink: &mut S,
        tally: &mut Tally,
    ) -> Result<()> {
        let driver = self.driver.as_ref().expect("partitions come from a driver");
        for rows in rows.chunks(BATCH_ROWS) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::deadline("table scan", 0));
            }
            let mut batch = Batch::new(self.needed.len(), rows.len());
            driver.gather(&mut batch, rows.iter(), &self.needed);
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

        let (mut left, mut right) = (Vec::new(), Vec::new());
        let mut join = |batch: &Batch, pos: usize, build_rows: &[u32]| -> Result<()> {
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
            Ok(())
        };
        match &stage.kind {
            StageKind::Hash { lookup, .. } => {
                let mut key: Vec<Value> = Vec::with_capacity(probe_keys.len());
                for pos in 0..batch.len() {
                    key.clear();
                    key.extend(probe_keys.iter().map(|k| k.value(pos)));
                    // SQL join semantics: a NULL key never matches.
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    match lookup {
                        Lookup::PrimaryKey(table) => {
                            if let Some(row) = table.position(&key) {
                                join(&batch, pos, &[row as u32])?;
                            }
                        }
                        Lookup::Built(map) => {
                            if let Some(rows) = map.get(key.as_slice()) {
                                join(&batch, pos, rows)?;
                            }
                        }
                    }
                }
            }
            StageKind::Broadcast { indices } => {
                for pos in 0..batch.len() {
                    join(&batch, pos, indices)?;
                }
            }
        }
        self.emit(idx, batch.take(&left), &right, sink, tally)?;
        pending.map_or(Ok(()), Err)
    }

    /// Complete the rows joined at stage `idx` — gather the stage's
    /// columns of the matched build rows, apply its residual predicates —
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
        let rows = stage.source.table.rows();
        let matched = build_rows.iter().map(|&r| &rows[r as usize]);
        stage.source.gather(&mut batch, matched, &self.needed);
        tally.expr_evals += (stage.residuals.len() * batch.len()) as u64;
        let mut pending = None;
        for residual in &stage.residuals {
            batch.filter(residual, &mut pending);
        }
        self.run_stage(idx + 1, batch, sink, tally)?;
        pending.map_or(Ok(()), Err)
    }
}

// ---------------------------------------------------------------------
// ORDER BY
// ---------------------------------------------------------------------

/// Replace bare column references that name an output item with that
/// item's defining expression (SQL's "sort by output alias" rule). The
/// first matching output item wins. Qualified references pass through —
/// they resolve against base tables.
fn substitute_output_aliases(expr: &Expr, names: &[String], items: &[Expr]) -> Expr {
    match expr {
        Expr::Column { table: None, name } => match names.iter().position(|n| n == name) {
            Some(i) => items[i].clone(),
            None => expr.clone(),
        },
        Expr::Literal(_) | Expr::Column { .. } => expr.clone(),
        Expr::Unary { op, expr: e } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_output_aliases(e, names, items)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute_output_aliases(left, names, items)),
            right: Box::new(substitute_output_aliases(right, names, items)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| substitute_output_aliases(a, names, items))
                .collect(),
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: whens
                .iter()
                .map(|(c, r)| {
                    (
                        substitute_output_aliases(c, names, items),
                        substitute_output_aliases(r, names, items),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(substitute_output_aliases(e, names, items))),
        },
        Expr::IsNull { expr: e, negated } => Expr::IsNull {
            expr: Box::new(substitute_output_aliases(e, names, items)),
            negated: *negated,
        },
    }
}

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

/// Describe the execution pipeline of a SELECT without running it to
/// completion: driver table, per-stage join method (hash vs broadcast),
/// residual predicates and sink type. One VARCHAR column, one row per
/// plan step — in the spirit of the paper's claim that the generated
/// statements "can be easily optimized and executed in parallel" (§1.4),
/// this shows *how* each one executes.
pub fn explain_select(catalog: &Catalog, select: &Select) -> Result<QueryResult> {
    let prep = prepare_select(catalog, select)?;
    let pipeline = build_pipeline(catalog, select, &prep.scopes, &mut StmtProbe::disabled())?;

    let mut lines: Vec<String> = Vec::new();
    match &pipeline.driver {
        None => lines.push("single row (no FROM)".to_string()),
        Some(driver) => lines.push(format!(
            "driver scan: {} ({} rows){}",
            select.from[0].visible_name(),
            driver.table.len(),
            if pipeline.driver_filter.is_some() {
                ", filtered"
            } else {
                ""
            }
        )),
    }
    for stage in &pipeline.stages {
        let desc = match &stage.kind {
            StageKind::Hash { lookup, probe_keys } => format!(
                "hash join: {} on {} key(s) ({})",
                stage.name,
                probe_keys.len(),
                match lookup {
                    Lookup::PrimaryKey(_) => "primary-key index".to_string(),
                    Lookup::Built(map) => format!("{} distinct build keys", map.len()),
                }
            ),
            StageKind::Broadcast { indices } => format!(
                "broadcast (cross join): {} ({} rows)",
                stage.name,
                indices.len()
            ),
        };
        let res = if stage.residuals.is_empty() {
            String::new()
        } else {
            format!(", {} residual predicate(s)", stage.residuals.len())
        };
        lines.push(format!("{desc}{res}"));
    }
    if prep.is_aggregate {
        let plan = prep.aggregate_plan(select)?;
        lines.push(format!(
            "sink: hash aggregate ({} group key(s), {} accumulator(s)){}",
            plan.keys.len(),
            plan.aggs.len(),
            if plan.having.is_some() {
                ", having"
            } else {
                ""
            }
        ));
    } else {
        lines.push(format!("sink: projection ({} item(s))", prep.n_real));
    }
    if !select.order_by.is_empty() {
        lines.push(format!("order by: {} key(s)", select.order_by.len()));
    }
    if let Some(limit) = select.limit {
        lines.push(format!("limit: {limit}"));
    }

    let rows: Vec<Row> = lines
        .into_iter()
        .map(|l| vec![Value::from(l)].into_boxed_slice())
        .collect();
    let n = rows.len();
    Ok(QueryResult {
        columns: vec!["plan".to_string()],
        rows,
        rows_affected: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UnaryOp;

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Eq, Expr::col("a"), Expr::col("b")),
                Expr::bin(BinOp::Gt, Expr::col("c"), Expr::int(0)),
            ),
            Expr::bin(BinOp::Lt, Expr::col("d"), Expr::int(9)),
        );
        assert_eq!(split_conjuncts(&e).len(), 3);
        // ORs are opaque: one conjunct.
        let or = Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, Expr::col("a"), Expr::int(1)),
            Expr::bin(BinOp::Eq, Expr::col("a"), Expr::int(2)),
        );
        assert_eq!(split_conjuncts(&or).len(), 1);
    }

    #[test]
    fn scope_mask_classifies_references() {
        let scopes = vec![
            ("y".to_string(), vec!["rid".to_string(), "v".to_string()]),
            ("c".to_string(), vec!["i".to_string(), "v".to_string()]),
        ];
        // Single-table conjunct.
        let only_y = Expr::bin(BinOp::Gt, Expr::qcol("y", "rid"), Expr::int(5));
        assert_eq!(scope_mask(&only_y, &scopes).unwrap(), 0b01);
        // Cross-table equi-join.
        let join = Expr::bin(BinOp::Eq, Expr::qcol("y", "v"), Expr::qcol("c", "v"));
        assert_eq!(scope_mask(&join, &scopes).unwrap(), 0b11);
        // Constants reference no scope.
        assert_eq!(scope_mask(&Expr::int(1), &scopes).unwrap(), 0);
        // Unqualified `rid` is unique to y.
        assert_eq!(scope_mask(&Expr::col("rid"), &scopes).unwrap(), 0b01);
        // Unqualified `v` is ambiguous.
        assert!(matches!(
            scope_mask(&Expr::col("v"), &scopes),
            Err(Error::AmbiguousColumn(_))
        ));
        // Unknown table / column.
        assert!(scope_mask(&Expr::qcol("z", "v"), &scopes).is_err());
        assert!(scope_mask(&Expr::col("zzz"), &scopes).is_err());
    }

    #[test]
    fn alias_substitution_is_recursive_and_first_match_wins() {
        let names = vec!["sump".to_string(), "sump".to_string()];
        let items = vec![
            Expr::bin(BinOp::Add, Expr::col("p1"), Expr::col("p2")),
            Expr::col("other"),
        ];
        // Bare `sump` inside a function call resolves to the FIRST item.
        let key = Expr::Func {
            name: "ln".into(),
            args: vec![Expr::col("sump")],
        };
        let out = substitute_output_aliases(&key, &names, &items);
        assert_eq!(
            out,
            Expr::Func {
                name: "ln".into(),
                args: vec![items[0].clone()],
            }
        );
        // Qualified references are never substituted.
        let q = Expr::qcol("t", "sump");
        assert_eq!(substitute_output_aliases(&q, &names, &items), q);
        // Non-matching names pass through, including under unary ops.
        let miss = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::col("nope")),
        };
        assert_eq!(substitute_output_aliases(&miss, &names, &items), miss);
    }

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
