//! The data-free statement plan.
//!
//! [`plan_statement`] turns a parsed statement and table *schemas* into a
//! [`StatementPlan`]: everything about how the statement executes that
//! does not depend on the rows. The executor is left-deep by
//! construction, so the plan is the chain it runs, not a general
//! operator tree: the FROM tables in declaration order ([`Source`], each
//! with its slot offset in the joined row), the WHERE conjuncts
//! classified into per-table filters, equi-join keys and residuals
//! ([`Chain`]), the sink ([`Sink`]: aggregate or projection), the
//! hidden sort keys and the LIMIT; for DML the target, the INSERT column
//! map and UPDATE … FROM's tables through the same conjunct classifier.
//!
//! Five readers, no second analysis of statement shape:
//!
//! * `exec` instantiates a plan against rows (join tables, filtered
//!   positions, memory charges, scan records);
//! * `EXPLAIN` prints [`SelectPlan::explain`] with the row counts of
//!   that instantiation;
//! * [`crate::plancheck`] folds symbolic cardinalities over the sources,
//!   key pairs, filters, group keys and outputs;
//! * the shard coordinator (`sqlwire::cluster`) matches on which sources
//!   are partitioned, whether equi-keys co-locate them, which output
//!   carries the partition key and whether an aggregate, sort or limit
//!   sits above partitioned input;
//! * semantic analysis ([`crate::analyze`]) types the compiled
//!   expressions ([`CExpr::ty`]) against the sources' declared column
//!   types and measures the statement against its limits.
//!
//! Planning is also the engine's only front end: a name resolves, a
//! projection expands, a group key matches, an aggregate is placed, a
//! function's arity and an INSERT's column map are checked *here* (with
//! [`crate::expr::compile`] and `exec::aggregate`'s rewrite) and nowhere
//! else, so whatever is wrong with a statement is reported once, as an
//! [`crate::AnalyzeError`] tagged with the clause that was being planned.
//!
//! Because the plan needs schemas only it is the same on a
//! [`crate::catalog::Catalog`] and a [`crate::SymbolicCatalog`] — the
//! shard coordinator's schema mirror is one.

use std::borrow::{Borrow, Cow};
use std::sync::Arc;

use crate::analyze::{AnalyzeErrorKind, Checked, Clause, Metric, Planned, SchemaProvider};
use crate::ast::{BinOp, Expr, InsertSource, Select, SelectItem, Statement, TableRef};
use crate::error::{Error, Result};
use crate::exec::aggregate::{plan_aggregate, AggPlan};
use crate::expr::{compile, Batch, CExpr, ColumnResolver};
use crate::schema::{Column, Schema};
use crate::table::Row;
use crate::value::Value;

/// One table a statement reads, as it sits in the joined row.
#[derive(Debug, Clone)]
pub struct Source {
    /// Base table name, lowercase.
    pub table: String,
    /// Visible name (the alias if one was given), lowercase.
    pub name: String,
    /// The table's schema, shared with the catalog the plan was made on:
    /// the plan holds while the table still has it.
    pub schema: Arc<Schema>,
    /// Slot of the table's first column in the joined row.
    pub offset: usize,
}

impl Source {
    /// The table's columns in order.
    pub fn columns(&self) -> &[Column] {
        self.schema.columns()
    }

    /// Column positions of the PRIMARY KEY (empty when keyless).
    pub fn primary_key(&self) -> &[usize] {
        self.schema.primary_key()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Position of the column called `name` (any case).
    fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.column_index(name)
    }
}

fn push_source(sources: &mut Vec<Source>, table: String, name: String, schema: &Arc<Schema>) {
    let offset = sources.last().map_or(0, |s| s.offset + s.arity());
    sources.push(Source {
        table,
        name,
        schema: Arc::clone(schema),
        offset,
    });
}

/// Resolve a statement's tables against the schemas, in joined-row
/// order: `target` (an UPDATE's, visible under its own name) and then
/// the FROM list. The one place a table name is looked up.
fn resolve_sources(
    provider: &dyn SchemaProvider,
    target: Option<&str>,
    from: &[TableRef],
) -> Planned<Vec<Source>> {
    let mut sources = Vec::with_capacity(from.len() + 1);
    let target = target.map(|t| (t, t, Clause::Statement));
    let from = from
        .iter()
        .map(|t| (t.table.as_str(), t.visible_name(), Clause::From));
    for (table, visible, clause) in target.into_iter().chain(from) {
        let table = table.to_ascii_lowercase();
        let Some(schema) = provider.table_schema(&table) else {
            return Err(AnalyzeErrorKind::UnknownTable(table).at(clause));
        };
        let name = visible.to_ascii_lowercase();
        if sources.iter().any(|s: &Source| s.name == name) {
            let twice = format!("{name} appears twice in FROM; use aliases");
            return Err(AnalyzeErrorKind::DuplicateTable(twice).at(clause));
        }
        push_source(&mut sources, table, name, schema);
    }
    Ok(sources)
}

/// A SELECT list with wildcards expanded and ORDER BY keys appended.
#[derive(Debug, Clone)]
struct Projection<'a> {
    /// The visible items (the statement's own, borrowed; a wildcard's,
    /// made here), then one hidden item per ORDER BY key with output
    /// aliases replaced by their defining expressions.
    items: Vec<Cow<'a, Expr>>,
    /// Output names of the visible items.
    names: Vec<String>,
    /// Does the SELECT aggregate: GROUP BY, or an aggregate call in an
    /// item, an ORDER BY key or HAVING?
    is_aggregate: bool,
}

/// Expand a SELECT list over `sources`. ORDER BY may name output aliases
/// (`ORDER BY sump`) or base columns absent from the projection
/// (`ORDER BY rid` under `SELECT x1, x2`); both become trailing *hidden*
/// items, planned like any other and stripped after sorting.
fn expand_projection<'a>(select: &'a Select, sources: &[Source]) -> Planned<Projection<'a>> {
    fn expand(s: &Source, items: &mut Vec<Cow<'_, Expr>>, names: &mut Vec<String>) {
        for c in s.columns() {
            items.push(Cow::Owned(Expr::qcol(&s.name, &c.name)));
            names.push(c.name.clone());
        }
    }
    let mut items = Vec::new();
    let mut names = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                if sources.is_empty() {
                    let why = "SELECT * requires a FROM clause".into();
                    return Err(AnalyzeErrorKind::Unsupported(why).at(Clause::Projection));
                }
                for s in sources {
                    expand(s, &mut items, &mut names);
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let Some(s) = sources.iter().find(|s| s.name == lt) else {
                    return Err(AnalyzeErrorKind::UnknownTable(lt).at(Clause::Projection));
                };
                expand(s, &mut items, &mut names);
            }
            SelectItem::Expr { expr, alias } => {
                names.push(match (alias, expr) {
                    (Some(a), _) => a.to_ascii_lowercase(),
                    (None, Expr::Column { name, .. }) => name.clone(),
                    (None, _) => format!("col{}", items.len() + 1),
                });
                items.push(Cow::Borrowed(expr));
            }
        }
    }
    let hidden: Vec<Cow<'_, Expr>> = select
        .order_by
        .iter()
        .map(|k| Cow::Owned(substitute_output_aliases(&k.expr, &names, &items)))
        .collect();
    items.extend(hidden);
    let is_aggregate = !select.group_by.is_empty()
        || items.iter().any(|e| e.contains_aggregate())
        || select.having.as_ref().is_some_and(Expr::contains_aggregate);
    Ok(Projection {
        items,
        names,
        is_aggregate,
    })
}

/// Replace bare column references that name an output item with that
/// item's defining expression (SQL's "sort by output alias" rule). The
/// first matching output item wins. Qualified references pass through —
/// they resolve against base tables.
fn substitute_output_aliases(expr: &Expr, names: &[String], items: &[impl Borrow<Expr>]) -> Expr {
    let sub = |e: &Expr| substitute_output_aliases(e, names, items);
    match expr {
        Expr::Column { table: None, name } => match names.iter().position(|n| n == name) {
            Some(i) => items[i].borrow().clone(),
            None => expr.clone(),
        },
        Expr::Literal(_) | Expr::Column { .. } => expr.clone(),
        Expr::Unary { op, expr: e } => Expr::Unary {
            op: *op,
            expr: Box::new(sub(e)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(sub(left)),
            right: Box::new(sub(right)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(sub).collect(),
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: whens.iter().map(|(c, r)| (sub(c), sub(r))).collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(sub(e))),
        },
        Expr::IsNull { expr: e, negated } => Expr::IsNull {
            expr: Box::new(sub(e)),
            negated: *negated,
        },
    }
}

/// Split a compiled predicate on its top-level ANDs, in source order.
fn split_conjuncts(predicate: CExpr, out: &mut Vec<CExpr>) {
    match predicate {
        CExpr::Binary(BinOp::And, left, right) => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        conjunct => out.push(conjunct),
    }
}

/// Bitmask of the sources whose slots a compiled expression reads.
fn source_mask(expr: &CExpr, sources: &[Source]) -> u64 {
    let mut mask = 0u64;
    expr.for_each_slot(&mut |slot| {
        let i = sources.partition_point(|s| s.offset + s.arity() <= slot);
        mask |= 1 << i;
    });
    mask
}

/// How a non-driver table joins the accumulated prefix.
#[derive(Debug, Clone)]
pub enum Join {
    /// Equi-join on `probe_keys[j] = build_keys[j]`.
    Hash {
        /// Key expressions over the prefix (joined-row slots).
        probe_keys: Vec<CExpr>,
        /// Key expressions over the stage's own table (slots relative to it).
        build_keys: Vec<CExpr>,
        /// When the build keys are exactly the table's PRIMARY KEY and
        /// no filter thins it, the index the table already maintains
        /// serves the join: for each key column in index order, which
        /// key pair addresses it.
        pk_order: Option<Vec<usize>>,
    },
    /// Cross product with the (filtered) table.
    Broadcast,
}

/// One build-side stage: `sources[i + 1]` of its [`Chain`].
#[derive(Debug, Clone)]
pub struct Stage {
    /// Conjuncts over the stage's table alone (slots relative to it).
    pub filters: Vec<CExpr>,
    /// Join method.
    pub join: Join,
    /// Conjuncts that become checkable once this table is joined.
    pub residuals: Vec<CExpr>,
}

/// FROM and WHERE as the left-deep chain the executor runs: the first
/// source is scanned (the *driver*), every later one is a [`Stage`].
#[derive(Debug, Clone, Default)]
pub struct Chain {
    /// The tables in join order.
    pub sources: Vec<Source>,
    /// Conjuncts over the driver alone (and constant conjuncts).
    pub driver_filters: Vec<CExpr>,
    /// `stages[i]` joins `sources[i + 1]`.
    pub stages: Vec<Stage>,
}

impl Chain {
    /// Width of the joined row.
    pub fn width(&self) -> usize {
        self.sources.last().map_or(0, |s| s.offset + s.arity())
    }

    /// The `(source, column)` a joined-row slot belongs to.
    pub fn column(&self, slot: usize) -> Option<(usize, usize)> {
        let i = self
            .sources
            .iter()
            .rposition(|s| s.offset <= slot && slot < s.offset + s.arity())?;
        Some((i, slot - self.sources[i].offset))
    }

    /// The conjuncts over `sources[i]` alone.
    pub fn filters(&self, i: usize) -> &[CExpr] {
        match i {
            0 => &self.driver_filters,
            _ => &self.stages[i - 1].filters,
        }
    }

    /// Every `column = column` join key as a pair of `(source, column)`.
    pub fn equi_pairs(&self) -> Vec<((usize, usize), (usize, usize))> {
        let mut pairs = Vec::new();
        for (i, stage) in self.stages.iter().enumerate() {
            if let Join::Hash {
                probe_keys,
                build_keys,
                ..
            } = &stage.join
            {
                for key in probe_keys.iter().zip(build_keys) {
                    if let (CExpr::Col(p), CExpr::Col(b)) = key {
                        if let Some(probe) = self.column(*p) {
                            pairs.push((probe, (i + 1, *b)));
                        }
                    }
                }
            }
        }
        pairs
    }
}

/// The [`Chain`] of `sources` (the FROM tables; an UPDATE's or a
/// DELETE's target first): WHERE, compiled over their joined row, is
/// classified into the driver's filters and the [`Stage`]s: single-table
/// conjuncts filter their table before it joins, an equality between the
/// prefix and the next table becomes a hash key of that stage, and
/// whatever spans several tables otherwise is a residual of the first
/// stage that has them all. What a table evaluates on its own rows is
/// rebased to them.
fn plan_chain(sources: Vec<Source>, where_clause: Option<&Expr>) -> Planned<Chain> {
    let predicate = compile_in(Clause::Where, where_clause, &ColumnResolver::new(&sources))?;
    let mut conjuncts = Vec::new();
    if let Some(p) = predicate {
        split_conjuncts(p, &mut conjuncts);
    }
    if sources.is_empty() {
        if !conjuncts.is_empty() {
            let why = "WHERE requires a FROM clause".into();
            return Err(AnalyzeErrorKind::Unsupported(why).at(Clause::Where));
        }
        return Ok(Default::default());
    }
    // Source masks are 64 bits wide.
    if sources.len() > 64 {
        return Err(AnalyzeErrorKind::TooComplex {
            metric: Metric::Tables,
            value: sources.len(),
            limit: 64,
        }
        .at(Clause::Statement));
    }

    let mut table_filters: Vec<Vec<CExpr>> = vec![Vec::new(); sources.len()];
    // (conjunct, mask) spanning several tables; `None` once placed.
    let mut pending: Vec<Option<(CExpr, u64)>> = Vec::new();
    for mut c in conjuncts {
        let mask = source_mask(&c, &sources);
        match mask.count_ones() {
            0 => table_filters[0].push(c),
            1 => {
                let i = mask.trailing_zeros() as usize;
                c.rebase(sources[i].offset);
                table_filters[i].push(c);
            }
            _ => pending.push(Some((c, mask))),
        }
    }
    let mut table_filters = table_filters.into_iter();
    let driver_filters = table_filters.next().expect("a driver");

    let mut stages = Vec::with_capacity(sources.len() - 1);
    for (i, filters) in (1..).zip(table_filters) {
        // Equalities between the prefix and this table are hash keys.
        let this_bit: u64 = 1 << i;
        let full_prefix: u64 = (this_bit - 1) | this_bit;
        let (mut probe_keys, mut build_keys) = (Vec::new(), Vec::new());
        let mut residuals = Vec::new();
        for slot in pending.iter_mut() {
            // Checkable once this table is joined: a key or a residual.
            let Some((c, _)) = slot.take_if(|(_, mask)| *mask & !full_prefix == 0) else {
                continue;
            };
            match c {
                CExpr::Binary(BinOp::Eq, left, right) => {
                    let lm = source_mask(&left, &sources);
                    let rm = source_mask(&right, &sources);
                    let (probe_side, mut build_side) = if lm & this_bit == 0 && rm == this_bit {
                        (left, right)
                    } else if rm & this_bit == 0 && lm == this_bit {
                        (right, left)
                    } else {
                        // Mixed sides: a residual.
                        residuals.push(CExpr::Binary(BinOp::Eq, left, right));
                        continue;
                    };
                    build_side.rebase(sources[i].offset);
                    probe_keys.push(*probe_side);
                    build_keys.push(*build_side);
                }
                other => residuals.push(other),
            }
        }

        let join = if probe_keys.is_empty() {
            Join::Broadcast
        } else {
            let pk_order = primary_key_order(&sources[i], &build_keys, &filters);
            Join::Hash {
                probe_keys,
                build_keys,
                pk_order,
            }
        };
        stages.push(Stage {
            filters,
            join,
            residuals,
        });
    }
    Ok(Chain {
        sources,
        driver_filters,
        stages,
    })
}

/// If the build keys of a hash stage are exactly `source`'s primary-key
/// columns and no filter thins the table, the table's own index serves
/// the join: returns, for each key column in index order, which build
/// key (hence which probe key) addresses it.
fn primary_key_order(
    source: &Source,
    build_keys: &[CExpr],
    filters: &[CExpr],
) -> Option<Vec<usize>> {
    let pk = source.primary_key();
    if !filters.is_empty() || pk.is_empty() || pk.len() != build_keys.len() {
        return None;
    }
    pk.iter()
        .map(|c| build_keys.iter().position(|k| *k == CExpr::Col(*c)))
        .collect()
}

/// Where the joined rows go.
#[derive(Debug, Clone)]
pub enum Sink {
    /// Hash aggregation.
    Aggregate(AggPlan),
    /// Scalar projection with Teradata-style lateral aliases: item `j`
    /// lands in slot `chain.width() + j`, where the items after it read it.
    Project(Vec<CExpr>),
}

/// What one output column of a SELECT is, as far as the plan can tell.
#[derive(Debug, Clone, PartialEq)]
pub enum Output<'a> {
    /// A verbatim copy of `(source, column)` (through a group key, for
    /// an aggregate SELECT).
    Column(usize, usize),
    /// A literal.
    Literal(&'a Value),
    /// Anything computed.
    Computed,
}

/// The plan of one SELECT.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// FROM and WHERE.
    pub chain: Chain,
    /// The sink; its items are the visible outputs followed by the
    /// hidden sort keys.
    pub sink: Sink,
    /// Names of the visible outputs.
    pub output_names: Vec<String>,
    /// The hidden sort keys as expressions over the FROM tables (output
    /// aliases substituted), each with its DESC flag.
    pub sort_keys: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl SelectPlan {
    /// Does the SELECT aggregate?
    pub fn is_aggregate(&self) -> bool {
        matches!(self.sink, Sink::Aggregate(_))
    }

    /// What visible output column `idx` is.
    pub fn output(&self, idx: usize) -> Output<'_> {
        if idx >= self.output_names.len() {
            return Output::Computed;
        }
        let item = match &self.sink {
            Sink::Project(items) => items.get(idx),
            Sink::Aggregate(agg) => match agg.items.get(idx) {
                Some(CExpr::Col(key)) => agg.keys.get(*key),
                other => other,
            },
        };
        match item {
            Some(CExpr::Const(v)) => Output::Literal(v),
            Some(CExpr::Col(slot)) => match self.chain.column(*slot) {
                Some((source, column)) => Output::Column(source, column),
                None => Output::Computed,
            },
            _ => Output::Computed,
        }
    }

    /// The plan as `EXPLAIN` prints it: driver table, per-stage join
    /// method, residuals, sink, ordering and limit — in the spirit of
    /// the paper's claim that the generated statements "can be easily
    /// optimized and executed in parallel" (§1.4), this shows *how* each
    /// one executes. `counts[i]` is what instantiating the plan found
    /// for `sources[i]`: the driver's rows, a broadcast stage's kept
    /// rows, a built hash stage's distinct keys. `streamed`: the
    /// aggregate's input was found in key order, so it streams.
    pub fn explain(&self, counts: &[usize], streamed: bool) -> Vec<String> {
        let mut lines = Vec::new();
        match self.chain.sources.first() {
            None => lines.push("single row (no FROM)".to_string()),
            Some(driver) => lines.push(format!(
                "driver scan: {} ({} rows){}",
                driver.name,
                counts[0],
                if self.chain.driver_filters.is_empty() {
                    ""
                } else {
                    ", filtered"
                }
            )),
        }
        for (i, stage) in self.chain.stages.iter().enumerate() {
            let name = &self.chain.sources[i + 1].name;
            let desc = match &stage.join {
                Join::Hash {
                    probe_keys,
                    pk_order,
                    ..
                } => format!(
                    "hash join: {name} on {} key(s) ({})",
                    probe_keys.len(),
                    match pk_order {
                        Some(_) => "primary-key index".to_string(),
                        None => format!("{} distinct build keys", counts[i + 1]),
                    }
                ),
                Join::Broadcast => {
                    format!("broadcast (cross join): {name} ({} rows)", counts[i + 1])
                }
            };
            lines.push(if stage.residuals.is_empty() {
                desc
            } else {
                format!("{desc}, {} residual predicate(s)", stage.residuals.len())
            });
        }
        lines.push(match &self.sink {
            Sink::Aggregate(agg) => format!(
                "sink: {} aggregate ({} group key(s), {} accumulator(s)){}",
                if streamed { "stream" } else { "hash" },
                agg.keys.len(),
                agg.aggs.len(),
                if agg.having.is_some() { ", having" } else { "" }
            ),
            Sink::Project(_) => format!("sink: projection ({} item(s))", self.output_names.len()),
        });
        if !self.sort_keys.is_empty() {
            lines.push(format!("order by: {} key(s)", self.sort_keys.len()));
        }
        if let Some(limit) = self.limit {
            lines.push(format!("limit: {limit}"));
        }
        lines
    }
}

/// Plan one SELECT against schemas.
fn plan_select(provider: &dyn SchemaProvider, select: &Select) -> Planned<SelectPlan> {
    let sources = resolve_sources(provider, None, &select.from)?;
    let projection = expand_projection(select, &sources)?;
    let chain = plan_chain(sources, select.where_clause.as_ref())?;
    let resolver = ColumnResolver::new(&chain.sources);
    let n_visible = projection.names.len();
    let sink = if projection.is_aggregate {
        Sink::Aggregate(plan_aggregate(
            &projection.items,
            n_visible,
            &select.group_by,
            select.having.as_ref(),
            &resolver,
        )?)
    } else if select.having.is_some() {
        let why = "HAVING requires GROUP BY or aggregates".into();
        return Err(AnalyzeErrorKind::AggregateMisuse(why).at(Clause::Having));
    } else {
        Sink::Project(compile_scalar_items(&projection, resolver)?)
    };
    let sort_keys = projection
        .items
        .into_iter()
        .skip(n_visible)
        .map(Cow::into_owned)
        .zip(select.order_by.iter().map(|k| k.desc))
        .collect();
    Ok(SelectPlan {
        chain,
        sink,
        output_names: projection.names,
        sort_keys,
        limit: select.limit,
    })
}

/// Compile the expression of `clause`, if the statement has one.
fn compile_in(
    clause: Clause,
    expr: Option<&Expr>,
    resolver: &ColumnResolver<'_>,
) -> Planned<Option<CExpr>> {
    expr.map(|e| compile(e, resolver).map_err(|k| k.at(clause)))
        .transpose()
}

/// Compile scalar items, registering each visible item's output name as
/// a lateral alias for the items after it. Hidden sort keys get none.
fn compile_scalar_items(
    projection: &Projection<'_>,
    mut resolver: ColumnResolver<'_>,
) -> Planned<Vec<CExpr>> {
    let base = resolver.width();
    let mut compiled = Vec::with_capacity(projection.items.len());
    for (j, expr) in projection.items.iter().enumerate() {
        let clause = Clause::of_item(j, projection.names.len());
        compiled.push(compile(expr, &resolver).map_err(|k| k.at(clause))?);
        if let Some(name) = projection.names.get(j) {
            resolver.add_lateral(name, base + j);
        }
    }
    Ok(compiled)
}

/// Where an INSERT's rows come from.
#[derive(Debug, Clone)]
pub enum InsertRows {
    /// `VALUES`: the rows, each cell a constant expression (no slots).
    Values(Vec<Vec<CExpr>>),
    /// `INSERT … SELECT`.
    Select(Box<SelectPlan>),
}

/// Evaluate the rows of a `VALUES` list, each cell over a one-row batch.
pub fn constant_rows(values: &[Vec<CExpr>]) -> Result<Vec<Row>> {
    let one = Batch::new(0, 1);
    let cell = |e: &CExpr| match e.eval_batch(&one) {
        Ok(col) => Ok(col.value(0)),
        Err(failed) => Err(failed.error),
    };
    let row = |cells: &Vec<CExpr>| cells.iter().map(cell).collect();
    values.iter().map(row).collect()
}

/// The plan of one INSERT.
#[derive(Debug, Clone)]
pub struct InsertPlan {
    /// The target table (its `name` is the table name, `offset` 0).
    pub target: Source,
    /// With an explicit column list: the target slot of each incoming
    /// column. Unlisted columns become NULL.
    pub slot_map: Option<Vec<usize>>,
    /// The row source.
    pub rows: InsertRows,
}

impl InsertPlan {
    /// Number of columns each incoming row must have.
    pub fn incoming_arity(&self) -> usize {
        self.slot_map.as_ref().map_or(self.target.arity(), Vec::len)
    }

    /// The target slot incoming column `j` lands in.
    pub fn target_slot(&self, j: usize) -> usize {
        self.slot_map.as_ref().map_or(j, |m| m[j])
    }

    /// Widen one incoming row to the target's arity, NULL in the
    /// columns the column list leaves out.
    pub fn full_row(&self, row: Row) -> Result<Row> {
        if row.len() != self.incoming_arity() {
            return Err(Error::ArityMismatch {
                table: self.target.table.clone(),
                expected: self.incoming_arity(),
                actual: row.len(),
            });
        }
        Ok(match &self.slot_map {
            None => row,
            Some(map) => {
                let mut full = vec![Value::Null; self.target.arity()];
                for (v, &slot) in row.into_vec().into_iter().zip(map) {
                    full[slot] = v;
                }
                full.into_boxed_slice()
            }
        })
    }
}

/// The plan of one UPDATE.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// The target (`sources[0]`, the driver) and the FROM tables (its
    /// build stages), with WHERE classified as for a SELECT. The
    /// classification also tells a coordinator whether partitioned FROM
    /// tables are co-located with the target.
    pub chain: Chain,
    /// `(target slot, value)` per SET, in order; each sees the ones before.
    pub assignments: Vec<(usize, CExpr)>,
}

/// The plan of one DELETE.
#[derive(Debug, Clone)]
pub struct DeletePlan {
    /// The target table.
    pub target: Source,
    /// The target as a one-source chain: WHERE is its driver filter.
    pub chain: Chain,
}

/// The plan of one statement.
#[derive(Debug, Clone)]
pub enum StatementPlan {
    /// No data flow to plan: CREATE / DROP TABLE, plain EXPLAIN.
    Utility,
    /// SELECT.
    Select(SelectPlan),
    /// INSERT.
    Insert(InsertPlan),
    /// UPDATE.
    Update(UpdatePlan),
    /// DELETE.
    Delete(DeletePlan),
}

impl StatementPlan {
    /// Does the plan still hold on `provider`: has every table it reads
    /// or writes the schema — columns, types, key — it was made on? A
    /// plan is a function of its statement and those schemas alone, so
    /// then planning again would make this plan. A schema equal to the
    /// plan's but held apart (the table dropped and created again) is
    /// adopted, so the next check of that table is a pointer compare.
    pub fn holds_on(&mut self, provider: &dyn SchemaProvider) -> bool {
        let holds = |source: &mut Source| match provider.table_schema(&source.table) {
            Some(live) if Arc::ptr_eq(live, &source.schema) => true,
            Some(live) if **live == *source.schema => {
                source.schema = Arc::clone(live);
                true
            }
            _ => false,
        };
        match self {
            StatementPlan::Utility => true,
            StatementPlan::Select(select) => select.chain.sources.iter_mut().all(holds),
            StatementPlan::Insert(insert) => {
                holds(&mut insert.target)
                    && match &mut insert.rows {
                        InsertRows::Values(_) => true,
                        InsertRows::Select(select) => select.chain.sources.iter_mut().all(holds),
                    }
            }
            StatementPlan::Update(update) => update.chain.sources.iter_mut().all(holds),
            StatementPlan::Delete(delete) => {
                holds(&mut delete.target) && delete.chain.sources.iter_mut().all(holds)
            }
        }
    }
}

fn target_source(provider: &dyn SchemaProvider, table: &str) -> Planned<Source> {
    let mut sources = resolve_sources(provider, Some(table), &[])?;
    Ok(sources.pop().expect("the target"))
}

/// The target slot of each column an INSERT lists.
fn insert_slot_map(target: &Source, listed: &[String]) -> Planned<Vec<usize>> {
    let mut map = Vec::with_capacity(listed.len());
    for c in listed {
        let wrong = match target.column_index(c) {
            None => AnalyzeErrorKind::UnknownColumn,
            Some(slot) if map.contains(&slot) => AnalyzeErrorKind::DuplicateColumn,
            Some(slot) => {
                map.push(slot);
                continue;
            }
        };
        return Err(wrong(c.to_ascii_lowercase()).at(Clause::Statement));
    }
    Ok(map)
}

/// Plan one statement against schemas, or say what is wrong with it.
/// `EXPLAIN ANALYZE` runs its inner statement and plans as it; plain
/// `EXPLAIN` touches nothing.
pub fn plan_statement(provider: &dyn SchemaProvider, stmt: &Statement) -> Planned<StatementPlan> {
    Ok(match stmt {
        Statement::CreateTable { .. } | Statement::DropTable { .. } | Statement::Explain(_) => {
            StatementPlan::Utility
        }
        Statement::ExplainAnalyze(inner) => return plan_statement(provider, inner),
        Statement::Select(select) => StatementPlan::Select(plan_select(provider, select)?),
        Statement::Insert {
            table,
            columns,
            source,
        } => {
            let target = target_source(provider, table)?;
            let slot_map = match columns {
                Some(listed) => Some(insert_slot_map(&target, listed)?),
                None => None,
            };
            let arity = slot_map.as_ref().map_or(target.arity(), Vec::len);
            let mismatch = |actual: usize| AnalyzeErrorKind::ArityMismatch {
                table: target.table.clone(),
                expected: arity,
                actual,
            };
            let rows = match source {
                InsertSource::Values(rows) => {
                    let constants = ColumnResolver::new(&[]);
                    let in_values = |k: AnalyzeErrorKind| k.at(Clause::Values);
                    let mut compiled = Vec::with_capacity(rows.len());
                    for row in rows {
                        if row.len() != arity {
                            return Err(in_values(mismatch(row.len())));
                        }
                        let cells = row.iter().map(|e| compile(e, &constants));
                        compiled.push(cells.collect::<Checked<_>>().map_err(in_values)?);
                    }
                    InsertRows::Values(compiled)
                }
                InsertSource::Select(select) => {
                    let select = plan_select(provider, select)?;
                    if select.output_names.len() != arity {
                        return Err(mismatch(select.output_names.len()).at(Clause::Statement));
                    }
                    InsertRows::Select(Box::new(select))
                }
            };
            StatementPlan::Insert(InsertPlan {
                target,
                slot_map,
                rows,
            })
        }
        Statement::Update {
            table,
            from,
            assignments,
            where_clause,
        } => {
            let sources = resolve_sources(provider, Some(table), from)?;
            let chain = plan_chain(sources, where_clause.as_ref())?;
            let resolver = ColumnResolver::new(&chain.sources);
            let assignments = assignments
                .iter()
                .map(|(col, e)| {
                    let slot = chain.sources[0]
                        .column_index(col)
                        .ok_or_else(|| AnalyzeErrorKind::UnknownColumn(col.to_ascii_lowercase()))?;
                    Ok((slot, compile(e, &resolver)?))
                })
                .collect::<Checked<_>>()
                .map_err(|k| k.at(Clause::Set))?;
            StatementPlan::Update(UpdatePlan { chain, assignments })
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let target = target_source(provider, table)?;
            let chain = plan_chain(vec![target.clone()], where_clause.as_ref())?;
            StatementPlan::Delete(DeletePlan { target, chain })
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::analyze::SymbolicCatalog;
    use crate::ast::UnaryOp;
    use crate::parser::parse_one;

    /// Keyless DOUBLE-column sources in joined-row order, for unit tests
    /// of the compile steps.
    pub(crate) fn test_sources(tables: &[(&str, &[&str])]) -> Vec<Source> {
        let mut sources = Vec::new();
        for (name, columns) in tables {
            let columns = columns.iter().map(|c| Column::double(*c)).collect();
            let schema = Arc::new(Schema::keyless(columns).unwrap());
            push_source(&mut sources, name.to_string(), name.to_string(), &schema);
        }
        sources
    }

    /// `e` compiled over `y(rid, v)`, `c(i, v)`.
    fn compiled(e: &Expr) -> Checked<(CExpr, u64)> {
        let sources = test_sources(&[("y", &["rid", "v"]), ("c", &["i", "v"])]);
        let c = compile(e, &ColumnResolver::new(&sources))?;
        let mask = source_mask(&c, &sources);
        Ok((c, mask))
    }

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let split = |e: &Expr| {
            let mut out = Vec::new();
            split_conjuncts(compiled(e).unwrap().0, &mut out);
            out.len()
        };
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::And,
                Expr::bin(BinOp::Eq, Expr::col("rid"), Expr::col("i")),
                Expr::bin(BinOp::Gt, Expr::col("rid"), Expr::int(0)),
            ),
            Expr::bin(BinOp::Lt, Expr::col("i"), Expr::int(9)),
        );
        assert_eq!(split(&e), 3);
        // ORs are opaque: one conjunct.
        let or = Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, Expr::col("i"), Expr::int(1)),
            Expr::bin(BinOp::Eq, Expr::col("i"), Expr::int(2)),
        );
        assert_eq!(split(&or), 1);
    }

    #[test]
    fn source_mask_classifies_references() {
        let mask = |e: &Expr| compiled(e).map(|(_, mask)| mask);
        // Single-table conjunct.
        let only_y = Expr::bin(BinOp::Gt, Expr::qcol("y", "rid"), Expr::int(5));
        assert_eq!(mask(&only_y).unwrap(), 0b01);
        // Cross-table equi-join.
        let join = Expr::bin(BinOp::Eq, Expr::qcol("y", "v"), Expr::qcol("c", "v"));
        assert_eq!(mask(&join).unwrap(), 0b11);
        // Constants reference no source.
        assert_eq!(mask(&Expr::int(1)).unwrap(), 0);
        // Unqualified `rid` is unique to y, `i` to c.
        assert_eq!(mask(&Expr::col("rid")).unwrap(), 0b01);
        assert_eq!(mask(&Expr::col("i")).unwrap(), 0b10);
        // What does not resolve never gets as far as a mask.
        assert!(matches!(
            mask(&Expr::col("v")),
            Err(AnalyzeErrorKind::AmbiguousColumn(_))
        ));
        assert!(mask(&Expr::qcol("z", "v")).is_err());
        assert!(mask(&Expr::col("zzz")).is_err());
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
    fn a_plan_needs_schemas_only_and_names_every_shape_decision() {
        let mut cat = SymbolicCatalog::new();
        for ddl in [
            "CREATE TABLE y (rid BIGINT PRIMARY KEY, y1 DOUBLE)",
            "CREATE TABLE z (rid BIGINT PRIMARY KEY, z1 DOUBLE)",
            "CREATE TABLE c (j BIGINT, c1 DOUBLE)",
        ] {
            cat.apply(&parse_one(ddl).unwrap(), &crate::Limits::default())
                .unwrap();
        }
        let plan = |sql: &str| match plan_statement(&cat, &parse_one(sql).unwrap()).unwrap() {
            StatementPlan::Select(p) => p,
            other => panic!("not a SELECT plan: {other:?}"),
        };
        // Reversed equality, nested ANDs, a filter on each side, a residual.
        let p = plan(
            "SELECT y.rid, c.j, 7 FROM y, z, c \
             WHERE (z.rid = y.rid AND y.y1 > 0) AND (c.j = 1 AND y.y1 < z.z1 + c.c1) \
             ORDER BY rid DESC LIMIT 3",
        );
        assert_eq!(p.chain.driver_filters.len(), 1);
        assert!(matches!(
            &p.chain.stages[0].join,
            Join::Hash { pk_order: Some(o), .. } if o == &[0]
        ));
        assert!(matches!(p.chain.stages[1].join, Join::Broadcast));
        assert_eq!(p.chain.stages[1].filters.len(), 1);
        assert_eq!(p.chain.stages[1].residuals.len(), 1);
        assert_eq!(p.chain.equi_pairs(), vec![((0, 0), (1, 0))]);
        assert_eq!(p.output(0), Output::Column(0, 0));
        assert_eq!(p.output(1), Output::Column(2, 0));
        assert_eq!(p.output(2), Output::Literal(&Value::Int(7)));
        // `ORDER BY rid` names output 0, whatever its qualifier.
        assert_eq!(p.sort_keys, vec![(Expr::qcol("y", "rid"), true)]);
        assert_eq!(p.limit, Some(3));
        // A filter on the build side rules the index out.
        let p = plan("SELECT y.rid FROM y, z WHERE y.rid = z.rid AND z.z1 > 0");
        assert!(matches!(
            p.chain.stages[0].join,
            Join::Hash { pk_order: None, .. }
        ));
        // An aggregate in ORDER BY alone makes the SELECT an aggregate,
        // and a group-key output is still a column.
        let p = plan("SELECT j FROM c GROUP BY j ORDER BY sum(c1)");
        assert!(p.is_aggregate());
        assert_eq!(p.output(0), Output::Column(0, 0));
    }
}
