//! The data-free statement plan.
//!
//! [`plan_statement`] turns a parsed statement and table *schemas* into a
//! [`StatementPlan`]: everything about how the statement executes that
//! does not depend on the rows. The executor is left-deep by
//! construction, so the plan is the chain it runs, not a general
//! operator tree: the FROM tables in declaration order ([`Source`], each
//! with its slot offset in the joined row), the WHERE conjuncts
//! classified into per-table filters, equi-join keys and residuals
//! ([`Chain`]), the sink ([`Sink`]: hash aggregate or projection), the
//! hidden sort keys and the LIMIT; for DML the target, the INSERT column
//! map and UPDATE … FROM's tables through the same conjunct classifier.
//!
//! Four readers, no second analysis of statement shape:
//!
//! * `exec` instantiates a plan against rows (hash maps, filtered
//!   positions, memory charges, scan records);
//! * `EXPLAIN` prints [`SelectPlan::explain`] with the row counts of
//!   that instantiation;
//! * [`crate::plancheck`] folds symbolic cardinalities over the sources,
//!   key pairs, filters, group keys and outputs;
//! * the shard coordinator (`sqlwire::cluster`) matches on which sources
//!   are partitioned, whether equi-keys co-locate them, which output
//!   carries the partition key and whether an aggregate, sort or limit
//!   sits above partitioned input.
//!
//! Because the plan needs schemas only it is the same on a
//! [`crate::catalog::Catalog`], a [`crate::SymbolicCatalog`] and the
//! coordinator's rowless shadow catalog.

use std::borrow::{Borrow, Cow};

use crate::analyze::SchemaProvider;
use crate::ast::{BinOp, Expr, InsertSource, Select, SelectItem, Statement, TableRef};
use crate::error::{Error, Result};
use crate::exec::aggregate::{plan_aggregate, AggPlan};
use crate::expr::{compile, CExpr, ColumnResolver};
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
    /// The table's columns in order.
    pub columns: Vec<Column>,
    /// Column positions of the PRIMARY KEY (empty when keyless).
    pub primary_key: Vec<usize>,
    /// Slot of the table's first column in the joined row.
    pub offset: usize,
}

impl Source {
    fn new(table: String, name: String, schema: &Schema, offset: usize) -> Source {
        Source {
            table,
            name,
            columns: schema.columns().to_vec(),
            primary_key: schema.primary_key().to_vec(),
            offset,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }
}

/// A resolver over `sources` in joined-row order.
fn resolver_over(sources: &[Source]) -> ColumnResolver {
    let mut r = ColumnResolver::new();
    for s in sources {
        r.push_scope(
            s.name.clone(),
            s.columns.iter().map(|c| c.name.clone()).collect(),
        );
    }
    r
}

fn push_source(
    sources: &mut Vec<Source>,
    provider: &dyn SchemaProvider,
    table: &str,
    visible: &str,
) -> Result<()> {
    let table = table.to_ascii_lowercase();
    let schema = provider
        .table_schema(&table)
        .ok_or_else(|| Error::UnknownTable(table.clone()))?;
    let name = visible.to_ascii_lowercase();
    if sources.iter().any(|s| s.name == name) {
        return Err(Error::DuplicateTable(format!(
            "{name} appears twice in FROM; use aliases"
        )));
    }
    let offset = sources.last().map_or(0, |s| s.offset + s.arity());
    sources.push(Source::new(table, name, schema, offset));
    Ok(())
}

/// Resolve a FROM list against the schemas: the one place FROM scopes
/// are built (the analyzer's scopes come from here too).
pub(crate) fn resolve_sources(
    provider: &dyn SchemaProvider,
    from: &[TableRef],
) -> Result<Vec<Source>> {
    let mut sources = Vec::with_capacity(from.len());
    for tref in from {
        push_source(&mut sources, provider, &tref.table, tref.visible_name())?;
    }
    Ok(sources)
}

/// A SELECT list with wildcards expanded and ORDER BY keys appended.
#[derive(Debug, Clone)]
pub(crate) struct Projection<'a> {
    /// The visible items (the statement's own, borrowed; a wildcard's,
    /// made here), then one hidden item per ORDER BY key with output
    /// aliases replaced by their defining expressions.
    pub items: Vec<Cow<'a, Expr>>,
    /// Output names of the visible items.
    pub names: Vec<String>,
    /// Does the SELECT aggregate: GROUP BY, or an aggregate call in an
    /// item, an ORDER BY key or HAVING?
    pub is_aggregate: bool,
}

/// Expand a SELECT list over `sources`. ORDER BY may name output aliases
/// (`ORDER BY sump`) or base columns absent from the projection
/// (`ORDER BY rid` under `SELECT x1, x2`); both become trailing *hidden*
/// items, planned like any other and stripped after sorting.
pub(crate) fn expand_projection<'a>(
    select: &'a Select,
    sources: &[Source],
) -> Result<Projection<'a>> {
    fn expand(s: &Source, items: &mut Vec<Cow<'_, Expr>>, names: &mut Vec<String>) {
        for c in &s.columns {
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
                    return Err(Error::Unsupported("SELECT * requires a FROM clause".into()));
                }
                for s in sources {
                    expand(s, &mut items, &mut names);
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let lt = t.to_ascii_lowercase();
                let s = sources
                    .iter()
                    .find(|s| s.name == lt)
                    .ok_or(Error::UnknownTable(lt))?;
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

/// Split an expression on top-level ANDs.
fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Bitmask of the sources an expression references. Errors on unknown /
/// ambiguous columns so classification failures surface as the same
/// errors compilation would give.
fn scope_mask(expr: &Expr, sources: &[Source]) -> Result<u64> {
    let mut mask = 0u64;
    collect_mask(expr, sources, &mut mask)?;
    Ok(mask)
}

fn collect_mask(expr: &Expr, sources: &[Source], mask: &mut u64) -> Result<()> {
    match expr {
        Expr::Literal(_) => {}
        Expr::Column {
            table: Some(t),
            name,
        } => {
            let i = sources
                .iter()
                .position(|s| s.name == *t)
                .ok_or_else(|| Error::UnknownTable(t.clone()))?;
            if !sources[i].has_column(name) {
                return Err(Error::UnknownColumn(format!("{t}.{name}")));
            }
            *mask |= 1 << i;
        }
        Expr::Column { table: None, name } => {
            let mut owners = (0..sources.len()).filter(|&i| sources[i].has_column(name));
            let i = owners
                .next()
                .ok_or_else(|| Error::UnknownColumn(name.clone()))?;
            if owners.next().is_some() {
                return Err(Error::AmbiguousColumn(name.clone()));
            }
            *mask |= 1 << i;
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_mask(expr, sources, mask)?,
        Expr::Binary { left, right, .. } => {
            collect_mask(left, sources, mask)?;
            collect_mask(right, sources, mask)?;
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_mask(a, sources, mask)?;
            }
        }
        Expr::Case { whens, else_expr } => {
            for (c, r) in whens {
                collect_mask(c, sources, mask)?;
                collect_mask(r, sources, mask)?;
            }
            if let Some(e) = else_expr {
                collect_mask(e, sources, mask)?;
            }
        }
    }
    Ok(())
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

/// Classify WHERE over `sources`: single-table conjuncts filter their
/// table before it joins, an equality between the prefix and the next
/// table becomes a hash key of that stage, and whatever spans several
/// tables otherwise is a residual of the first stage that has them all.
fn plan_chain(
    sources: Vec<Source>,
    resolver: &ColumnResolver,
    where_clause: Option<&Expr>,
) -> Result<Chain> {
    // Aggregates in WHERE are rejected by the analyze pass up front and
    // again by `compile` when the predicates are lowered.
    let conjuncts = where_clause.map(split_conjuncts).unwrap_or_default();
    if sources.is_empty() {
        if !conjuncts.is_empty() {
            return Err(Error::Unsupported("WHERE requires a FROM clause".into()));
        }
        return Ok(Chain::default());
    }
    if sources.len() > 64 {
        return Err(Error::Unsupported("more than 64 tables in FROM".into()));
    }

    let mut table_filters: Vec<Vec<&Expr>> = vec![Vec::new(); sources.len()];
    // (conjunct, mask) spanning several tables; `None` once placed.
    let mut pending: Vec<Option<(&Expr, u64)>> = Vec::new();
    for c in conjuncts {
        let mask = scope_mask(c, &sources)?;
        match mask.count_ones() {
            0 => table_filters[0].push(c),
            1 => table_filters[mask.trailing_zeros() as usize].push(c),
            _ => pending.push(Some((c, mask))),
        }
    }
    // `scope_mask` has shown every column to resolve to one source, so
    // `resolver` (over all of them) names the slots any prefix would;
    // what a table evaluates on its own rows is rebased to them.
    let compile_local = |e: &Expr, source: &Source| -> Result<CExpr> {
        let mut compiled = compile(e, resolver)?;
        compiled.rebase(source.offset);
        Ok(compiled)
    };
    let filters_of = |i: usize| -> Result<Vec<CExpr>> {
        table_filters[i]
            .iter()
            .map(|e| compile_local(e, &sources[i]))
            .collect()
    };
    let driver_filters = filters_of(0)?;

    let mut stages = Vec::with_capacity(sources.len() - 1);
    for i in 1..sources.len() {
        let filters = filters_of(i)?;

        // Equalities between the prefix and this table are hash keys.
        let this_bit: u64 = 1 << i;
        let full_prefix: u64 = (this_bit - 1) | this_bit;
        let (mut probe_keys, mut build_keys) = (Vec::new(), Vec::new());
        for slot in pending.iter_mut() {
            let Some((c, mask)) = *slot else { continue };
            if mask & this_bit == 0 || mask & !full_prefix != 0 {
                continue;
            }
            if let Expr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            {
                let lm = scope_mask(left, &sources)?;
                let rm = scope_mask(right, &sources)?;
                let (probe_side, build_side) = if lm & this_bit == 0 && rm == this_bit {
                    (left, right)
                } else if rm & this_bit == 0 && lm == this_bit {
                    (right, left)
                } else {
                    continue; // mixed sides → residual
                };
                probe_keys.push(compile(probe_side, resolver)?);
                build_keys.push(compile_local(build_side, &sources[i])?);
                *slot = None;
            }
        }

        // Whatever else became checkable with this table is a residual.
        let mut residuals = Vec::new();
        for slot in pending.iter_mut() {
            if let Some((c, mask)) = *slot {
                if mask & !full_prefix == 0 {
                    residuals.push(compile(c, resolver)?);
                    *slot = None;
                }
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
    let pk = &source.primary_key;
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
    /// rows, a built hash stage's distinct keys.
    pub fn explain(&self, counts: &[usize]) -> Vec<String> {
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
                "sink: hash aggregate ({} group key(s), {} accumulator(s)){}",
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
pub(crate) fn plan_select(provider: &dyn SchemaProvider, select: &Select) -> Result<SelectPlan> {
    let sources = resolve_sources(provider, &select.from)?;
    let projection = expand_projection(select, &sources)?;
    let resolver = resolver_over(&sources);
    let chain = plan_chain(sources, &resolver, select.where_clause.as_ref())?;
    let sink = if projection.is_aggregate {
        Sink::Aggregate(plan_aggregate(
            &projection.items,
            &select.group_by,
            select.having.as_ref(),
            &resolver,
        )?)
    } else if select.having.is_some() {
        return Err(Error::InvalidAggregate(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    } else {
        Sink::Project(compile_scalar_items(&projection, resolver)?)
    };
    let n_visible = projection.names.len();
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

/// Compile scalar items, registering each visible item's output name as
/// a lateral alias for the items after it. Hidden sort keys get none.
fn compile_scalar_items(
    projection: &Projection<'_>,
    mut resolver: ColumnResolver,
) -> Result<Vec<CExpr>> {
    let base = resolver.width();
    let mut compiled = Vec::with_capacity(projection.items.len());
    for (j, expr) in projection.items.iter().enumerate() {
        compiled.push(compile(expr, &resolver)?);
        if let Some(name) = projection.names.get(j) {
            resolver.add_lateral(name, base + j);
        }
    }
    Ok(compiled)
}

/// Where an INSERT's rows come from.
#[derive(Debug, Clone)]
pub enum InsertRows {
    /// `VALUES`: this many constant rows.
    Values(usize),
    /// `INSERT … SELECT`.
    Select(Box<SelectPlan>),
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
    /// The target (`sources[0]`) and the FROM tables, with WHERE
    /// classified as for a SELECT. Execution materializes the FROM
    /// cross product and evaluates [`UpdatePlan::predicate`] whole; the
    /// classification is what tells a coordinator whether partitioned
    /// FROM tables are co-located with the target.
    pub chain: Chain,
    /// WHERE over `[target ++ from]`.
    pub predicate: Option<CExpr>,
    /// `(target slot, value)` per SET, in order; each sees the ones before.
    pub assignments: Vec<(usize, CExpr)>,
}

/// The plan of one DELETE.
#[derive(Debug, Clone)]
pub struct DeletePlan {
    /// The target table.
    pub target: Source,
    /// WHERE over the target's columns.
    pub predicate: Option<CExpr>,
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

fn target_source(provider: &dyn SchemaProvider, table: &str) -> Result<Source> {
    let mut sources = Vec::with_capacity(1);
    push_source(&mut sources, provider, table, table)?;
    Ok(sources.pop().expect("one source pushed"))
}

/// Plan one statement against schemas. `EXPLAIN ANALYZE` runs its inner
/// statement and plans as it; plain `EXPLAIN` touches nothing.
pub fn plan_statement(provider: &dyn SchemaProvider, stmt: &Statement) -> Result<StatementPlan> {
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
                None => None,
                Some(cols) => {
                    let mut map = Vec::with_capacity(cols.len());
                    for c in cols {
                        let lc = c.to_ascii_lowercase();
                        let idx = target
                            .columns
                            .iter()
                            .position(|col| col.name == lc)
                            .ok_or_else(|| Error::UnknownColumn(c.clone()))?;
                        if map.contains(&idx) {
                            return Err(Error::DuplicateColumn(c.clone()));
                        }
                        map.push(idx);
                    }
                    Some(map)
                }
            };
            let rows = match source {
                InsertSource::Values(rows) => InsertRows::Values(rows.len()),
                InsertSource::Select(select) => {
                    InsertRows::Select(Box::new(plan_select(provider, select)?))
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
            let mut sources = vec![target_source(provider, table)?];
            for tref in from {
                push_source(&mut sources, provider, &tref.table, tref.visible_name())?;
            }
            let resolver = resolver_over(&sources);
            let chain = plan_chain(sources, &resolver, where_clause.as_ref())?;
            let predicate = where_clause
                .as_ref()
                .map(|w| compile(w, &resolver))
                .transpose()?;
            let target = &chain.sources[0];
            let assignments = assignments
                .iter()
                .map(|(col, e)| {
                    let lc = col.to_ascii_lowercase();
                    let slot = target
                        .columns
                        .iter()
                        .position(|c| c.name == lc)
                        .ok_or_else(|| Error::UnknownColumn(col.clone()))?;
                    Ok((slot, compile(e, &resolver)?))
                })
                .collect::<Result<Vec<_>>>()?;
            StatementPlan::Update(UpdatePlan {
                chain,
                predicate,
                assignments,
            })
        }
        Statement::Delete {
            table,
            where_clause,
        } => {
            let target = target_source(provider, table)?;
            let predicate = where_clause
                .as_ref()
                .map(|w| compile(w, &resolver_over(std::slice::from_ref(&target))))
                .transpose()?;
            StatementPlan::Delete(DeletePlan { target, predicate })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::SymbolicCatalog;
    use crate::ast::UnaryOp;
    use crate::parser::parse_one;

    fn sources() -> Vec<Source> {
        let mut cat = SymbolicCatalog::new();
        cat.insert(
            "y",
            Schema::keyless(vec![Column::bigint("rid"), Column::bigint("v")]).unwrap(),
        );
        cat.insert(
            "c",
            Schema::keyless(vec![Column::bigint("i"), Column::bigint("v")]).unwrap(),
        );
        let from = [
            TableRef {
                table: "y".into(),
                alias: None,
            },
            TableRef {
                table: "c".into(),
                alias: None,
            },
        ];
        resolve_sources(&cat, &from).unwrap()
    }

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
        let scopes = sources();
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
