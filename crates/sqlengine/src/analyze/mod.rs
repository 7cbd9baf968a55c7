//! Semantic analysis: everything that can be said about a statement
//! without touching data.
//!
//! [`analyze`] takes a parsed [`Statement`] and a catalog view
//! ([`SchemaProvider`]) and *plans* it ([`crate::plan::plan_statement`]):
//! the planner is the engine's one front end, so every table and column
//! that resolves, every projection that expands, every group key,
//! aggregate placement, function arity and INSERT column map that holds
//! is decided by the code that will run the statement, and reported in
//! its words ([`AnalyzeError`]: what, in which clause). On the plan the
//! analyzer then reads what planning does not need: the static type of
//! every compiled expression ([`crate::expr::CExpr::ty`], over the
//! sources' declared column types — string arithmetic, a value that can
//! never be stored in its target column) and the statement's
//! [`Complexity`] against the configured [`Limits`] — the static
//! counterpart of the DBMS parser limits that motivate SQLEM's hybrid
//! strategy (paper §1.3, §3.3). On success it returns a [`Report`]: the
//! measurement, for SELECTs the output schema, and the plan itself, so
//! a caller that goes on to run or print the statement does not plan it
//! again.
//!
//! The pass is *exact* with respect to the executor by construction: the
//! plan it accepts is the plan that runs, so a statement the executor
//! would run is never rejected for its shape, and an accepted statement
//! only fails at runtime for data-dependent reasons (division by zero,
//! non-integral DOUBLE→BIGINT coercion, a string reached through an
//! untyped arm, …). The type pass runs here only — at prepare time, for
//! ad hoc statements, `EXPLAIN` and pre-flight — never when a prepared
//! statement executes.
//!
//! [`SymbolicCatalog`] supports linting scripts that create their own
//! tables: DDL is replayed against an in-memory schema map, so a
//! generated script can be validated end-to-end before any of it runs
//! — this is what the SQLEM pre-flight linter builds on.

mod error;

pub use crate::expr::Ty;
pub use error::{AnalyzeError, AnalyzeErrorKind, Clause, Metric};
pub(crate) use error::{Checked, Planned};

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{Expr, InsertSource, Select, SelectItem, Statement};
use crate::catalog::Catalog;
use crate::exec::aggregate::AggPlan;
use crate::expr::CExpr;
use crate::plan::{
    plan_statement, Chain, InsertRows, Join, SelectPlan, Sink, Source, StatementPlan,
};
use crate::schema::{Column, Schema};

/// Read-only view of table schemas the analyzer resolves names against.
/// A schema is shared: a plan holds the schemas of the tables it was made
/// on, and so can tell by a pointer compare that they are still current.
pub trait SchemaProvider {
    /// Schema of `name` (lowercase lookup), or `None` if absent.
    fn table_schema(&self, name: &str) -> Option<&Arc<Schema>>;
}

impl SchemaProvider for Catalog {
    fn table_schema(&self, name: &str) -> Option<&Arc<Schema>> {
        self.table(name).ok().map(|t| t.shared_schema())
    }
}

/// A schema-only catalog for symbolic DDL replay.
///
/// Feed it the statements of a script in order via
/// [`SymbolicCatalog::apply`]: CREATE/DROP TABLE update the schema map
/// (with the executor's `IF [NOT] EXISTS` semantics), every other
/// statement is analyzed against the schemas accumulated so far. No
/// rows are ever materialized.
#[derive(Debug, Default, Clone)]
pub struct SymbolicCatalog {
    tables: HashMap<String, Arc<Schema>>,
}

impl SymbolicCatalog {
    /// Empty symbolic catalog.
    pub fn new() -> Self {
        SymbolicCatalog::default()
    }

    /// Start from the schemas of an existing catalog.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let tables = catalog
            .table_names()
            .iter()
            .filter_map(|n| catalog.table_schema(n).map(|s| (n.to_string(), s.clone())))
            .collect();
        SymbolicCatalog { tables }
    }

    /// Register a table schema directly.
    pub fn insert(&mut self, name: &str, schema: Schema) {
        self.tables
            .insert(name.to_ascii_lowercase(), Arc::new(schema));
    }

    /// Does a table with this name exist symbolically?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Iterate over every `(name, schema)` pair, in no particular order —
    /// the serialization hook the wire protocol uses to ship a snapshot
    /// to remote clients.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Schema)> {
        self.tables.iter().map(|(n, s)| (n.as_str(), &**s))
    }

    /// Analyze `stmt` against the current symbolic state, then apply its
    /// DDL effect (create/drop) so later statements see it.
    pub fn apply(&mut self, stmt: &Statement, limits: &Limits) -> Result<Report, AnalyzeError> {
        let report = analyze(self, stmt, limits)?;
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                if_not_exists,
            } => {
                let lname = name.to_ascii_lowercase();
                if !(self.contains(&lname) && *if_not_exists) {
                    // analyze() already validated the definition.
                    let cols = columns
                        .iter()
                        .map(|c| Column::new(c.name.clone(), c.ty))
                        .collect();
                    let pk: Vec<&str> = primary_key.iter().map(String::as_str).collect();
                    let schema = Schema::new(cols, &pk).map_err(|_| {
                        AnalyzeError::new(
                            AnalyzeErrorKind::Unsupported("invalid CREATE TABLE definition".into()),
                            Clause::Ddl,
                        )
                    })?;
                    self.tables.insert(lname, Arc::new(schema));
                }
            }
            Statement::DropTable { name, .. } => {
                self.tables.remove(&name.to_ascii_lowercase());
            }
            _ => {}
        }
        Ok(report)
    }
}

impl SchemaProvider for SymbolicCatalog {
    fn table_schema(&self, name: &str) -> Option<&Arc<Schema>> {
        self.tables.get(&name.to_ascii_lowercase())
    }
}

/// Complexity ceilings a statement must stay under.
///
/// The defaults are generous enough for every statement the SQLEM
/// generators emit at practical problem sizes; tighten them to model a
/// real DBMS parser (the paper's Teradata client died around
/// `k·p ≈ 1000` terms, §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum leaf terms (column refs + literals) per statement.
    pub max_terms: usize,
    /// Maximum expression nesting depth.
    pub max_depth: usize,
    /// Maximum column-list width (projection, CREATE TABLE, INSERT).
    pub max_columns: usize,
    /// Maximum tables in one FROM clause (the executor's join pipeline
    /// uses a 64-bit scope mask, so it hard-fails above 64).
    pub max_tables: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_terms: 16 * 1024,
            max_depth: 256,
            max_columns: 1024,
            max_tables: 64,
        }
    }
}

impl Limits {
    /// No ceilings at all (used for EXPLAIN, which must *report*
    /// predicted overflow rather than fail on it).
    pub fn unbounded() -> Self {
        Limits {
            max_terms: usize::MAX,
            max_depth: usize::MAX,
            max_columns: usize::MAX,
            max_tables: usize::MAX,
        }
    }
}

/// Measured complexity of one statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Complexity {
    /// Leaf terms: column references + literals across every expression.
    pub terms: usize,
    /// Maximum expression nesting depth.
    pub depth: usize,
    /// Widest column list (projection width, CREATE TABLE columns,
    /// INSERT row width, UPDATE assignment count).
    pub columns: usize,
    /// Tables referenced in FROM clauses.
    pub tables: usize,
    /// Statement text size, when the source string is known (filled in
    /// by the engine; AST-only analysis leaves it `None`).
    pub bytes: Option<usize>,
}

impl Complexity {
    /// First metric exceeding `limits`, if any.
    pub fn check(&self, limits: &Limits) -> Result<(), AnalyzeError> {
        let over = |metric, value: usize, limit: usize| {
            AnalyzeError::new(
                AnalyzeErrorKind::TooComplex {
                    metric,
                    value,
                    limit,
                },
                Clause::Statement,
            )
        };
        if self.terms > limits.max_terms {
            return Err(over(Metric::Terms, self.terms, limits.max_terms));
        }
        if self.depth > limits.max_depth {
            return Err(over(Metric::Depth, self.depth, limits.max_depth));
        }
        if self.columns > limits.max_columns {
            return Err(over(Metric::Columns, self.columns, limits.max_columns));
        }
        if self.tables > limits.max_tables {
            return Err(over(Metric::Tables, self.tables, limits.max_tables));
        }
        Ok(())
    }

    /// One-line human-readable summary (used by EXPLAIN).
    pub fn summary(&self) -> String {
        let bytes = match self.bytes {
            Some(b) => format!(", {b} byte(s)"),
            None => String::new(),
        };
        format!(
            "analysis: {} term(s), depth {}, {} column(s), {} table(s){}",
            self.terms, self.depth, self.columns, self.tables, bytes
        )
    }

    fn absorb_expr(&mut self, e: &Expr) {
        self.terms += expr_terms(e);
        self.depth = self.depth.max(expr_depth(e));
    }
}

/// Leaf-operand count of an expression: every column reference and
/// literal counts one; `count(*)` counts one.
fn expr_terms(e: &Expr) -> usize {
    match e {
        Expr::Literal(_) | Expr::Column { .. } => 1,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_terms(expr),
        Expr::Binary { left, right, .. } => expr_terms(left) + expr_terms(right),
        Expr::Func { args, .. } => {
            if args.is_empty() {
                1
            } else {
                args.iter().map(expr_terms).sum()
            }
        }
        Expr::Case { whens, else_expr } => {
            whens
                .iter()
                .map(|(c, r)| expr_terms(c) + expr_terms(r))
                .sum::<usize>()
                + else_expr.as_deref().map(expr_terms).unwrap_or(0)
        }
    }
}

/// Nesting depth of an expression (leaves are depth 1).
fn expr_depth(e: &Expr) -> usize {
    1 + match e {
        Expr::Literal(_) | Expr::Column { .. } => 0,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_depth(expr),
        Expr::Binary { left, right, .. } => expr_depth(left).max(expr_depth(right)),
        Expr::Func { args, .. } => args.iter().map(expr_depth).max().unwrap_or(0),
        Expr::Case { whens, else_expr } => whens
            .iter()
            .map(|(c, r)| expr_depth(c).max(expr_depth(r)))
            .max()
            .unwrap_or(0)
            .max(else_expr.as_deref().map(expr_depth).unwrap_or(0)),
    }
}

/// The result of analyzing one statement.
#[derive(Debug, Clone)]
pub struct Report {
    /// Measured complexity.
    pub complexity: Complexity,
    /// For SELECT (and EXPLAIN SELECT): inferred output columns.
    pub output: Option<Vec<(String, Ty)>>,
    /// The plan the statement was checked on — [`plan_statement`]'s for
    /// the same statement and schemas (so `Utility` for plain EXPLAIN).
    pub plan: StatementPlan,
}

/// Analyze one statement against `provider`, enforcing `limits`.
///
/// Returns a [`Report`] on success, or the first [`AnalyzeError`]
/// found. Errors carry no byte position — attach one afterwards with
/// [`AnalyzeError::locate`] when the source text is at hand.
pub fn analyze(
    provider: &dyn SchemaProvider,
    stmt: &Statement,
    limits: &Limits,
) -> Result<Report, AnalyzeError> {
    match stmt {
        // EXPLAIN reports predicted overflow instead of failing on it,
        // and runs nothing.
        Statement::Explain(inner) => {
            let mut report = analyze(provider, inner, &Limits::unbounded())?;
            report.plan = StatementPlan::Utility;
            return Ok(report);
        }
        Statement::ExplainAnalyze(inner) => return analyze(provider, inner, limits),
        _ => {}
    }
    check_ddl(provider, stmt)?;
    let plan = plan_statement(provider, stmt)?;
    let output = check_types(&plan)?;
    let complexity = measure(stmt, &plan);
    complexity.check(limits)?;
    Ok(Report {
        complexity,
        output,
        plan,
    })
}

/// CREATE / DROP TABLE have no plan; what can be wrong with them is
/// checked here, against the executor's `IF [NOT] EXISTS` semantics.
fn check_ddl(provider: &dyn SchemaProvider, stmt: &Statement) -> Result<(), AnalyzeError> {
    let ddl = |kind: AnalyzeErrorKind| Err(kind.at(Clause::Ddl));
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            primary_key,
            if_not_exists,
        } => {
            if provider.table_schema(name).is_some() && !*if_not_exists {
                return ddl(AnalyzeErrorKind::DuplicateTable(name.to_ascii_lowercase()));
            }
            let mut seen: Vec<&str> = Vec::with_capacity(columns.len());
            for c in columns {
                if seen.contains(&c.name.as_str()) {
                    return ddl(AnalyzeErrorKind::DuplicateColumn(c.name.clone()));
                }
                seen.push(&c.name);
            }
            let mut pk_seen: Vec<String> = Vec::with_capacity(primary_key.len());
            for k in primary_key {
                let lk = k.to_ascii_lowercase();
                if !seen.iter().any(|c| **c == *lk) {
                    return ddl(AnalyzeErrorKind::UnknownColumn(lk));
                }
                if pk_seen.contains(&lk) {
                    return ddl(AnalyzeErrorKind::DuplicateColumn(lk));
                }
                pk_seen.push(lk);
            }
        }
        Statement::DropTable { name, if_exists }
            if provider.table_schema(name).is_none() && !*if_exists =>
        {
            return ddl(AnalyzeErrorKind::UnknownTable(name.to_ascii_lowercase()));
        }
        _ => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The type pass: CExpr::ty over every expression of a plan
// ---------------------------------------------------------------------

/// Declared column types of `sources`, in joined-row slot order.
fn slot_types(sources: &[Source]) -> Vec<Ty> {
    let columns = sources.iter().flat_map(|s| s.columns());
    columns.map(|c| Ty::of(c.ty)).collect()
}

fn type_in(clause: Clause, e: &CExpr, slots: &[Ty]) -> Result<Ty, AnalyzeError> {
    e.ty(slots).map_err(|k| k.at(clause))
}

/// `ty` cannot be stored in `column`; `what` describes the value.
fn unstorable(what: String, column: &Column, clause: Clause) -> AnalyzeError {
    let context = format!("cannot store {what} into {} {:?}", column.name, column.ty);
    AnalyzeErrorKind::TypeMismatch { context }.at(clause)
}

/// Type every expression of `plan`; for a SELECT, the output schema.
fn check_types(plan: &StatementPlan) -> Result<Option<Vec<(String, Ty)>>, AnalyzeError> {
    match plan {
        StatementPlan::Utility => {}
        StatementPlan::Select(select) => return select_types(select).map(Some),
        StatementPlan::Insert(insert) => {
            let column = |j: usize| &insert.target.columns()[insert.target_slot(j)];
            match &insert.rows {
                InsertRows::Values(rows) => {
                    for (j, cell) in rows.iter().flat_map(|row| row.iter().enumerate()) {
                        let ty = type_in(Clause::Values, cell, &[])?;
                        if !ty.storable_as(column(j).ty) {
                            return Err(unstorable(ty.to_string(), column(j), Clause::Values));
                        }
                    }
                }
                InsertRows::Select(select) => {
                    for (j, (name, ty)) in select_types(select)?.iter().enumerate() {
                        if !ty.storable_as(column(j).ty) {
                            let what = format!("{name} ({ty})");
                            return Err(unstorable(what, column(j), Clause::Statement));
                        }
                    }
                }
            }
        }
        StatementPlan::Update(update) => {
            let slots = slot_types(&update.chain.sources);
            for (slot, value) in &update.assignments {
                let ty = type_in(Clause::Set, value, &slots)?;
                let column = &update.chain.sources[0].columns()[*slot];
                if !ty.storable_as(column.ty) {
                    return Err(unstorable(ty.to_string(), column, Clause::Set));
                }
            }
            chain_types(&update.chain, &slots)?;
        }
        StatementPlan::Delete(delete) => {
            chain_types(&delete.chain, &slot_types(&delete.chain.sources))?;
        }
    }
    Ok(None)
}

/// Type a SELECT: WHERE where the chain put its conjuncts, then the sink.
fn select_types(plan: &SelectPlan) -> Result<Vec<(String, Ty)>, AnalyzeError> {
    let mut slots = slot_types(&plan.chain.sources);
    chain_types(&plan.chain, &slots)?;
    let item_types = match &plan.sink {
        Sink::Aggregate(agg) => aggregate_types(agg, plan.output_names.len(), &slots)?,
        // Item `j` lands in slot `width + j`, where later items read it.
        Sink::Project(items) => {
            let base = slots.len();
            for (j, item) in items.iter().enumerate() {
                let clause = Clause::of_item(j, plan.output_names.len());
                slots.push(type_in(clause, item, &slots)?);
            }
            slots.split_off(base)
        }
    };
    Ok(plan.output_names.iter().cloned().zip(item_types).collect())
}

/// WHERE as the chain holds it: a table's own filters and build keys
/// read that table's slots, everything else the joined row's.
fn chain_types(chain: &Chain, slots: &[Ty]) -> Result<(), AnalyzeError> {
    let in_where = |e: &CExpr, slots: &[Ty]| type_in(Clause::Where, e, slots).map(drop);
    for (i, source) in chain.sources.iter().enumerate() {
        let own = &slots[source.offset..source.offset + source.arity()];
        chain.filters(i).iter().try_for_each(|e| in_where(e, own))?;
        let Some(stage) = i.checked_sub(1).map(|i| &chain.stages[i]) else {
            continue;
        };
        if let Join::Hash {
            probe_keys,
            build_keys,
            ..
        } = &stage.join
        {
            probe_keys.iter().try_for_each(|e| in_where(e, slots))?;
            build_keys.iter().try_for_each(|e| in_where(e, own))?;
        }
        stage
            .residuals
            .iter()
            .try_for_each(|e| in_where(e, slots))?;
    }
    Ok(())
}

/// Type an aggregate sink: keys and accumulator arguments over the base
/// row, items and HAVING over `[keys…, aggs…]`. An accumulator that
/// cannot be fed is reported in the clause of the first item using it.
fn aggregate_types(agg: &AggPlan, n_visible: usize, base: &[Ty]) -> Result<Vec<Ty>, AnalyzeError> {
    let mut slots = Vec::with_capacity(agg.keys.len() + agg.aggs.len());
    for key in &agg.keys {
        slots.push(type_in(Clause::GroupBy, key, base)?);
    }
    let results: Vec<_> = agg.aggs.iter().map(|a| a.result_ty(base)).collect();
    slots.extend(results.iter().map(|r| *r.as_ref().unwrap_or(&Ty::Any)));
    let type_item = |clause: Clause, e: &CExpr| {
        let mut unfed = None;
        e.for_each_slot(&mut |slot| {
            let result = slot.checked_sub(agg.keys.len()).map(|i| &results[i]);
            if let (None, Some(Err(kind))) = (&unfed, result) {
                unfed = Some(kind.clone().at(clause));
            }
        });
        unfed.map_or_else(|| type_in(clause, e, &slots), Err)
    };
    let mut items = Vec::with_capacity(n_visible);
    for (j, item) in agg.items.iter().enumerate() {
        items.push(type_item(Clause::of_item(j, n_visible), item)?);
    }
    if let Some(h) = &agg.having {
        type_item(Clause::Having, h)?;
    }
    items.truncate(n_visible);
    Ok(items)
}

// ---------------------------------------------------------------------
// Complexity: terms and depth off the AST, widths off the plan
// ---------------------------------------------------------------------

fn absorb_select(cx: &mut Complexity, select: &Select) {
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            cx.absorb_expr(expr);
        }
    }
    let clauses = select.where_clause.iter().chain(&select.group_by);
    let order_keys = select.order_by.iter().map(|k| &k.expr);
    for e in clauses.chain(&select.having).chain(order_keys) {
        cx.absorb_expr(e);
    }
}

/// Measure `stmt`, planned as `plan`.
fn measure(stmt: &Statement, plan: &StatementPlan) -> Complexity {
    let mut cx = Complexity::default();
    match (stmt, plan) {
        (Statement::CreateTable { columns, .. }, _) => cx.columns = columns.len(),
        (Statement::Select(select), StatementPlan::Select(plan)) => {
            absorb_select(&mut cx, select);
            cx.columns = plan.output_names.len();
            cx.tables = plan.chain.sources.len();
        }
        (Statement::Insert { source, .. }, StatementPlan::Insert(plan)) => {
            cx.columns = plan.incoming_arity();
            match (source, &plan.rows) {
                (InsertSource::Values(rows), _) => {
                    rows.iter().flatten().for_each(|e| cx.absorb_expr(e))
                }
                (InsertSource::Select(select), InsertRows::Select(plan)) => {
                    absorb_select(&mut cx, select);
                    cx.tables = plan.chain.sources.len();
                }
                _ => unreachable!("an INSERT … SELECT plans as InsertRows::Select"),
            }
        }
        (
            Statement::Update {
                assignments,
                where_clause,
                ..
            },
            StatementPlan::Update(plan),
        ) => {
            cx.columns = assignments.len();
            cx.tables = plan.chain.sources.len();
            let values = assignments.iter().map(|(_, e)| e);
            values.chain(where_clause).for_each(|e| cx.absorb_expr(e));
        }
        (Statement::Delete { where_clause, .. }, _) => {
            cx.tables = 1;
            where_clause.iter().for_each(|e| cx.absorb_expr(e));
        }
        _ => {}
    }
    cx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_one;
    use crate::schema::Column;

    fn cat() -> SymbolicCatalog {
        let mut c = SymbolicCatalog::new();
        c.insert(
            "y",
            Schema::new(
                vec![
                    Column::bigint("rid"),
                    Column::bigint("v"),
                    Column::double("val"),
                ],
                &["rid", "v"],
            )
            .unwrap(),
        );
        c.insert(
            "names",
            Schema::keyless(vec![Column::varchar("label")]).unwrap(),
        );
        c
    }

    fn analyze_sql(sql: &str) -> Result<Report, AnalyzeError> {
        let stmt = parse_one(sql).unwrap();
        analyze(&cat(), &stmt, &Limits::default()).map_err(|e| e.locate(sql))
    }

    #[test]
    fn valid_select_reports_output_schema() {
        let r = analyze_sql("SELECT rid, val * 2 AS dbl FROM y WHERE v = 1").unwrap();
        assert_eq!(
            r.output,
            Some(vec![("rid".into(), Ty::Int), ("dbl".into(), Ty::Double)])
        );
        assert_eq!(r.complexity.tables, 1);
        assert!(r.complexity.terms >= 4);
    }

    #[test]
    fn unknown_column_has_position() {
        let sql = "SELECT rid FROM y WHERE nope > 1";
        let e = analyze_sql(sql).unwrap_err();
        assert_eq!(e.kind, AnalyzeErrorKind::UnknownColumn("nope".into()));
        assert_eq!(e.clause, Clause::Where);
        assert_eq!(e.pos, Some(sql.find("nope").unwrap()));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let e = analyze_sql("SELECT rid FROM y WHERE sum(val) > 1").unwrap_err();
        assert!(matches!(e.kind, AnalyzeErrorKind::AggregateMisuse(_)));
        assert_eq!(e.clause, Clause::Where);
    }

    #[test]
    fn string_arithmetic_rejected() {
        let e = analyze_sql("SELECT label + 1 FROM names").unwrap_err();
        assert!(matches!(e.kind, AnalyzeErrorKind::TypeMismatch { .. }));
    }

    #[test]
    fn mixed_comparison_is_allowed() {
        // Runtime compares mixed types as NULL — not a static error.
        analyze_sql("SELECT label FROM names WHERE label = 3").unwrap();
    }

    #[test]
    fn term_limit_enforced() {
        let stmt = parse_one("SELECT val + val + val + val FROM y").unwrap();
        let limits = Limits {
            max_terms: 3,
            ..Limits::default()
        };
        let e = analyze(&cat(), &stmt, &limits).unwrap_err();
        assert!(matches!(
            e.kind,
            AnalyzeErrorKind::TooComplex {
                metric: Metric::Terms,
                value: 4,
                limit: 3
            }
        ));
    }

    #[test]
    fn explain_skips_limit_enforcement() {
        let stmt = parse_one("EXPLAIN SELECT val + val + val + val FROM y").unwrap();
        let limits = Limits {
            max_terms: 3,
            ..Limits::default()
        };
        let r = analyze(&cat(), &stmt, &limits).unwrap();
        assert_eq!(r.complexity.terms, 4);
    }

    #[test]
    fn symbolic_ddl_replay() {
        let mut cat = SymbolicCatalog::new();
        let limits = Limits::default();
        cat.apply(
            &parse_one("CREATE TABLE w (i BIGINT PRIMARY KEY, w DOUBLE)").unwrap(),
            &limits,
        )
        .unwrap();
        cat.apply(&parse_one("SELECT sum(w) FROM w").unwrap(), &limits)
            .unwrap();
        cat.apply(&parse_one("DROP TABLE w").unwrap(), &limits)
            .unwrap();
        let e = cat
            .apply(&parse_one("SELECT 1 FROM w").unwrap(), &limits)
            .unwrap_err();
        assert_eq!(e.kind, AnalyzeErrorKind::UnknownTable("w".into()));
    }

    #[test]
    fn insert_select_arity_and_types_checked() {
        let e = analyze_sql("INSERT INTO names SELECT rid, val FROM y").unwrap_err();
        assert!(matches!(e.kind, AnalyzeErrorKind::ArityMismatch { .. }));
        let e = analyze_sql("INSERT INTO names SELECT rid FROM y").unwrap_err();
        assert!(matches!(e.kind, AnalyzeErrorKind::TypeMismatch { .. }));
        analyze_sql("INSERT INTO names VALUES ('a'), ('b')").unwrap();
    }

    #[test]
    fn lateral_alias_resolves_in_scalar_select() {
        // Fig. 5 style: later items reference earlier aliases.
        let r = analyze_sql("SELECT val AS p1, val AS p2, p1 + p2 AS sump FROM y").unwrap();
        let out = r.output.unwrap();
        assert_eq!(out[2], ("sump".into(), Ty::Double));
    }

    #[test]
    fn naked_column_outside_group_by_rejected() {
        let e = analyze_sql("SELECT v, sum(val) FROM y GROUP BY rid").unwrap_err();
        assert!(matches!(e.kind, AnalyzeErrorKind::AggregateMisuse(_)));
        analyze_sql("SELECT rid, sum(val) FROM y GROUP BY rid").unwrap();
    }
}
