//! Name resolution, type inference and aggregate-usage validation.
//!
//! The checks here mirror the executor's behaviour exactly — the goal
//! is to reject *statically* precisely what would fail at runtime, and
//! nothing that would succeed:
//!
//! * resolution follows [`crate::expr::compile::ColumnResolver`]
//!   (qualified → scope match; unqualified → unique across scopes with
//!   Teradata-style lateral aliases as fallback);
//! * types follow [`crate::expr`] evaluation: arithmetic and the
//!   numeric scalar functions reject strings, `/` and `**` widen to
//!   double, comparisons and boolean logic are total (mixed-type
//!   comparisons yield NULL at runtime, so they are *not* static
//!   errors);
//! * aggregate placement follows [`crate::exec::aggregate::plan_aggregate`]
//!   (no aggregates in WHERE or GROUP BY, no nesting, group-key
//!   subexpressions matched structurally).

use crate::ast::{is_aggregate_name, Expr, Select};
use crate::expr::ScalarFunc;
use crate::plan::{expand_projection, resolve_sources, Source};
use crate::value::{DataType, Value};

use super::error::{AnalyzeError, AnalyzeErrorKind, Clause};
use super::SchemaProvider;

/// Inferred static type of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit integer (`BIGINT`; also the type of predicates).
    Int,
    /// 64-bit float (`DOUBLE`).
    Double,
    /// String (`VARCHAR`).
    Str,
    /// Unknown / NULL-like: compatible with everything.
    Any,
}

impl Ty {
    /// The static type of a column of declared type `dt`.
    pub fn of(dt: DataType) -> Ty {
        match dt {
            DataType::BigInt => Ty::Int,
            DataType::Double => Ty::Double,
            DataType::Varchar => Ty::Str,
        }
    }

    /// Can a value of this static type ever coerce into a column of
    /// declared type `dt`? Mirrors [`Value::coerce_to`]: NULLs go
    /// anywhere, numerics interconvert (double → bigint is checked at
    /// runtime for integrality), strings only into VARCHAR.
    pub fn storable_as(self, dt: DataType) -> bool {
        matches!(
            (self, dt),
            (Ty::Any, _)
                | (Ty::Int | Ty::Double, DataType::BigInt | DataType::Double)
                | (Ty::Str, DataType::Varchar)
        )
    }

    fn is_numeric_or_any(self) -> bool {
        !matches!(self, Ty::Str)
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ty::Int => "BIGINT",
            Ty::Double => "DOUBLE",
            Ty::Str => "VARCHAR",
            Ty::Any => "NULL",
        };
        f.write_str(s)
    }
}

/// Least upper bound of two types (for CASE arms, COALESCE, …).
fn unify(a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (x, y) if x == y => x,
        (Ty::Any, x) | (x, Ty::Any) => x,
        (Ty::Int, Ty::Double) | (Ty::Double, Ty::Int) => Ty::Double,
        // Mixed string/number arms are legal at runtime (rows simply
        // carry different types); statically we only know "something".
        _ => Ty::Any,
    }
}

/// Numeric result of arithmetic over two operands.
fn arith(a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::Int, Ty::Int) => Ty::Int,
        _ => Ty::Double,
    }
}

/// One FROM-clause scope: visible table name plus typed columns.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Visible (aliased) table name, lowercase.
    pub name: String,
    /// Column names (lowercase) with declared types.
    pub cols: Vec<(String, DataType)>,
}

impl Scope {
    fn of(source: &Source) -> Scope {
        Scope {
            name: source.name.clone(),
            cols: source
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.ty))
                .collect(),
        }
    }
}

/// How aggregates are treated while checking an expression.
#[derive(Clone, Copy)]
enum AggMode<'a> {
    /// Aggregates are an error (WHERE, DML expressions, GROUP BY keys).
    Forbid(&'a str),
    /// Aggregate-query projection/HAVING/ORDER BY: aggregates allowed,
    /// naked columns must match a group key.
    Grouped(&'a [Expr]),
    /// Inside an aggregate argument: any column, no nested aggregates.
    Inside,
}

/// Expression checking context.
pub struct ExprCtx<'a> {
    scopes: &'a [Scope],
    /// Lateral aliases visible so far (non-aggregate SELECT items).
    laterals: Vec<(String, Ty)>,
}

impl<'a> ExprCtx<'a> {
    /// Context over the given FROM scopes with no lateral aliases yet.
    pub fn new(scopes: &'a [Scope]) -> Self {
        ExprCtx {
            scopes,
            laterals: Vec::new(),
        }
    }

    fn resolve(&self, table: Option<&str>, name: &str, clause: Clause) -> Result<Ty, AnalyzeError> {
        let lname = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let scope = self.scopes.iter().find(|s| s.name == lt).ok_or_else(|| {
                    AnalyzeError::new(AnalyzeErrorKind::UnknownTable(lt.clone()), clause)
                })?;
                scope
                    .cols
                    .iter()
                    .find(|(c, _)| *c == lname)
                    .map(|(_, dt)| Ty::of(*dt))
                    .ok_or_else(|| {
                        AnalyzeError::new(
                            AnalyzeErrorKind::UnknownColumn(format!("{lt}.{lname}")),
                            clause,
                        )
                    })
            }
            None => {
                let mut found = None;
                for scope in self.scopes {
                    if let Some((_, dt)) = scope.cols.iter().find(|(c, _)| *c == lname) {
                        if found.is_some() {
                            return Err(AnalyzeError::new(
                                AnalyzeErrorKind::AmbiguousColumn(lname),
                                clause,
                            ));
                        }
                        found = Some(Ty::of(*dt));
                    }
                }
                if let Some(ty) = found {
                    return Ok(ty);
                }
                self.laterals
                    .iter()
                    .find(|(a, _)| *a == lname)
                    .map(|(_, ty)| *ty)
                    .ok_or_else(|| {
                        AnalyzeError::new(AnalyzeErrorKind::UnknownColumn(lname), clause)
                    })
            }
        }
    }

    /// Rewrite column refs to their canonical `scope.column` form so
    /// group-key matching is structural, like the executor's
    /// compiled-expression comparison. `None` if anything fails to
    /// resolve (the caller reports the error through the normal path).
    fn canon(&self, e: &Expr) -> Option<Expr> {
        Some(match e {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Column { table, name } => {
                let lname = name.to_ascii_lowercase();
                let scope = match table {
                    Some(t) => {
                        let lt = t.to_ascii_lowercase();
                        let s = self.scopes.iter().find(|s| s.name == lt)?;
                        s.cols.iter().any(|(c, _)| *c == lname).then_some(())?;
                        lt
                    }
                    None => {
                        let mut owner = None;
                        for s in self.scopes {
                            if s.cols.iter().any(|(c, _)| *c == lname) {
                                if owner.is_some() {
                                    return None;
                                }
                                owner = Some(s.name.clone());
                            }
                        }
                        owner?
                    }
                };
                Expr::Column {
                    table: Some(scope),
                    name: lname,
                }
            }
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(self.canon(expr)?),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(self.canon(left)?),
                right: Box::new(self.canon(right)?),
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.to_ascii_lowercase(),
                args: args
                    .iter()
                    .map(|a| self.canon(a))
                    .collect::<Option<Vec<_>>>()?,
            },
            Expr::Case { whens, else_expr } => Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, r)| Some((self.canon(c)?, self.canon(r)?)))
                    .collect::<Option<Vec<_>>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.canon(e)?)),
                    None => None,
                },
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.canon(expr)?),
                negated: *negated,
            },
        })
    }

    fn check(&self, e: &Expr, mode: AggMode<'_>, clause: Clause) -> Result<Ty, AnalyzeError> {
        // Grouped mode, rule 1 (mirrors exec::aggregate::rewrite): an
        // aggregate-free subexpression matching a group key — or using
        // no columns at all — is checked as a plain expression.
        if let AggMode::Grouped(keys) = mode {
            if !e.contains_aggregate() {
                if let Some(c) = self.canon(e) {
                    let matches_key = keys.iter().any(|k| self.canon(k).as_ref() == Some(&c));
                    if matches_key || !contains_column(e) {
                        return self.check(e, AggMode::Forbid("GROUP BY key"), clause);
                    }
                }
            }
        }
        match e {
            Expr::Literal(v) => Ok(match v {
                Value::Null => Ty::Any,
                Value::Int(_) => Ty::Int,
                Value::Double(_) => Ty::Double,
                Value::Str(_) => Ty::Str,
            }),
            Expr::Column { table, name } => match mode {
                AggMode::Grouped(_) => {
                    let display = match table {
                        Some(t) => format!("{t}.{name}"),
                        None => name.clone(),
                    };
                    // Resolution errors take precedence over the
                    // grouping complaint.
                    self.resolve(table.as_deref(), name, clause)?;
                    Err(AnalyzeError::new(
                        AnalyzeErrorKind::AggregateMisuse(format!(
                            "column {display} must appear in GROUP BY or inside an aggregate"
                        )),
                        clause,
                    ))
                }
                _ => self.resolve(table.as_deref(), name, clause),
            },
            Expr::Unary { op, expr } => {
                let t = self.check(expr, mode, clause)?;
                match op {
                    crate::ast::UnaryOp::Neg => {
                        self.require_numeric(t, "unary -", clause)?;
                        Ok(if t == Ty::Int { Ty::Int } else { Ty::Double })
                    }
                    crate::ast::UnaryOp::Not => Ok(Ty::Int),
                }
            }
            Expr::Binary { op, left, right } => {
                let lt = self.check(left, mode, clause)?;
                let rt = self.check(right, mode, clause)?;
                use crate::ast::BinOp::*;
                match op {
                    Add | Sub | Mul => {
                        self.require_numeric(lt, &format!("operator {op}"), clause)?;
                        self.require_numeric(rt, &format!("operator {op}"), clause)?;
                        Ok(arith(lt, rt))
                    }
                    Div | Pow => {
                        self.require_numeric(lt, &format!("operator {op}"), clause)?;
                        self.require_numeric(rt, &format!("operator {op}"), clause)?;
                        Ok(Ty::Double)
                    }
                    // Comparisons and boolean connectives are total at
                    // runtime (mixed types compare as NULL; truthiness
                    // is defined for every type).
                    Eq | Neq | Lt | Le | Gt | Ge | And | Or => Ok(Ty::Int),
                }
            }
            Expr::Func { name, args } if is_aggregate_name(name) => match mode {
                AggMode::Forbid(what) => Err(AnalyzeError::new(
                    AnalyzeErrorKind::AggregateMisuse(format!(
                        "aggregates are not allowed in {what}"
                    )),
                    clause,
                )),
                AggMode::Inside => Err(AnalyzeError::new(
                    AnalyzeErrorKind::AggregateMisuse(
                        "nested aggregate calls are not allowed".into(),
                    ),
                    clause,
                )),
                AggMode::Grouped(_) => {
                    let lname = name.to_ascii_lowercase();
                    match args.len() {
                        0 if lname == "count" => Ok(Ty::Int),
                        0 => Err(AnalyzeError::new(
                            AnalyzeErrorKind::AggregateMisuse(format!(
                                "{lname}() requires an argument"
                            )),
                            clause,
                        )),
                        1 => {
                            let at = self.check(&args[0], AggMode::Inside, clause)?;
                            if matches!(
                                lname.as_str(),
                                "sum" | "avg" | "variance" | "var_pop" | "stddev" | "stddev_pop"
                            ) {
                                self.require_numeric(at, &lname, clause)?;
                            }
                            Ok(match lname.as_str() {
                                "count" => Ty::Int,
                                "min" | "max" => at,
                                "sum" => arith(at, Ty::Int),
                                _ => Ty::Double,
                            })
                        }
                        n => Err(AnalyzeError::new(
                            AnalyzeErrorKind::AggregateMisuse(format!(
                                "{lname}() takes one argument, got {n}"
                            )),
                            clause,
                        )),
                    }
                }
            },
            Expr::Func { name, args } => {
                let lname = name.to_ascii_lowercase();
                let f = ScalarFunc::from_name(&lname).ok_or_else(|| {
                    AnalyzeError::new(AnalyzeErrorKind::UnknownFunction(lname.clone()), clause)
                })?;
                let bad = match f.arity() {
                    Some(n) if args.len() != n => Some(format!("{n}")),
                    None if args.is_empty() => Some("at least 1".to_string()),
                    _ => None,
                };
                if let Some(expected) = bad {
                    return Err(AnalyzeError::new(
                        AnalyzeErrorKind::WrongArity {
                            function: lname,
                            expected,
                            actual: args.len(),
                        },
                        clause,
                    ));
                }
                let tys = args
                    .iter()
                    .map(|a| self.check(a, mode, clause))
                    .collect::<Result<Vec<_>, _>>()?;
                match f {
                    ScalarFunc::Coalesce => Ok(tys.into_iter().fold(Ty::Any, unify)),
                    ScalarFunc::Least | ScalarFunc::Greatest => {
                        Ok(tys.into_iter().fold(Ty::Any, unify))
                    }
                    _ => {
                        for t in &tys {
                            self.require_numeric(*t, &lname, clause)?;
                        }
                        Ok(Ty::Double)
                    }
                }
            }
            Expr::Case { whens, else_expr } => {
                let mut out = Ty::Any;
                for (cond, result) in whens {
                    self.check(cond, mode, clause)?;
                    out = unify(out, self.check(result, mode, clause)?);
                }
                if let Some(e) = else_expr {
                    out = unify(out, self.check(e, mode, clause)?);
                }
                Ok(out)
            }
            Expr::IsNull { expr, .. } => {
                self.check(expr, mode, clause)?;
                Ok(Ty::Int)
            }
        }
    }

    fn require_numeric(&self, t: Ty, what: &str, clause: Clause) -> Result<(), AnalyzeError> {
        if t.is_numeric_or_any() {
            Ok(())
        } else {
            Err(AnalyzeError::new(
                AnalyzeErrorKind::TypeMismatch {
                    context: format!("{what} requires numeric operands, got {t}"),
                },
                clause,
            ))
        }
    }
}

fn contains_column(e: &Expr) -> bool {
    match e {
        Expr::Column { .. } => true,
        Expr::Literal(_) => false,
        Expr::Unary { expr, .. } => contains_column(expr),
        Expr::Binary { left, right, .. } => contains_column(left) || contains_column(right),
        Expr::Func { args, .. } => args.iter().any(contains_column),
        Expr::Case { whens, else_expr } => {
            whens
                .iter()
                .any(|(c, r)| contains_column(c) || contains_column(r))
                || else_expr.as_deref().is_some_and(contains_column)
        }
        Expr::IsNull { expr, .. } => contains_column(expr),
    }
}

/// Check an expression in a context where aggregates are illegal
/// (WHERE, DML values, UPDATE SET, DELETE). Returns the inferred type.
pub fn check_plain(
    scopes: &[Scope],
    e: &Expr,
    what: &str,
    clause: Clause,
) -> Result<Ty, AnalyzeError> {
    ExprCtx::new(scopes).check(e, AggMode::Forbid(what), clause)
}

/// Carry an error of the shared planning steps ([`crate::plan`]) into
/// the clause that was being analyzed.
fn lift(e: crate::Error, clause: Clause) -> AnalyzeError {
    use crate::Error;
    let kind = match e {
        Error::UnknownTable(t) => AnalyzeErrorKind::UnknownTable(t),
        Error::DuplicateTable(t) => AnalyzeErrorKind::DuplicateTable(t),
        Error::Unsupported(m) => AnalyzeErrorKind::Unsupported(m),
        other => AnalyzeErrorKind::Unsupported(other.to_string()),
    };
    AnalyzeError::new(kind, clause)
}

/// Build FROM scopes from the schema provider, checking for duplicate
/// visible names: the planner's own resolution, typed.
pub fn build_scopes(
    provider: &dyn SchemaProvider,
    from: &[crate::ast::TableRef],
) -> Result<Vec<Scope>, AnalyzeError> {
    let sources = resolve_sources(provider, from).map_err(|e| lift(e, Clause::From))?;
    Ok(sources.iter().map(Scope::of).collect())
}

/// Full semantic check of a SELECT; returns the output schema as
/// `(name, type)` pairs (wildcards expanded).
pub fn check_select(
    provider: &dyn SchemaProvider,
    select: &Select,
) -> Result<Vec<(String, Ty)>, AnalyzeError> {
    let sources = resolve_sources(provider, &select.from).map_err(|e| lift(e, Clause::From))?;
    let scopes: Vec<Scope> = sources.iter().map(Scope::of).collect();

    // Wildcards, ORDER BY's view of output aliases and "is this an
    // aggregate" are the planner's, so the check sees the statement the
    // executor will run.
    let projection =
        expand_projection(select, &sources).map_err(|e| lift(e, Clause::Projection))?;
    let output_names = &projection.names;
    let (item_exprs, order_exprs) = projection.items.split_at(output_names.len());

    // WHERE: no aggregates, no lateral aliases.
    if let Some(w) = &select.where_clause {
        check_plain(&scopes, w, "WHERE", Clause::Where)?;
    }

    let mut out: Vec<(String, Ty)> = Vec::with_capacity(item_exprs.len());
    if projection.is_aggregate {
        let ctx = ExprCtx::new(&scopes);
        for key in &select.group_by {
            if key.contains_aggregate() {
                return Err(AnalyzeError::new(
                    AnalyzeErrorKind::AggregateMisuse(
                        "aggregates are not allowed in GROUP BY".into(),
                    ),
                    Clause::GroupBy,
                ));
            }
            ctx.check(key, AggMode::Forbid("GROUP BY"), Clause::GroupBy)?;
        }
        for (e, name) in item_exprs.iter().zip(output_names) {
            let ty = ctx.check(e, AggMode::Grouped(&select.group_by), Clause::Projection)?;
            out.push((name.clone(), ty));
        }
        if let Some(h) = &select.having {
            ctx.check(h, AggMode::Grouped(&select.group_by), Clause::Having)?;
        }
        for e in order_exprs {
            ctx.check(e, AggMode::Grouped(&select.group_by), Clause::OrderBy)?;
        }
    } else {
        if select.having.is_some() {
            return Err(AnalyzeError::new(
                AnalyzeErrorKind::AggregateMisuse("HAVING requires GROUP BY or aggregates".into()),
                Clause::Having,
            ));
        }
        // Scalar path: items are checked left to right, each alias
        // becoming visible to later items (Teradata lateral aliases).
        let mut ctx = ExprCtx::new(&scopes);
        for (e, name) in item_exprs.iter().zip(output_names) {
            let ty = ctx.check(e, AggMode::Forbid("SELECT"), Clause::Projection)?;
            ctx.laterals.push((name.clone(), ty));
            out.push((name.clone(), ty));
        }
        for e in order_exprs {
            ctx.check(e, AggMode::Forbid("ORDER BY"), Clause::OrderBy)?;
        }
    }
    Ok(out)
}
