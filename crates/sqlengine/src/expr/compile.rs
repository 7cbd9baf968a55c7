//! Name resolution: AST expressions → compiled [`CExpr`].

use std::collections::HashMap;

use crate::ast::{is_aggregate_name, Expr};
use crate::error::{Error, Result};
use crate::expr::{CExpr, ScalarFunc};
use crate::value::Value;

/// One visible table (or derived input) during compilation: its visible
/// name, its column names, and the offset of its first column in the
/// operator's concatenated input row.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Visible name (alias if the FROM clause gave one), lowercase.
    pub name: String,
    /// Column names in order, lowercase.
    pub columns: Vec<String>,
    /// Slot of the first column in the input row.
    pub offset: usize,
}

/// Resolves column references to input-row slots.
///
/// Resolution: a qualified reference `t.c` must match scope `t`; an
/// unqualified `c` must match exactly one column across all scopes, falling
/// back to *lateral aliases* (earlier SELECT-list items, Teradata-style —
/// see Fig. 5's `p1+p2+…+pk AS sump`) only when no base column matches.
#[derive(Debug, Default, Clone)]
pub struct ColumnResolver {
    scopes: Vec<Scope>,
    laterals: HashMap<String, usize>,
}

impl ColumnResolver {
    /// Empty resolver (constants only).
    pub fn new() -> Self {
        ColumnResolver::default()
    }

    /// Build from a list of `(visible_name, column_names)` pairs; offsets
    /// are assigned by concatenation order.
    pub fn from_tables(tables: &[(String, Vec<String>)]) -> Self {
        let mut r = ColumnResolver::new();
        for (name, cols) in tables {
            r.push_scope(name.clone(), cols.clone());
        }
        r
    }

    /// Append a scope after the existing ones.
    pub fn push_scope(&mut self, mut name: String, mut columns: Vec<String>) {
        let offset = self.width();
        name.make_ascii_lowercase();
        columns.iter_mut().for_each(|c| c.make_ascii_lowercase());
        self.scopes.push(Scope {
            name,
            columns,
            offset,
        });
    }

    /// Register a lateral alias at `slot` (slots beyond the base width).
    pub fn add_lateral(&mut self, name: &str, slot: usize) {
        self.laterals.insert(name.to_ascii_lowercase(), slot);
    }

    /// Total number of base slots.
    pub fn width(&self) -> usize {
        self.scopes
            .last()
            .map(|s| s.offset + s.columns.len())
            .unwrap_or(0)
    }

    /// All scopes, in input-row order.
    pub fn scopes(&self) -> &[Scope] {
        &self.scopes
    }

    /// Resolve a reference to a slot.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let lname = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let scope = self
                    .scopes
                    .iter()
                    .find(|s| s.name == lt)
                    .ok_or_else(|| Error::UnknownTable(lt.clone()))?;
                scope
                    .columns
                    .iter()
                    .position(|c| *c == lname)
                    .map(|i| scope.offset + i)
                    .ok_or_else(|| Error::UnknownColumn(format!("{lt}.{lname}")))
            }
            None => {
                let mut found = None;
                for scope in &self.scopes {
                    if let Some(i) = scope.columns.iter().position(|c| *c == lname) {
                        if found.is_some() {
                            return Err(Error::AmbiguousColumn(lname));
                        }
                        found = Some(scope.offset + i);
                    }
                }
                if let Some(slot) = found {
                    return Ok(slot);
                }
                self.laterals
                    .get(&lname)
                    .copied()
                    .ok_or(Error::UnknownColumn(lname))
            }
        }
    }
}

/// Compile an AST expression against a resolver. Aggregate function calls
/// are rejected — the planner must have rewritten them into column
/// references over aggregate outputs before calling this.
pub fn compile(expr: &Expr, resolver: &ColumnResolver) -> Result<CExpr> {
    match expr {
        Expr::Literal(v) => Ok(CExpr::Const(v.clone())),
        Expr::Column { table, name } => resolver.resolve(table.as_deref(), name).map(CExpr::Col),
        Expr::Unary { op, expr } => Ok(CExpr::Unary(*op, Box::new(compile(expr, resolver)?))),
        Expr::Binary { op, left, right } => Ok(CExpr::Binary(
            *op,
            Box::new(compile(left, resolver)?),
            Box::new(compile(right, resolver)?),
        )),
        Expr::Func { name, args } => {
            if is_aggregate_name(name) {
                return Err(Error::InvalidAggregate(format!(
                    "aggregate {name}() not allowed in this context"
                )));
            }
            let f = ScalarFunc::from_name(name)
                .ok_or_else(|| Error::Unsupported(format!("unknown function {name}()")))?;
            if let Some(expected) = f.arity() {
                if args.len() != expected {
                    return Err(Error::Unsupported(format!(
                        "{name}() takes {expected} argument(s), got {}",
                        args.len()
                    )));
                }
            } else if args.is_empty() {
                return Err(Error::Unsupported(format!(
                    "{name}() requires at least one argument"
                )));
            }
            let cargs = args
                .iter()
                .map(|a| compile(a, resolver))
                .collect::<Result<Vec<_>>>()?;
            Ok(CExpr::Func(f, cargs))
        }
        Expr::Case { whens, else_expr } => {
            let cwhens = whens
                .iter()
                .map(|(c, r)| Ok((compile(c, resolver)?, compile(r, resolver)?)))
                .collect::<Result<Vec<_>>>()?;
            let celse = match else_expr {
                Some(e) => Some(Box::new(compile(e, resolver)?)),
                None => None,
            };
            Ok(CExpr::Case {
                whens: cwhens,
                else_expr: celse,
            })
        }
        Expr::IsNull { expr, negated } => {
            Ok(CExpr::IsNull(Box::new(compile(expr, resolver)?), *negated))
        }
    }
}

/// Compile an expression that must be constant (INSERT VALUES items) and
/// evaluate it immediately.
pub fn compile_constant(expr: &Expr) -> Result<Value> {
    let compiled = compile(expr, &ColumnResolver::new())?;
    compiled.eval(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    fn resolver() -> ColumnResolver {
        ColumnResolver::from_tables(&[
            ("y".into(), vec!["rid".into(), "y1".into(), "y2".into()]),
            ("c".into(), vec!["i".into(), "y1".into(), "y2".into()]),
        ])
    }

    #[test]
    fn qualified_resolution() {
        let r = resolver();
        assert_eq!(r.resolve(Some("y"), "y1").unwrap(), 1);
        assert_eq!(r.resolve(Some("c"), "y1").unwrap(), 4);
        assert_eq!(r.resolve(Some("C"), "I").unwrap(), 3);
    }

    #[test]
    fn unqualified_unique_resolution() {
        let r = resolver();
        assert_eq!(r.resolve(None, "rid").unwrap(), 0);
        assert_eq!(r.resolve(None, "i").unwrap(), 3);
    }

    #[test]
    fn ambiguous_unqualified_rejected() {
        let r = resolver();
        assert_eq!(
            r.resolve(None, "y1").unwrap_err(),
            Error::AmbiguousColumn("y1".into())
        );
    }

    #[test]
    fn unknown_names_rejected() {
        let r = resolver();
        assert!(matches!(
            r.resolve(Some("z"), "y1").unwrap_err(),
            Error::UnknownTable(_)
        ));
        assert!(matches!(
            r.resolve(Some("y"), "zzz").unwrap_err(),
            Error::UnknownColumn(_)
        ));
        assert!(matches!(
            r.resolve(None, "zzz").unwrap_err(),
            Error::UnknownColumn(_)
        ));
    }

    #[test]
    fn lateral_alias_used_only_when_base_misses() {
        let mut r = resolver();
        r.add_lateral("sump", 10);
        r.add_lateral("rid", 11); // shadowed by the base column
        assert_eq!(r.resolve(None, "sump").unwrap(), 10);
        assert_eq!(r.resolve(None, "rid").unwrap(), 0);
    }

    #[test]
    fn compile_resolves_and_preserves_structure() {
        let r = resolver();
        let e = Expr::bin(BinOp::Sub, Expr::qcol("y", "y1"), Expr::qcol("c", "y1"));
        let c = compile(&e, &r).unwrap();
        assert_eq!(
            c,
            CExpr::Binary(BinOp::Sub, Box::new(CExpr::Col(1)), Box::new(CExpr::Col(4)))
        );
    }

    #[test]
    fn aggregates_rejected_by_compile() {
        let r = resolver();
        let e = Expr::Func {
            name: "sum".into(),
            args: vec![Expr::qcol("y", "y1")],
        };
        assert!(matches!(
            compile(&e, &r).unwrap_err(),
            Error::InvalidAggregate(_)
        ));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = Expr::Func {
            name: "frobnicate".into(),
            args: vec![Expr::int(1)],
        };
        assert!(matches!(
            compile(&e, &ColumnResolver::new()).unwrap_err(),
            Error::Unsupported(_)
        ));
    }

    #[test]
    fn arity_checked_for_scalar_functions() {
        let e = Expr::Func {
            name: "exp".into(),
            args: vec![Expr::int(1), Expr::int(2)],
        };
        assert!(compile(&e, &ColumnResolver::new()).is_err());
        let p = Expr::Func {
            name: "power".into(),
            args: vec![Expr::int(2)],
        };
        assert!(compile(&p, &ColumnResolver::new()).is_err());
    }

    #[test]
    fn compile_constant_evaluates() {
        let e = Expr::bin(BinOp::Mul, Expr::num(2.0), Expr::num(3.0));
        assert_eq!(compile_constant(&e).unwrap(), Value::Double(6.0));
        // Column refs are not constant.
        assert!(compile_constant(&Expr::col("x")).is_err());
    }

    #[test]
    fn width_tracks_scopes() {
        let r = resolver();
        assert_eq!(r.width(), 6);
        assert_eq!(ColumnResolver::new().width(), 0);
    }
}
