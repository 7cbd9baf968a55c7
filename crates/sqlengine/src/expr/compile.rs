//! Name resolution: AST expressions → compiled [`CExpr`].

use std::collections::HashMap;

use crate::analyze::{AnalyzeErrorKind, Checked};
use crate::ast::{is_aggregate_name, Expr};
use crate::expr::{CExpr, ScalarFunc};
use crate::plan::Source;

/// Resolves column references to slots of the joined row of `sources`.
///
/// Resolution: a qualified reference `t.c` must match source `t`; an
/// unqualified `c` must match exactly one column across all sources, falling
/// back to *lateral aliases* (earlier SELECT-list items, Teradata-style —
/// see Fig. 5's `p1+p2+…+pk AS sump`) only when no base column matches.
#[derive(Debug, Clone)]
pub struct ColumnResolver<'a> {
    sources: &'a [Source],
    laterals: HashMap<String, usize>,
}

impl<'a> ColumnResolver<'a> {
    /// A resolver over `sources` (none: constants only), no lateral
    /// aliases yet.
    pub fn new(sources: &'a [Source]) -> Self {
        ColumnResolver {
            sources,
            laterals: HashMap::new(),
        }
    }

    /// Register a lateral alias at `slot` (slots beyond the base width).
    pub fn add_lateral(&mut self, name: &str, slot: usize) {
        self.laterals.insert(name.to_ascii_lowercase(), slot);
    }

    /// Total number of base slots.
    pub fn width(&self) -> usize {
        self.sources.last().map_or(0, |s| s.offset + s.arity())
    }

    /// Resolve a reference to a slot.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Checked<usize> {
        let lname = name.to_ascii_lowercase();
        let slot_in = |s: &Source| {
            let i = s.columns().iter().position(|c| c.name == lname)?;
            Some(s.offset + i)
        };
        match table {
            Some(t) => {
                let lt = t.to_ascii_lowercase();
                let source = self
                    .sources
                    .iter()
                    .find(|s| s.name == lt)
                    .ok_or_else(|| AnalyzeErrorKind::UnknownTable(lt.clone()))?;
                slot_in(source)
                    .ok_or_else(|| AnalyzeErrorKind::UnknownColumn(format!("{lt}.{lname}")))
            }
            None => {
                let mut owners = self.sources.iter().filter_map(slot_in);
                match (owners.next(), owners.next()) {
                    (Some(_), Some(_)) => Err(AnalyzeErrorKind::AmbiguousColumn(lname)),
                    (Some(slot), None) => Ok(slot),
                    _ => self
                        .laterals
                        .get(&lname)
                        .copied()
                        .ok_or(AnalyzeErrorKind::UnknownColumn(lname)),
                }
            }
        }
    }
}

/// The scalar function `name` called with `n_args` arguments.
pub(crate) fn scalar_func(name: &str, n_args: usize) -> Checked<ScalarFunc> {
    let function = name.to_ascii_lowercase();
    let f = ScalarFunc::from_name(&function)
        .ok_or_else(|| AnalyzeErrorKind::UnknownFunction(function.clone()))?;
    let expected = match f.arity() {
        Some(n) if n_args != n => n.to_string(),
        None if n_args == 0 => "at least 1".to_string(),
        _ => return Ok(f),
    };
    Err(AnalyzeErrorKind::WrongArity {
        function,
        expected,
        actual: n_args,
    })
}

/// Compile an AST expression against a resolver. Aggregate function calls
/// are rejected — where they are allowed the planner has rewritten them
/// into column references over aggregate outputs before calling this.
pub fn compile(expr: &Expr, resolver: &ColumnResolver<'_>) -> Checked<CExpr> {
    let sub = |e: &Expr| compile(e, resolver);
    Ok(match expr {
        Expr::Literal(v) => CExpr::Const(v.clone()),
        Expr::Column { table, name } => CExpr::Col(resolver.resolve(table.as_deref(), name)?),
        Expr::Unary { op, expr } => CExpr::Unary(*op, Box::new(sub(expr)?)),
        Expr::Binary { op, left, right } => {
            CExpr::Binary(*op, Box::new(sub(left)?), Box::new(sub(right)?))
        }
        Expr::Func { name, .. } if is_aggregate_name(name) => {
            return Err(AnalyzeErrorKind::AggregateMisuse(format!(
                "aggregate {name}() is not allowed here"
            )))
        }
        Expr::Func { name, args } => CExpr::Func(
            scalar_func(name, args.len())?,
            args.iter().map(sub).collect::<Checked<_>>()?,
        ),
        Expr::Case { whens, else_expr } => CExpr::Case {
            whens: whens
                .iter()
                .map(|(c, r)| Ok((sub(c)?, sub(r)?)))
                .collect::<Checked<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(sub(e)?)),
                None => None,
            },
        },
        Expr::IsNull { expr, negated } => CExpr::IsNull(Box::new(sub(expr)?), *negated),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::plan::tests::test_sources;

    fn sources() -> Vec<Source> {
        test_sources(&[("y", &["rid", "y1", "y2"]), ("c", &["i", "y1", "y2"])])
    }

    #[test]
    fn qualified_resolution() {
        let sources = sources();
        let r = ColumnResolver::new(&sources);
        assert_eq!(r.resolve(Some("y"), "y1").unwrap(), 1);
        assert_eq!(r.resolve(Some("c"), "y1").unwrap(), 4);
        assert_eq!(r.resolve(Some("C"), "I").unwrap(), 3);
    }

    #[test]
    fn unqualified_unique_resolution() {
        let sources = sources();
        let r = ColumnResolver::new(&sources);
        assert_eq!(r.resolve(None, "rid").unwrap(), 0);
        assert_eq!(r.resolve(None, "i").unwrap(), 3);
    }

    #[test]
    fn ambiguous_unqualified_rejected() {
        let sources = sources();
        let r = ColumnResolver::new(&sources);
        assert_eq!(
            r.resolve(None, "y1").unwrap_err(),
            AnalyzeErrorKind::AmbiguousColumn("y1".into())
        );
    }

    #[test]
    fn unknown_names_rejected() {
        let sources = sources();
        let r = ColumnResolver::new(&sources);
        assert_eq!(
            r.resolve(Some("z"), "y1").unwrap_err(),
            AnalyzeErrorKind::UnknownTable("z".into())
        );
        assert_eq!(
            r.resolve(Some("y"), "zzz").unwrap_err(),
            AnalyzeErrorKind::UnknownColumn("y.zzz".into())
        );
        assert_eq!(
            r.resolve(None, "zzz").unwrap_err(),
            AnalyzeErrorKind::UnknownColumn("zzz".into())
        );
    }

    #[test]
    fn lateral_alias_used_only_when_base_misses() {
        let sources = sources();
        let mut r = ColumnResolver::new(&sources);
        r.add_lateral("sump", 10);
        r.add_lateral("rid", 11); // shadowed by the base column
        assert_eq!(r.resolve(None, "sump").unwrap(), 10);
        assert_eq!(r.resolve(None, "rid").unwrap(), 0);
    }

    #[test]
    fn compile_resolves_and_preserves_structure() {
        let sources = sources();
        let e = Expr::bin(BinOp::Sub, Expr::qcol("y", "y1"), Expr::qcol("c", "y1"));
        let c = compile(&e, &ColumnResolver::new(&sources)).unwrap();
        assert_eq!(
            c,
            CExpr::Binary(BinOp::Sub, Box::new(CExpr::Col(1)), Box::new(CExpr::Col(4)))
        );
    }

    #[test]
    fn aggregates_rejected_by_compile() {
        let sources = sources();
        let e = Expr::Func {
            name: "sum".into(),
            args: vec![Expr::qcol("y", "y1")],
        };
        assert!(matches!(
            compile(&e, &ColumnResolver::new(&sources)).unwrap_err(),
            AnalyzeErrorKind::AggregateMisuse(_)
        ));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = Expr::Func {
            name: "frobnicate".into(),
            args: vec![Expr::int(1)],
        };
        assert_eq!(
            compile(&e, &ColumnResolver::new(&[])).unwrap_err(),
            AnalyzeErrorKind::UnknownFunction("frobnicate".into())
        );
    }

    #[test]
    fn arity_checked_for_scalar_functions() {
        let call = |name: &str, n: usize| Expr::Func {
            name: name.into(),
            args: vec![Expr::int(1); n],
        };
        let constants = ColumnResolver::new(&[]);
        for (name, n) in [("exp", 2), ("power", 1), ("coalesce", 0)] {
            assert!(matches!(
                compile(&call(name, n), &constants).unwrap_err(),
                AnalyzeErrorKind::WrongArity { actual, .. } if actual == n
            ));
        }
        compile(&call("least", 3), &constants).unwrap();
    }

    #[test]
    fn width_tracks_sources() {
        assert_eq!(ColumnResolver::new(&sources()).width(), 6);
        assert_eq!(ColumnResolver::new(&[]).width(), 0);
    }
}
