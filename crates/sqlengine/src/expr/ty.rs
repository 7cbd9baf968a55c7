//! Static types of compiled expressions.
//!
//! [`CExpr::ty`] is the static counterpart of [`CExpr::eval`]: given the
//! type of every slot it says what the evaluator can return, or that it
//! can only fail (string arithmetic). It reads the compiled tree — the
//! one the executor runs, names and functions already resolved — so it
//! has nothing to keep in step with but the operator functions of this
//! module, and `tests/batch_eval.rs` holds it to them: whenever a tree
//! types, every value it evaluates to is one its type admits.

use crate::analyze::{AnalyzeErrorKind, Checked};
use crate::ast::{BinOp, UnaryOp};
use crate::expr::{CExpr, ScalarFunc};
use crate::value::{DataType, Value};

/// Static type of an expression: which values evaluation can produce.
/// Every type admits NULL.
///
/// `Double` means *numeric*, not "always a DOUBLE": it is what `abs`
/// of an unknown, or a `CASE` / `least` / `greatest` / `coalesce` over
/// BIGINT and DOUBLE arms, can promise — rows may hold either. `Int`
/// and `Str` are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// NULL and nothing else (the `NULL` literal, a `CASE` of such arms).
    Null,
    /// 64-bit integer (`BIGINT`; also the type of predicates).
    Int,
    /// Numeric: a `DOUBLE`, or a `BIGINT` where arms or arguments mix.
    Double,
    /// String (`VARCHAR`).
    Str,
    /// Anything: arms that mix strings and numbers.
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
    /// declared type `dt`? Follows [`Value::coerce_to`]: NULLs go
    /// anywhere, numerics interconvert (double → bigint is checked at
    /// runtime for integrality), strings only into VARCHAR.
    pub fn storable_as(self, dt: DataType) -> bool {
        matches!(
            (self, dt),
            (Ty::Null | Ty::Any, _)
                | (Ty::Int | Ty::Double, DataType::BigInt | DataType::Double)
                | (Ty::Str, DataType::Varchar)
        )
    }

    /// Least upper bound: the type of "either of these" (CASE arms,
    /// COALESCE, LEAST / GREATEST). Mixed string and number arms are
    /// legal at runtime — rows simply carry different types.
    pub fn unify(self, other: Ty) -> Ty {
        match (self, other) {
            (x, y) if x == y => x,
            (Ty::Null, x) | (x, Ty::Null) => x,
            (Ty::Int, Ty::Double) | (Ty::Double, Ty::Int) => Ty::Double,
            _ => Ty::Any,
        }
    }

    /// Result of arithmetic that stays integral over integers
    /// (`+ - *`, `mod`, `SUM`).
    pub fn arith(self, other: Ty) -> Ty {
        match (self, other) {
            (Ty::Int, Ty::Int) => Ty::Int,
            _ => Ty::Double,
        }
    }

    /// Arithmetic, the numeric functions and the numeric aggregates fail
    /// on a string operand; `what` names the operation for the message.
    pub fn require_numeric(self, what: impl FnOnce() -> String) -> Checked<Ty> {
        match self {
            Ty::Str => Err(AnalyzeErrorKind::TypeMismatch {
                context: format!("{} requires numeric operands, got {self}", what()),
            }),
            _ => Ok(self),
        }
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Ty::Null => "NULL",
            Ty::Int => "BIGINT",
            Ty::Double => "DOUBLE",
            Ty::Str => "VARCHAR",
            Ty::Any => "ANY",
        })
    }
}

impl CExpr {
    /// The static type of the expression when slot `i` holds values of
    /// type `slots[i]`, or the reason evaluation can only fail.
    ///
    /// Comparisons and boolean connectives are total at runtime (mixed
    /// types compare as NULL; truthiness is defined for every type), so
    /// only arithmetic and the numeric functions reject an operand.
    pub fn ty(&self, slots: &[Ty]) -> Checked<Ty> {
        match self {
            CExpr::Const(v) => Ok(match v {
                Value::Null => Ty::Null,
                Value::Int(_) => Ty::Int,
                Value::Double(_) => Ty::Double,
                Value::Str(_) => Ty::Str,
            }),
            CExpr::Col(i) => Ok(slots[*i]),
            CExpr::Unary(UnaryOp::Neg, e) => {
                let t = e.ty(slots)?.require_numeric(|| "unary -".into())?;
                Ok(t.arith(t))
            }
            CExpr::Unary(UnaryOp::Not, e) | CExpr::IsNull(e, _) => e.ty(slots).map(|_| Ty::Int),
            CExpr::Binary(op, l, r) => {
                let (lt, rt) = (l.ty(slots)?, r.ty(slots)?);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => {
                        let what = || format!("operator {op}");
                        let (lt, rt) = (lt.require_numeric(what)?, rt.require_numeric(what)?);
                        Ok(match op {
                            BinOp::Div | BinOp::Pow => Ty::Double,
                            _ => lt.arith(rt),
                        })
                    }
                    _ => Ok(Ty::Int),
                }
            }
            CExpr::Func(ScalarFunc::Coalesce | ScalarFunc::Least | ScalarFunc::Greatest, args) => {
                args.iter()
                    .try_fold(Ty::Null, |acc, a| Ok(acc.unify(a.ty(slots)?)))
            }
            CExpr::Func(f, args) => {
                let what = || format!("{f:?}").to_ascii_lowercase();
                // One or two arguments ([`ScalarFunc::arity`]).
                let mut tys = [Ty::Null; 2];
                for (t, a) in tys.iter_mut().zip(args) {
                    *t = a.ty(slots)?.require_numeric(what)?;
                }
                // As `func_values` returns them.
                Ok(match f {
                    ScalarFunc::Sign => Ty::Int,
                    ScalarFunc::Abs => tys[0].arith(tys[0]),
                    ScalarFunc::Mod => tys[0].arith(tys[1]),
                    _ => Ty::Double,
                })
            }
            CExpr::Case { whens, else_expr } => {
                let mut out = Ty::Null;
                for (cond, result) in whens {
                    cond.ty(slots)?;
                    out = out.unify(result.ty(slots)?);
                }
                if let Some(e) = else_expr {
                    out = out.unify(e.ty(slots)?);
                }
                Ok(out)
            }
        }
    }
}
