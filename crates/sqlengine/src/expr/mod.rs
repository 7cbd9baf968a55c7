//! Compiled expressions.
//!
//! The parser produces name-based [`crate::ast::Expr`] trees; before
//! execution the planner compiles them into [`CExpr`] trees where every
//! column reference is a resolved slot index into the operator's input row.
//! This keeps the hot path free of string lookups — the E step evaluates
//! `O(kp)` arithmetic per point, so this matters for the scalability
//! figures.
//!
//! A [`CExpr`] has two evaluators with one meaning. SELECT pipelines call
//! [`CExpr::eval_batch`] (the `batch` module): one dispatch per node per
//! [`BATCH_ROWS`]-row [`Batch`] of typed [`Column`]s, with selection
//! vectors keeping `CASE`/`AND`/`OR`/`COALESCE` lazy — every statement,
//! DML and `VALUES` (a one-row batch) included. [`CExpr::eval`]
//! evaluates one row of [`Value`]s; the executor never calls it: it is
//! the reference `tests/batch_eval.rs` holds the batch evaluator to, bit
//! for bit and error for error. Both share the per-value operator
//! functions below, so they cannot drift.
//!
//! Scalar semantics follow SQL with the deviations documented in DESIGN.md:
//! `/` always produces a DOUBLE (so `1/d1` in the paper's fallback formula
//! is a float reciprocal), NULL propagates through arithmetic and
//! functions, and comparisons use three-valued logic.
//!
//! `**` (and `power`) returns `f64::powf`'s bits; `x ** 2` computes them
//! as x·x where the exact product error proves it, and calls `pow` for
//! the rest. The proof assumes the libm's `pow` errs by less than 0.53
//! ULP for results in [2^-500, 2^501) — true of glibc ≥ 2.28 and musl
//! (one shared implementation) and of any correctly rounded `pow`; the
//! batch evaluator's `square_is_powf` states the argument, and
//! `tests/batch_eval.rs`'s `pow_is_powf_bit_for_bit_on_every_path` is
//! the test that fails on a libm breaking it. [`CExpr::eval`] calls
//! `pow` for every row: it is the oracle.

mod batch;
mod compile;
mod ty;

pub use batch::{Batch, Column, RowError, BATCH_ROWS};
pub(crate) use compile::scalar_func;
pub use compile::{compile, ColumnResolver};
pub use ty::Ty;

use crate::ast::{BinOp, UnaryOp};
use crate::error::{Error, Result};
use crate::value::Value;

/// Supported scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `exp(x)`
    Exp,
    /// `ln(x)` — errors on non-positive input.
    Ln,
    /// `sqrt(x)` — errors on negative input.
    Sqrt,
    /// `abs(x)`
    Abs,
    /// `power(x, y)` — same as `x ** y`.
    Power,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `round(x)` — half away from zero.
    Round,
    /// `sign(x)` ∈ {-1, 0, 1}
    Sign,
    /// `mod(a, b)`
    Mod,
    /// `least(a, b, …)` — NULLs skipped.
    Least,
    /// `greatest(a, b, …)` — NULLs skipped.
    Greatest,
    /// `coalesce(a, b, …)` — first non-NULL.
    Coalesce,
}

impl ScalarFunc {
    /// Look a function up by its lowercase SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "exp" => ScalarFunc::Exp,
            "ln" | "log" => ScalarFunc::Ln,
            "sqrt" => ScalarFunc::Sqrt,
            "abs" => ScalarFunc::Abs,
            "power" | "pow" => ScalarFunc::Power,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "round" => ScalarFunc::Round,
            "sign" => ScalarFunc::Sign,
            "mod" => ScalarFunc::Mod,
            "least" => ScalarFunc::Least,
            "greatest" => ScalarFunc::Greatest,
            "coalesce" => ScalarFunc::Coalesce,
            _ => return None,
        })
    }

    /// Number of arguments this function accepts (`None` = variadic ≥ 1).
    pub fn arity(&self) -> Option<usize> {
        match self {
            ScalarFunc::Power | ScalarFunc::Mod => Some(2),
            ScalarFunc::Least | ScalarFunc::Greatest | ScalarFunc::Coalesce => None,
            _ => Some(1),
        }
    }
}

/// A compiled expression: all column references are slot indices.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Constant value.
    Const(Value),
    /// Input-row slot.
    Col(usize),
    /// Unary op.
    Unary(UnaryOp, Box<CExpr>),
    /// Binary op.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Scalar function call.
    Func(ScalarFunc, Vec<CExpr>),
    /// Searched CASE.
    Case {
        /// `(condition, result)` arms.
        whens: Vec<(CExpr, CExpr)>,
        /// ELSE result (NULL when absent).
        else_expr: Option<Box<CExpr>>,
    },
    /// `IS [NOT] NULL`.
    IsNull(Box<CExpr>, bool),
}

impl CExpr {
    /// Evaluate against one input row: the reference evaluator.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Col(i) => Ok(row[*i].clone()),
            CExpr::Unary(op, e) => {
                let v = e.eval(row)?;
                eval_unary(*op, v)
            }
            CExpr::Binary(op, l, r) => eval_binary(*op, l, r, row),
            CExpr::Func(f, args) => eval_func(*f, args, row),
            CExpr::Case { whens, else_expr } => {
                for (cond, result) in whens {
                    if cond.eval(row)?.truthiness() == Some(true) {
                        return result.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            CExpr::IsNull(e, negated) => {
                let isnull = e.eval(row)?.is_null();
                Ok(Value::Int((isnull != *negated) as i64))
            }
        }
    }

    /// Shift every slot down by `offset`: an expression over one table of
    /// a joined row, re-addressed to that table's own rows.
    pub fn rebase(&mut self, offset: usize) {
        match self {
            CExpr::Const(_) => {}
            CExpr::Col(i) => *i -= offset,
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => e.rebase(offset),
            CExpr::Binary(_, l, r) => {
                l.rebase(offset);
                r.rebase(offset);
            }
            CExpr::Func(_, args) => args.iter_mut().for_each(|a| a.rebase(offset)),
            CExpr::Case { whens, else_expr } => {
                for (c, r) in whens {
                    c.rebase(offset);
                    r.rebase(offset);
                }
                if let Some(e) = else_expr {
                    e.rebase(offset);
                }
            }
        }
    }

    /// Call `f` with every slot index the expression references (the
    /// executor gathers exactly these slots into a [`Batch`]).
    pub fn for_each_slot(&self, f: &mut impl FnMut(usize)) {
        match self {
            CExpr::Const(_) => {}
            CExpr::Col(i) => f(*i),
            CExpr::Unary(_, e) | CExpr::IsNull(e, _) => e.for_each_slot(f),
            CExpr::Binary(_, l, r) => {
                l.for_each_slot(f);
                r.for_each_slot(f);
            }
            CExpr::Func(_, args) => args.iter().for_each(|a| a.for_each_slot(f)),
            CExpr::Case { whens, else_expr } => {
                for (c, r) in whens {
                    c.for_each_slot(f);
                    r.for_each_slot(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_slot(f);
                }
            }
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => {
                Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                    Error::Arithmetic("integer overflow in negation".into())
                })?))
            }
            Value::Double(d) => Ok(Value::Double(-d)),
            Value::Str(_) => Err(Error::TypeMismatch {
                context: "cannot negate a string".into(),
            }),
        },
        UnaryOp::Not => match v.truthiness() {
            None => Ok(Value::Null),
            Some(b) => Ok(Value::Int((!b) as i64)),
        },
    }
}

fn eval_binary(op: BinOp, l: &CExpr, r: &CExpr, row: &[Value]) -> Result<Value> {
    // AND/OR need lazy evaluation for three-valued logic short circuits.
    match op {
        BinOp::And => {
            let lv = l.eval(row)?.truthiness();
            if lv == Some(false) {
                return Ok(Value::Int(0));
            }
            Ok(and_values(lv, r.eval(row)?.truthiness()))
        }
        BinOp::Or => {
            let lv = l.eval(row)?.truthiness();
            if lv == Some(true) {
                return Ok(Value::Int(1));
            }
            Ok(or_values(lv, r.eval(row)?.truthiness()))
        }
        _ => binary_values(op, l.eval(row)?, r.eval(row)?),
    }
}

/// Three-valued AND of two truth values.
fn and_values(lv: Option<bool>, rv: Option<bool>) -> Value {
    match (lv, rv) {
        (Some(false), _) | (_, Some(false)) => Value::Int(0),
        (Some(true), Some(true)) => Value::Int(1),
        _ => Value::Null,
    }
}

/// Three-valued OR of two truth values.
fn or_values(lv: Option<bool>, rv: Option<bool>) -> Value {
    match (lv, rv) {
        (Some(true), _) | (_, Some(true)) => Value::Int(1),
        (Some(false), Some(false)) => Value::Int(0),
        _ => Value::Null,
    }
}

/// Every binary operator except the lazy `AND`/`OR`, over two evaluated
/// operands.
fn binary_values(op: BinOp, lv: Value, rv: Value) -> Result<Value> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => numeric_arith(op, lv, rv),
        BinOp::Div | BinOp::Pow => {
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            let sym = if op == BinOp::Div { "/" } else { "**" };
            let (x, y) = float_pair(&lv, &rv, sym)?;
            float_arith(op, x, y).map(Value::Double)
        }
        BinOp::Eq => Ok(tri(lv.sql_eq(&rv))),
        BinOp::Neq => Ok(tri(lv.sql_eq(&rv).map(|b| !b))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Ok(tri(lv.sql_cmp(&rv).map(|o| ordering_holds(op, o))))
        }
        BinOp::And | BinOp::Or => unreachable!("lazy operators are evaluated by the caller"),
    }
}

/// Does `o` satisfy the ordering comparison `op`?
fn ordering_holds(op: BinOp, o: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Lt => o.is_lt(),
        BinOp::Le => o.is_le(),
        BinOp::Gt => o.is_gt(),
        BinOp::Ge => o.is_ge(),
        _ => unreachable!("not an ordering comparison"),
    }
}

fn tri(b: Option<bool>) -> Value {
    match b {
        None => Value::Null,
        Some(b) => Value::Int(b as i64),
    }
}

/// `+ - * / **` over two doubles: one IEEE operation each, plus the two
/// checks SQL adds (`/` by zero, an undefined `**`).
#[inline]
fn float_arith(op: BinOp, x: f64, y: f64) -> Result<f64> {
    match op {
        BinOp::Add => Ok(x + y),
        BinOp::Sub => Ok(x - y),
        BinOp::Mul => Ok(x * y),
        BinOp::Div => {
            if y == 0.0 {
                return Err(Error::Arithmetic("division by zero".into()));
            }
            Ok(x / y)
        }
        BinOp::Pow => powf(x, y).ok_or_else(|| {
            Error::Arithmetic(format!(
                "{x} ** {y} is undefined (negative base, fractional exponent)"
            ))
        }),
        _ => unreachable!("not an arithmetic operator"),
    }
}

/// `power(x, y)`: `x ** y`, its error named after the function.
fn power(x: f64, y: f64) -> Result<f64> {
    powf(x, y).ok_or_else(|| Error::Arithmetic(format!("power({x}, {y}) is undefined")))
}

/// `f64::powf(x, y)`, or `None` where SQL has no value for it: a NaN
/// from two operands that are not NaN (negative base, fractional
/// exponent). The engine's one call of libm's `pow`.
fn powf(x: f64, y: f64) -> Option<f64> {
    let p = x.powf(y);
    (!p.is_nan() || x.is_nan() || y.is_nan()).then_some(p)
}

/// `+ - *` over two integers; overflow is an error, not a wrap-around.
#[inline]
fn int_arith(op: BinOp, a: i64, b: i64) -> Result<i64> {
    match op {
        BinOp::Add => a.checked_add(b),
        BinOp::Sub => a.checked_sub(b),
        BinOp::Mul => a.checked_mul(b),
        _ => unreachable!("not an integer operator"),
    }
    .ok_or_else(|| Error::Arithmetic("integer overflow".into()))
}

fn numeric_arith(op: BinOp, lv: Value, rv: Value) -> Result<Value> {
    match (&lv, &rv) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(a), Value::Int(b)) => int_arith(op, *a, *b).map(Value::Int),
        _ => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                _ => unreachable!(),
            };
            let (x, y) = float_pair(&lv, &rv, sym)?;
            float_arith(op, x, y).map(Value::Double)
        }
    }
}

fn float_pair(l: &Value, r: &Value, op: &str) -> Result<(f64, f64)> {
    match (l.as_f64(), r.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(Error::TypeMismatch {
            context: format!("operator {op} requires numeric operands, got {l} {op} {r}"),
        }),
    }
}

fn eval_func(f: ScalarFunc, args: &[CExpr], row: &[Value]) -> Result<Value> {
    // COALESCE is lazy: arguments after the first non-NULL never run.
    if f == ScalarFunc::Coalesce {
        for a in args {
            let v = a.eval(row)?;
            if !v.is_null() {
                return Ok(v);
            }
        }
        return Ok(Value::Null);
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(a.eval(row)?);
    }
    func_values(f, vals)
}

/// The functions of one numeric argument whose result is a DOUBLE
/// whatever the argument's type, as the function of that argument;
/// `None` for every other function.
fn double_func(f: ScalarFunc) -> Option<fn(f64) -> Result<f64>> {
    Some(match f {
        ScalarFunc::Exp => |x| Ok(x.exp()),
        ScalarFunc::Ln => |x| {
            if x <= 0.0 {
                Err(Error::Arithmetic(format!("ln({x}) is undefined")))
            } else {
                Ok(x.ln())
            }
        },
        ScalarFunc::Sqrt => |x| {
            if x < 0.0 {
                Err(Error::Arithmetic(format!("sqrt({x}) is undefined")))
            } else {
                Ok(x.sqrt())
            }
        },
        ScalarFunc::Floor => |x| Ok(x.floor()),
        ScalarFunc::Ceil => |x| Ok(x.ceil()),
        ScalarFunc::Round => |x| Ok(x.round()),
        _ => return None,
    })
}

/// Every scalar function except the lazy `COALESCE`, over evaluated
/// arguments. Which variant comes back for which arguments is what
/// [`CExpr::ty`] states statically.
fn func_values(f: ScalarFunc, vals: Vec<Value>) -> Result<Value> {
    match f {
        ScalarFunc::Least | ScalarFunc::Greatest => {
            let mut best: Option<Value> = None;
            for v in vals {
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(o) => {
                                if f == ScalarFunc::Least {
                                    o.is_lt()
                                } else {
                                    o.is_gt()
                                }
                            }
                            None => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        _ => {
            // Remaining functions propagate NULL and operate on floats.
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let x = vals[0].as_f64().ok_or_else(|| Error::TypeMismatch {
                context: format!("function argument must be numeric, got {}", vals[0]),
            })?;
            if let Some(g) = double_func(f) {
                return g(x).map(Value::Double);
            }
            match f {
                ScalarFunc::Abs => match &vals[0] {
                    Value::Int(i) => i
                        .checked_abs()
                        .map(Value::Int)
                        .ok_or_else(|| Error::Arithmetic("integer overflow in abs()".into())),
                    _ => Ok(Value::Double(x.abs())),
                },
                ScalarFunc::Power => {
                    let y = vals[1].as_f64().ok_or_else(|| Error::TypeMismatch {
                        context: "power() exponent must be numeric".into(),
                    })?;
                    power(x, y).map(Value::Double)
                }
                ScalarFunc::Sign => Ok(Value::Int(if x > 0.0 {
                    1
                } else if x < 0.0 {
                    -1
                } else {
                    0
                })),
                ScalarFunc::Mod => {
                    let y = vals[1].as_f64().ok_or_else(|| Error::TypeMismatch {
                        context: "mod() divisor must be numeric".into(),
                    })?;
                    if y == 0.0 {
                        Err(Error::Arithmetic("mod by zero".into()))
                    } else if let (Value::Int(a), Value::Int(b)) = (&vals[0], &vals[1]) {
                        // i64::MIN % -1 overflows in hardware; its value is 0.
                        Ok(Value::Int(a.checked_rem(*b).unwrap_or(0)))
                    } else {
                        Ok(Value::Double(x % y))
                    }
                }
                _ => unreachable!("handled above"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> CExpr {
        CExpr::Const(Value::Double(v))
    }

    #[test]
    fn arithmetic_basics() {
        let e = CExpr::Binary(BinOp::Add, Box::new(c(1.5)), Box::new(c(2.5)));
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(4.0));
        let ints = CExpr::Binary(
            BinOp::Mul,
            Box::new(CExpr::Const(Value::Int(3))),
            Box::new(CExpr::Const(Value::Int(4))),
        );
        assert_eq!(ints.eval(&[]).unwrap(), Value::Int(12));
    }

    #[test]
    fn division_is_always_float() {
        let e = CExpr::Binary(
            BinOp::Div,
            Box::new(CExpr::Const(Value::Int(1))),
            Box::new(CExpr::Const(Value::Int(2))),
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(0.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = CExpr::Binary(BinOp::Div, Box::new(c(1.0)), Box::new(c(0.0)));
        assert!(matches!(e.eval(&[]), Err(Error::Arithmetic(_))));
    }

    #[test]
    fn null_propagates() {
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Const(Value::Null)),
            Box::new(c(1.0)),
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let f = CExpr::Func(ScalarFunc::Exp, vec![CExpr::Const(Value::Null)]);
        assert_eq!(f.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn pow_matches_teradata_star_star() {
        let e = CExpr::Binary(BinOp::Pow, Box::new(c(2.0)), Box::new(c(10.0)));
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(1024.0));
        let sqrt = CExpr::Binary(BinOp::Pow, Box::new(c(9.0)), Box::new(c(0.5)));
        assert_eq!(sqrt.eval(&[]).unwrap(), Value::Double(3.0));
        let bad = CExpr::Binary(BinOp::Pow, Box::new(c(-4.0)), Box::new(c(0.5)));
        assert!(bad.eval(&[]).is_err());
    }

    #[test]
    fn exp_underflows_to_zero_like_the_paper_says() {
        // §2.5: exp(x) = 0 for very negative x at double precision.
        let e = CExpr::Func(ScalarFunc::Exp, vec![c(-1300.0)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(0.0));
    }

    #[test]
    fn ln_of_nonpositive_errors() {
        assert!(CExpr::Func(ScalarFunc::Ln, vec![c(0.0)]).eval(&[]).is_err());
        assert!(CExpr::Func(ScalarFunc::Ln, vec![c(-1.0)])
            .eval(&[])
            .is_err());
        let ok = CExpr::Func(ScalarFunc::Ln, vec![c(std::f64::consts::E)]);
        let v = ok.eval(&[]).unwrap().as_f64().unwrap();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_valued_logic() {
        let null = CExpr::Const(Value::Null);
        let t = CExpr::Const(Value::Int(1));
        let f = CExpr::Const(Value::Int(0));
        // TRUE OR NULL = TRUE
        let e = CExpr::Binary(BinOp::Or, Box::new(t.clone()), Box::new(null.clone()));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(1));
        // FALSE AND NULL = FALSE
        let e = CExpr::Binary(BinOp::And, Box::new(f.clone()), Box::new(null.clone()));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(0));
        // TRUE AND NULL = NULL
        let e = CExpr::Binary(BinOp::And, Box::new(t), Box::new(null.clone()));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        // FALSE OR NULL = NULL
        let e = CExpr::Binary(BinOp::Or, Box::new(f), Box::new(null));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_with_null_are_null_and_filtered_by_predicates() {
        let e = CExpr::Binary(
            BinOp::Gt,
            Box::new(CExpr::Const(Value::Null)),
            Box::new(c(0.0)),
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        assert_eq!(e.eval(&[]).unwrap().truthiness(), None);
    }

    #[test]
    fn case_without_else_yields_null() {
        // Fig. 9: CASE WHEN sump>0 THEN ln(sump) END
        let e = CExpr::Case {
            whens: vec![(
                CExpr::Binary(BinOp::Gt, Box::new(CExpr::Col(0)), Box::new(c(0.0))),
                CExpr::Func(ScalarFunc::Ln, vec![CExpr::Col(0)]),
            )],
            else_expr: None,
        };
        assert_eq!(e.eval(&[Value::Double(0.0)]).unwrap(), Value::Null);
        let v = e.eval(&[Value::Double(1.0)]).unwrap();
        assert_eq!(v, Value::Double(0.0));
    }

    #[test]
    fn case_first_matching_arm_wins() {
        let e = CExpr::Case {
            whens: vec![
                (CExpr::Const(Value::Int(1)), c(10.0)),
                (CExpr::Const(Value::Int(1)), c(20.0)),
            ],
            else_expr: Some(Box::new(c(30.0))),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(10.0));
    }

    #[test]
    fn is_null_returns_bool_int() {
        let e = CExpr::IsNull(Box::new(CExpr::Col(0)), false);
        assert_eq!(e.eval(&[Value::Null]).unwrap(), Value::Int(1));
        assert_eq!(e.eval(&[Value::Int(5)]).unwrap(), Value::Int(0));
        let n = CExpr::IsNull(Box::new(CExpr::Col(0)), true);
        assert_eq!(n.eval(&[Value::Null]).unwrap(), Value::Int(0));
    }

    #[test]
    fn least_greatest_skip_nulls() {
        let e = CExpr::Func(
            ScalarFunc::Greatest,
            vec![c(1.0), CExpr::Const(Value::Null), c(3.0)],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(3.0));
        let e = CExpr::Func(
            ScalarFunc::Least,
            vec![CExpr::Const(Value::Null), c(2.0), c(-1.0)],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(-1.0));
    }

    #[test]
    fn coalesce_first_non_null() {
        let e = CExpr::Func(
            ScalarFunc::Coalesce,
            vec![CExpr::Const(Value::Null), c(7.0), c(8.0)],
        );
        assert_eq!(e.eval(&[]).unwrap(), Value::Double(7.0));
    }

    #[test]
    fn integer_overflow_is_an_error_not_wraparound() {
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Const(Value::Int(i64::MAX))),
            Box::new(CExpr::Const(Value::Int(1))),
        );
        assert!(matches!(e.eval(&[]), Err(Error::Arithmetic(_))));
    }

    #[test]
    fn for_each_slot_visits_every_column_reference() {
        let slots = |e: &CExpr| {
            let mut seen = Vec::new();
            e.for_each_slot(&mut |i| seen.push(i));
            seen
        };
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Col(2)),
            Box::new(CExpr::Func(ScalarFunc::Exp, vec![CExpr::Col(5)])),
        );
        assert_eq!(slots(&e), vec![2, 5]);
        assert_eq!(slots(&c(1.0)), Vec::<usize>::new());
    }

    #[test]
    fn sign_and_round() {
        assert_eq!(
            CExpr::Func(ScalarFunc::Sign, vec![c(-3.0)])
                .eval(&[])
                .unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            CExpr::Func(ScalarFunc::Round, vec![c(2.5)])
                .eval(&[])
                .unwrap(),
            Value::Double(3.0)
        );
    }
}
