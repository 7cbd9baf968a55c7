//! The batch executor against its row-at-a-time reference.
//!
//! Part one holds `CExpr::eval_batch` to `CExpr::eval`: seeded random
//! expression trees — arithmetic, `**`, `/` by zero, `ln`/`sqrt` of bad
//! inputs, the §2.5 guard idioms, `AND`/`OR`/`IS NULL`/`COALESCE` — over
//! seeded random batches of Int/Double/NULL/NaN/±∞/subnormal/string
//! cells. Every row of the batch result must be the scalar result, bit
//! for bit and type for type; if any row fails, the batch must report
//! the *first* failing row with the error the scalar evaluator raises
//! for it. The same loop holds the static type pass (`CExpr::ty`) to the
//! evaluator: a value a tree evaluates to is one its static type admits,
//! and a tree is only rejected for a string under arithmetic.
//!
//! Part two runs SQL against a `Database` at the pipeline's seams: the
//! batch boundary (0, 1, 1023, 1024, 1025 driver rows), a join whose
//! fan-out crosses it, a filter that empties a batch, the primary-key
//! index join against the same join with the key dropped, and one
//! database against a coordinator over two.

use prng::{Rng, StdRng};
use sqlengine::ast::{BinOp, UnaryOp};
use sqlengine::expr::{Batch, CExpr, Column, ScalarFunc, Ty, BATCH_ROWS};
use sqlengine::{Database, Error, ExecMetrics, SqlExecutor, Value};
use sqlwire::Coordinator;

// ---------------------------------------------------------------------
// Part one: batch evaluator == scalar evaluator
// ---------------------------------------------------------------------

const N_COLS: usize = 4;

fn special_double(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..14usize) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::from_bits(1 + rng.next_u64() % (1 << 52)), // subnormal
        6 => 1.0e-100,
        7 => 1.0e308,
        8 => 0.5,
        9 => 2.0,
        10 => -1.5,
        _ => (rng.random::<f64>() - 0.5) * 20.0,
    }
}

fn special_int(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..8usize) {
        0 => 0,
        1 => i64::MAX,
        2 => -i64::MAX,
        3 => 1 << 53,
        _ => rng.random_range(0..9usize) as i64 - 4,
    }
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..10usize) {
        0 => Value::Null,
        1..=3 => Value::Int(special_int(rng)),
        4 => Value::str(if rng.random() { "" } else { "abc" }),
        _ => Value::Double(special_double(rng)),
    }
}

/// A batch of `rows` rows: slot 0 DOUBLE, slot 1 BIGINT (both with
/// NULLs, typed the way a gather types them), slot 2 a NULL-free DOUBLE,
/// slot 3 anything at all.
fn random_batch(rng: &mut StdRng, rows: usize) -> Batch {
    let nullable = |rng: &mut StdRng, v: Value| {
        if rng.random_range(0..6usize) == 0 {
            Value::Null
        } else {
            v
        }
    };
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); N_COLS];
    for _ in 0..rows {
        let d = Value::Double(special_double(rng));
        cols[0].push(nullable(rng, d));
        let i = Value::Int(special_int(rng));
        cols[1].push(nullable(rng, i));
        cols[2].push(Value::Double(special_double(rng)));
        cols[3].push(random_value(rng));
    }
    let mut batch = Batch::new(N_COLS, rows);
    for (slot, cells) in cols.into_iter().enumerate() {
        batch.set(slot, Column::from_values(cells));
    }
    batch
}

fn boxed(e: CExpr) -> Box<CExpr> {
    Box::new(e)
}

fn leaf(rng: &mut StdRng) -> CExpr {
    if rng.random_range(0..3usize) == 0 {
        CExpr::Const(random_value(rng))
    } else {
        CExpr::Col(rng.random_range(0..N_COLS))
    }
}

fn bin(op: BinOp, l: CExpr, r: CExpr) -> CExpr {
    CExpr::Binary(op, boxed(l), boxed(r))
}

fn num(v: f64) -> CExpr {
    CExpr::Const(Value::Double(v))
}

/// The guard idioms of §2.5 as the generators write them.
fn idiom(rng: &mut StdRng, depth: usize) -> CExpr {
    let x = random_expr(rng, depth);
    let y = random_expr(rng, depth);
    match rng.random_range(0..4usize) {
        // CASE WHEN sump > 0 THEN ln(sump) END
        0 => CExpr::Case {
            whens: vec![(
                bin(BinOp::Gt, x.clone(), num(0.0)),
                CExpr::Func(ScalarFunc::Ln, vec![x]),
            )],
            else_expr: None,
        },
        // CASE WHEN r = 0 THEN 1 ELSE r END
        1 => CExpr::Case {
            whens: vec![(
                bin(BinOp::Eq, x.clone(), CExpr::Const(Value::Int(0))),
                CExpr::Const(Value::Int(1)),
            )],
            else_expr: Some(boxed(x)),
        },
        // 1 / (d + 1.0E-100)
        2 => bin(
            BinOp::Div,
            CExpr::Const(Value::Int(1)),
            bin(BinOp::Add, x, num(1.0e-100)),
        ),
        // CASE WHEN sump > 0 THEN p / sump ELSE (1 / (d + 1.0E-100)) / suminvd END
        _ => CExpr::Case {
            whens: vec![(
                bin(BinOp::Gt, x.clone(), num(0.0)),
                bin(BinOp::Div, y.clone(), x.clone()),
            )],
            else_expr: Some(boxed(bin(
                BinOp::Div,
                bin(
                    BinOp::Div,
                    CExpr::Const(Value::Int(1)),
                    bin(BinOp::Add, y, num(1.0e-100)),
                ),
                x,
            ))),
        },
    }
}

fn random_expr(rng: &mut StdRng, depth: usize) -> CExpr {
    if depth == 0 {
        return leaf(rng);
    }
    let d = depth - 1;
    match rng.random_range(0..12usize) {
        0 => leaf(rng),
        1..=3 => {
            let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow];
            let op = ops[rng.random_range(0..ops.len())];
            bin(op, random_expr(rng, d), random_expr(rng, d))
        }
        4 => {
            let ops = [
                BinOp::Eq,
                BinOp::Neq,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ];
            let op = ops[rng.random_range(0..ops.len())];
            bin(op, random_expr(rng, d), random_expr(rng, d))
        }
        5 => {
            let op = if rng.random() { BinOp::And } else { BinOp::Or };
            bin(op, random_expr(rng, d), random_expr(rng, d))
        }
        6 => {
            let op = if rng.random() {
                UnaryOp::Neg
            } else {
                UnaryOp::Not
            };
            CExpr::Unary(op, boxed(random_expr(rng, d)))
        }
        7 => {
            let one = [
                ScalarFunc::Exp,
                ScalarFunc::Ln,
                ScalarFunc::Sqrt,
                ScalarFunc::Abs,
                ScalarFunc::Floor,
                ScalarFunc::Ceil,
                ScalarFunc::Round,
                ScalarFunc::Sign,
            ];
            CExpr::Func(
                one[rng.random_range(0..one.len())],
                vec![random_expr(rng, d)],
            )
        }
        8 => {
            let two = [ScalarFunc::Power, ScalarFunc::Mod];
            CExpr::Func(
                two[rng.random_range(0..two.len())],
                vec![random_expr(rng, d), random_expr(rng, d)],
            )
        }
        9 => {
            let many = [
                ScalarFunc::Least,
                ScalarFunc::Greatest,
                ScalarFunc::Coalesce,
            ];
            let args = (0..rng.random_range(1..=3usize))
                .map(|_| random_expr(rng, d))
                .collect();
            CExpr::Func(many[rng.random_range(0..many.len())], args)
        }
        10 => {
            if rng.random() {
                CExpr::IsNull(boxed(random_expr(rng, d)), rng.random())
            } else {
                let whens = (0..rng.random_range(1..=2usize))
                    .map(|_| (random_expr(rng, d), random_expr(rng, d)))
                    .collect();
                let else_expr = rng.random::<bool>().then(|| boxed(random_expr(rng, d)));
                CExpr::Case { whens, else_expr }
            }
        }
        _ => idiom(rng, d),
    }
}

/// Same variant, and doubles by bit pattern (NaN is NaN, -0.0 is not 0.0).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn row_of(batch: &Batch, row: usize) -> Vec<Value> {
    (0..N_COLS)
        .map(|slot| batch.column(slot).expect("slot filled").value(row))
        .collect()
}

/// The static types of [`random_batch`]'s slots.
const SLOT_TYPES: [Ty; N_COLS] = [Ty::Double, Ty::Int, Ty::Double, Ty::Any];

/// Does static type `ty` admit the value `v`? (`Double` is "numeric".)
fn admits(ty: Ty, v: &Value) -> bool {
    matches!(
        (ty, v),
        (_, Value::Null)
            | (Ty::Any, _)
            | (Ty::Int, Value::Int(_))
            | (Ty::Str, Value::Str(_))
            | (Ty::Double, Value::Int(_) | Value::Double(_))
    )
}

/// Does `e` hold arithmetic or a numeric function over an operand whose
/// static type is a string — the one thing the type pass may reject?
fn string_under_arithmetic(e: &CExpr) -> bool {
    let (numeric, operands): (bool, Vec<&CExpr>) = match e {
        CExpr::Const(_) | CExpr::Col(_) => return false,
        CExpr::Unary(op, x) => (*op == UnaryOp::Neg, vec![x]),
        CExpr::IsNull(x, _) => (false, vec![x]),
        CExpr::Binary(op, l, r) => {
            let arithmetic = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow];
            (arithmetic.contains(op), vec![l, r])
        }
        CExpr::Func(f, args) => {
            let lenient = [
                ScalarFunc::Least,
                ScalarFunc::Greatest,
                ScalarFunc::Coalesce,
            ];
            (!lenient.contains(f), args.iter().collect())
        }
        CExpr::Case { whens, else_expr } => {
            let arms = whens.iter().flat_map(|(c, r)| [c, r]);
            (false, arms.chain(else_expr.as_deref()).collect())
        }
    };
    (numeric && operands.iter().any(|o| o.ty(&SLOT_TYPES) == Ok(Ty::Str)))
        || operands.into_iter().any(string_under_arithmetic)
}

#[test]
fn batch_evaluation_is_scalar_evaluation_row_for_row_and_error_for_error() {
    let mut rng = StdRng::seed_from_u64(0x5EED_BA7C);
    let (mut failing, mut typed_results) = (0usize, 0usize);
    let (mut exact_types, mut ill_typed) = (0usize, 0usize);
    for case in 0..4000 {
        let expr = random_expr(&mut rng, 1 + case % 4);
        let rows = match case % 7 {
            0 => 0,
            1 => 1,
            _ => rng.random_range(2..=48usize),
        };
        let batch = random_batch(&mut rng, rows);
        let scalar: Vec<Result<Value, Error>> =
            (0..rows).map(|r| expr.eval(&row_of(&batch, r))).collect();
        let first_failure = scalar.iter().position(Result::is_err);
        match expr.ty(&SLOT_TYPES) {
            Ok(ty) => {
                exact_types += matches!(ty, Ty::Int | Ty::Str) as usize;
                for (r, v) in scalar.iter().enumerate() {
                    assert!(
                        v.as_ref().map_or(true, |v| admits(ty, v)),
                        "case {case} row {r}: typed {ty}, evaluates to {v:?}\n{expr:?}"
                    );
                }
            }
            Err(why) => {
                ill_typed += 1;
                assert!(
                    string_under_arithmetic(&expr),
                    "case {case}: rejected ({why:?}) with no string under arithmetic\n{expr:?}"
                );
            }
        }
        match (expr.eval_batch(&batch), first_failure) {
            (Ok(col), None) => {
                assert_eq!(col.len(), rows, "case {case}: {expr:?}");
                typed_results += !matches!(col, Column::Val(_)) as usize;
                for (r, want) in scalar.iter().enumerate() {
                    let (got, want) = (col.value(r), want.as_ref().unwrap());
                    assert!(
                        same_value(&got, want),
                        "case {case} row {r}: batch {got:?}, scalar {want:?}\n{expr:?}\n{:?}",
                        row_of(&batch, r)
                    );
                }
            }
            (Err(e), Some(r)) => {
                failing += 1;
                assert_eq!(e.row, r, "case {case}: wrong failing row\n{expr:?}");
                let want = scalar[r].as_ref().unwrap_err();
                assert_eq!(&e.error, want, "case {case} row {r}\n{expr:?}");
            }
            (got, want) => panic!(
                "case {case}: batch {:?}, first scalar failure {want:?}\n{expr:?}",
                got.map(|c| c.len())
            ),
        }
    }
    // The generator has to reach both outcomes, and the typed loops.
    assert!(failing > 300, "only {failing} failing cases");
    assert!(typed_results > 1000, "only {typed_results} typed results");
    assert!(
        exact_types > 1000,
        "only {exact_types} BIGINT / VARCHAR trees"
    );
    assert!(ill_typed > 200, "only {ill_typed} ill-typed trees");
}

#[test]
fn bigint_comparisons_are_exact_in_both_evaluators() {
    // Past 2^53 neighbouring integers share a double: two BIGINT
    // operands compare as the integers they are, column against column
    // and column against constant, row at a time and batch at a time.
    let big = 1i64 << 53;
    let ints = [big, big + 1, -big, -big - 1, i64::MAX, i64::MAX - 1, 0, 1];
    let (mut left, mut right) = (
        vec![Value::Null, Value::Int(1)],
        vec![Value::Int(1), Value::Null],
    );
    for a in ints {
        for b in ints {
            left.push(Value::Int(a));
            right.push(Value::Int(b));
        }
    }
    let rows = left.len();
    let mut batch = Batch::new(2, rows);
    batch.set(0, Column::from_values(left.clone()));
    batch.set(1, Column::from_values(right.clone()));
    type Holds = fn(&i64, &i64) -> bool;
    let ops: [(BinOp, Holds); 6] = [
        (BinOp::Eq, i64::eq),
        (BinOp::Neq, i64::ne),
        (BinOp::Lt, i64::lt),
        (BinOp::Le, i64::le),
        (BinOp::Gt, i64::gt),
        (BinOp::Ge, i64::ge),
    ];
    for (op, holds) in ops {
        let constant = Value::Int(big + 1);
        let exprs = [
            (bin(op, CExpr::Col(0), CExpr::Col(1)), None),
            (
                bin(op, CExpr::Col(0), CExpr::Const(constant.clone())),
                Some(&constant),
            ),
        ];
        for (expr, constant) in exprs {
            let col = expr.eval_batch(&batch).unwrap();
            assert!(matches!(col, Column::I64(..)), "{op:?}: {col:?}");
            for row in 0..rows {
                let (l, r) = (&left[row], constant.unwrap_or(&right[row]));
                let want = match (l, r) {
                    (Value::Int(a), Value::Int(b)) => Value::Int(holds(a, b) as i64),
                    _ => Value::Null,
                };
                let scalar = expr.eval(&[l.clone(), right[row].clone()]).unwrap();
                assert!(
                    same_value(&scalar, &want),
                    "{l:?} {op:?} {r:?}: scalar {scalar:?}"
                );
                let got = col.value(row);
                assert!(same_value(&got, &want), "{l:?} {op:?} {r:?}: batch {got:?}");
            }
        }
    }
}

#[test]
fn pow_by_two_is_powf_not_a_multiply_in_both_evaluators() {
    // `x ** 2` is `f64::powf(x, 2.0)`, and that is not `x * x`: on
    // rustc 1.95.0 / glibc 2.36 they differ in the last bit for 16 668
    // of 2·10⁷ uniform[-100, 100] doubles (about 1 in 1 200; the first
    // is the number below), 8 497 of 2·10⁷ random finite bit patterns
    // and 16 734 of 2·10⁷ over 1e-165 … 1. A multiply in place of the
    // call would move that share of every `(y - c) ** 2`.
    let mut rng = StdRng::seed_from_u64(0x000B_17E5);
    let mut xs = vec![56.71659783215489f64];
    for _ in 0..200_000 {
        let x = rng.random::<f64>() * 200.0 - 100.0;
        if xs.len() < 9 && (x * x).to_bits() != x.powf(std::hint::black_box(2.0)).to_bits() {
            xs.push(x);
        }
    }
    let mut batch = Batch::new(1, xs.len());
    batch.set(0, Column::F64(xs.clone(), None));
    // The generators write `** 2`, a BIGINT literal.
    for two in [Value::Int(2), Value::Double(2.0)] {
        let squared = bin(BinOp::Pow, CExpr::Col(0), CExpr::Const(two));
        let col = squared.eval_batch(&batch).unwrap();
        for (row, x) in xs.iter().enumerate() {
            let want = Value::Double(x.powf(std::hint::black_box(2.0)));
            let scalar = squared.eval(&[Value::Double(*x)]).unwrap();
            assert!(same_value(&scalar, &want), "{x} ** 2: scalar {scalar:?}");
            let got = col.value(row);
            assert!(same_value(&got, &want), "{x} ** 2: batch {got:?}");
        }
    }
    // Where this libm's `pow` is the one measured above, the handful
    // really tells the two apart.
    if (xs[0] * xs[0]).to_bits() != xs[0].powf(std::hint::black_box(2.0)).to_bits() {
        assert_eq!(xs.len(), 9, "a multiply would pass: {xs:?}");
    }
}

/// `x ** y` and `power(x, y)` with `x` in slot 0 and `y` the exponent
/// (a constant or slot 1), over every row of `batch`: the batch result, the scalar
/// reference and `x.powf(y)` with the exponent as data agree bit for bit
/// (NULL where an operand is NULL). No row may fail.
fn assert_pow_is_powf(batch: &Batch, y: &CExpr) {
    let exponent = |row: usize| match y {
        CExpr::Const(v) => v.clone(),
        CExpr::Col(1) => batch.column(1).expect("slot filled").value(row),
        _ => unreachable!("a constant or slot 1"),
    };
    let x = batch.column(0).expect("slot filled");
    for expr in [
        bin(BinOp::Pow, CExpr::Col(0), y.clone()),
        CExpr::Func(ScalarFunc::Power, vec![CExpr::Col(0), y.clone()]),
    ] {
        let col = expr.eval_batch(batch).unwrap();
        assert!(matches!(col, Column::F64(..)), "{expr:?} is not typed");
        for row in 0..batch.len() {
            let (xv, yv) = (x.value(row), exponent(row));
            let want = match (xv.as_f64(), yv.as_f64()) {
                (Some(x), Some(y)) => Value::Double(x.powf(std::hint::black_box(y))),
                _ => Value::Null,
            };
            let scalar = expr.eval(&[xv.clone(), yv.clone()]).unwrap();
            assert!(
                same_value(&scalar, &want),
                "{xv:?}, {yv:?}: scalar {scalar:?}"
            );
            let got = col.value(row);
            assert!(
                same_value(&got, &want),
                "{xv:?}, {yv:?}: batch {got:?} ≠ {want:?}"
            );
        }
    }
}

fn one_column(x: Column) -> Batch {
    let mut batch = Batch::new(1, x.len());
    batch.set(0, x);
    batch
}

#[test]
fn pow_is_powf_bit_for_bit_on_every_path() {
    // The batch evaluator computes `x ** 2` as `x * x` where the exact
    // product error proves that is `pow`'s answer and calls `pow` for the
    // rest; that proof rests on the libm's `pow` erring by < 0.53 ULP,
    // and a libm breaking it fails here. 2²⁰ · 10 rows over three
    // distributions, then the edges of the proof, then the other paths
    // into the same kernel.
    let mut rng = StdRng::seed_from_u64(0x90F2_5A7E);
    let two = [
        CExpr::Const(Value::Int(2)),
        CExpr::Const(Value::Double(2.0)),
        CExpr::Col(1),
    ];
    for batch_no in 0..10 * 1024 {
        let xs: Vec<f64> = (0..BATCH_ROWS)
            .map(|_| match batch_no % 3 {
                0 => rng.random::<f64>() * 200.0 - 100.0,
                1 => loop {
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_finite() {
                        break x;
                    }
                },
                // Log-uniform over 1e-165 … 1, either sign.
                _ => {
                    let x = (-165.0 * std::f64::consts::LN_10 * rng.random::<f64>()).exp();
                    if rng.random() {
                        -x
                    } else {
                        x
                    }
                }
            })
            .collect();
        let mut batch = Batch::new(2, xs.len());
        batch.set(0, Column::F64(xs, None));
        batch.set(1, Column::F64(vec![2.0; BATCH_ROWS], None));
        assert_pow_is_powf(&batch, &two[batch_no % two.len()]);
    }

    // Squares at the edges of the [2^-500, 2^501) window, powers of two
    // and their neighbours, subnormals, zeros, infinities and NaN.
    // 2^k from its bits (a folded `powi` differs between debug and release).
    let pow2 = |k: i64| match k {
        -1074..=-1023 => f64::from_bits(1 << (k + 1074)),
        _ => f64::from_bits(((k + 1023) as u64) << 52),
    };
    let root_two = std::f64::consts::SQRT_2;
    let mut edges = vec![0.0, f64::INFINITY, f64::NAN, f64::from_bits(1)];
    for centre in [
        pow2(-250),
        pow2(-251) * root_two,
        pow2(-250) * root_two,
        pow2(250),
        pow2(250) * root_two,
        pow2(251),
    ] {
        let (mut up, mut down) = (centre, centre);
        for _ in 0..64 {
            edges.extend([up, down]);
            (up, down) = (up.next_up(), down.next_down());
        }
    }
    for k in -1074..=1023 {
        let p = pow2(k);
        edges.extend([p, p.next_up(), p.next_down()]);
    }
    for _ in 0..1000 {
        edges.push(f64::from_bits(rng.next_u64() % (1 << 52)));
    }
    let negated: Vec<f64> = edges.iter().map(|x| -x).collect();
    edges.extend(negated);
    for two in &two[..2] {
        assert_pow_is_powf(&one_column(Column::F64(edges.clone(), None)), two);
    }

    // BIGINT bases; NULL rows in either operand.
    let ints: Vec<i64> = (0..4000)
        .map(|i| match i % 4 {
            0 => rng.random_range(0..2_000_001usize) as i64 - 1_000_000,
            1 => (rng.next_u64() >> 1) as i64,
            2 => -((rng.next_u64() >> 12) as i64),
            _ => [0, 1, -1, i64::MAX, i64::MIN, 1 << 26, 94_906_267][i / 4 % 7],
        })
        .collect();
    assert_pow_is_powf(&one_column(Column::I64(ints, None)), &two[0]);
    let n = 3000;
    let xs: Vec<f64> = (0..n)
        .map(|_| rng.random::<f64>() * 200.0 - 100.0)
        .collect();
    let holes = |rng: &mut StdRng| Some((0..n).map(|_| rng.random_range(0..5usize) > 0).collect());
    let mut batch = Batch::new(2, n);
    batch.set(0, Column::F64(xs.clone(), holes(&mut rng)));
    batch.set(1, Column::I64(vec![2; n], holes(&mut rng)));
    assert_pow_is_powf(&batch, &CExpr::Col(1));

    // Exponent columns mixing 2, 2.0, 0.5, 3, -2 and 2 + ulp, as DOUBLE,
    // as BIGINT and as a column of both (the per-row path); a negative
    // base only under an integral exponent.
    let doubles = [2.0, 0.5, 3.0, -2.0, 2f64.next_up()];
    let ys: Vec<f64> = (0..n)
        .map(|_| doubles[rng.random_range(0..5usize)])
        .collect();
    let bases = |ys: &[f64]| -> Vec<f64> {
        xs.iter()
            .zip(ys)
            .map(|(x, y)| if y.fract() == 0.0 { *x } else { x.abs() })
            .collect()
    };
    let mixed_ints: Vec<i64> = (0..n).map(|i| [2, 3, -2][i % 3]).collect();
    let mixed_values: Vec<Value> = ys
        .iter()
        .map(|&y| {
            if y == 2.0 {
                Value::Int(2)
            } else {
                Value::Double(y)
            }
        })
        .collect();
    for y in [
        Column::F64(ys.clone(), None),
        Column::I64(mixed_ints, None),
        Column::from_values(mixed_values),
    ] {
        let ys: Vec<f64> = (0..n).map(|r| y.value(r).as_f64().unwrap()).collect();
        let mut batch = Batch::new(2, n);
        batch.set(0, Column::F64(bases(&ys), None));
        batch.set(1, y);
        assert_pow_is_powf(&batch, &CExpr::Col(1));
    }

    // Under a CASE the kernel sees a selection vector's rows only:
    // CASE WHEN x > 0 THEN x ** y ELSE power(x, 2) END.
    let ys: Vec<f64> = (0..n)
        .map(|_| doubles[rng.random_range(0..5usize)])
        .collect();
    let case = CExpr::Case {
        whens: vec![(
            bin(BinOp::Gt, CExpr::Col(0), num(0.0)),
            bin(BinOp::Pow, CExpr::Col(0), CExpr::Col(1)),
        )],
        else_expr: Some(boxed(CExpr::Func(
            ScalarFunc::Power,
            vec![CExpr::Col(0), CExpr::Const(Value::Int(2))],
        ))),
    };
    let mut batch = Batch::new(2, n);
    batch.set(0, Column::F64(xs.clone(), holes(&mut rng)));
    batch.set(1, Column::F64(ys.clone(), None));
    let col = case.eval_batch(&batch).unwrap();
    for (row, x) in xs.iter().enumerate() {
        let cells = [batch.column(0).unwrap().value(row), Value::Double(ys[row])];
        let want = match cells[0] {
            Value::Null => Value::Null,
            _ if *x > 0.0 => Value::Double(x.powf(std::hint::black_box(ys[row]))),
            _ => Value::Double(x.powf(std::hint::black_box(2.0))),
        };
        let scalar = case.eval(&cells).unwrap();
        assert!(same_value(&scalar, &want), "{cells:?}: scalar {scalar:?}");
        assert!(same_value(&col.value(row), &want), "{cells:?}: batch");
    }

    // An undefined row fails the batch at that row, with the scalar
    // evaluator's error for `**` and for `power()` alike.
    let mut batch = Batch::new(2, 3);
    batch.set(0, Column::F64(vec![3.0, 4.0, -4.0], None));
    batch.set(1, Column::F64(vec![2.0, 0.5, 0.5], None));
    for expr in [
        bin(BinOp::Pow, CExpr::Col(0), CExpr::Col(1)),
        CExpr::Func(ScalarFunc::Power, vec![CExpr::Col(0), CExpr::Col(1)]),
    ] {
        let err = expr.eval_batch(&batch).unwrap_err();
        assert_eq!(err.row, 2);
        let want = expr.eval(&[Value::Double(-4.0), Value::Double(0.5)]);
        assert_eq!(Err(err.error), want);
    }
}

// ---------------------------------------------------------------------
// Part two: the pipeline's seams, as SQL
// ---------------------------------------------------------------------

/// `t(rid PRIMARY KEY, x)` with `x = rid / 2` (sums stay exact).
fn numbered(db: &mut Database, table: &str, n: usize) {
    db.execute(&format!(
        "CREATE TABLE {table} (rid BIGINT PRIMARY KEY, x DOUBLE)"
    ))
    .unwrap();
    let rows = (0..n).map(|i| vec![Value::Int(i as i64), Value::Double(i as f64 / 2.0)]);
    db.bulk_insert(table, rows).unwrap();
}

#[test]
fn driver_sizes_around_the_batch_boundary() {
    for n in [0, 1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
        let mut db = Database::new();
        numbered(&mut db, "t", n);
        let r = db
            .execute("SELECT count(*), sum(x), max(rid) FROM t")
            .unwrap();
        let sum = (0..n).map(|i| i as f64 / 2.0).sum::<f64>();
        assert_eq!(r.rows[0][0], Value::Int(n as i64), "n = {n}");
        if n == 0 {
            assert!(r.rows[0][1].is_null() && r.rows[0][2].is_null());
        } else {
            assert!(same_value(&r.rows[0][1], &Value::Double(sum)), "n = {n}");
            assert_eq!(r.rows[0][2], Value::Int(n as i64 - 1));
        }
        // A projection keeps every row, in storage order, with a lateral alias.
        let r = db.execute("SELECT rid, x * 2 AS y, y + 1 FROM t").unwrap();
        assert_eq!(r.rows.len(), n);
        for (i, row) in r.rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64));
            assert!(same_value(&row[1], &Value::Double(i as f64)));
            assert!(same_value(&row[2], &Value::Double(i as f64 + 1.0)));
        }
        // GROUP BY a clustered key: one group per row.
        let r = db
            .execute("SELECT rid, sum(x) FROM t GROUP BY rid")
            .unwrap();
        assert_eq!(r.rows.len(), n);
        assert!(r
            .rows
            .iter()
            .enumerate()
            .all(|(i, row)| row[0] == Value::Int(i as i64)));
    }
}

#[test]
fn fan_out_crosses_a_batch_boundary_in_driver_order() {
    let mut db = Database::new();
    numbered(&mut db, "t", 700);
    db.execute("CREATE TABLE u (rid BIGINT, j BIGINT, PRIMARY KEY (rid, j))")
        .unwrap();
    // Three matches per even rid, none per odd one.
    let rows = (0..700)
        .step_by(2)
        .flat_map(|rid| (0..3).map(move |j| vec![Value::Int(rid), Value::Int(j)]));
    db.bulk_insert("u", rows).unwrap();
    let r = db
        .execute("SELECT t.rid, u.j FROM t, u WHERE t.rid = u.rid")
        .unwrap();
    let want: Vec<(i64, i64)> = (0..700)
        .step_by(2)
        .flat_map(|rid| (0..3).map(move |j| (rid, j)))
        .collect();
    assert_eq!(want.len(), 1050);
    let got: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, want);

    // A broadcast multiplies every driver row; a residual then thins it.
    db.execute("CREATE TABLE s (k BIGINT)").unwrap();
    db.execute("INSERT INTO s VALUES (1), (2), (3), (4)")
        .unwrap();
    let r = db.execute("SELECT count(*), sum(k) FROM t, s").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2800));
    assert_eq!(r.rows[0][1], Value::Int(7000));
    let r = db
        .execute("SELECT t.rid, k FROM t, s WHERE t.rid + k = 700")
        .unwrap();
    let got: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    assert_eq!(got, vec![(696, 4), (697, 3), (698, 2), (699, 1)]);
}

#[test]
fn a_filter_may_empty_whole_batches() {
    let mut db = Database::new();
    numbered(&mut db, "t", 3000);
    let r = db
        .execute("SELECT rid FROM t WHERE rid >= 2048 AND rid < 2051")
        .unwrap();
    let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![2048, 2049, 2050]);
    let r = db
        .execute("SELECT count(*), sum(x) FROM t WHERE x < 0")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert!(r.rows[0][1].is_null());
    // A residual (two-table predicate) that rejects every joined row of
    // the first two batches.
    numbered(&mut db, "u", 3000);
    let r = db
        .execute("SELECT t.rid FROM t, u WHERE t.rid = u.rid AND t.x + u.x >= 2998")
        .unwrap();
    let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(got, vec![2998, 2999]);
}

#[test]
fn the_first_failing_row_decides_the_error_across_pipeline_steps() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (rid BIGINT PRIMARY KEY, a DOUBLE, b DOUBLE)")
        .unwrap();
    // Row 2 fails in the second item, row 3 in the first.
    db.execute("INSERT INTO t VALUES (0, 1, 1), (1, 1, 1), (2, 1, 0), (3, -1, 1)")
        .unwrap();
    let err = db.execute("SELECT ln(a), 1 / b FROM t").unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
    // The filter fails on row 3 only; the projection fails first, on row 2.
    let err = db
        .execute("SELECT 1 / b FROM t WHERE ln(a) >= 0")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
    let err = db
        .execute("SELECT sum(1 / b) FROM t WHERE rid < 2 OR ln(a) >= 0")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
    // With row 2 filtered away it is row 3's turn.
    let err = db
        .execute("SELECT sum(1 / b) FROM t WHERE rid <> 2 AND ln(a) >= 0")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("ln(-1) is undefined".into()));
}

#[test]
fn a_build_filter_guards_a_computed_build_key() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x DOUBLE)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (0), (0.5)").unwrap();
    // `d` is 0 in every third row and -1 in the last one, over more
    // than two batches: the rows the filter rejects must never reach
    // the key expression.
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, d DOUBLE)")
        .unwrap();
    let n = 2 * BATCH_ROWS + 2;
    let rows = (0..n).map(|i| {
        let d = match i {
            i if i + 1 == n => -1.0,
            i if i % 3 == 0 => 0.0,
            i => (i % 3) as f64,
        };
        vec![Value::Int(i as i64), Value::Double(d)]
    });
    db.bulk_insert("t", rows).unwrap();

    let r = db
        .execute("SELECT a.x, count(*), min(t.id) FROM a, t WHERE t.d > 0 AND a.x = 1 / t.d GROUP BY a.x")
        .unwrap();
    let got: Vec<(f64, i64, i64)> = r
        .rows
        .iter()
        .map(|row| {
            (
                row[0].as_f64().unwrap(),
                row[1].as_i64().unwrap(),
                row[2].as_i64().unwrap(),
            )
        })
        .collect();
    let per_residue = (n as i64 - 1) / 3;
    assert_eq!(got, vec![(1.0, per_residue, 1), (0.5, per_residue, 2)]);
    let r = db
        .execute("SELECT a.x, t.id FROM a, t WHERE t.d > 0 AND t.id < 3 AND a.x = ln(t.d)")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Double(0.0), Value::Int(1)].into_boxed_slice()]
    );

    // A filter that lets a bad row through fails with that row's error —
    // the first in row order, whichever expression raises it.
    let err = db
        .execute("SELECT count(*) FROM a, t WHERE t.d >= 0 AND a.x = 1 / t.d")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
    let err = db
        .execute("SELECT count(*) FROM a, t WHERE t.d <> 0 AND a.x = ln(t.d)")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("ln(-1) is undefined".into()));
    // Row 0 fails in the filter before the last row fails in the key.
    let err = db
        .execute("SELECT count(*) FROM a, t WHERE 1 / t.d <> 0 AND a.x = ln(t.d)")
        .unwrap_err();
    assert_eq!(err, Error::Arithmetic("division by zero".into()));
}

/// Doubles by bit pattern, everything else as it prints.
fn cells(rows: &[sqlengine::Row]) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Double(d) => format!("double:{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter().map(|r| r.iter().map(cell).collect()).collect()
}

#[test]
fn primary_key_index_join_equals_the_built_hash_join() {
    let mut rng = StdRng::seed_from_u64(0xB07D_3A11);
    let mut db = Database::new();
    // The probe side: keys as DOUBLE (1.0 must find BIGINT 1), some
    // NULL, some without a partner.
    db.execute("CREATE TABLE z (rid DOUBLE, v BIGINT, y DOUBLE)")
        .unwrap();
    let z_rows = (0..2500).map(|_| {
        let rid = match rng.random_range(0..10usize) {
            0 => Value::Null,
            _ => Value::Double(rng.random_range(0..1500usize) as f64),
        };
        vec![
            rid,
            Value::Int(rng.random_range(0..3usize) as i64),
            Value::Double(special_double(&mut rng)),
        ]
    });
    db.bulk_insert("z", z_rows).unwrap();
    // The build side twice: with its primary key, and without.
    db.execute("CREATE TABLE keyed (rid BIGINT, v BIGINT, x DOUBLE, PRIMARY KEY (rid, v))")
        .unwrap();
    db.execute("CREATE TABLE bare (rid BIGINT, v BIGINT, x DOUBLE)")
        .unwrap();
    let mut build_rows = Vec::new();
    for rid in 0..1200 {
        for v in 0..3 {
            if rng.random_range(0..5usize) > 0 {
                build_rows.push(vec![
                    Value::Int(rid),
                    Value::Int(v),
                    Value::Double(special_double(&mut rng)),
                ]);
            }
        }
    }
    db.bulk_insert("keyed", build_rows.clone()).unwrap();
    db.bulk_insert("bare", build_rows).unwrap();

    let plan = |db: &mut Database, t: &str| -> String {
        let sql = format!("EXPLAIN SELECT y FROM z, {t} WHERE {t}.v = z.v AND z.rid = {t}.rid");
        db.execute(&sql).unwrap().rows[1][0].to_string()
    };
    assert_eq!(
        plan(&mut db, "keyed"),
        "hash join: keyed on 2 key(s) (primary-key index)"
    );
    assert!(plan(&mut db, "bare").starts_with("hash join: bare on 2 key(s) ("));
    assert!(plan(&mut db, "bare").ends_with("distinct build keys)"));

    db.enable_metrics();
    for shape in [
        "SELECT z.rid, z.y * @.x, @.v FROM z, @ WHERE @.v = z.v AND z.rid = @.rid",
        "SELECT z.v, sum(z.y * @.x), count(*) FROM z, @ WHERE z.rid = @.rid AND z.v = @.v GROUP BY z.v",
        // Only part of the key: no index can serve this one, on either table.
        "SELECT count(*), sum(@.x) FROM z, @ WHERE z.rid = @.rid",
        // A build-side filter keeps the index out as well.
        "SELECT count(*) FROM z, @ WHERE z.rid = @.rid AND z.v = @.v AND @.x > 0",
    ] {
        let keyed = db.execute(&shape.replace('@', "keyed")).unwrap();
        let bare = db.execute(&shape.replace('@', "bare")).unwrap();
        assert_eq!(cells(&keyed.rows), cells(&bare.rows), "{shape}");
        assert!(!keyed.rows.is_empty());
    }
    // What the index saves is on the record: nothing hashed, nothing
    // charged for the join, every probe counted the same.
    let m = db.take_metrics();
    let (keyed, bare) = (&m[0], &m[1]);
    assert_eq!(keyed.join_build_rows, 0);
    assert!(bare.join_build_rows > 0);
    assert_eq!(keyed.join_probe_rows, bare.join_probe_rows);
    assert_eq!(keyed.expr_evals, bare.expr_evals);
    assert_eq!(keyed.scans.len(), 2);
    assert!(keyed.scans[1].build && keyed.scans[1].table == "keyed");
    assert!(keyed.peak_mem_bytes < bare.peak_mem_bytes);
    assert_eq!(m[4].join_build_rows, m[5].join_build_rows);
    assert_eq!(m[6].join_build_rows, m[7].join_build_rows);
}

#[test]
fn one_database_and_two_shards_return_the_same_rows_and_the_same_counts() {
    fn run(db: &mut dyn SqlExecutor) -> (Vec<Vec<Vec<String>>>, Vec<ExecMetrics>) {
        for table in ["t", "u"] {
            db.execute(&format!(
                "CREATE TABLE {table} (rid BIGINT PRIMARY KEY, x DOUBLE)"
            ))
            .unwrap();
            let row = |i: i64| vec![Value::Int(i), Value::Double(i as f64 / 2.0)];
            db.bulk_insert_rows(table, (0..9000).map(row).collect())
                .unwrap();
        }
        db.execute("CREATE TABLE o (rid BIGINT PRIMARY KEY, s DOUBLE)")
            .unwrap();
        db.set_metrics_enabled(true).unwrap();
        let from = db.metrics_len().unwrap();
        let mut results = Vec::new();
        for sql in [
            "SELECT count(*), sum(t.x * u.x), avg(u.x) FROM t, u WHERE t.rid = u.rid",
            "SELECT t.rid, exp(-0.5 * u.x / 4500) FROM t, u \
             WHERE t.rid = u.rid AND t.rid >= 4000 ORDER BY t.rid",
            "INSERT INTO o SELECT rid, sum(x * x) FROM t WHERE rid <> 5000 GROUP BY rid",
            "SELECT count(*), sum(s) FROM o",
        ] {
            results.push(cells(&db.execute(sql).unwrap().rows));
        }
        (results, db.metrics_since(from).unwrap())
    }
    let (rows1, metrics1) = run(&mut Database::new());
    let shards = vec![Database::new(), Database::new()];
    let (rows2, metrics2) = run(&mut Coordinator::new(shards).unwrap());
    assert_eq!(rows1, rows2);
    // Not expression evaluations (a shard evaluates a gathered read's
    // sort keys as items too) or peak memory (each shard's own).
    let shared = |m: &ExecMetrics| {
        let work = (m.join_build_rows, m.join_probe_rows, m.groups);
        (m.scans.clone(), m.rows_produced, m.rows_inserted, work)
    };
    assert_eq!(metrics1.len(), metrics2.len());
    for (a, b) in metrics1.iter().zip(&metrics2) {
        assert_eq!(shared(a), shared(b));
    }
}
