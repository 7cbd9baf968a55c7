//! Seeded property: the parser inverts the AST renderer for the whole
//! expression grammar — `parse(render(e))` reproduces `e`.
//!
//! The generators build SQL by string concatenation, so any disagreement
//! between what the renderer considers valid and what the parser accepts
//! is a bug class this test closes. It is also the round trip a cluster
//! coordinator relies on when it ships `stmt.to_string()` to its shards.
//! Cases draw from the in-repo `prng`, so a failure reproduces from its
//! case number.

use prng::{Rng, StdRng};
use sqlengine::ast::{BinOp, Expr, SelectItem, Statement, UnaryOp};
use sqlengine::parser::parse_one;
use sqlengine::value::Value;

/// A random expression tree (aggregate-free — aggregates have
/// positional restrictions the renderer does not encode), at most
/// `depth` operators deep.
fn gen_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return gen_leaf(rng);
    }
    let sub = |rng: &mut StdRng| Box::new(gen_expr(rng, depth - 1));
    match rng.random_range(0..7) {
        0 => {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Pow,
                BinOp::Eq,
                BinOp::Neq,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
                BinOp::Or,
            ];
            let op = ops[rng.random_range(0..ops.len())];
            let (left, right) = (sub(rng), sub(rng));
            Expr::Binary { op, left, right }
        }
        1 => Expr::Unary {
            op: UnaryOp::Not,
            expr: sub(rng),
        },
        2 => Expr::Unary {
            op: UnaryOp::Neg,
            expr: sub(rng),
        },
        3 => Expr::IsNull {
            expr: sub(rng),
            negated: rng.random(),
        },
        4 => Expr::Func {
            name: "exp".into(),
            args: vec![*sub(rng)],
        },
        5 => Expr::Func {
            name: "power".into(),
            args: vec![*sub(rng), *sub(rng)],
        },
        _ => Expr::Case {
            whens: (0..rng.random_range(1..3))
                .map(|_| (*sub(rng), *sub(rng)))
                .collect(),
            else_expr: rng.random::<bool>().then(|| sub(rng)),
        },
    }
}

fn gen_leaf(rng: &mut StdRng) -> Expr {
    match rng.random_range(0..6) {
        0 => Expr::Literal(Value::Int(rng.random_range(0..1000) as i64)),
        1 => Expr::Literal(Value::Int(-(rng.random_range(1..101) as i64))),
        // A finite double, never -0.0 (a zero difference is +0.0);
        // rendered via {:?}, which round-trips exactly.
        2 => Expr::Literal(Value::Double(rng.random::<f64>() * 2.0e6 - 1.0e6)),
        3 => Expr::Literal(Value::Null),
        4 => Expr::Column {
            table: None,
            name: gen_ident(rng, 7),
        },
        _ => Expr::Column {
            table: Some(gen_ident(rng, 5)),
            name: gen_ident(rng, 5),
        },
    }
}

/// `[a-z][a-z0-9_]{0,max_len-1}`, never a reserved word.
fn gen_ident(rng: &mut StdRng, max_len: usize) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let mut name = String::from((b'a' + rng.random_range(0..26) as u8) as char);
        for _ in 0..rng.random_range(0..max_len) {
            name.push(TAIL[rng.random_range(0..TAIL.len())] as char);
        }
        if !is_reserved(&name) {
            return name;
        }
    }
}

fn is_reserved(s: &str) -> bool {
    // Superset of the parser's reserved list plus function names and the
    // bare literals that parse specially.
    const WORDS: &[&str] = &[
        "select", "from", "where", "group", "by", "order", "insert", "into", "values", "update",
        "set", "delete", "create", "drop", "table", "primary", "key", "and", "or", "not", "null",
        "is", "case", "when", "then", "else", "end", "as", "having", "limit", "if", "exists",
        "asc", "desc", "distinct", "on", "join", "inner", "left", "right", "explain", "exp", "ln",
        "log", "sqrt", "abs", "power", "pow", "floor", "ceil", "ceiling", "round", "sign", "mod",
        "least", "greatest", "coalesce", "sum", "count", "avg", "min", "max",
    ];
    WORDS.contains(&s)
}

/// The Neg-of-negative-literal case folds during parsing; normalize both
/// sides the same way before comparing.
fn normalize(e: &Expr) -> Expr {
    match e {
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match normalize(expr) {
            Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
            Expr::Literal(Value::Double(d)) => Expr::Literal(Value::Double(-d)),
            inner => Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            },
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(normalize(expr)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(normalize(left)),
            right: Box::new(normalize(right)),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(normalize).collect(),
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: whens
                .iter()
                .map(|(c, r)| (normalize(c), normalize(r)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(normalize(e))),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize(expr)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

#[test]
fn parse_inverts_render() {
    for case in 0..256 {
        let e = gen_expr(&mut StdRng::seed_from_u64(case), 4);
        let sql = format!("SELECT {e}");
        let stmt = parse_one(&sql)
            .unwrap_or_else(|err| panic!("case {case}: failed to parse {sql:?}: {err}"));
        let Statement::Select(sel) = stmt else {
            panic!("case {case}: not a select");
        };
        let [SelectItem::Expr { expr, .. }] = sel.items.as_slice() else {
            panic!("case {case}: wrong item shape");
        };
        assert_eq!(
            normalize(expr),
            normalize(&e),
            "case {case}: sql was: {sql}"
        );
    }
}
