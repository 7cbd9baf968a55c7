//! SQL text formatting helpers for the generators.

/// Format an `f64` as a SQL literal that round-trips exactly.
///
/// Rust's shortest-round-trip formatting (`{}`) is used; it always
/// produces a form the engine's lexer accepts (`1.5`, `1e-100`, `-0.25`).
/// Infinite/NaN values are generator bugs and panic loudly.
pub fn lit(x: f64) -> String {
    assert!(x.is_finite(), "non-finite literal {x} in generated SQL");
    // Rust's Display never uses exponent notation, so 1e-100 would become
    // a 102-character decimal; switch to `{:e}` outside a sane range.
    let a = x.abs();
    if x != 0.0 && !(1e-5..1e15).contains(&a) {
        format!("{x:e}")
    } else {
        format!("{x}")
    }
}

/// `f(1) sep f(2) sep … sep f(count)` — the unrolled per-cluster and
/// per-dimension term lists every generated statement is made of.
pub fn unroll(count: usize, sep: &str, f: impl Fn(usize) -> String) -> String {
    (1..=count).map(f).collect::<Vec<_>>().join(sep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_round_trip_through_the_engine_lexer() {
        for &x in &[
            0.0,
            -0.5,
            1.0e-100,
            123456.789,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -3.0303030303030304e-1,
        ] {
            let s = lit(x);
            let toks = sqlengine::lexer::lex(&s).unwrap();
            let parsed = match toks.as_slice() {
                [one] => match &one.tok {
                    sqlengine::lexer::Token::Number(v) => *v,
                    sqlengine::lexer::Token::Int(v) => *v as f64,
                    other => panic!("unexpected token {other:?}"),
                },
                [sign, mag] => {
                    assert_eq!(sign.tok, sqlengine::lexer::Token::Minus);
                    match &mag.tok {
                        sqlengine::lexer::Token::Number(v) => -*v,
                        sqlengine::lexer::Token::Int(v) => -(*v as f64),
                        other => panic!("unexpected token {other:?}"),
                    }
                }
                other => panic!("unexpected tokens {other:?}"),
            };
            assert_eq!(parsed, x, "literal {s} did not round-trip");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite literal")]
    fn non_finite_rejected() {
        lit(f64::NAN);
    }

    #[test]
    fn helpers() {
        assert_eq!(unroll(3, " + ", |j| format!("p{j}")), "p1 + p2 + p3");
        assert_eq!(unroll(0, ", ", |d| format!("y{d}")), "");
    }
}
