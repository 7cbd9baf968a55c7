//! Key cells as the table and hash-table models order and compare them.

use sqlengine::Value;

/// One key cell as the model orders it: the equality the engine
/// documents, stated independently — NULL equals NULL, a number equals
/// the numbers with its exact value (`1 = 1.0`, `-0.0 = 0.0`, every NaN
/// one value, 2^53 + 1 not the double 2^53), a string itself.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyCell {
    Null,
    Integer(i64),
    /// A double that is no `i64`, by its bits (NaNs collapsed).
    Other(u64),
    Str(String),
}

pub fn key_cell(v: &Value) -> KeyCell {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    match v {
        Value::Null => KeyCell::Null,
        Value::Int(i) => KeyCell::Integer(*i),
        Value::Double(d) if d.fract() == 0.0 && *d >= -TWO_63 && *d < TWO_63 => {
            KeyCell::Integer(*d as i64)
        }
        Value::Double(d) if d.is_nan() => KeyCell::Other(f64::NAN.to_bits()),
        Value::Double(d) => KeyCell::Other(d.to_bits()),
        Value::Str(s) => KeyCell::Str(s.to_string()),
    }
}

/// Same variant, doubles by bit pattern.
pub fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}
