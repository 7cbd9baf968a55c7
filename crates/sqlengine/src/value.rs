//! Runtime values and their scalar semantics.
//!
//! The engine stores three scalar types, which is all the SQLEM workload
//! needs: 64-bit integers (row ids, cluster ids, counts), 64-bit floats
//! (every statistical quantity) and strings (only used by a few metadata
//! columns and tests). `NULL` is a first-class value with SQL semantics:
//! arithmetic propagates it, comparisons in WHERE treat it as "unknown"
//! (filtered out), and aggregates skip it — the hybrid E step relies on this
//! via `CASE WHEN sump>0 THEN ln(sump) END` producing NULL llh cells that
//! `SUM` must ignore.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};

/// Declared type of a table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    BigInt,
    /// 64-bit IEEE-754 float ("DOUBLE PRECISION" / "FLOAT").
    Double,
    /// UTF-8 string.
    Varchar,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::BigInt => write!(f, "BIGINT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Varchar => write!(f, "VARCHAR"),
        }
    }
}

/// A runtime scalar value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// SQL NULL.
    #[default]
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// String.
    Str(Box<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Box<str>>) -> Self {
        Value::Str(s.into())
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`DataType`] of a non-null value; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::BigInt),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Varchar),
        }
    }

    /// Numeric view of the value as an `f64`.
    ///
    /// Integers widen losslessly for the magnitudes the engine works with.
    /// Returns `None` for NULL and strings.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Integer view; `Double` converts only when it is an exact integer.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Double(d) if d.fract() == 0.0 && d.abs() < 9.0e15 => Some(*d as i64),
            _ => None,
        }
    }

    /// Coerce this value to `ty` for storage, per SQL assignment rules.
    ///
    /// NULL is storable in any column. Int ↔ Double widen/narrow (narrowing
    /// requires exactness). Everything else is a [`Error::TypeMismatch`].
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(_), DataType::BigInt) => Ok(self.clone()),
            (Value::Double(_), DataType::Double) => Ok(self.clone()),
            (Value::Str(_), DataType::Varchar) => Ok(self.clone()),
            (Value::Int(i), DataType::Double) => Ok(Value::Double(*i as f64)),
            (Value::Double(d), DataType::BigInt) => {
                if d.fract() == 0.0 && d.abs() < 9.0e15 {
                    Ok(Value::Int(*d as i64))
                } else {
                    Err(Error::TypeMismatch {
                        context: format!("cannot store non-integral {d} in BIGINT column"),
                    })
                }
            }
            (v, ty) => Err(Error::TypeMismatch {
                context: format!("cannot store {v} in {ty} column"),
            }),
        }
    }

    /// SQL three-valued truthiness: `Some(bool)` for known, `None` for NULL.
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i != 0),
            Value::Double(d) => Some(*d != 0.0),
            Value::Str(s) => Some(!s.is_empty()),
        }
    }

    /// SQL equality (`=`): NULL compared to anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            // Two BIGINTs compare as integers: their doubles collide past 2^53.
            (Value::Int(a), Value::Int(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
        })
    }

    /// SQL ordering comparison; `None` when either side is NULL or the types
    /// are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total ordering used by ORDER BY and sort-based operators: NULLs sort
    /// first, numbers before strings, NaN after all other numbers.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Double(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let x = a.as_f64().unwrap();
                let y = b.as_f64().unwrap();
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Is the double `d` exactly the integer `i`? Decided without rounding
/// `i`: past 2^53 neighbouring integers share a double, and `2^63 as i64`
/// saturates to `i64::MAX`.
fn int_eq_double(i: i64, d: f64) -> bool {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    (-TWO_63..TWO_63).contains(&d) && d as i64 == i && i as f64 == d
}

/// Grouping/join-key equality: unlike SQL `=`, NULL equals NULL here
/// (GROUP BY puts NULLs in one group) and `1 = 1.0`. Exact: two BIGINTs
/// compare as integers and a BIGINT equals a DOUBLE only when the double
/// is that integer, so keys past 2^53 stay distinct and equality stays
/// transitive. `-0.0 == 0.0` and `NaN == NaN`, as [`Hash`] has them.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Int(i), Value::Double(d)) | (Value::Double(d), Value::Int(i)) => {
                int_eq_double(*i, *d)
            }
            (Value::Double(x), Value::Double(y)) => x == y || (x.is_nan() && y.is_nan()),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            v => {
                state.write_u8(1);
                // Hash the canonical f64 bit pattern so Int(1) and
                // Double(1.0) land in the same bucket, matching PartialEq
                // (distinct BIGINTs past 2^53 may share a bucket, no more).
                let x = v.as_f64().unwrap();
                let bits = if x.is_nan() {
                    f64::NAN.to_bits()
                } else if x == 0.0 {
                    0u64 // collapse -0.0 and +0.0
                } else {
                    x.to_bits()
                };
                state.write_u64(bits);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into_boxed_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_propagates_in_sql_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn int_double_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Double(3.0)));
        assert_ne!(Value::Int(3), Value::Double(3.5));
    }

    #[test]
    fn bigints_past_2_pow_53_stay_distinct_and_equality_is_exact() {
        let (a, b) = (9_007_199_254_740_992_i64, 9_007_199_254_740_993_i64);
        assert_ne!(Value::Int(a), Value::Int(b));
        assert_eq!(Value::Int(a).sql_eq(&Value::Int(b)), Some(false));
        assert_eq!(Value::Int(a).sql_cmp(&Value::Int(b)), Some(Ordering::Less));
        assert_eq!(Value::Int(a).total_cmp(&Value::Int(b)), Ordering::Less);
        // The double 2^53 is the integer `a` and no other.
        assert_eq!(Value::Int(a), Value::Double(a as f64));
        assert_ne!(Value::Int(b), Value::Double(b as f64));
        assert_eq!(hash_of(&Value::Int(a)), hash_of(&Value::Double(a as f64)));
        // 2^63 is no i64, though `as` saturates it to i64::MAX.
        assert_ne!(Value::Int(i64::MAX), Value::Double(i64::MAX as f64));
        assert_eq!(Value::Int(i64::MIN), Value::Double(i64::MIN as f64));
        assert_ne!(Value::Int(1), Value::Double(1.5));
        assert_ne!(Value::Int(0), Value::Double(f64::NAN));
    }

    #[test]
    fn negative_zero_groups_with_zero() {
        assert_eq!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Double(0.0)));
    }

    #[test]
    fn nan_is_self_equal_for_grouping() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn null_groups_with_null_but_not_values() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::str(""));
    }

    #[test]
    fn coercion_widens_and_narrows_exactly() {
        assert_eq!(
            Value::Int(2).coerce_to(DataType::Double).unwrap(),
            Value::Double(2.0)
        );
        assert_eq!(
            Value::Double(5.0).coerce_to(DataType::BigInt).unwrap(),
            Value::Int(5)
        );
        assert!(Value::Double(5.5).coerce_to(DataType::BigInt).is_err());
        assert!(Value::str("x").coerce_to(DataType::Double).is_err());
        assert_eq!(
            Value::Null.coerce_to(DataType::Double).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn total_cmp_sorts_nulls_first_and_nan_last() {
        let mut vals = [
            Value::Double(f64::NAN),
            Value::Int(2),
            Value::Null,
            Value::Double(-1.0),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Double(-1.0));
        assert_eq!(vals[2], Value::Int(2));
        assert!(matches!(vals[3], Value::Double(d) if d.is_nan()));
    }

    #[test]
    fn sql_cmp_none_on_null_or_mixed_types() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn truthiness_follows_sql() {
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Int(0).truthiness(), Some(false));
        assert_eq!(Value::Double(0.5).truthiness(), Some(true));
    }
}
