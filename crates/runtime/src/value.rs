//! Message payloads.
//!
//! HOPE is language-agnostic about what messages carry; the runtime uses a
//! small dynamic [`Value`] so examples and benchmarks can exchange realistic
//! payloads without making every process generic. Values are totally
//! ordered (tests compare them) and 32 bytes wide.
//!
//! Journaling clones them: a send's payload, every journaled receive and
//! its replay, and every snapshot [`restore`](crate::Ctx::restore) hands
//! back. `Unit`, `Bool` and `Int` clone by copying; `Str`, `List` and
//! `Bytes` allocate on every clone, and a `List` once more per element that
//! allocates. A payload on a hot path should therefore be one `Int` where it
//! fits — a PHOLD event packs its timestamp and hop count into one
//! (`hope-timewarp`'s `Event`) — and bulk state one `Bytes`, which clones
//! with one allocation and one copy.

use std::fmt;

/// A dynamically typed message payload.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// No payload.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// A string.
    Str(String),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A byte string: bulk state, one allocation whatever its length.
    Bytes(Vec<u8>),
}

impl Value {
    /// The contained integer, if this is `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained boolean, if this is `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained string, if this is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained list, if this is `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// The contained bytes, if this is `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The integer, panicking with a descriptive message otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Int`. Convenient in examples where the
    /// protocol fixes the payload shape.
    pub fn expect_int(&self) -> i64 {
        self.as_int()
            .unwrap_or_else(|| panic!("expected Int, got {self:?}"))
    }

    /// The string, panicking otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `Str`.
    pub fn expect_str(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected Str, got {self:?}"))
    }

    /// The list, panicking otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the value is not `List`.
    pub fn expect_list(&self) -> &[Value] {
        self.as_list()
            .unwrap_or_else(|| panic!("expected List, got {self:?}"))
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Bytes(bytes) => {
                write!(f, "0x")?;
                bytes.iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(5u32), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(String::from("hi")), Value::Str("hi".into()));
        assert_eq!(Value::from(()), Value::Unit);
        let l: Value = vec![Value::Int(1), Value::Int(2)].into();
        assert_eq!(l.as_list().unwrap().len(), 2);
        let c: Value = [Value::Int(1)].into_iter().collect();
        assert_eq!(c, Value::List(vec![Value::Int(1)]));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Unit.as_int(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Unit.as_str(), None);
        assert_eq!(Value::Int(3).expect_int(), 3);
        assert_eq!(Value::Str("s".into()).expect_str(), "s");
        assert_eq!(Value::List(vec![Value::Unit]).expect_list(), &[Value::Unit]);
        assert_eq!(Value::Bytes(vec![1, 255]).as_bytes(), Some(&[1, 255][..]));
        assert_eq!(Value::List(vec![]).as_bytes(), None);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn expect_int_panics() {
        Value::Unit.expect_int();
    }

    #[test]
    fn display() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("x".into())]).to_string(),
            "[1, x]"
        );
        assert_eq!(Value::Bytes(vec![0, 10, 255]).to_string(), "0x000aff");
    }

    #[test]
    fn a_value_is_four_words() {
        assert_eq!(std::mem::size_of::<Value>(), 32);
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }
}
