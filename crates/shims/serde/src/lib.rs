//! Offline shim for `serde`.
//!
//! The build container cannot fetch crates, so this crate supplies the
//! subset of serde the workspace relies on: `Serialize` / `Deserialize`
//! traits (plus their derive macros from the sibling `serde_derive` shim)
//! and a JSON-shaped [`Value`] tree. Unlike real serde there is no
//! `Serializer`/`Deserializer` abstraction: serialization always goes
//! through `Value`, and the sibling `serde_json` shim renders/parses it.
//!
//! The derive macros support exactly the shapes used in this workspace:
//! structs with named fields, single-field tuple structs (newtypes), and
//! enums whose variants are all unit variants; named fields take the
//! `rename`, `skip` and `skip_serializing_if` attributes (see
//! `serde_derive`).

mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Number, Value};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Serialization: convert `self` into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Deserialization: reconstruct `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

// ---- Serialize impls for primitives and std containers ----

macro_rules! ser_int {
    ($($t:ty)*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i128(*self as i128))
            }
        }
    )*};
}
ser_int!(i8 i16 i32 i64 isize u8 u16 u32 usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::U64(*self))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

// ---- Deserialize impls ----

macro_rules! de_int {
    ($($t:ty)*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::custom(format!(
                        "expected integer, got {}", v.kind()
                    )))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("integer {n} out of range")))
            }
        }
    )*};
}
de_int!(i8 i16 i32 i64 isize u8 u16 u32 usize);

impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_u64()
            .ok_or_else(|| Error::custom(format!("expected u64, got {}", v.kind())))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::custom(format!("expected number, got {}", v.kind())))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::custom(format!("expected bool, got {}", v.kind())))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom(format!("expected string, got {}", v.kind())))
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(Error::custom(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(map) => map
                .iter()
                .map(|(k, v)| V::from_value(v).map(|v| (k.clone(), v)))
                .collect(),
            other => Err(Error::custom(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_round_trip() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(
            Option::<u32>::from_value(&some.to_value()).unwrap(),
            Some(7)
        );
        assert_eq!(Option::<u32>::from_value(&none.to_value()).unwrap(), None);
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        let v = m.to_value();
        assert_eq!(BTreeMap::<String, u32>::from_value(&v).unwrap(), m);
    }
}
