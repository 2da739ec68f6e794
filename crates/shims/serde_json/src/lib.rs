//! Offline shim for `serde_json`.
//!
//! Renders and parses JSON text over the serde shim's [`Value`] tree and
//! provides a `json!` macro covering the workspace's usage (object /
//! array literals with expression values, including nested bare `{...}`
//! and `[...]`; object keys must be string literals).

mod parse;

pub use serde::{Error, Number, Value};

use serde::{Deserialize, Serialize};

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string())
}

/// Serializes a value to pretty JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_string_pretty())
}

/// Converts a value to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Support for the `json!` macro: serializes by reference so interpolating
/// a field does not move it (matches real serde_json). Not public API.
#[doc(hidden)]
pub fn __json_to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse::parse(s)?;
    T::from_value(&value)
}

/// Reconstructs a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supports nested objects/arrays, `null`, and arbitrary interpolated
/// expressions (anything with an `Into<Value>` impl). Object keys must be
/// string literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        let mut array: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_internal!(@array array $($tt)*);
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        let mut object: ::std::collections::BTreeMap<::std::string::String, $crate::Value> =
            ::std::collections::BTreeMap::new();
        $crate::json_internal!(@object object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::__json_to_value(&$other) };
}

/// Implementation detail of [`json!`]: munches object entries / array
/// elements one value at a time. Nested `{...}`/`[...]` values are matched
/// as token groups before the generic `expr` arms (a bare brace literal is
/// not a Rust expression).
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ---- objects ----
    (@object $map:ident) => {};
    (@object $map:ident ,) => {};
    (@object $map:ident $key:literal : null , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::Value::Null);
        $crate::json_internal!(@object $map $($rest)*);
    };
    (@object $map:ident $key:literal : null) => {
        $map.insert(($key).to_string(), $crate::Value::Null);
    };
    (@object $map:ident $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::json!({ $($inner)* }));
        $crate::json_internal!(@object $map $($rest)*);
    };
    (@object $map:ident $key:literal : { $($inner:tt)* }) => {
        $map.insert(($key).to_string(), $crate::json!({ $($inner)* }));
    };
    (@object $map:ident $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_internal!(@object $map $($rest)*);
    };
    (@object $map:ident $key:literal : [ $($inner:tt)* ]) => {
        $map.insert(($key).to_string(), $crate::json!([ $($inner)* ]));
    };
    (@object $map:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert(($key).to_string(), $crate::__json_to_value(&$value));
        $crate::json_internal!(@object $map $($rest)*);
    };
    (@object $map:ident $key:literal : $value:expr) => {
        $map.insert(($key).to_string(), $crate::__json_to_value(&$value));
    };
    // ---- arrays ----
    (@array $array:ident) => {};
    (@array $array:ident ,) => {};
    (@array $array:ident null , $($rest:tt)*) => {
        $array.push($crate::Value::Null);
        $crate::json_internal!(@array $array $($rest)*);
    };
    (@array $array:ident null) => {
        $array.push($crate::Value::Null);
    };
    (@array $array:ident { $($inner:tt)* } , $($rest:tt)*) => {
        $array.push($crate::json!({ $($inner)* }));
        $crate::json_internal!(@array $array $($rest)*);
    };
    (@array $array:ident { $($inner:tt)* }) => {
        $array.push($crate::json!({ $($inner)* }));
    };
    (@array $array:ident [ $($inner:tt)* ] , $($rest:tt)*) => {
        $array.push($crate::json!([ $($inner)* ]));
        $crate::json_internal!(@array $array $($rest)*);
    };
    (@array $array:ident [ $($inner:tt)* ]) => {
        $array.push($crate::json!([ $($inner)* ]));
    };
    (@array $array:ident $value:expr , $($rest:tt)*) => {
        $array.push($crate::__json_to_value(&$value));
        $crate::json_internal!(@array $array $($rest)*);
    };
    (@array $array:ident $value:expr) => {
        $array.push($crate::__json_to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_scalars() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(3), Value::from(3));
        assert_eq!(json!("hi"), Value::from("hi"));
        let x = 4u64;
        assert_eq!(json!(x + 1), Value::from(5u64));
    }

    #[test]
    fn json_macro_nested() {
        let items = vec!["a".to_string(), "b".to_string()];
        let v = json!({
            "name": "test",
            "meta": { "count": items.len(), "tags": items },
            "flags": [true, false, null],
            "nothing": null,
        });
        assert_eq!(v["name"], "test");
        assert_eq!(v["meta"]["count"], 2usize);
        assert_eq!(v["meta"]["tags"][1], "b");
        assert_eq!(v["flags"][2], Value::Null);
        assert!(v["nothing"].is_null());
    }

    #[test]
    fn to_string_round_trip() {
        let v = json!({"a": [1, 2], "b": {"c": "d"}});
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Attributed {
        #[serde(rename = "at_ms")]
        at: u64,
        #[serde(skip)]
        scratch: Vec<u32>,
        #[serde(skip_serializing_if = "Option::is_none")]
        note: Option<String>,
    }

    #[test]
    fn derive_field_attributes() {
        let plain = Attributed {
            at: 3,
            scratch: vec![1],
            note: None,
        };
        assert_eq!(to_string(&plain).unwrap(), r#"{"at_ms":3}"#);
        let noted = Attributed {
            note: Some("x".into()),
            ..plain
        };
        assert_eq!(to_string(&noted).unwrap(), r#"{"at_ms":3,"note":"x"}"#);
        let back: Attributed = from_str(r#"{"at_ms":3,"note":"x"}"#).unwrap();
        assert_eq!(
            back.scratch,
            Vec::<u32>::new(),
            "a skipped field reads as Default"
        );
        assert_eq!(back.note.as_deref(), Some("x"));
        let err = from_str::<Attributed>(r#"{"at":3}"#).unwrap_err();
        assert_eq!(err.to_string(), "Attributed.at_ms: expected u64, got null");
    }

    #[test]
    fn pretty_prints_indented() {
        let s = to_string_pretty(&json!({"a": 1})).unwrap();
        assert_eq!(s, "{\n  \"a\": 1\n}");
    }
}
