//! Vendored, offline subset of `serde`.
//!
//! The build environment has no registry access, so this crate provides
//! the exact serialization surface the workspace uses: a JSON-shaped
//! [`Value`] data model plus [`Serialize`]/[`Deserialize`] traits that
//! convert to and from it. There is no derive macro — types implement
//! the traits by hand (the workspace only serializes a handful of
//! trace/wire types, all with simple shapes).
//!
//! `serde_json` (also vendored) layers text parsing/printing on top.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON-shaped self-describing value: the interchange data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object; `None` for missing fields or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A deserialization (shape) error.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// Creates an error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }

    /// "expected X, found Y" helper.
    pub fn expected(what: &str, found: &Value) -> Self {
        DeError(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;

    /// Appends `self` as compact JSON straight to `out` — byte for byte
    /// what printing [`Serialize::to_value`] gives — and returns `true`;
    /// or returns `false` with `out` untouched when this value has no
    /// direct encoder, and the caller prints the [`Value`] instead.
    fn write_json(&self, _out: &mut String) -> bool {
        false
    }
}

/// Conversion from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Deserializes from a [`Value`], validating the shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Decodes a whole JSON document in one pass, without building a
    /// [`Value`]. `None` means "not mine", never "invalid": the caller
    /// then parses the text and calls [`Deserialize::from_value`], which
    /// alone decides what is accepted and how a rejection reads. An
    /// implementation may therefore give up on anything unusual, but
    /// must return exactly what that route would for whatever it takes.
    fn from_json_bytes(_json: &[u8]) -> Option<Self> {
        None
    }
}

// ---- primitive impls ------------------------------------------------------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::msg(format!("integer {n} out of range"))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
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

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("object", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Helpers for hand-written struct/enum impls.
pub mod help {
    use super::{DeError, Deserialize, Value};

    /// A required object field.
    pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
        match v.get(name) {
            Some(f) => T::from_value(f).map_err(|e| DeError::msg(format!("field '{name}': {e}"))),
            None => Err(DeError::msg(format!("missing field '{name}'"))),
        }
    }

    /// An optional object field; missing or `null` yields the default.
    pub fn field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, DeError> {
        match v.get(name) {
            None | Some(Value::Null) => Ok(T::default()),
            Some(f) => T::from_value(f).map_err(|e| DeError::msg(format!("field '{name}': {e}"))),
        }
    }

    /// An optional object field as `Option`.
    pub fn field_opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
        match v.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(f) => T::from_value(f)
                .map(Some)
                .map_err(|e| DeError::msg(format!("field '{name}': {e}"))),
        }
    }

    /// Asserts the value is an object.
    pub fn object(v: &Value) -> Result<&[(String, Value)], DeError> {
        match v {
            Value::Object(fields) => Ok(fields),
            other => Err(DeError::expected("object", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn object_lookup_and_helpers() {
        let v = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert_eq!(help::field::<u32>(&v, "a").unwrap(), 1);
        assert!(help::field::<u32>(&v, "b").is_err());
        assert_eq!(help::field_or_default::<u32>(&v, "b").unwrap(), 0);
    }
}
