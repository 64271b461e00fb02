//! Vendored, offline subset of `serde`.
//!
//! The build environment has no registry access, so this crate provides
//! the exact serialization surface the workspace uses: a JSON-shaped
//! [`Value`] data model plus [`Serialize`]/[`Deserialize`] traits that
//! convert to and from it.
//!
//! There is no derive. A record's JSON layout is declared once, with
//! [`json_object!`] for a struct and [`json_tagged!`] for an internally
//! tagged enum; each generates both [`Serialize::to_value`] and
//! [`Deserialize::from_value`] from the one field list. Fields are
//! written in declaration order under their Rust names, and each field
//! has one of five modes, each the stand-in for a real serde attribute:
//!
//! | mode         | written          | missing or `null` reads as | real serde                                              |
//! |--------------|------------------|----------------------------|---------------------------------------------------------|
//! | (none)       | always           | an error                   | —                                                       |
//! | `opt`        | when `Some`      | `None`                     | `#[serde(default, skip_serializing_if = "Option::is_none")]` |
//! | `or_default` | always           | `Default::default()`       | `#[serde(default)]`                                     |
//! | `skip_empty` | when non-empty   | `Default::default()`       | `#[serde(default, skip_serializing_if = "Vec::is_empty")]` (or `BTreeMap::is_empty`) |
//! | `skip_false` | when `true`      | `false`                    | `#[serde(default, skip_serializing_if = "is_false")]`   |
//!
//! `json_tagged!(T, "type", …)` stands for `#[serde(tag = "type")]`
//! with a `#[serde(rename = "…")]` per variant; a `check` stands for
//! `#[serde(try_from = "…")]`, a validation run on the decoded value.
//! Records of any other shape implement the traits by hand.
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

/// Declares a struct's JSON object layout once and generates
/// [`Serialize`] and [`Deserialize`] from it (see the crate docs for
/// the field modes).
///
/// ```
/// # use serde::{json_object, DeError, Deserialize, Serialize, Value};
/// #[derive(Debug, PartialEq)]
/// struct Atom {
///     process: Option<usize>,
///     var: String,
///     causal: bool,
/// }
/// fn known(a: &Atom) -> Result<(), DeError> {
///     if a.var.is_empty() { Err(DeError::msg("empty var")) } else { Ok(()) }
/// }
/// json_object!(Atom { process: opt, var, causal: skip_false } check known);
///
/// let a = Atom { process: None, var: "x".into(), causal: false };
/// let v = Value::Object(vec![("var".into(), Value::Str("x".into()))]);
/// assert_eq!(a.to_value(), v);
/// assert_eq!(Atom::from_value(&v).unwrap(), a);
/// ```
///
/// Every field is named, so a field added to the type but not to its
/// declaration does not compile. `json_object!(serialize_only T { … })`
/// generates the [`Serialize`] half alone, for records that are only
/// printed.
#[macro_export]
macro_rules! json_object {
    (serialize_only $ty:ident { $($f:ident $(: $mode:ident)?),* $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                let $ty { $($f),* } = self;
                $crate::__json_fields!(@lit [] $($f $(: $mode)?,)*)
            }
        }
    };
    ($ty:ident { $($f:ident $(: $mode:ident)?),* $(,)? } $(check $check:path)?) => {
        $crate::json_object!(serialize_only $ty { $($f $(: $mode)?),* });
        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> Result<Self, $crate::DeError> {
                $crate::help::object(v)?;
                let record = $ty { $($f: $crate::__json_fields!(@read v, $f $(: $mode)?)),* };
                $($check(&record)?;)?
                Ok(record)
            }
        }
    };
}

/// Declares an internally tagged enum's JSON layout once and generates
/// [`Serialize`] and [`Deserialize`] from it: each variant is an object
/// whose `tag` field names it, followed by the variant's fields (with
/// the modes of [`json_object!`]).
///
/// ```
/// # use serde::{json_tagged, Deserialize, Serialize, Value};
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Close { session: String },
///     Stats,
/// }
/// json_tagged!(Msg, "type", "unknown message '{}'" {
///     "close" => Close { session },
///     "stats" => Stats,
/// });
///
/// let tag = |t: &str| ("type".to_string(), Value::Str(t.into()));
/// let close = Value::Object(vec![tag("close"), ("session".into(), Value::Str("s".into()))]);
/// assert_eq!(Msg::Close { session: "s".into() }.to_value(), close);
/// let warp = Value::Object(vec![tag("warp")]);
/// assert_eq!(Msg::from_value(&warp).unwrap_err().to_string(), "unknown message 'warp'");
/// ```
///
/// After the variants, optionally: `check f;` runs `f(&decoded)?` on
/// every decoded value, and `serialize { … }` / `deserialize { … }`
/// add further items (the traits' provided methods) to the impls.
#[macro_export]
macro_rules! json_tagged {
    (
        $ty:ident, $tag:literal, $unknown:literal {
            $($name:literal => $variant:ident $({ $($f:ident $(: $mode:ident)?),* $(,)? })?),* $(,)?
        }
        $(check $check:path;)?
        $(serialize { $($ser:tt)* })?
        $(deserialize { $($de:tt)* })?
    ) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                match self {
                    $(Self::$variant $({ $($f),* })? => $crate::__json_fields!(
                        @lit [($tag.into(), $crate::Value::Str($name.into())),]
                        $($($f $(: $mode)?,)*)?
                    ),)*
                }
            }
            $($($ser)*)?
        }
        impl $crate::Deserialize for $ty {
            fn from_value(v: &$crate::Value) -> Result<Self, $crate::DeError> {
                $crate::help::object(v)?;
                let record = match $crate::help::field::<String>(v, $tag)?.as_str() {
                    $($name => Self::$variant $({
                        $($f: $crate::__json_fields!(@read v, $f $(: $mode)?)),*
                    })?,)*
                    other => return Err($crate::DeError::msg(format!($unknown, other))),
                };
                $($check(&record)?;)?
                Ok(record)
            }
            $($($de)*)?
        }
    };
}

/// The field-level halves of [`json_object!`] and [`json_tagged!`].
///
/// `@lit` collects the leading fields that are always written into one
/// `vec![…]` literal; from the first conditional field on, `@push`
/// appends field by field. An object with no conditional field is
/// thus built in one allocation of the exact size. `@read` reads one
/// field by its mode.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_fields {
    (@lit [$($acc:tt)*]) => {
        $crate::Value::Object(vec![$($acc)*])
    };
    (@lit [$($acc:tt)*] $f:ident $(: or_default)?, $($rest:tt)*) => {
        $crate::__json_fields!(
            @lit [$($acc)* (stringify!($f).into(), $crate::Serialize::to_value($f)),] $($rest)*
        )
    };
    (@lit [$($acc:tt)*] $($rest:tt)*) => {{
        let mut fields: Vec<(String, $crate::Value)> = vec![$($acc)*];
        $crate::__json_fields!(@push fields $($rest)*);
        $crate::Value::Object(fields)
    }};
    (@push $fields:ident) => {};
    (@push $fields:ident $f:ident $(: or_default)?, $($rest:tt)*) => {
        $fields.push((stringify!($f).into(), $crate::Serialize::to_value($f)));
        $crate::__json_fields!(@push $fields $($rest)*);
    };
    (@push $fields:ident $f:ident: opt, $($rest:tt)*) => {
        if let Some($f) = $f {
            $fields.push((stringify!($f).into(), $crate::Serialize::to_value($f)));
        }
        $crate::__json_fields!(@push $fields $($rest)*);
    };
    (@push $fields:ident $f:ident: skip_empty, $($rest:tt)*) => {
        if !$f.is_empty() {
            $fields.push((stringify!($f).into(), $crate::Serialize::to_value($f)));
        }
        $crate::__json_fields!(@push $fields $($rest)*);
    };
    (@push $fields:ident $f:ident: skip_false, $($rest:tt)*) => {
        if *$f {
            $fields.push((stringify!($f).into(), $crate::Serialize::to_value($f)));
        }
        $crate::__json_fields!(@push $fields $($rest)*);
    };
    (@read $v:ident, $f:ident) => {
        $crate::help::field($v, stringify!($f))?
    };
    (@read $v:ident, $f:ident: opt) => {
        $crate::help::field_opt($v, stringify!($f))?
    };
    (@read $v:ident, $f:ident: or_default) => {
        $crate::help::field_or_default($v, stringify!($f))?
    };
    (@read $v:ident, $f:ident: skip_empty) => {
        $crate::help::field_or_default($v, stringify!($f))?
    };
    (@read $v:ident, $f:ident: skip_false) => {
        $crate::help::field_or_default($v, stringify!($f))?
    };
}

/// Field readers for the declaration macros and hand-written impls.
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

    #[derive(Debug, PartialEq)]
    struct Modes {
        id: u32,
        maybe: Option<u32>,
        count: u32,
        items: Vec<u32>,
        flag: bool,
    }

    json_object!(Modes {
        id,
        maybe: opt,
        count: or_default,
        items: skip_empty,
        flag: skip_false,
    });

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    fn keys(v: &Value) -> Vec<&str> {
        help::object(v)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn each_mode_writes_when_it_should() {
        let set = Modes {
            id: 1,
            maybe: Some(2),
            count: 3,
            items: vec![4],
            flag: true,
        };
        assert_eq!(
            set.to_value(),
            obj(&[
                ("id", Value::Int(1)),
                ("maybe", Value::Int(2)),
                ("count", Value::Int(3)),
                ("items", Value::Array(vec![Value::Int(4)])),
                ("flag", Value::Bool(true)),
            ])
        );
        assert_eq!(Modes::from_value(&set.to_value()).unwrap(), set);
        let unset = Modes {
            id: 1,
            maybe: None,
            count: 0,
            items: vec![],
            flag: false,
        };
        // `or_default` is written even at its default; the rest are not.
        assert_eq!(keys(&unset.to_value()), ["id", "count"]);
        assert_eq!(Modes::from_value(&unset.to_value()).unwrap(), unset);
    }

    #[test]
    fn missing_and_null_fields_read_by_mode() {
        let unset = Modes {
            id: 7,
            maybe: None,
            count: 0,
            items: vec![],
            flag: false,
        };
        assert_eq!(
            Modes::from_value(&obj(&[("id", Value::Int(7))])).unwrap(),
            unset
        );
        let nulls = obj(&[
            ("id", Value::Int(7)),
            ("maybe", Value::Null),
            ("count", Value::Null),
            ("items", Value::Null),
            ("flag", Value::Null),
        ]);
        assert_eq!(Modes::from_value(&nulls).unwrap(), unset);
        // A required field is required, `null` or not.
        let err = Modes::from_value(&obj(&[])).unwrap_err();
        assert_eq!(err.to_string(), "missing field 'id'");
        let err = Modes::from_value(&obj(&[("id", Value::Null)])).unwrap_err();
        assert_eq!(err.to_string(), "field 'id': expected integer, found null");
        let err =
            Modes::from_value(&obj(&[("id", Value::Int(1)), ("flag", Value::Int(1))])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field 'flag': expected bool, found integer"
        );
    }

    #[test]
    fn records_refuse_non_objects() {
        for v in [Value::Null, Value::Array(vec![]), Value::Str("id".into())] {
            let err = Modes::from_value(&v).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("expected object, found {}", v.kind())
            );
            let err = Shape::from_value(&v).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("expected object, found {}", v.kind())
            );
        }
    }

    #[derive(Debug, PartialEq)]
    struct Ordered {
        first: Option<u32>,
        second: u32,
        third: bool,
        fourth: u32,
    }

    json_object!(Ordered {
        first: opt,
        second,
        third: skip_false,
        fourth,
    });

    #[test]
    fn fields_are_written_in_declaration_order() {
        let all = Ordered {
            first: Some(1),
            second: 2,
            third: true,
            fourth: 4,
        };
        assert_eq!(
            keys(&all.to_value()),
            ["first", "second", "third", "fourth"]
        );
        let some = Ordered {
            first: None,
            third: false,
            ..all
        };
        assert_eq!(keys(&some.to_value()), ["second", "fourth"]);
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line { from: u32, to: u32 },
        Path { points: Vec<u32>, closed: bool },
    }

    fn ordered_line(shape: &Shape) -> Result<(), DeError> {
        match shape {
            Shape::Line { from, to } if from > to => Err(DeError::msg("line runs backwards")),
            _ => Ok(()),
        }
    }

    json_tagged!(Shape, "shape", "unknown shape '{}'" {
        "dot" => Dot,
        "line" => Line { from, to },
        "path" => Path { points: skip_empty, closed: skip_false },
    }
    check ordered_line;);

    #[test]
    fn tagged_variants_lead_with_their_tag() {
        let tag = |t: &str| ("shape", Value::Str(t.into()));
        assert_eq!(Shape::Dot.to_value(), obj(&[tag("dot")]));
        let line = Shape::Line { from: 1, to: 2 };
        let v = obj(&[tag("line"), ("from", Value::Int(1)), ("to", Value::Int(2))]);
        assert_eq!(line.to_value(), v);
        assert_eq!(Shape::from_value(&v).unwrap(), line);
        let path = Shape::Path {
            points: vec![],
            closed: false,
        };
        assert_eq!(path.to_value(), obj(&[tag("path")]));
        assert_eq!(Shape::from_value(&obj(&[tag("path")])).unwrap(), path);
    }

    #[test]
    fn tagged_rejections_name_their_cause() {
        let err = Shape::from_value(&obj(&[("shape", Value::Str("cube".into()))])).unwrap_err();
        assert_eq!(err.to_string(), "unknown shape 'cube'");
        let err = Shape::from_value(&obj(&[])).unwrap_err();
        assert_eq!(err.to_string(), "missing field 'shape'");
        let err = Shape::from_value(&obj(&[("shape", Value::Int(3))])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "field 'shape': expected string, found integer"
        );
        // The check runs on the decoded value, after every field is read.
        let backwards = obj(&[
            ("shape", Value::Str("line".into())),
            ("from", Value::Int(3)),
            ("to", Value::Int(2)),
        ]);
        let err = Shape::from_value(&backwards).unwrap_err();
        assert_eq!(err.to_string(), "line runs backwards");
        let err = Shape::from_value(&obj(&[("shape", Value::Str("line".into()))])).unwrap_err();
        assert_eq!(err.to_string(), "missing field 'from'");
    }

    #[derive(Debug, PartialEq)]
    struct Nonempty {
        items: Vec<u32>,
    }

    fn has_items(n: &Nonempty) -> Result<(), DeError> {
        if n.items.is_empty() {
            Err(DeError::msg("no items"))
        } else {
            Ok(())
        }
    }

    json_object!(Nonempty { items } check has_items);

    #[test]
    fn a_refusing_check_fails_the_decode() {
        let empty = obj(&[("items", Value::Array(vec![]))]);
        assert_eq!(
            Nonempty::from_value(&empty).unwrap_err().to_string(),
            "no items"
        );
        let one = Nonempty { items: vec![1] };
        assert_eq!(Nonempty::from_value(&one.to_value()).unwrap(), one);
    }
}
