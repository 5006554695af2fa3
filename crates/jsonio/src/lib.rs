//! Self-contained JSON: a value model, a strict parser, and a
//! deterministic writer.
//!
//! The experiment drivers and snapshot round-trips previously leaned on an
//! external serializer, which made figure bytes unavailable in offline
//! builds and left the committed `results/` with nothing to diff. This
//! crate owns the byte format end to end:
//!
//! * objects preserve insertion order (`Vec<(String, Json)>`), so emitted
//!   files are stable across runs and platforms;
//! * integers keep full 64-bit precision (`U64`/`I64` variants) — RNG
//!   states and counters survive a round trip bit-exactly;
//! * floats print via Rust's shortest round-trip formatting, so
//!   `parse(write(x)) == x` for every finite `f64`;
//! * non-finite floats serialize as `null` (like serde_json) and parse
//!   back as NaN where an `f64` is expected.

#![forbid(unsafe_code)]

use std::fmt;

mod parse;
mod write;

pub use parse::parse;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered: serialization order is construction order.
    Object(Vec<(String, Json)>),
}

/// Error for failed parses or mismatched extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn err(message: impl Into<String>) -> JsonError {
    JsonError(message.into())
}

impl Json {
    /// Compact one-line serialization.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write::compact(self, &mut out);
        out
    }

    /// Pretty serialization, two-space indent (serde_json style).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write::pretty(self, 0, &mut out);
        out
    }

    /// Looks up `key` in an object.
    ///
    /// # Errors
    ///
    /// If `self` is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing field '{key}'"))),
            other => Err(err(format!("expected object with '{key}', got {other:?}"))),
        }
    }

    /// Looks up `key`, returning `None` when absent (but an error when
    /// `self` is not an object).
    pub fn get_opt(&self, key: &str) -> Result<Option<&Json>, JsonError> {
        match self {
            Json::Object(fields) => Ok(fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)),
            other => Err(err(format!("expected object, got {other:?}"))),
        }
    }

    /// # Errors
    /// If `self` is not an array.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(err(format!("expected array, got {other:?}"))),
        }
    }

    /// # Errors
    /// If `self` is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(err(format!("expected string, got {other:?}"))),
        }
    }

    /// # Errors
    /// If `self` is not a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(err(format!("expected bool, got {other:?}"))),
        }
    }

    /// # Errors
    /// If `self` is not a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::U64(n) => Ok(*n),
            Json::I64(n) if *n >= 0 => Ok(*n as u64),
            other => Err(err(format!("expected unsigned integer, got {other:?}"))),
        }
    }

    /// # Errors
    /// If `self` is not an integer representable as `i64`.
    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::I64(n) => Ok(*n),
            Json::U64(n) => i64::try_from(*n).map_err(|_| err(format!("{n} overflows i64"))),
            other => Err(err(format!("expected integer, got {other:?}"))),
        }
    }

    /// Numeric coercion: integers widen, `null` reads as NaN (the writer's
    /// encoding for non-finite floats).
    ///
    /// # Errors
    /// If `self` is not numeric or `null`.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::F64(x) => Ok(*x),
            Json::U64(n) => Ok(*n as f64),
            Json::I64(n) => Ok(*n as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(err(format!("expected number, got {other:?}"))),
        }
    }
}

/// Conversion into the JSON value model.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Fallible conversion out of the JSON value model.
pub trait FromJson: Sized {
    /// # Errors
    /// When `value` does not have the expected shape.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serializes any [`ToJson`] value with pretty indentation.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses `text` and converts it via [`FromJson`].
///
/// # Errors
/// On malformed JSON or shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Builds an object from ordered key/value pairs; the standard way to
/// implement [`ToJson`] for a struct.
#[must_use]
pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.as_str()?.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64()
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let n = value.as_u64()?;
                <$t>::try_from(n).map_err(|_| err(format!("{n} overflows {}", stringify!($t))))
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let n = value.as_u64()?;
        usize::try_from(n).map_err(|_| err(format!("{n} overflows usize")))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl FromJson for i64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_i64()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(inner) => inner.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615"] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn u64_keeps_full_precision() {
        let n = u64::MAX - 3;
        let v = parse(&Json::U64(n).to_string_compact()).unwrap();
        assert_eq!(v.as_u64().unwrap(), n);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, -2.5e-8, 1e300, f64::MIN_POSITIVE] {
            let text = Json::F64(x).to_string_compact();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn nan_serializes_as_null_and_reads_back_nan() {
        assert_eq!(Json::F64(f64::NAN).to_string_compact(), "null");
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = object(vec![
            ("zeta", Json::U64(1)),
            ("alpha", Json::U64(2)),
            ("mid", Json::Str("x".into())),
        ]);
        assert_eq!(v.to_string_compact(), r#"{"zeta":1,"alpha":2,"mid":"x"}"#);
        let back = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}f\u{263A}";
        let text = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\q\"",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::Array(vec![
            Json::Null,
            object(vec![("k", Json::Array(vec![]))]),
            Json::F64(2.5),
        ]);
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let text = format!("{}1{}", "[".repeat(400), "]".repeat(400));
        assert!(parse(&text).is_err());
    }
}
