//! Offline vendored `serde` facade — now a *functional* minimal
//! serialization framework.
//!
//! The workspace annotates its data types with `#[derive(Serialize)]`.
//! The verdict store and the daemon's `--json` log mode need real JSON
//! export, so [`Serialize`] is a real trait driven by a concrete JSON
//! [`Serializer`], and the sibling `serde_derive` crate generates real
//! impls for structs and enums (honoring `#[serde(skip)]` on fields).
//! The output follows `serde_json`'s conventions:
//!
//! * structs → objects, newtype structs → their inner value;
//! * unit enum variants → `"Variant"`, data-carrying variants →
//!   `{"Variant": ...}` (externally tagged);
//! * `Option` → value or `null`; non-finite floats → `null`;
//! * `Duration` → `{"secs": s, "nanos": n}`;
//! * maps → objects with `Display`-formatted keys, emitted in sorted
//!   key order so output is deterministic across runs.
//!
//! There is no `Deserialize`: nothing in the workspace parses JSON.

// The derive macro and the trait below share a name, exactly as in
// real serde (macros and traits live in different namespaces):
// `use serde::Serialize` imports both.
pub use serde_derive::Serialize;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::time::Duration;

/// A JSON writer. All serialization in the workspace funnels through
/// this one concrete type (the offline build has no need for the
/// generic `Serializer` trait machinery of real serde).
#[derive(Debug, Default)]
pub struct Serializer {
    out: String,
}

impl Serializer {
    /// Fresh serializer with an empty output buffer.
    pub fn new() -> Self {
        Serializer { out: String::new() }
    }

    /// The accumulated JSON text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write a boolean.
    pub fn bool_(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    pub fn u64_(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut n = v;
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("digits are ASCII"));
    }

    /// Write a signed integer.
    pub fn i64_(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
            self.u64_(v.unsigned_abs());
        } else {
            self.u64_(v as u64);
        }
    }

    /// Write a float (`null` for NaN/±∞, which JSON cannot represent).
    pub fn f64_(&mut self, v: f64) {
        if v.is_finite() {
            // Rust's shortest-roundtrip Display for floats is valid JSON.
            use std::fmt::Write;
            write!(self.out, "{v}").expect("writing to a String cannot fail");
        } else {
            self.null();
        }
    }

    /// Write an escaped JSON string.
    pub fn str_(&mut self, v: &str) {
        self.out.push('"');
        for c in v.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write;
                    write!(self.out, "\\u{:04x}", c as u32).expect("write to String");
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Start a JSON object; emit entries through the guard, then call
    /// [`MapSer::end`].
    pub fn begin_map(&mut self) -> MapSer<'_> {
        self.out.push('{');
        MapSer {
            s: self,
            first: true,
        }
    }

    /// Start a JSON array; emit elements through the guard, then call
    /// [`SeqSer::end`].
    pub fn begin_seq(&mut self) -> SeqSer<'_> {
        self.out.push('[');
        SeqSer {
            s: self,
            first: true,
        }
    }
}

/// In-progress JSON object.
pub struct MapSer<'a> {
    s: &'a mut Serializer,
    first: bool,
}

impl<'a> MapSer<'a> {
    /// Write `"key":` (with any needed separator) and return the
    /// serializer positioned for the value — the hook for nested
    /// containers built by derive-generated code.
    pub fn key(&mut self, key: &str) -> &mut Serializer {
        if !self.first {
            self.s.out.push(',');
        }
        self.first = false;
        self.s.str_(key);
        self.s.out.push(':');
        self.s
    }

    /// Write one `"key": value` entry.
    pub fn entry<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        value.serialize(self.key(key));
    }

    /// Close the object.
    pub fn end(self) {
        self.s.out.push('}');
    }
}

/// In-progress JSON array.
pub struct SeqSer<'a> {
    s: &'a mut Serializer,
    first: bool,
}

impl<'a> SeqSer<'a> {
    /// Write one element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        if !self.first {
            self.s.out.push(',');
        }
        self.first = false;
        value.serialize(self.s);
    }

    /// Close the array.
    pub fn end(self) {
        self.s.out.push(']');
    }
}

/// A type serializable to JSON through a [`Serializer`]. Derive it with
/// `#[derive(Serialize)]` or implement manually for bespoke layouts.
pub trait Serialize {
    /// Write `self` as one JSON value.
    fn serialize(&self, s: &mut Serializer);
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.u64_(*self as u64);
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.i64_(*self as i64);
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.bool_(*self);
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64_(f64::from(*self));
    }
}

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64_(*self);
    }
}

impl Serialize for char {
    fn serialize(&self, s: &mut Serializer) {
        s.str_(&self.to_string());
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.str_(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.str_(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(v) => v.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        let mut seq = s.begin_seq();
        for v in self {
            seq.element(v);
        }
        seq.end();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut Serializer) {
                let mut seq = s.begin_seq();
                $(seq.element(&self.$n);)+
                seq.end();
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Maps serialize as objects with `Display`-formatted keys. `HashMap`
/// entries are sorted by key first so output is deterministic.
impl<K: Display, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, s: &mut Serializer) {
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_string(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut m = s.begin_map();
        for (k, v) in entries {
            m.entry(&k, v);
        }
        m.end();
    }
}

impl<K: Display, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, s: &mut Serializer) {
        let mut m = s.begin_map();
        for (k, v) in self {
            m.entry(&k.to_string(), v);
        }
        m.end();
    }
}

impl Serialize for Duration {
    fn serialize(&self, s: &mut Serializer) {
        let mut m = s.begin_map();
        m.entry("secs", &self.as_secs());
        m.entry("nanos", &self.subsec_nanos());
        m.end();
    }
}

impl Serialize for () {
    fn serialize(&self, s: &mut Serializer) {
        s.null();
    }
}

/// JSON entry points, mirroring `serde_json`'s.
pub mod json {
    use super::{Serialize, Serializer};

    /// Serialize `value` to a compact JSON string.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut s = Serializer::new();
        value.serialize(&mut s);
        s.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(json::to_string(&true), "true");
        assert_eq!(json::to_string(&42u32), "42");
        assert_eq!(json::to_string(&-7i64), "-7");
        assert_eq!(json::to_string(&1.5f64), "1.5");
        assert_eq!(json::to_string(&f64::NAN), "null");
        assert_eq!(json::to_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(json::to_string(&Some(3u8)), "3");
        assert_eq!(json::to_string(&Option::<u8>::None), "null");
    }

    #[test]
    fn containers() {
        assert_eq!(json::to_string(&vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(json::to_string(&[None, Some(9u64)]), "[null,9]");
        assert_eq!(json::to_string(&(1u32, "x")), r#"[1,"x"]"#);
        let mut m = BTreeMap::new();
        m.insert("b", 2u8);
        m.insert("a", 1u8);
        assert_eq!(json::to_string(&m), r#"{"a":1,"b":2}"#);
        assert_eq!(
            json::to_string(&Duration::from_millis(1500)),
            r#"{"secs":1,"nanos":500000000}"#
        );
    }
}
