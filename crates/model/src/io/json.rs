//! The JSON text format of the snapshot documents: a value tree, a pretty
//! writer, and the conversion trait `io` implements for its types.
//!
//! Every `f64` crosses by Rust's exact shortest-round-trip printing, so the
//! text parses back to the same bits.

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug)]
pub(super) enum Json {
    Null,
    /// The number's text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Render `value` in serde_json's pretty layout: two-space indent, one item
/// per line, `"key": value`, empty containers closed on the spot.
pub(super) fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out
}

fn write_value(value: &Json, depth: usize, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Num(n) => out.push_str(n),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_block(out, depth, ('[', ']'), items, |item, out| {
            write_value(item, depth + 1, out);
        }),
        Json::Obj(fields) => write_block(out, depth, ('{', '}'), fields, |(key, v), out| {
            write_string(key, out);
            out.push_str(": ");
            write_value(v, depth + 1, out);
        }),
    }
}

fn write_block<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    write_item: impl Fn(&T, &mut String),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write_item(item, out);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A type with a JSON form.
pub(super) trait ToJson {
    fn to_value(&self) -> Json;
}

/// Numbers. `{:?}` prints an `f64` as the shortest text that parses back to
/// the same bits (always with a `.0` or an exponent, like serde_json).
/// `$valid` is what JSON can carry: it has no non-finite numbers, so those
/// are written as `null`.
macro_rules! json_number {
    ($($ty:ty: $valid:expr),+) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Json {
                if $valid(self) {
                    Json::Num(format!("{self:?}"))
                } else {
                    Json::Null
                }
            }
        }
    )+};
}
json_number!(u32: |_: &u32| true, usize: |_: &usize| true, f64: |x: &f64| x.is_finite());

impl ToJson for String {
    fn to_value(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(T::to_value).collect())
    }
}

/// Tuples: fixed-length arrays.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_value(&self) -> Json {
        Json::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_value(&self) -> Json {
        Json::Arr(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

/// JSON form of a struct: an object of the named fields, in this order.
macro_rules! json_struct {
    ($ty:ty: $($field:ident),+) => {
        impl ToJson for $ty {
            fn to_value(&self) -> Json {
                Json::Obj(vec![
                    $((stringify!($field).to_string(), self.$field.to_value())),+
                ])
            }
        }
    };
}

/// JSON form of an id newtype: the bare number.
macro_rules! json_id {
    ($($ty:ident),+) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Json {
                self.0.to_value()
            }
        }
    )+};
}

pub(super) use json_id;
pub(super) use json_struct;
