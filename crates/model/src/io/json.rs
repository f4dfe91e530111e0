//! The JSON text format of the snapshot documents: a value tree, a strict
//! recursive-descent reader, a pretty writer, and the two conversion traits
//! `io` implements for its types.
//!
//! The reader takes text from outside the program, so it never panics and
//! never recurses deeper than [`MAX_DEPTH`]; anything RFC 8259 does not allow
//! (trailing bytes, leading zeros, raw control characters, lone surrogates)
//! is an error. Numbers stay in their source text until a typed conversion
//! asks for them, so integers are range-checked by the integer parser and
//! `f64`s cross by Rust's exact shortest-round-trip printing and parsing.

/// Deepest array/object nesting the reader follows.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Json {
    Null,
    Bool(bool),
    /// The number's source text (already checked against the grammar).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse one JSON document; nothing but whitespace may follow the value.
pub(super) fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume the next byte if `wanted` accepts it.
    fn take_if(&mut self, wanted: impl Fn(u8) -> bool) -> bool {
        let hit = self.peek().is_some_and(wanted);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.take_if(|b| matches!(b, b' ' | b'\n' | b'\r' | b'\t')) {}
    }

    /// Consume `byte` or fail.
    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.take_if(|b| b == byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", char::from(byte))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.list(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'{') => self.list(b'}', |p| p.field(depth + 1)).map(Json::Obj),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let rest = self.text.get(self.pos..).unwrap_or_default();
                let literals = [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ];
                for (word, value) in literals {
                    if rest.starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("unexpected character"))
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The items of the comma-separated list whose opening bracket is next.
    fn list<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.take_if(|b| b == close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.take_if(|b| b == close) {
                return Ok(items);
            }
            self.eat(b',')?;
        }
    }

    /// `"key": value`
    fn field(&mut self, depth: usize) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok((key, self.value(depth)?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // all three are ASCII, so the cut is on a char boundary.
            let rest = self.text.get(self.pos..).unwrap_or_default();
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(rest.get(..run).unwrap_or_default());
            self.pos += run;
            if self.take_if(|b| b == b'"') {
                return Ok(out);
            }
            self.eat(b'\\')
                .map_err(|_| self.error("control character in string"))?;
            out.push(self.escape()?);
        }
    }

    /// The character named by the escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' | b'\\' | b'/' => char::from(c),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate must be followed by `\u` + a low one.
                    self.eat(b'\\')?;
                    self.eat(b'u')?;
                    let low = self.hex4()?.wrapping_sub(0xDC00);
                    if low >= 0x400 {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + low;
                }
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    /// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.take_if(|b| b == b'-');
        if !self.take_if(|b| b == b'0') {
            self.digits()?;
        }
        if self.take_if(|b| b == b'.') {
            self.digits()?;
        }
        if self.take_if(|b| b == b'e' || b == b'E') {
            self.take_if(|b| b == b'+' || b == b'-');
            self.digits()?;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        Ok(Json::Num(text.to_string()))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        if !self.take_if(|b| b.is_ascii_digit()) {
            return Err(self.error("expected a digit"));
        }
        while self.take_if(|b| b.is_ascii_digit()) {}
        Ok(())
    }
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
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
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

/// A type that can be read back from its JSON form.
pub(super) trait FromJson: Sized {
    fn from_value(value: Json) -> Result<Self, String>;
}

/// Numbers. The grammar-checked source text goes to the type's own parser,
/// so a sign, fraction, exponent or out-of-range value fails an integer, and
/// `{:?}` prints an `f64` as the shortest text that parses back to the same
/// bits (always with a `.0` or an exponent, like serde_json). `$valid` is
/// what JSON can carry: it has no non-finite numbers, so those are written
/// as `null` and `1e999` does not read back.
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
        impl FromJson for $ty {
            fn from_value(value: Json) -> Result<Self, String> {
                match value {
                    Json::Num(n) => (n.parse().ok())
                        .filter($valid)
                        .ok_or_else(|| format!("{n} is not a valid {}", stringify!($ty))),
                    _ => Err(format!("expected a number ({})", stringify!($ty))),
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

impl FromJson for String {
    fn from_value(value: Json) -> Result<Self, String> {
        match value {
            Json::Str(s) => Ok(s),
            _ => Err("expected a string".to_string()),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(T::to_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(value: Json) -> Result<Self, String> {
        match value {
            Json::Arr(items) => items.into_iter().map(T::from_value).collect(),
            _ => Err("expected an array".to_string()),
        }
    }
}

/// Tuples: fixed-length arrays. (`A` names both the type and its item.)
macro_rules! json_tuple {
    ($n:literal: $($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_value(&self) -> Json {
                let ($($name,)+) = self;
                Json::Arr(vec![$($name.to_value()),+])
            }
        }
        #[allow(non_snake_case)]
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_value(value: Json) -> Result<Self, String> {
                let [$($name),+]: [Json; $n] = Vec::from_value(value)?
                    .try_into()
                    .map_err(|_| format!("expected an array of {}", $n))?;
                Ok(($($name::from_value($name)?,)+))
            }
        }
    };
}
json_tuple!(2: A, B);
json_tuple!(3: A, B, C);

impl FromJson for Json {
    fn from_value(value: Json) -> Result<Self, String> {
        Ok(value)
    }
}

/// The fields of one object, taken out by name. Fields nobody takes are
/// ignored, as the derived readers this replaces ignored them.
pub(super) struct Fields(Vec<(String, Json)>);

impl Fields {
    pub(super) fn of(value: Json) -> Result<Self, String> {
        match value {
            Json::Obj(fields) => Ok(Self(fields)),
            _ => Err("expected an object".to_string()),
        }
    }

    /// Remove and convert the field `name`, which must occur exactly once.
    pub(super) fn take<T: FromJson>(&mut self, name: &str) -> Result<T, String> {
        let at = self
            .0
            .iter()
            .position(|(key, _)| key == name)
            .ok_or_else(|| format!("missing field `{name}`"))?;
        let (_, value) = self.0.swap_remove(at);
        if self.0.iter().any(|(key, _)| key == name) {
            return Err(format!("duplicate field `{name}`"));
        }
        T::from_value(value).map_err(|e| format!("{name}: {e}"))
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
        impl FromJson for $ty {
            fn from_value(value: Json) -> Result<Self, String> {
                let mut fields = Fields::of(value)?;
                Ok(Self {
                    $($field: fields.take(stringify!($field))?),+
                })
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
        impl FromJson for $ty {
            fn from_value(value: Json) -> Result<Self, String> {
                u32::from_value(value).map($ty)
            }
        }
    )+};
}

pub(super) use json_id;
pub(super) use json_struct;
