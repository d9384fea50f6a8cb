//! A hand-rolled JSON writer and reader (no dependencies).
//!
//! The writer backs every machine-readable artifact the workspace emits —
//! Chrome traces, trace summaries, serving-metrics snapshots — so they all
//! share one escaping/formatting implementation. The reading side is one
//! grammar, [`JsonReader`], with two kinds of consumer: [`parse`] builds a
//! [`JsonValue`] tree (smoke tests such as `trace_check`, artifact
//! round-trips), and hot-path decoders such as the server's request parser
//! walk the text in place, decoding only the fields they want.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A streaming JSON writer with automatic comma placement.
///
/// # Example
///
/// ```
/// use einet_trace::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("conv");
/// w.key("dur");
/// w.number_u64(42);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"conv","dur":42}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once it has at least one element
    /// (so the next element is comma-separated).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.buf.push(',');
            }
            *has_elems = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.buf.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.stack.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.buf.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.stack.pop();
        self.buf.push(']');
    }

    /// Writes an object key (`"key":`); the following call writes its value.
    pub fn key(&mut self, key: &str) {
        self.before_value();
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
        // The value that follows must not add its own comma.
        if let Some(has_elems) = self.stack.last_mut() {
            *has_elems = false;
        }
        // Re-arm after the value: handled because the value's before_value
        // sets the flag back to true.
    }

    /// Writes a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        write_escaped(&mut self.buf, value);
    }

    /// Writes an unsigned integer value.
    pub fn number_u64(&mut self, value: u64) {
        self.before_value();
        let _ = write!(self.buf, "{value}");
    }

    /// Writes a float value (`null` for non-finite values, which JSON cannot
    /// represent).
    pub fn number_f64(&mut self, value: f64) {
        self.before_value();
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, value: bool) {
        self.before_value();
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Writes a `null` value.
    pub fn null(&mut self) {
        self.before_value();
        self.buf.push_str("null");
    }

    /// Returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.buf
    }
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => {
                members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(|f| {
            if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                Some(f as u64)
            } else {
                None
            }
        })
    }

    /// Writes this value into `w` (as the next value of the open
    /// container). Integral numbers print without a fractional part, so a
    /// parse → write round trip keeps `ts`/`dur`-style fields readable.
    pub fn write_into(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.boolean(*b),
            JsonValue::Number(n) => w.number_f64(*n),
            JsonValue::String(s) => w.string(s),
            JsonValue::Array(elems) => {
                w.begin_array();
                for e in elems {
                    e.write_into(w);
                }
                w.end_array();
            }
            JsonValue::Object(members) => {
                w.begin_object();
                for (k, v) in members {
                    w.key(k);
                    v.write_into(w);
                }
                w.end_object();
            }
        }
    }

    /// Serialises this value back to JSON text.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_into(&mut w);
        w.finish()
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns [`JsonParseError`] on any syntax violation.
pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut r = JsonReader::new(input);
    let value = r.value()?;
    r.end()?;
    Ok(value)
}

/// `10^0 ..= 10^22`: every power of ten an `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A pull reader over one JSON text — the workspace's only JSON grammar.
///
/// [`parse`] builds a [`JsonValue`] tree on it; a caller that knows the
/// document's shape can instead walk it in place: [`JsonReader::object`]
/// hands each member's key to a callback that reads (or skips) the value,
/// [`JsonReader::array`] does the same per element ([`JsonReader::number_array`]
/// is its tight loop for numbers), and the scalar readers
/// decode one value without allocating (strings borrow from the input
/// unless they hold escapes). [`JsonReader::skip_value`] validates a value
/// as fully as [`JsonReader::value`] without building it, so a walk
/// accepts and rejects exactly the documents [`parse`] does, with the same
/// error offsets.
///
/// # Example
///
/// ```
/// use einet_trace::json::JsonReader;
/// let mut r = JsonReader::new(r#"{"xs": [1, 2.5], "skip": {"deep": [null]}}"#);
/// let mut xs = Vec::new();
/// r.object(|r, key| match &*key {
///     "xs" => r.array(|r| r.number().map(|x| xs.push(x))),
///     _ => r.skip_value(),
/// })
/// .unwrap();
/// r.end().unwrap();
/// assert_eq!(xs, [1.0, 2.5]);
/// ```
#[derive(Debug)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonReader { src, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.src.len() - self.pos
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it —
    /// for a value, its first byte (`{`, `[`, `"`, `-` or a digit, `t`,
    /// `f`, `n`).
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// Trailing characters after the document.
    pub fn end(&mut self) -> Result<(), JsonParseError> {
        if self.peek().is_some() {
            return Err(self.error("trailing characters after document"));
        }
        Ok(())
    }

    /// Reads the next value into a tree.
    ///
    /// # Errors
    ///
    /// Any syntax violation inside the value.
    pub fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(members))
            }
            Some(b'[') => {
                let mut elems = Vec::new();
                self.array(|r| {
                    elems.push(r.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(elems))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Consumes the next value, validating it exactly as [`Self::value`]
    /// does, without building it.
    ///
    /// # Errors
    ///
    /// Any syntax violation inside the value.
    pub fn skip_value(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, lit: &'static str) -> Result<(), JsonParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {lit:?}")))
        }
    }

    /// Reads an object, calling `member` with each key in source order
    /// (duplicates included). `member` must consume exactly one value — by
    /// reading it or with [`Self::skip_value`].
    ///
    /// # Errors
    ///
    /// Any syntax violation, or the first error `member` returns.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Reads an array, calling `element` once per element; like
    /// [`Self::object`]'s callback it must consume exactly one value.
    ///
    /// # Errors
    ///
    /// Any syntax violation, or the first error `element` returns.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.skip_ws();
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// Reads an array expected to hold numbers, calling `element` with
    /// each element's value, or `None` for an element that is not a number
    /// (validated and skipped). Accepts exactly what [`Self::array`] does;
    /// this is the tight loop for long numeric arrays.
    ///
    /// # Errors
    ///
    /// Any syntax violation.
    pub fn number_array(
        &mut self,
        mut element: impl FnMut(Option<f64>),
    ) -> Result<(), JsonParseError> {
        self.skip_ws();
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let bytes = self.src.as_bytes();
        let mut pos = self.pos;
        loop {
            // Compact input (no whitespace, numbers only) stays on local
            // state; anything else goes through the general path.
            if let Some(b'-' | b'0'..=b'9') = bytes.get(pos) {
                let (value, end) = scan_number(self.src, pos);
                pos = end;
                let Some(value) = value else {
                    self.pos = pos;
                    return Err(self.error("invalid number"));
                };
                element(Some(value));
            } else {
                self.pos = pos;
                if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                    element(Some(self.number()?));
                } else {
                    self.skip_value()?;
                    element(None);
                }
                pos = self.pos;
            }
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b']') => {
                    self.pos = pos + 1;
                    return Ok(());
                }
                _ => {
                    self.pos = pos;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                    pos = self.pos;
                }
            }
        }
    }

    /// Reads a string, borrowing it from the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// Not a string, an unterminated string, a raw control character, or
    /// an invalid escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Take a whole run of plain bytes at once. A run ends at an
            // ASCII byte or at the end of the input, so it is a valid
            // `str` slice of the (UTF-8) input.
            let run = self.pos;
            while matches!(self.byte(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let plain = self
                .src
                .get(run..self.pos)
                .ok_or_else(|| self.error("invalid utf-8"))?;
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    self.escape(out)?;
                }
                Some(_) => return Err(self.error("raw control char in string")),
            }
        }
    }

    /// Decodes one escape (the backslash already consumed) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    if self.byte() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(cp).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid escape"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.error("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Reads a number, bit-identical to `str::parse::<f64>` of its text.
    ///
    /// The text is scanned once, its digits folded into one integer. When
    /// there are at most 19 digits (so the integer is exact), it is at
    /// most 2^53, and the decimal exponent is within ±22, the value is
    /// that integer as `f64` multiplied or divided by an exact power of
    /// ten: both operands are exact, so IEEE rounding of that one
    /// operation is the correctly rounded result (Clinger's fast path).
    /// Every other number goes to `str::parse::<f64>`.
    ///
    /// # Errors
    ///
    /// Not a number, or a number `str::parse::<f64>` rejects (no digits,
    /// or an exponent without digits).
    #[inline]
    pub fn number(&mut self) -> Result<f64, JsonParseError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected a number"));
        }
        let (value, end) = scan_number(self.src, self.pos);
        self.pos = end;
        value.ok_or_else(|| self.error("invalid number"))
    }
}

/// Scans the number text starting at `start`: its value (`None` if the
/// text is not a number) and the offset just past the text.
#[inline]
fn scan_number(src: &str, start: usize) -> (Option<f64>, usize) {
    let bytes = src.as_bytes();
    let mut pos = start;
    let negative = bytes.get(pos) == Some(&b'-');
    if negative {
        pos += 1;
    }
    let (mut mantissa, int_end) = digits(bytes, pos, 0);
    let mut n_digits = int_end - pos;
    pos = int_end;
    let mut exp10 = 0_i64;
    if bytes.get(pos) == Some(&b'.') {
        let (m, frac_end) = digits(bytes, pos + 1, mantissa);
        let n_frac = frac_end - pos - 1;
        mantissa = m;
        n_digits += n_frac;
        exp10 = -(n_frac as i64);
        pos = frac_end;
    }
    let mut valid = n_digits > 0;
    let mut exact = n_digits <= 19;
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        let exp_negative = bytes.get(pos) == Some(&b'-');
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let (exp, exp_end) = digits(bytes, pos, 0);
        let n_exp = exp_end - pos;
        pos = exp_end;
        valid &= n_exp > 0;
        if n_exp <= 6 {
            let exp = exp as i64;
            exp10 += if exp_negative { -exp } else { exp };
        } else {
            // May have wrapped; far outside the fast path anyway.
            exact = false;
        }
    }
    if !valid {
        return (None, pos);
    }
    if exact && mantissa <= 1 << 53 && (-22..=22).contains(&exp10) {
        let m = mantissa as f64;
        let v = if exp10 >= 0 {
            m * EXACT_POW10[exp10 as usize]
        } else {
            m / EXACT_POW10[(-exp10) as usize]
        };
        return (Some(if negative { -v } else { v }), pos);
    }
    (src[start..pos].parse::<f64>().ok(), pos)
}

/// Folds the run of ASCII digits at `pos` onto `acc` in base ten
/// (wrapping: callers count the digits to know when it is exact); returns
/// it and the offset past the run.
#[inline]
fn digits(bytes: &[u8], mut pos: usize, mut acc: u64) -> (u64, usize) {
    while let Some(&b) = bytes.get(pos) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        acc = acc.wrapping_mul(10).wrapping_add(u64::from(d));
        pos += 1;
    }
    (acc, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_handles_nesting_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.number_u64(1);
        w.number_u64(2);
        w.begin_object();
        w.key("b");
        w.boolean(true);
        w.end_object();
        w.end_array();
        w.key("c");
        w.number_f64(1.5);
        w.key("d");
        w.number_f64(f64::NAN);
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":[1,2,{"b":true}],"c":1.5,"d":null}"#);
    }

    #[test]
    fn writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn roundtrip_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("events");
        w.begin_array();
        w.begin_object();
        w.key("name");
        w.string("søk \"quoted\"");
        w.key("ts");
        w.number_u64(123);
        w.end_object();
        w.end_array();
        w.key("ok");
        w.boolean(true);
        w.end_object();
        let text = w.finish();
        let v = parse(&text).unwrap();
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("søk \"quoted\"")
        );
        assert_eq!(events[0].get("ts").unwrap().as_u64(), Some(123));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parser_accepts_standard_forms() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" -12.5e2 ").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        let v = parse(r#"{"u":"\u0041\ud83d\ude00"}"#).unwrap();
        assert_eq!(v.get("u").unwrap().as_str(), Some("A😀"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\" 1}",
            "[1]]",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn value_reserialisation_round_trips() {
        let text = r#"{"name":"søk","ts":123,"ok":true,"x":null,"a":[1,2.5,{"b":false}]}"#;
        let v = parse(text).unwrap();
        let out = v.to_json_string();
        // Round trip is stable: parsing the re-serialisation gives the same
        // value, and integral numbers stay integral.
        assert_eq!(parse(&out).unwrap(), v);
        assert!(out.contains("\"ts\":123"), "{out}");
        assert!(out.contains("2.5"), "{out}");
    }

    #[test]
    fn number_accessors() {
        let v = parse("3").unwrap();
        assert_eq!(v.as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
