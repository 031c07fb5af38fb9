//! The workspace's one JSON grammar, plus the writers that render
//! numbers and strings into a caller's buffer.
//!
//! * [`Cursor`] walks a document byte by byte: objects, arrays,
//!   strings, numbers and skipped values, with the byte offset of the
//!   first syntax error. [`parse`] drives it to build a [`Value`] tree
//!   (trace validation, the BENCH_*.json checks, rule-store reload);
//!   the service's request parser drives it directly and never builds
//!   a tree. Objects keep members in order (duplicate keys preserved)
//!   and numbers go through `f64`.
//! * [`push_f64`], [`push_u64`] and [`push_escaped`] append to a
//!   `String` without allocating. `push_f64` makes the shortest
//!   round-trip digits itself, Ryu-style (Adams, PLDI 2018), and lays
//!   them out exactly as `format!("{v}")` would.
//!
//! The workspace is intentionally free of external crates, so this is
//! not a general replacement for serde: it favours one small grammar
//! over features.

use std::borrow::Cow;
use std::sync::OnceLock;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (via `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as an ordered `(key, value)` list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object member list, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up an object member by key (first occurrence).
    #[must_use]
    pub fn member(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut cursor = Cursor::new(input);
    let value = cursor.value()?;
    cursor.finish()?;
    Ok(value)
}

/// How deep a [`Cursor`] lets objects and arrays nest.
/// [`Cursor::value`] and [`Cursor::skip_value`] recurse once per level,
/// so the bound is what keeps a hostile document (a request body of
/// 100,000 `[`) from overflowing the stack of the thread that reads it.
pub const MAX_DEPTH: usize = 128;

/// A position in a JSON document, read front to back.
///
/// Each reader consumes one value (or one structural step) and fails
/// with the byte offset of the first syntax error. A caller that wants
/// a value's content reads it with the matching reader after
/// [`Cursor::peek`]; any value it does not care about goes through
/// [`Cursor::skip_value`], which checks it just as strictly. Walking
/// every value once, in document order, therefore reports exactly the
/// error [`parse`] reports.
///
/// ```
/// use flames_obs::json::Cursor;
/// let mut cur = Cursor::new(r#"{"xs": [1, 2.5], "skip": {"a": null}}"#);
/// cur.begin_object().unwrap();
/// let mut sum = 0.0;
/// let mut first = true;
/// while let Some(key) = cur.next_key(&mut first).unwrap() {
///     if key == "xs" {
///         cur.begin_array().unwrap();
///         let mut first = true;
///         while cur.next_element(&mut first).unwrap() {
///             sum += cur.number().unwrap();
///         }
///     } else {
///         cur.skip_value().unwrap();
///     }
/// }
/// cur.finish().unwrap();
/// assert_eq!(sum, 3.5);
/// ```
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Objects and arrays open at `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// Consumes the `{` or `[` that opens a container.
    fn open(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        let at = self.pos;
        self.expect(b)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consumes the `}` or `]` that closes a container.
    fn close(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Skips whitespace and returns the next byte, without consuming
    /// it: `{`, `[`, `"`, a digit or `-` for a number, and so on.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    /// Whether `byte` (from [`Cursor::peek`]) starts a number.
    #[must_use]
    pub fn starts_number(byte: u8) -> bool {
        byte.is_ascii_digit() || byte == b'-'
    }

    /// Consumes the `{` of an object. Follow with [`Cursor::next_key`].
    ///
    /// # Errors
    ///
    /// Fails unless the next non-whitespace byte is `{`, and with
    /// `nesting deeper than 128 at byte N` past [`MAX_DEPTH`] levels.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Steps to the next member of the object being read and returns
    /// its key (decoded), or `None` after the closing `}`. `first`
    /// starts `true` for each object. The caller must consume the
    /// member's value before the next call.
    ///
    /// # Errors
    ///
    /// Fails on a missing separator, a non-string key or a missing `:`.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if *first {
            *first = false;
            if self.bytes().get(self.pos) == Some(&b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            match self.bytes().get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
            self.skip_ws();
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Consumes the `[` of an array. Follow with
    /// [`Cursor::next_element`].
    ///
    /// # Errors
    ///
    /// Fails unless the next non-whitespace byte is `[`, and with
    /// `nesting deeper than 128 at byte N` past [`MAX_DEPTH`] levels.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Steps to the next element of the array being read: `true` when
    /// an element follows (the caller must consume it), `false` after
    /// the closing `]`. `first` starts `true` for each array.
    ///
    /// # Errors
    ///
    /// Fails on a missing separator.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, String> {
        self.skip_ws();
        let next = self.bytes().get(self.pos);
        if *first {
            *first = false;
            if next == Some(&b']') {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match next {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Reads a string (after any whitespace), borrowed from the
    /// document when it holds no escape.
    ///
    /// # Errors
    ///
    /// Fails on a missing opening quote, a bad escape or an
    /// unterminated string.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        // Quotes and backslashes are ASCII, so every cut below falls
        // on a character boundary of the (valid UTF-8) document.
        while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\') {
            self.pos += 1;
        }
        match bytes.get(self.pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                self.pos += 1;
                return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
            }
            Some(_) => {}
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed for our own
                            // exports; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let chunk = self.pos;
                    while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[chunk..self.pos]);
                }
            }
        }
    }

    /// Reads a number (after any whitespace) through `f64`, so `1e400`
    /// is infinite.
    ///
    /// # Errors
    ///
    /// Fails when the number's text does not parse (`1.5.3`, `-`).
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let bytes = self.bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && matches!(
                bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    /// Reads `true` or `false`, or `None` (after skipping it) for any
    /// other value.
    ///
    /// # Errors
    ///
    /// Fails on a syntax error in the value.
    pub fn bool_or_skip(&mut self) -> Result<Option<bool>, String> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| Some(true)),
            Some(b'f') => self.literal("false").map(|()| Some(false)),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Reads a number, or `None` (after skipping it) for any other
    /// value.
    ///
    /// # Errors
    ///
    /// Fails on a syntax error in the value.
    pub fn number_or_skip(&mut self) -> Result<Option<f64>, String> {
        match self.peek() {
            Some(b) if Self::starts_number(b) => self.number().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads and discards one value of any type, checking its syntax.
    ///
    /// # Errors
    ///
    /// Fails on the first syntax error inside the value.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b) if Self::starts_number(b) => self.number().map(drop),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Reads one value of any type into a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Fails on the first syntax error inside the value.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut members = Vec::new();
                let mut first = true;
                while let Some(key) = self.next_key(&mut first)? {
                    let value = self.value()?;
                    members.push((key.into_owned(), value));
                }
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                let mut first = true;
                while self.next_element(&mut first)? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b) if Self::starts_number(b) => self.number().map(Value::Number),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Checks that only whitespace follows the document's one value.
    ///
    /// # Errors
    ///
    /// Fails with `trailing data at byte N` otherwise.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes().len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included: `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes and other control
/// characters `\u00XX`.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that needs escaping is ASCII, so the run before it
        // ends on a character boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` in decimal, as `format!("{v}")` would.
pub fn push_u64(out: &mut String, v: u64) {
    let mut line = Line::new();
    let n = line.put_digits(v);
    out.push_str(&line.as_str()[LINE - n..]);
}

/// Appends an `f64` as a JSON number: the shortest decimal that reads
/// back to the same bits, laid out exactly as `format!("{v}")` lays it
/// out (plain decimal, never an exponent, `-0` for negative zero), with
/// `.0` appended when that text has no decimal point, so the value
/// stays visibly a float. Non-finite values, which JSON cannot carry as
/// numbers, are written as the quoted strings `"inf"`, `"-inf"` and
/// `"NaN"`.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str(if v.is_nan() {
            "\"NaN\""
        } else if v > 0.0 {
            "\"inf\""
        } else {
            "\"-inf\""
        });
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    if v == 0.0 {
        out.push_str("0.0");
        return;
    }
    let (mut mantissa, mut exponent) = shortest(v.to_bits());
    // A final round-up can leave trailing zeros (…19 → …20).
    while mantissa % 10 == 0 {
        mantissa /= 10;
        exponent += 1;
    }
    let mut line = Line::new();
    let n = line.put_digits(mantissa);
    // `point` digits sit before the decimal point.
    let point = n as i32 + exponent;
    let digits = LINE - n;
    let len = if point <= 0 {
        // 0.000ddd: the zeros are already there.
        let len = 2 + (-point) as usize + n;
        if len > LINE {
            return push_long(out, &line, n, point);
        }
        line.0.copy_within(digits.., len - n);
        line.0[..2].copy_from_slice(b"0.");
        len
    } else if (point as usize) < n {
        // ddd.ddd
        let point = point as usize;
        line.0.copy_within(digits..digits + point, 0);
        line.0[point] = b'.';
        line.0.copy_within(digits + point.., point + 1);
        n + 1
    } else {
        // ddd000.0
        let len = point as usize + 2;
        if len > LINE {
            return push_long(out, &line, n, point);
        }
        line.0.copy_within(digits.., 0);
        line.0[n..point as usize].fill(b'0');
        line.0[point as usize..len].copy_from_slice(b".0");
        len
    };
    out.push_str(&line.as_str()[..len]);
}

/// [`push_f64`]'s layout for a number longer than a [`Line`]: very
/// small or very large magnitudes.
fn push_long(out: &mut String, line: &Line, n: usize, point: i32) {
    let digits = &line.as_str()[LINE - n..];
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point as usize);
        out.push_str(digits);
    } else {
        out.push_str(digits);
        push_zeros(out, point as usize - n);
        out.push_str(".0");
    }
}

fn push_zeros(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push('0');
    }
}

/// Bytes in a [`Line`].
const LINE: usize = 32;

/// A scratch line for one number's text, pre-filled with `'0'`.
/// Validating a 16-aligned line whole lets `str::from_utf8` check it a
/// word pair at a time, which costs less than checking a short,
/// unaligned slice byte by byte.
#[repr(align(16))]
struct Line([u8; LINE]);

impl Line {
    fn new() -> Self {
        Self([b'0'; LINE])
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("ASCII line")
    }

    /// Writes `v`'s decimal digits at the end of the line and returns
    /// their count: eight digits per `u64` division, then two per `u32`
    /// division.
    fn put_digits(&mut self, mut v: u64) -> usize {
        let mut i = LINE;
        let buf = &mut self.0;
        let mut put_pair = |i: &mut usize, pair: u32| {
            let at = pair as usize * 2;
            *i -= 2;
            buf[*i..*i + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
        };
        while v >= 100_000_000 {
            let mut chunk = (v % 100_000_000) as u32;
            v /= 100_000_000;
            for _ in 0..4 {
                put_pair(&mut i, chunk % 100);
                chunk /= 100;
            }
        }
        let mut v = v as u32;
        while v >= 100 {
            put_pair(&mut i, v % 100);
            v /= 100;
        }
        if v >= 10 {
            put_pair(&mut i, v);
        } else {
            i -= 1;
            buf[i] = b'0' + v as u8;
        }
        LINE - i
    }
}

/// `"00"` through `"99"`, so digits are written two per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

// ----- shortest round-trip digits (Ryu) ------------------------------

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five (and of each reciprocal).
const POW5_BITCOUNT: i32 = 125;
/// Reciprocals `5^-q` for `q` up to `log10(2^969)`, the largest `q` a
/// finite double with a non-negative binary exponent needs.
const POW5_INV_LEN: usize = 292;
/// Powers `5^i` for `i` up to `1076 - log10(5^1076)`, the largest the
/// subnormals need.
const POW5_LEN: usize = 326;

/// The 125-bit power-of-five tables of the digit search.
struct Pow5Tables {
    /// `floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1`.
    inv: Vec<u128>,
    /// The top 125 bits of `5^i` (shifted up when it has fewer).
    pow: Vec<u128>,
}

fn pow5_tables() -> &'static Pow5Tables {
    static TABLES: OnceLock<Pow5Tables> = OnceLock::new();
    TABLES.get_or_init(Pow5Tables::generate)
}

impl Pow5Tables {
    /// Computes both tables exactly with a little-endian `u32` bignum,
    /// once per process.
    fn generate() -> Self {
        let mut pow = Vec::with_capacity(POW5_LEN);
        let mut inv = Vec::with_capacity(POW5_INV_LEN);
        let mut five_i: Vec<u32> = vec![1];
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let bits = big_bit_len(&five_i);
            debug_assert_eq!(bits as i32, pow5_bits(i as i32));
            if i < POW5_LEN {
                pow.push(if bits <= POW5_BITCOUNT as usize {
                    big_shr(&five_i, 0) << (POW5_BITCOUNT as usize - bits)
                } else {
                    big_shr(&five_i, bits - POW5_BITCOUNT as usize)
                });
            }
            if i < POW5_INV_LEN {
                // 2^(bits - 1 + 125) / 5^i, dividing by 5 in chunks of
                // at most 5^13 (the largest power that fits a u32).
                let shift = bits - 1 + POW5_BITCOUNT as usize;
                let mut x = vec![0u32; shift / 32 + 1];
                x[shift / 32] = 1 << (shift % 32);
                let mut left = i;
                while left > 0 {
                    let k = left.min(13);
                    big_div_small(&mut x, 5u32.pow(k as u32));
                    left -= k;
                }
                inv.push(big_shr(&x, 0) + 1);
            }
            big_mul_small(&mut five_i, 5);
        }
        Self { inv, pow }
    }
}

fn big_bit_len(x: &[u32]) -> usize {
    x.iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |top| top * 32 + 32 - x[top].leading_zeros() as usize)
}

fn big_mul_small(x: &mut Vec<u32>, m: u32) {
    let mut carry = 0u64;
    for limb in x.iter_mut() {
        let t = u64::from(*limb) * u64::from(m) + carry;
        *limb = t as u32;
        carry = t >> 32;
    }
    if carry > 0 {
        x.push(carry as u32);
    }
}

fn big_div_small(x: &mut [u32], d: u32) {
    let mut rem = 0u64;
    for limb in x.iter_mut().rev() {
        let t = (rem << 32) | u64::from(*limb);
        *limb = (t / u64::from(d)) as u32;
        rem = t % u64::from(d);
    }
}

/// `floor(x / 2^shift)`, which the caller guarantees fits a `u128`.
fn big_shr(x: &[u32], shift: usize) -> u128 {
    let mut out = 0u128;
    for (i, &limb) in x.iter().enumerate() {
        let lo = i * 32;
        if lo + 32 <= shift {
            continue;
        }
        if lo >= shift {
            if lo - shift < 128 {
                out |= u128::from(limb) << (lo - shift);
            }
        } else {
            out |= u128::from(limb >> (shift - lo));
        }
    }
    out
}

/// `bits(5^e)` for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

/// `floor(m * mul / 2^j)` for a 125-bit table entry `mul`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with
/// `digits * 10^exponent` inside the rounding interval of the finite,
/// non-zero double `bits` (sign ignored); of the shortest candidates
/// the closest to the exact value, ties rounding up.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // Two extra bits so the interval bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing makes both bounds reachable exactly when
    // the mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower neighbour is half as far at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let tables = pow5_tables();
    let (mut vr, mut vp, mut vm, e10);
    // Whether the lower bound is itself a short decimal (its removed
    // digits are all zeros), which matters only when it is reachable.
    // Ryu also tracks the exact value's trailing zeros, to round an
    // exact tie half to even; std's formatter rounds ties up, and so
    // does this one, so that bookkeeping is gone.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = tables.inv[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = tables.pow[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // Rare: the lower bound may be the shortest candidate.
        let mut last_removed = 0u64;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5)
    } else {
        let mut round_up = false;
        while vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse(" -1.5e2 "), Ok(Value::Number(-150.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::String("a\nb".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\": [1, {\"b\": \"x\"}], \"c\": false}").unwrap();
        assert_eq!(v.member("c"), Some(&Value::Bool(false)));
        let arr = v.member("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].member("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\""), Ok(Value::String("A".into())));
    }

    #[test]
    fn errors_name_the_byte_offset() {
        assert_eq!(parse("[1,]"), Err("unexpected input at byte 3".into()));
        assert_eq!(parse("{\"a\" 1}"), Err("expected ':' at byte 5".into()));
        assert_eq!(parse("{\"a\":1,}"), Err("expected '\"' at byte 7".into()));
        assert_eq!(parse("[1 2]"), Err("expected ',' or ']' at byte 3".into()));
        assert_eq!(parse("1 2"), Err("trailing data at byte 2".into()));
        assert_eq!(
            parse("[1.5.3]"),
            Err("invalid number \"1.5.3\" at byte 1".into())
        );
    }

    /// `depth` arrays, the innermost holding an object member, closed.
    fn nested(depth: usize) -> String {
        let mut doc = "[".repeat(depth - 1) + "{\"a\":1}";
        doc.push_str(&"]".repeat(depth - 1));
        doc
    }

    #[test]
    fn nesting_is_bounded_at_128_levels() {
        let ok = nested(128);
        assert_eq!(Cursor::new(&ok).skip_value(), Ok(()));
        assert!(Cursor::new(&ok).value().is_ok());
        // Closing a container frees its level: siblings do not add up.
        let inner = nested(127);
        let siblings = format!("[{inner},{inner}]");
        assert_eq!(Cursor::new(&siblings).skip_value(), Ok(()));
        assert!(parse(&siblings).is_ok());
        let deep = nested(129);
        let err = "nesting deeper than 128 at byte 128";
        assert_eq!(Cursor::new(&deep).skip_value().unwrap_err(), err);
        assert_eq!(Cursor::new(&deep).value().unwrap_err(), err);
        // A hostile depth fails at the bound instead of overflowing.
        let hostile = "{\"x\":".to_owned() + &"[".repeat(100_000);
        let err = format!("nesting deeper than 128 at byte {}", 5 + 127);
        assert_eq!(parse(&hostile).unwrap_err(), err);
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut cur = Cursor::new("\"plain\" \"es\\u0063aped\"");
        assert!(matches!(cur.string(), Ok(Cow::Borrowed("plain"))));
        cur.peek();
        assert!(matches!(cur.string(), Ok(Cow::Owned(s)) if s == "escaped"));
        assert_eq!(cur.finish(), Ok(()));
    }

    fn old_escape(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escaping_matches_the_char_by_char_rule() {
        for s in [
            "",
            "plain",
            "q\"b\\s",
            "\n\r\t\u{1}\u{1f}",
            "é∂\u{7f}x\u{0}",
        ] {
            let mut out = String::new();
            push_escaped(&mut out, s);
            assert_eq!(out, old_escape(s), "{s:?}");
            assert_eq!(parse(&out), Ok(Value::String(s.into())));
        }
    }

    #[test]
    fn integers_render_like_display() {
        for v in [0, 7, 10, 99, 1234567890, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }
}
