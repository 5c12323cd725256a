//! Body codecs of both framings: one writer each, and typed readers for
//! the plan reply.
//!
//! Every message leaves through the vendored `serde::Value` tree: the v3
//! framing writes it with [`encode_body`], the JSON-lines framing (v1/v2)
//! with `serde_json`. One writer per framing means one byte layout per
//! message, with nothing to keep in step.
//!
//! Reading is where a plan reply's size shows: a default reply carries a
//! 2000-episode learning curve, and through the tree that is one `String`
//! per key and one `Vec` per object, ≈ 10k allocations a reply. So
//! `PlanResponse` and the six structs inside it, and the spill record of a
//! plan (a `PortfolioOutcome`, built from three of them), are also read
//! straight against the bytes. Each has exactly one `wire_struct!` field
//! list below — field, type, and whether the derive defaults it — and that
//! list generates both typed readers, v3 and JSON. A field added to a
//! struct but not to its list fails to compile.
//!
//! # The binary framing (protocol v3)
//!
//! A v3 body is one self-describing value: a tag byte, then the payload
//! (little-endian throughout; lengths and counts are `u32`):
//!
//! ```text
//! 0x00 null   0x01 false   0x02 true
//! 0x03 i64    0x04 u64     0x05 f64 (raw IEEE-754 bits)
//! 0x06 string  len, UTF-8 bytes
//! 0x07 array   count, values
//! 0x08 object  count, (key len, key bytes, value)*
//! ```
//!
//! [`encode_body`] writes any `Serialize` message; [`decode_body`] reads
//! any `Deserialize` one through the tree. [`decode_response`] reads a
//! `Response::Plan` body with the typed reader and every other variant
//! through the tree.
//!
//! **The reader rule.** A typed reader accepts exactly what the tree path
//! accepts and produces `==` values — fields in any order, unknown fields
//! skipped (but still validated: tags, counts, UTF-8, depth), a missing
//! `#[serde(default)]` field defaulted, the first of a duplicated key
//! winning, numbers coerced as the shim's `as_f64` / `as_u64` do, `Option`
//! from `null`. The tree is the oracle the typed readers are held to
//! (`tests/codec_differential.rs`), so a peer cannot tell which one read
//! its bytes.
//!
//! # Spill records
//!
//! The plan cache's spill tier writes each value as one record: a 24-byte
//! header, then the value's v3 body as [`encode_body`] writes it.
//!
//! ```text
//! "QSPL"  format version (u32)  body length (u64)  checksum of the body (u64)
//! ```
//!
//! A record whose magic, version, length or checksum fails is refused
//! before its body is read. A plan's body is read by the typed reader
//! ([`decode_outcome`]), any other cached value's through the tree.
//!
//! # The JSON framing (protocol v1/v2)
//!
//! The same reader rule, against the vendored `serde_json`. The typed
//! reader (the plan route of
//! [`parse_response_frame`](crate::protocol::parse_response_frame))
//! accepts exactly what `serde_json::parse` and `Deserialize` accept, to
//! `==` values: whitespace anywhere, fields in any order, unknown fields
//! skipped but still validated, the first of a duplicated key winning,
//! every escape in keys and strings alike, numbers classified as the
//! parser classifies them and coerced through `Value::as_u64`/`as_f64`
//! (so `7.0` and `7e0` are valid counts), the same depth guard, and
//! trailing characters refused.

use std::borrow::Cow;

use qsdnn::{EpisodeRecord, MemberSummary, PortfolioOutcome, SearchReport};
use serde::{Serialize, Value};

use crate::protocol::{
    PlanResponse, Response, ResponseFrame, StageTiming, TaggedResponse, TraceInfo, WarmStartInfo,
};
use crate::ServeError;

/// Depth bound for every codec, matching the JSON parser's nesting guard
/// so neither framing accepts what the other would refuse.
pub(crate) const MAX_BINARY_DEPTH: usize = 128;

pub(crate) const TAG_NULL: u8 = 0x00;
pub(crate) const TAG_FALSE: u8 = 0x01;
pub(crate) const TAG_TRUE: u8 = 0x02;
pub(crate) const TAG_INT: u8 = 0x03;
pub(crate) const TAG_UINT: u8 = 0x04;
pub(crate) const TAG_FLOAT: u8 = 0x05;
pub(crate) const TAG_STRING: u8 = 0x06;
pub(crate) const TAG_ARRAY: u8 = 0x07;
pub(crate) const TAG_OBJECT: u8 = 0x08;

/// Bytes of an array or object header: the tag and the `u32` count.
const HEADER_WIRE: usize = 5;
/// Fewest bytes one object field occupies: a 4-byte key length plus a
/// 1-byte value tag.
const MIN_FIELD_WIRE: usize = 5;

const KEY_NOT_UTF8: &str = "object key is not valid UTF-8";

fn encode_len(len: usize, out: &mut Vec<u8>) -> Result<(), ServeError> {
    let n = u32::try_from(len)
        .map_err(|_| ServeError::Protocol("binary codec: length exceeds u32".to_string()))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

/// A length-prefixed run of UTF-8: an object key, or a string's payload
/// after its tag.
fn encode_str(s: &str, out: &mut Vec<u8>) -> Result<(), ServeError> {
    encode_len(s.len(), out)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn encode_value_into(
    v: &Value,
    out: &mut Vec<u8>,
    depth: usize,
) -> Result<(), ServeError> {
    if depth > MAX_BINARY_DEPTH {
        return Err(ServeError::Protocol(
            "binary codec: nesting too deep".to_string(),
        ));
    }
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => out.push(if *b { TAG_TRUE } else { TAG_FALSE }),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            encode_str(s, out)?;
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            encode_len(items.len(), out)?;
            for item in items {
                encode_value_into(item, out, depth + 1)?;
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            encode_len(fields.len(), out)?;
            for (k, val) in fields {
                encode_str(k, out)?;
                encode_value_into(val, out, depth + 1)?;
            }
        }
    }
    Ok(())
}

/// Pull reader over one body. Every rule about what bytes are acceptable
/// — truncation, count-vs-remaining, UTF-8, depth, trailing bytes — lives
/// in these helpers, so the tree decoder, the typed decoders and
/// [`BinReader::skip_value`] cannot disagree on them.
pub(crate) struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BinReader { bytes, pos: 0 }
    }

    fn err(&self, msg: &str) -> ServeError {
        ServeError::Protocol(format!("binary codec error at byte {}: {msg}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.err("length overflow"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated payload"))?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("truncated payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        let bytes = self.take(4)?;
        let arr = <[u8; 4]>::try_from(bytes).map_err(|_| self.err("truncated u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        let bytes = self.take(8)?;
        let arr = <[u8; 8]>::try_from(bytes).map_err(|_| self.err("truncated u64"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// The next value's tag, left unconsumed.
    fn peek_tag(&self) -> Result<u8, ServeError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("truncated payload"))
    }

    /// A length-prefixed run of bytes, borrowed from the body.
    fn run(&mut self) -> Result<&'a [u8], ServeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn utf8(&self, run: &'a [u8], invalid: &str) -> Result<&'a str, ServeError> {
        std::str::from_utf8(run).map_err(|_| self.err(invalid))
    }

    /// A string's payload, its tag already consumed.
    fn string(&mut self) -> Result<&'a str, ServeError> {
        let run = self.run()?;
        self.utf8(run, "string is not valid UTF-8")
    }

    /// An object field's key.
    fn key(&mut self) -> Result<&'a str, ServeError> {
        let run = self.run()?;
        self.utf8(run, KEY_NOT_UTF8)
    }

    /// Skips a field whose key — read with [`BinReader::run`] — is none
    /// the typed decoder knows. Only here is the key checked for UTF-8:
    /// the known keys are ASCII, so one that matched is valid without the
    /// check, which made 8000 times over a default reply's learning curve
    /// costs more than the rest of the decode.
    fn skip_unknown_field(&mut self, key: &'a [u8], depth: usize) -> Result<(), ServeError> {
        self.utf8(key, KEY_NOT_UTF8)?;
        self.skip_value(depth)
    }

    /// An array's element count, its tag already consumed. Every element
    /// costs at least its tag byte, so a count beyond the remaining
    /// payload is hostile — rejected before anything is reserved for it.
    fn array_len(&mut self) -> Result<usize, ServeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.err("array count exceeds payload"));
        }
        Ok(n)
    }

    /// An object's field count, its tag already consumed, bounded like
    /// [`BinReader::array_len`] by what the fields must occupy.
    fn object_len(&mut self) -> Result<usize, ServeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(MIN_FIELD_WIRE) > self.remaining() {
            return Err(self.err("field count exceeds payload"));
        }
        Ok(n)
    }

    /// Consumes one value of any shape without building it, holding it to
    /// everything the tree decoder would: a field the typed decoder does
    /// not know must still be well-formed. Recursion is bounded by the
    /// depth guard and nothing is allocated.
    fn skip_value(&mut self, depth: usize) -> Result<(), ServeError> {
        if depth > MAX_BINARY_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.u8()? {
            TAG_NULL | TAG_FALSE | TAG_TRUE => {}
            TAG_INT | TAG_UINT | TAG_FLOAT => {
                self.take(8)?;
            }
            TAG_STRING => {
                self.string()?;
            }
            TAG_ARRAY => {
                for _ in 0..self.array_len()? {
                    self.skip_value(depth + 1)?;
                }
            }
            TAG_OBJECT => {
                for _ in 0..self.object_len()? {
                    self.key()?;
                    self.skip_value(depth + 1)?;
                }
            }
            other => return Err(self.err(&format!("unknown value tag 0x{other:02x}"))),
        }
        Ok(())
    }

    /// The whole body must be one value.
    fn finish(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing bytes after value"));
        }
        Ok(())
    }
}

fn decode_value_inner(r: &mut BinReader<'_>, depth: usize) -> Result<Value, ServeError> {
    if depth > MAX_BINARY_DEPTH {
        return Err(r.err("nesting too deep"));
    }
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(r.u64()? as i64)),
        TAG_UINT => Ok(Value::UInt(r.u64()?)),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(r.u64()?))),
        TAG_STRING => Ok(Value::String(r.string()?.to_string())),
        TAG_ARRAY => {
            let n = r.array_len()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value_inner(r, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = r.object_len()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let key = r.key()?.to_string();
                fields.push((key, decode_value_inner(r, depth + 1)?));
            }
            Ok(Value::Object(fields))
        }
        other => Err(r.err(&format!("unknown value tag 0x{other:02x}"))),
    }
}

/// Decodes one codec payload into a [`Value`] tree, requiring the whole
/// slice to be consumed.
///
/// # Errors
///
/// Returns an error describing the first framing/codec violation.
pub fn decode_value(bytes: &[u8]) -> Result<Value, ServeError> {
    let mut r = BinReader::new(bytes);
    let v = decode_value_inner(&mut r, 0)?;
    r.finish()?;
    Ok(v)
}

/// Encodes a message as a binary-codec body (no frame header) through
/// the tree codec.
///
/// # Errors
///
/// Fails on a value the codec cannot represent (nesting beyond the
/// depth guard, or a string/collection length beyond `u32`).
pub fn encode_body<T: Serialize + ?Sized>(msg: &T) -> Result<Vec<u8>, ServeError> {
    let mut out = Vec::with_capacity(64);
    encode_value_into(&msg.serialize(), &mut out, 0)?;
    Ok(out)
}

/// Decodes a binary-codec body into a typed message through the tree
/// codec.
///
/// # Errors
///
/// Fails on codec violations or a shape mismatch.
pub fn decode_body<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, ServeError> {
    T::deserialize(&decode_value(bytes)?).map_err(|e| ServeError::Protocol(e.to_string()))
}

// ---------------------------------------------------------------------------
// Typed readers: plan replies
// ---------------------------------------------------------------------------

/// Reads `Self` from whatever the tree codec followed by
/// `Self::deserialize` would accept, to the same value.
trait WireDecode: Sized {
    /// Fewest bytes an accepted encoding occupies. A collection reserves
    /// for no more elements than the rest of the body could hold, so a
    /// claimed count never allocates more than the frame that carried it.
    const MIN_WIRE: usize;

    /// `depth` is the value's nesting depth in the body, carried so that a
    /// skipped unknown field trips the depth guard where the tree decoder
    /// would.
    fn decode(r: &mut BinReader<'_>, depth: usize) -> Result<Self, ServeError>;
}

impl WireDecode for bool {
    const MIN_WIRE: usize = 1;

    fn decode(r: &mut BinReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        match r.u8()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            _ => Err(r.err("expected bool")),
        }
    }
}

impl WireDecode for usize {
    const MIN_WIRE: usize = 9;

    /// Any non-negative integral number, as `Value::as_u64` reads one.
    fn decode(r: &mut BinReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        let u = match r.u8()? {
            TAG_INT => u64::try_from(r.u64()? as i64).ok(),
            TAG_UINT => Some(r.u64()?),
            TAG_FLOAT => Some(f64::from_bits(r.u64()?))
                .filter(|f| *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64)
                .map(|f| f as u64),
            _ => None,
        };
        let u = u.ok_or_else(|| r.err("expected usize"))?;
        usize::try_from(u).map_err(|_| r.err("out of range for usize"))
    }
}

impl WireDecode for f64 {
    const MIN_WIRE: usize = 9;

    /// Any number, as `Value::as_f64` reads one.
    fn decode(r: &mut BinReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        match r.u8()? {
            TAG_INT => Ok(r.u64()? as i64 as f64),
            TAG_UINT => Ok(r.u64()? as f64),
            TAG_FLOAT => Ok(f64::from_bits(r.u64()?)),
            _ => Err(r.err("expected f64")),
        }
    }
}

impl WireDecode for String {
    const MIN_WIRE: usize = HEADER_WIRE;

    fn decode(r: &mut BinReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        match r.u8()? {
            TAG_STRING => Ok(r.string()?.to_string()),
            _ => Err(r.err("expected string")),
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    const MIN_WIRE: usize = 1;

    fn decode(r: &mut BinReader<'_>, depth: usize) -> Result<Self, ServeError> {
        if r.peek_tag()? == TAG_NULL {
            r.u8()?;
            return Ok(None);
        }
        T::decode(r, depth).map(Some)
    }
}

/// Slots to reserve for a claimed count of `T` with `remaining` bytes of
/// body left: no more elements than those bytes could encode, and never
/// more memory than those bytes — the tree path's 32-byte `Value` per
/// claimed 1-byte element is the amplification this bound exists to avoid.
fn reservation<T: WireDecode>(claimed: usize, remaining: usize) -> usize {
    let per_item = T::MIN_WIRE.max(std::mem::size_of::<T>()).max(1);
    claimed.min(remaining / per_item)
}

impl<T: WireDecode> WireDecode for Vec<T> {
    const MIN_WIRE: usize = HEADER_WIRE;

    fn decode(r: &mut BinReader<'_>, depth: usize) -> Result<Self, ServeError> {
        if r.u8()? != TAG_ARRAY {
            return Err(r.err("expected array"));
        }
        let n = r.array_len()?;
        let mut items = Vec::with_capacity(reservation::<T>(n, r.remaining()));
        for _ in 0..n {
            items.push(T::decode(r, depth + 1)?);
        }
        Ok(items)
    }
}

/// Reads `Self` from whatever `serde_json::parse` followed by
/// `Self::deserialize` would accept, to the same value.
trait JsonDecode: Sized {
    /// `depth` is the value's nesting depth in the document as the
    /// parser counts it, carried so that a skipped unknown field trips
    /// the depth guard where the parser would.
    fn read_json(r: &mut JsonReader<'_>, depth: usize) -> Result<Self, ServeError>;
}

impl JsonDecode for bool {
    fn read_json(r: &mut JsonReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        r.ws();
        match r.peek() {
            Some(b't') => r.literal("true").map(|()| true),
            Some(b'f') => r.literal("false").map(|()| false),
            _ => Err(r.err("expected bool")),
        }
    }
}

impl JsonDecode for usize {
    /// Any non-negative integral number, as `Value::as_u64` reads one.
    fn read_json(r: &mut JsonReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        let u = r.number("expected usize")?.as_u64();
        let u = u.ok_or_else(|| r.err("expected usize"))?;
        usize::try_from(u).map_err(|_| r.err("out of range for usize"))
    }
}

impl JsonDecode for f64 {
    /// Any number, as `Value::as_f64` reads one.
    fn read_json(r: &mut JsonReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        let f = r.number("expected f64")?.as_f64();
        f.ok_or_else(|| r.err("expected f64"))
    }
}

impl JsonDecode for String {
    fn read_json(r: &mut JsonReader<'_>, _depth: usize) -> Result<Self, ServeError> {
        r.ws();
        if r.peek() != Some(b'"') {
            return Err(r.err("expected string"));
        }
        r.string().map(Cow::into_owned)
    }
}

impl<T: JsonDecode> JsonDecode for Option<T> {
    fn read_json(r: &mut JsonReader<'_>, depth: usize) -> Result<Self, ServeError> {
        r.ws();
        if r.peek() == Some(b'n') {
            return r.literal("null").map(|()| None);
        }
        T::read_json(r, depth).map(Some)
    }
}

impl<T: JsonDecode> JsonDecode for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>, depth: usize) -> Result<Self, ServeError> {
        r.ws();
        if !r.eat(b'[') {
            return Err(r.err("expected array"));
        }
        let mut items = Vec::new();
        r.ws();
        if r.eat(b']') {
            return Ok(items);
        }
        loop {
            items.push(T::read_json(r, depth + 1)?);
            r.ws();
            if r.eat(b']') {
                return Ok(items);
            }
            if !r.eat(b',') {
                return Err(r.err("expected `,` or `]`"));
            }
        }
    }
}

/// Pull reader over one JSON document. Every rule about what text is
/// acceptable — whitespace, escapes, number syntax, depth, trailing
/// characters — is the vendored parser's, restated in these helpers so
/// the typed decoders and [`JsonReader::skip_value`] cannot disagree
/// with it or with each other.
pub(crate) struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(text: &'a str) -> Self {
        JsonReader { text, pos: 0 }
    }

    fn err(&self, msg: &str) -> ServeError {
        ServeError::Protocol(format!("JSON codec error at byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    /// The parser's whitespace: space, tab, newline, carriage return.
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ServeError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if !rest.starts_with(lit.as_bytes()) {
            return Err(self.err(&format!("expected `{lit}`")));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// The text from `start` to the cursor. Both ends sit on ASCII
    /// delimiters, so the slice never splits a character.
    fn since(&self, start: usize) -> Result<&'a str, ServeError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8"))
    }

    /// A string at the cursor, borrowed from the text unless it holds an
    /// escape. Escapes decode exactly as the parser decodes them.
    fn string(&mut self) -> Result<Cow<'a, str>, ServeError> {
        if !self.eat(b'"') {
            return Err(self.err("expected `\"`"));
        }
        let start = self.pos;
        self.skip_plain();
        match self.peek() {
            Some(b'"') => {
                let s = self.since(start)?;
                self.pos += 1;
                return Ok(Cow::Borrowed(s));
            }
            Some(b'\\') => {}
            Some(_) => return Err(self.err("control character in string")),
            None => return Err(self.err("unterminated string")),
        }
        let mut out = String::from(self.since(start)?);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(self.since(run)?);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Moves past string bytes that stand for themselves: everything but
    /// a quote, a backslash or a control character.
    fn skip_plain(&mut self) {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// One escape, its backslash consumed: a surrogate pair must be
    /// whole, a lone half is refused.
    fn escape(&mut self) -> Result<char, ServeError> {
        let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let cp = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    if !self.eat(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    if !self.eat(b'u') {
                        return Err(self.err("expected `u`"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    cp
                };
                char::from_u32(cp).ok_or_else(|| self.err("bad \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    /// The four characters of a `\u` escape, read as the parser reads
    /// them: through `u32::from_str_radix`.
    fn hex4(&mut self) -> Result<u32, ServeError> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = std::str::from_utf8(digits)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// A number, classified as the parser's `parse_number` classifies
    /// it: `Int`, else `UInt`, else `Float`. `what` names the expected
    /// type when no number starts here.
    fn number(&mut self, what: &str) -> Result<Value, ServeError> {
        self.ws();
        let start = self.pos;
        self.eat(b'-');
        if self.pos == start && !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(what));
        }
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        let len = rest
            .iter()
            .position(|&b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        let is_float = rest
            .get(..len)
            .unwrap_or_default()
            .iter()
            .any(|b| !b.is_ascii_digit());
        self.pos += len;
        let text = self.since(start)?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    /// An object at the cursor, handing each field's key to `field`,
    /// which must consume the value. `what` names the expected type when
    /// no object starts here.
    fn object(
        &mut self,
        what: &str,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        self.ws();
        if !self.eat(b'{') {
            return Err(self.err(what));
        }
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            field(self, key)?;
            self.ws();
            if self.eat(b'}') {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    /// Consumes one value of any shape without building it, holding it to
    /// everything the parser would: a field the typed decoder does not
    /// know must still be well-formed and within the depth guard.
    fn skip_value(&mut self, depth: usize) -> Result<(), ServeError> {
        if depth > MAX_BINARY_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number("expected number").map(drop),
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.ws();
                    if self.eat(b']') {
                        return Ok(());
                    }
                    if !self.eat(b',') {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => self.object("expected object", |r, _| r.skip_value(depth + 1)),
            Some(other) => Err(self.err(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `{` and the first key with its `:`; `None` when the text does not
    /// open that way.
    fn leading_key(&mut self) -> Option<Cow<'a, str>> {
        self.ws();
        if !self.eat(b'{') {
            return None;
        }
        self.ws();
        let key = self.string().ok()?;
        self.ws();
        self.eat(b':').then_some(key)
    }

    /// Whether `"name":` comes next.
    fn field_named(&mut self, name: &str) -> bool {
        self.ws();
        let named = self.string().is_ok_and(|key| key == name);
        self.ws();
        named && self.eat(b':')
    }

    /// Consumes the punctuation `b`, whitespace before it allowed.
    fn punct(&mut self, b: u8) -> Result<(), ServeError> {
        self.ws();
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Closes the line's outer object after `frame`: more fields there
    /// leave the tree the last word, anything else but the end is refused.
    fn close_line(&mut self, frame: ResponseFrame) -> PlanLine {
        self.ws();
        if self.peek() == Some(b',') {
            return PlanLine::Unsure(self.err("fields after the reply"));
        }
        match self.punct(b'}').and_then(|()| self.finish()) {
            Ok(()) => PlanLine::Plan(frame),
            Err(e) => PlanLine::Refused(e),
        }
    }

    /// The whole text must be one value.
    fn finish(&mut self) -> Result<(), ServeError> {
        self.ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }
}

/// The typed readers of one derive-serialized struct, from its field
/// list: every field, its type, and whether the derive treats its absence
/// as `Default::default()` (`default`, i.e. `#[serde(default)]`) or as an
/// error (`required`). A field added to the struct but not here fails to
/// compile; a wrong `default`/`required` fails
/// `typed_field_lists_match_the_derives`, in both framings.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty = $kind:ident),+ $(,)? }) => {
        impl WireDecode for $ty {
            const MIN_WIRE: usize = HEADER_WIRE $(+ wire_struct!(@min $kind $field: $fty))+;

            fn decode(r: &mut BinReader<'_>, depth: usize) -> Result<Self, ServeError> {
                if r.u8()? != TAG_OBJECT {
                    return Err(r.err(concat!("expected object for ", stringify!($ty))));
                }
                $(let mut $field: Option<$fty> = None;)+
                'fields: for _ in 0..r.object_len()? {
                    let key = r.run()?;
                    $(
                        // The first of a duplicated key wins, as in
                        // `Value::get_field`; later ones are skipped.
                        if key == stringify!($field).as_bytes() && $field.is_none() {
                            $field = Some(WireDecode::decode(r, depth + 1)?);
                            continue 'fields;
                        }
                    )+
                    r.skip_unknown_field(key, depth + 1)?;
                }
                Ok($ty {
                    $($field: wire_struct!(@finish $kind $field in $ty, r),)+
                })
            }
        }

        impl JsonDecode for $ty {
            fn read_json(r: &mut JsonReader<'_>, depth: usize) -> Result<Self, ServeError> {
                $(let mut $field: Option<$fty> = None;)+
                r.object(concat!("expected object for ", stringify!($ty)), |r, key| {
                    $(
                        // The first of a duplicated key wins, as in
                        // `Value::get_field`; later ones are skipped.
                        if key == stringify!($field) && $field.is_none() {
                            $field = Some(JsonDecode::read_json(r, depth + 1)?);
                            return Ok(());
                        }
                    )+
                    r.skip_value(depth + 1)
                })?;
                Ok($ty {
                    $($field: wire_struct!(@finish $kind $field in $ty, r),)+
                })
            }
        }
    };
    (@min default $field:ident: $fty:ty) => { 0 };
    (@min required $field:ident: $fty:ty) => {
        4 + stringify!($field).len() + <$fty as WireDecode>::MIN_WIRE
    };
    (@finish default $field:ident in $ty:ident, $r:ident) => { $field.unwrap_or_default() };
    (@finish required $field:ident in $ty:ident, $r:ident) => {
        match $field {
            Some(value) => value,
            None => {
                return Err($r.err(concat!(
                    "missing field `", stringify!($field), "` in ", stringify!($ty)
                )))
            }
        }
    };
}

wire_struct!(EpisodeRecord {
    episode: usize = required,
    epsilon: f64 = required,
    cost_ms: f64 = required,
    best_so_far_ms: f64 = required,
});

wire_struct!(SearchReport {
    method: String = required,
    network: String = required,
    best_assignment: Vec<usize> = required,
    best_cost_ms: f64 = required,
    episodes: usize = required,
    curve: Vec<EpisodeRecord> = required,
    wall_time_ms: f64 = required,
});

wire_struct!(MemberSummary {
    label: String = required,
    best_cost_ms: Option<f64> = required,
    episodes: usize = default,
    wall_time_ms: f64 = required,
});

wire_struct!(WarmStartInfo {
    donor_key: String = default,
    donor_network: String = default,
    donor_distance: f64 = default,
    transferred_states: usize = default,
    episodes: usize = default,
});

wire_struct!(StageTiming {
    stage: String = default,
    ms: f64 = default,
});

wire_struct!(TraceInfo {
    stages: Vec<StageTiming> = default,
    total_ms: f64 = default,
});

wire_struct!(PlanResponse {
    network: String = default,
    plan_key: String = default,
    cache_hit: bool = default,
    best: SearchReport = required,
    winner: String = default,
    members: Vec<MemberSummary> = default,
    vanilla_cost_ms: f64 = default,
    warm_start: Option<WarmStartInfo> = default,
    trace: Option<TraceInfo> = default,
});

wire_struct!(PortfolioOutcome {
    best: SearchReport = required,
    winner_index: usize = required,
    winner: String = required,
    members: Vec<MemberSummary> = required,
});

// ---------------------------------------------------------------------------
// Spill records
// ---------------------------------------------------------------------------

/// First bytes of every spill record.
const SPILL_MAGIC: [u8; 4] = *b"QSPL";
/// The record layout's version; a record of any other is refused.
const SPILL_VERSION: u32 = 2;
/// Magic, version (`u32`), body length (`u64`), body checksum (`u64`).
const SPILL_HEADER_BYTES: usize = 24;

/// FNV-1a-64 folded over the body's little-endian `u64` words, then over
/// the tail bytes one at a time: one multiply per 8 bytes instead of per
/// byte. Each step `h ← (h ⊕ w)·P` is injective in `w` for a given `h`
/// (xor is) and a bijection in `h` for a given `w` (the FNV prime `P` is
/// odd, so multiplying by it is invertible mod 2⁶⁴). Two bodies of one
/// length that differ in one word reach that step with the same `h` and
/// leave it with different ones, and every later step keeps them apart —
/// so any single changed word, byte or bit changes the sum.
fn spill_checksum(body: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let words = body.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(OFFSET, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().unwrap_or_default()))
    });
    tail.iter().fold(h, |h, &b| step(h, u64::from(b)))
}

/// One spill record: the fixed header, then `value`'s v3 body as
/// [`encode_body`] writes it. `None` when the body cannot be encoded.
pub(crate) fn spill_record<T: Serialize + ?Sized>(value: &T) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&SPILL_MAGIC);
    out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    out.resize(SPILL_HEADER_BYTES, 0);
    encode_value_into(&value.serialize(), &mut out, 0).ok()?;
    let body = out.get(SPILL_HEADER_BYTES..)?;
    let len = (body.len() as u64).to_le_bytes();
    let sum = spill_checksum(body).to_le_bytes();
    out.get_mut(8..16)?.copy_from_slice(&len);
    out.get_mut(16..SPILL_HEADER_BYTES)?.copy_from_slice(&sum);
    Some(out)
}

/// The body of a sound spill record; `None` when the magic, version,
/// length or checksum does not hold. The checksum changes on any one
/// changed word ([`spill_checksum`]) and the length on any cut, so a torn
/// or bit-flipped record never gets past here.
pub(crate) fn spill_body(record: &[u8]) -> Option<&[u8]> {
    let (header, body) = record.split_at_checked(SPILL_HEADER_BYTES)?;
    let word = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(header.get(at..at + 8)?.try_into().ok()?))
    };
    let sound = header.get(..4) == Some(&SPILL_MAGIC[..])
        && header.get(4..8) == Some(&SPILL_VERSION.to_le_bytes()[..])
        && word(8)? == body.len() as u64
        && word(16)? == spill_checksum(body);
    sound.then_some(body)
}

/// Reads a portfolio outcome from a v3 body through the typed reader: the
/// value [`decode_body`] reads from it.
pub(crate) fn decode_outcome(body: &[u8]) -> Result<PortfolioOutcome, ServeError> {
    let mut r = BinReader::new(body);
    let outcome = PortfolioOutcome::decode(&mut r, 0)?;
    r.finish()?;
    Ok(outcome)
}

/// The key under which the externally-tagged [`Response`] carries a plan.
const PLAN_VARIANT: &str = "Plan";

/// Decodes a v3 body as a server → client message: a body whose single
/// variant key is `Plan` through the typed reader, every other through the
/// tree. The value is that of [`decode_body`] either way.
///
/// # Errors
///
/// Fails on codec violations or a shape mismatch; a plan reply's failure
/// always names the byte offset it was found at.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ServeError> {
    let mut r = BinReader::new(bytes);
    let is_plan = matches!(r.u8(), Ok(TAG_OBJECT))
        && matches!(r.u32(), Ok(1))
        && matches!(r.key(), Ok(PLAN_VARIANT));
    if !is_plan {
        return decode_body(bytes);
    }
    let plan = PlanResponse::decode(&mut r, 1)?;
    r.finish()?;
    Ok(Response::Plan(plan))
}

/// What the typed reader makes of one JSON line, for
/// [`parse_response_frame`](crate::protocol::parse_response_frame).
// Returned and matched at once, never stored: boxing the plan would cost
// every reply an allocation to save a move.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PlanLine {
    /// The line does not open as a plan reply: `{"Plan":…}` bare or
    /// `{"id":…,"resp":{"Plan":…}}` tagged.
    Other,
    /// A plan reply, decoded to what the tree returns for the line.
    Plan(ResponseFrame),
    /// Refused where the tree refuses too, naming the byte.
    Refused(ServeError),
    /// Refused by the reader, where the tree may still accept the line:
    /// a `{"Plan":…` line whose plan failed or that carries more fields is
    /// an envelope if one of them is `id`, and `Plan` then an ignored
    /// field; an envelope may carry more fields after `resp`.
    Unsure(ServeError),
}

/// The typed route over one trimmed line; see [`PlanLine`].
pub(crate) fn decode_json_plan_line(line: &str) -> PlanLine {
    let mut r = JsonReader::new(line);
    let Some(key) = r.leading_key() else {
        return PlanLine::Other;
    };
    match key.as_ref() {
        PLAN_VARIANT => match PlanResponse::read_json(&mut r, 1) {
            Ok(plan) => r.close_line(ResponseFrame::Untagged(Response::Plan(plan))),
            Err(e) => PlanLine::Unsure(e),
        },
        "id" => {
            let id = match r.number("expected u64").map(|n| n.as_u64()) {
                Ok(Some(id)) => id,
                Ok(None) => return PlanLine::Refused(r.err("expected u64")),
                Err(e) => return PlanLine::Refused(e),
            };
            let plan_follows = r.punct(b',').is_ok()
                && r.field_named("resp")
                && r.punct(b'{').is_ok()
                && r.field_named(PLAN_VARIANT);
            if !plan_follows {
                return PlanLine::Other;
            }
            // `resp` is the envelope's first, so the tree reads this plan.
            let plan = PlanResponse::read_json(&mut r, 2).and_then(|plan| {
                r.punct(b'}')?;
                Ok(plan)
            });
            match plan {
                Ok(plan) => r.close_line(ResponseFrame::Tagged(TaggedResponse {
                    id,
                    resp: Response::Plan(plan),
                })),
                Err(e) => PlanLine::Refused(e),
            }
        }
        _ => PlanLine::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn sample_plan() -> PlanResponse {
        PlanResponse {
            network: "lenet5".into(),
            plan_key: "00ff".into(),
            cache_hit: true,
            best: SearchReport {
                method: "qs-dnn".into(),
                network: "lenet5".into(),
                best_assignment: vec![0, 1, 2],
                best_cost_ms: 1.25,
                episodes: 2,
                curve: vec![
                    EpisodeRecord {
                        episode: 0,
                        epsilon: 1.0,
                        cost_ms: 2.5,
                        best_so_far_ms: 2.5,
                    },
                    EpisodeRecord {
                        episode: 1,
                        epsilon: 0.5,
                        cost_ms: 1.25,
                        best_so_far_ms: 1.25,
                    },
                ],
                wall_time_ms: 3.5,
            },
            winner: "qs-dnn(seed=0x1)".into(),
            members: vec![MemberSummary {
                label: "pbqp".into(),
                best_cost_ms: Some(1.5),
                episodes: 0,
                wall_time_ms: 0.1,
            }],
            vanilla_cost_ms: 5.0,
            warm_start: Some(WarmStartInfo {
                donor_key: "00aa".into(),
                donor_network: "lenet5".into(),
                donor_distance: 0.5,
                transferred_states: 42,
                episodes: 250,
            }),
            trace: Some(TraceInfo {
                stages: vec![StageTiming {
                    stage: "search".into(),
                    ms: 12.5,
                }],
                total_ms: 13.0,
            }),
        }
    }

    fn typed_decode<T: WireDecode>(bytes: &[u8]) -> Result<T, ServeError> {
        let mut r = BinReader::new(bytes);
        let value = T::decode(&mut r, 0)?;
        r.finish()?;
        Ok(value)
    }

    fn typed_read_json<T: JsonDecode>(text: &str) -> Result<T, ServeError> {
        let mut r = JsonReader::new(text);
        let value = T::read_json(&mut r, 0)?;
        r.finish()?;
        Ok(value)
    }

    /// Holds one struct's `wire_struct!` field list against its derives,
    /// in both framings: the typed readers give the sample back from the
    /// tree's bytes and text, and dropping any one field must succeed or
    /// fail in them exactly as it does in the derive (`default` vs
    /// `required`).
    fn check_against_derive<T>(name: &str, sample: &T)
    where
        T: WireDecode + JsonDecode + Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let Value::Object(derived) = sample.serialize() else {
            panic!("{name} does not serialize as an object");
        };
        let bytes = encode_body(sample).expect("tree encode");
        assert_eq!(&typed_decode::<T>(&bytes).expect("typed decode"), sample);
        let json = serde_json::to_string(sample).expect("tree");
        assert_eq!(&typed_read_json::<T>(&json).expect("typed read"), sample);

        for (i, (field, _)) in derived.iter().enumerate() {
            let mut without = derived.clone();
            without.remove(i);
            let tree = T::deserialize(&Value::Object(without.clone()));
            let bytes = encode_body(&Value::Object(without.clone())).expect("encode");
            let json = serde_json::to_string(&Value::Object(without)).expect("render");
            for typed in [typed_decode::<T>(&bytes), typed_read_json::<T>(&json)] {
                match (typed, &tree) {
                    (Ok(typed), Ok(tree)) => assert_eq!(&typed, tree, "{name}.{field} dropped"),
                    (Err(_), Err(_)) => {}
                    (typed, tree) => panic!(
                        "{name}.{field}: `default`/`required` in wire_struct! disagrees with \
                         the derive — without it typed decode gives {typed:?}, the derive \
                         {tree:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn typed_field_lists_match_the_derives() {
        let plan = sample_plan();
        check_against_derive("EpisodeRecord", &plan.best.curve[0]);
        check_against_derive("SearchReport", &plan.best);
        check_against_derive("MemberSummary", &plan.members[0]);
        check_against_derive("WarmStartInfo", plan.warm_start.as_ref().unwrap());
        let trace = plan.trace.as_ref().unwrap();
        check_against_derive("StageTiming", &trace.stages[0]);
        check_against_derive("TraceInfo", trace);
        check_against_derive("PlanResponse", &plan);
        let outcome = PortfolioOutcome {
            best: plan.best.clone(),
            winner_index: 3,
            winner: plan.winner.clone(),
            members: plan.members.clone(),
        };
        check_against_derive("PortfolioOutcome", &outcome);
    }

    /// The spill record of one small fixed outcome, pinned: its header
    /// (magic, format version, body length, checksum) and the FNV-1a-64 of
    /// the whole record. A change to the record layout, the body bytes or
    /// the checksum must change `SPILL_VERSION`, and this test with it.
    #[test]
    fn the_spill_record_of_a_fixed_outcome_is_pinned() {
        let plan = sample_plan();
        let outcome = PortfolioOutcome {
            best: plan.best,
            winner_index: 3,
            winner: plan.winner,
            members: plan.members,
        };
        let record = spill_record(&outcome).expect("encodable");
        let header: String = record[..SPILL_HEADER_BYTES]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let mut whole = qsdnn::engine::Fnv64::new();
        whole.write(&record);
        // "QSPL", version 2, a 547-byte body, its checksum.
        let pinned = concat!(
            "5153504c",
            "02000000",
            "2302000000000000",
            "a0d2c35fddd30c82"
        );
        assert_eq!(header, pinned);
        assert_eq!(
            (record.len(), whole.finish()),
            (571, 11_812_330_317_259_199_021)
        );
        assert_eq!(spill_body(&record), Some(&record[SPILL_HEADER_BYTES..]));
        assert_eq!(
            decode_outcome(spill_body(&record).unwrap()).expect("decodes"),
            outcome
        );
    }

    /// What a frame decodes into is never reserved larger than the frame,
    /// whatever count it claims.
    #[test]
    fn a_claimed_count_reserves_no_more_than_the_payload_could_hold() {
        assert_eq!(<EpisodeRecord as WireDecode>::MIN_WIRE, 92);
        fn check<T: WireDecode>(name: &str) {
            for remaining in [0, 1, 91, 92, 93_207, 8 * 1024 * 1024] {
                let slots = reservation::<T>(u32::MAX as usize, remaining);
                assert!(slots * T::MIN_WIRE <= remaining, "{name}: more than fit");
                assert!(
                    slots * std::mem::size_of::<T>() <= remaining,
                    "{name}: {remaining} bytes reserve {slots} slots"
                );
            }
            assert_eq!(reservation::<T>(3, usize::MAX), 3, "{name}");
        }
        check::<EpisodeRecord>("EpisodeRecord");
        check::<MemberSummary>("MemberSummary");
        check::<StageTiming>("StageTiming");
        check::<PortfolioOutcome>("PortfolioOutcome");
        check::<usize>("usize");
    }

    /// Number texts the parser classifies three ways, read as counts and
    /// floats by the typed reader exactly as the tree reads them.
    #[test]
    fn json_numbers_coerce_as_the_shim_does() {
        for text in [
            "7",
            "7.0",
            "7e0",
            "7E+0",
            "70e-1",
            "-0",
            "-0.0",
            "0",
            "-7",
            "7.5",
            "1e300",
            "-1e400",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775808",
            "01",
            "1.",
            "-",
            "1e",
            "1.2.3",
            "1-2",
            "--1",
            "true",
            "null",
            "\"7\"",
            "[7]",
        ] {
            let tree = serde_json::parse(text);
            let via = |f: fn(&Value) -> Option<String>| tree.as_ref().ok().and_then(f);
            assert_eq!(
                typed_read_json::<usize>(text).ok().map(|u| u.to_string()),
                via(|v| usize::deserialize(v).ok().map(|u| u.to_string())),
                "usize from {text}"
            );
            assert_eq!(
                typed_read_json::<f64>(text)
                    .ok()
                    .map(|f| f.to_bits().to_string()),
                via(|v| f64::deserialize(v).ok().map(|f| f.to_bits().to_string())),
                "f64 from {text}"
            );
            assert_eq!(
                typed_read_json::<Option<f64>>(text)
                    .ok()
                    .map(|o| format!("{:?}", o.map(f64::to_bits))),
                via(|v| Option::<f64>::deserialize(v)
                    .ok()
                    .map(|o| format!("{:?}", o.map(f64::to_bits)))),
                "Option<f64> from {text}"
            );
        }
    }

    /// Every control character, quote, backslash, non-ASCII and
    /// non-BMP character reads back as the shim wrote it, and every
    /// escape the parser reads (surrogate pairs included) reads as the
    /// parser reads it.
    #[test]
    fn json_strings_escape_and_unescape_as_the_shim_does() {
        let mut every: String = (0u8..0x80).map(char::from).collect();
        every.push_str("é ネ 🔥 \u{7f} \u{85} \u{2028}");
        let json = serde_json::to_string(&every).expect("tree");
        assert_eq!(typed_read_json::<String>(&json).expect("read"), every);
        for text in [
            r#""\u0065pisode""#,
            r#""\ud83d\udd25""#,
            r#""\/\b\f\n\r\t\"\\""#,
            r#""\u+041""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\udd25""#,
            r#""\ud83dx""#,
            r#""\u12""#,
            r#""\x""#,
            "\"tab\there\"",
            "\"unterminated",
        ] {
            let tree = serde_json::parse(text)
                .ok()
                .and_then(|v| String::deserialize(&v).ok());
            assert_eq!(typed_read_json::<String>(text).ok(), tree, "{text}");
        }
    }

    #[test]
    fn numbers_coerce_as_the_shim_does() {
        let body = |v: Value| encode_body(&v).expect("encode");
        for v in [
            Value::Int(7),
            Value::UInt(7),
            Value::Float(7.0),
            Value::Int(-7),
            Value::Float(7.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(1e300),
            Value::UInt(u64::MAX),
            Value::Float(u64::MAX as f64),
            Value::Bool(true),
            Value::Null,
        ] {
            let bytes = body(v.clone());
            assert_eq!(
                typed_decode::<usize>(&bytes).ok(),
                usize::deserialize(&v).ok(),
                "usize from {v:?}"
            );
            assert_eq!(
                typed_decode::<f64>(&bytes).ok().map(f64::to_bits),
                f64::deserialize(&v).ok().map(f64::to_bits),
                "f64 from {v:?}"
            );
            assert_eq!(
                typed_decode::<Option<f64>>(&bytes)
                    .ok()
                    .map(|o| o.map(f64::to_bits)),
                Option::<f64>::deserialize(&v)
                    .ok()
                    .map(|o| o.map(f64::to_bits)),
                "Option<f64> from {v:?}"
            );
        }
    }
}
