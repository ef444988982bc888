//! The self-describing binary format.
//!
//! Principle (2) of the paper: "While a value persists, so should its
//! description (type)". Every persistent unit is therefore a *dynamic*
//! pair — a type followed by a value — and reading it back re-checks the
//! type before the value is released into a typed context, guarding
//! "against the possibility of writing out a data structure as one type
//! and reading it in as another, a common cause of error in manipulating
//! files in conventional programming languages".
//!
//! Encoding: a one-byte tag per constructor; `u64` as LEB128 varints;
//! `i64` zigzag-ed; strings length-prefixed UTF-8; floats as 8 little-
//! endian bytes; maps as a count followed by sorted key/value pairs.
//!
//! Since version 2 every unit is *framed*: the magic and version byte
//! are followed by a CRC-32 over everything after the checksum field, a
//! pair of trace-origin ids (the `(trace_id, span_id)` active when the
//! unit was encoded — `0` when none), and then the payload. The checksum
//! means a bit flip anywhere in a stored unit is detected on read
//! instead of being silently served; the origin ids let a later
//! process's `intern` stitch its trace back to the externing one.
//! Version-1 units (no checksum, no origin ids) remain readable.

use crate::error::PersistError;
use dbpl_types::{Fields, Label, Quant, Type};
use dbpl_values::{DynValue, Oid, Value};
use std::collections::BTreeSet;

/// Magic bytes introducing a self-describing unit.
pub const MAGIC: &[u8; 4] = b"DBPL";
/// Current format version: checksummed framing with trace-origin ids.
pub const VERSION: u8 = 2;
/// The legacy unframed format (no checksum): still readable.
pub const LEGACY_VERSION: u8 = 1;

// ---------- primitive writers ----------

/// Append a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed integer.
pub fn put_i64(out: &mut Vec<u8>, x: i64) {
    put_u64(out, ((x << 1) ^ (x >> 63)) as u64);
}

/// Append a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------- primitive readers ----------

/// A cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, PersistError> {
        let b = *self.buf.get(self.pos).ok_or(PersistError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a varint.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(PersistError::Malformed("varint overflow".into()));
            }
            x |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// Read a zigzag signed integer.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        self.str_slice().map(str::to_string)
    }

    /// Read a length-prefixed string in place.
    fn str_slice(&mut self) -> Result<&'a str, PersistError> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        std::str::from_utf8(self.bytes(n)?)
            .map_err(|_| PersistError::Malformed("invalid UTF-8".into()))
    }

    /// Read a length-prefixed label, interned from the payload's bytes.
    fn label(&mut self) -> Result<Label, PersistError> {
        self.str_slice().map(Label::new)
    }
}

// ---------- types ----------

mod ttag {
    pub const INT: u8 = 0;
    pub const FLOAT: u8 = 1;
    pub const BOOL: u8 = 2;
    pub const STR: u8 = 3;
    pub const UNIT: u8 = 4;
    pub const TOP: u8 = 5;
    pub const BOTTOM: u8 = 6;
    pub const DYNAMIC: u8 = 7;
    pub const LIST: u8 = 8;
    pub const SET: u8 = 9;
    pub const RECORD: u8 = 10;
    pub const VARIANT: u8 = 11;
    pub const FUN: u8 = 12;
    pub const NAMED: u8 = 13;
    pub const VAR: u8 = 14;
    pub const FORALL: u8 = 15;
    pub const EXISTS: u8 = 16;
}

/// Encode a type.
pub fn put_type(out: &mut Vec<u8>, ty: &Type) {
    use ttag::*;
    match ty {
        Type::Int => out.push(INT),
        Type::Float => out.push(FLOAT),
        Type::Bool => out.push(BOOL),
        Type::Str => out.push(STR),
        Type::Unit => out.push(UNIT),
        Type::Top => out.push(TOP),
        Type::Bottom => out.push(BOTTOM),
        Type::Dynamic => out.push(DYNAMIC),
        Type::List(t) => {
            out.push(LIST);
            put_type(out, t);
        }
        Type::Set(t) => {
            out.push(SET);
            put_type(out, t);
        }
        Type::Record(fs) => {
            out.push(RECORD);
            put_fields(out, fs);
        }
        Type::Variant(fs) => {
            out.push(VARIANT);
            put_fields(out, fs);
        }
        Type::Fun(a, r) => {
            out.push(FUN);
            put_type(out, a);
            put_type(out, r);
        }
        Type::Named(n) => {
            out.push(NAMED);
            put_str(out, n);
        }
        Type::Var(v) => {
            out.push(VAR);
            put_str(out, v);
        }
        Type::Forall(q) => {
            out.push(FORALL);
            put_quant(out, q);
        }
        Type::Exists(q) => {
            out.push(EXISTS);
            put_quant(out, q);
        }
    }
}

fn put_fields(out: &mut Vec<u8>, fs: &Fields) {
    put_u64(out, fs.len() as u64);
    for (l, t) in fs {
        put_str(out, l);
        put_type(out, t);
    }
}

fn put_quant(out: &mut Vec<u8>, q: &Quant) {
    put_str(out, &q.var);
    match &q.bound {
        Some(b) => {
            out.push(1);
            put_type(out, b);
        }
        None => out.push(0),
    }
    put_type(out, &q.body);
}

impl<'a> Reader<'a> {
    /// Decode a type.
    pub fn ty(&mut self) -> Result<Type, PersistError> {
        use ttag::*;
        Ok(match self.byte()? {
            INT => Type::Int,
            FLOAT => Type::Float,
            BOOL => Type::Bool,
            STR => Type::Str,
            UNIT => Type::Unit,
            TOP => Type::Top,
            BOTTOM => Type::Bottom,
            DYNAMIC => Type::Dynamic,
            LIST => Type::list(self.ty()?),
            SET => Type::set(self.ty()?),
            RECORD => Type::Record(self.fields()?),
            VARIANT => Type::Variant(self.fields()?),
            FUN => Type::fun(self.ty()?, self.ty()?),
            NAMED => Type::Named(self.str()?),
            VAR => Type::Var(self.str()?),
            FORALL => {
                let (var, bound, body) = self.quant()?;
                Type::forall(var, bound, body)
            }
            EXISTS => {
                let (var, bound, body) = self.quant()?;
                Type::exists(var, bound, body)
            }
            t => return Err(PersistError::Malformed(format!("unknown type tag {t}"))),
        })
    }

    fn fields(&mut self) -> Result<Fields, PersistError> {
        let n = self.u64()? as usize;
        let mut fs = Fields::new();
        for _ in 0..n {
            let l = self.label()?;
            let t = self.ty()?;
            fs.insert(l, t);
        }
        Ok(fs)
    }

    fn quant(&mut self) -> Result<(String, Option<Type>, Type), PersistError> {
        let var = self.str()?;
        let bound = match self.byte()? {
            0 => None,
            1 => Some(self.ty()?),
            b => return Err(PersistError::Malformed(format!("bad bound flag {b}"))),
        };
        let body = self.ty()?;
        Ok((var, bound, body))
    }
}

// ---------- values ----------

mod vtag {
    pub const UNIT: u8 = 0;
    pub const BOOL: u8 = 1;
    pub const INT: u8 = 2;
    pub const FLOAT: u8 = 3;
    pub const STR: u8 = 4;
    pub const LIST: u8 = 5;
    pub const SET: u8 = 6;
    pub const RECORD: u8 = 7;
    pub const TAGGED: u8 = 8;
    pub const DYN: u8 = 9;
    pub const REF: u8 = 10;
}

/// Encode a value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    use vtag::*;
    match v {
        Value::Unit => out.push(UNIT),
        Value::Bool(b) => {
            out.push(BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(INT);
            put_i64(out, *i);
        }
        Value::Float(x) => {
            out.push(FLOAT);
            out.extend_from_slice(&x.0.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(STR);
            put_str(out, s);
        }
        Value::List(xs) => {
            out.push(LIST);
            put_u64(out, xs.len() as u64);
            for x in xs {
                put_value(out, x);
            }
        }
        Value::Set(xs) => {
            out.push(SET);
            put_u64(out, xs.len() as u64);
            for x in xs {
                put_value(out, x);
            }
        }
        Value::Record(fs) => {
            out.push(RECORD);
            put_u64(out, fs.len() as u64);
            for (l, x) in fs {
                put_str(out, l);
                put_value(out, x);
            }
        }
        Value::Tagged(l, x) => {
            out.push(TAGGED);
            put_str(out, l);
            put_value(out, x);
        }
        Value::Dyn(d) => {
            out.push(DYN);
            put_type(out, &d.ty);
            put_value(out, &d.value);
        }
        Value::Ref(o) => {
            out.push(REF);
            put_u64(out, o.0);
        }
    }
}

impl<'a> Reader<'a> {
    /// Decode a value.
    pub fn value(&mut self) -> Result<Value, PersistError> {
        use vtag::*;
        Ok(match self.byte()? {
            UNIT => Value::Unit,
            BOOL => Value::Bool(self.byte()? != 0),
            INT => Value::Int(self.i64()?),
            FLOAT => {
                let b: [u8; 8] = self.bytes(8)?.try_into().expect("exactly 8");
                Value::float(f64::from_le_bytes(b))
            }
            STR => Value::Str(self.str_slice()?.into()),
            LIST => {
                let n = self.u64()? as usize;
                let mut xs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    xs.push(self.value()?);
                }
                Value::List(xs)
            }
            SET => {
                let n = self.u64()? as usize;
                let mut xs = BTreeSet::new();
                for _ in 0..n {
                    xs.insert(self.value()?);
                }
                Value::Set(xs)
            }
            RECORD => {
                // A field takes at least two bytes (a label length and a
                // value tag), so a count the payload cannot hold is
                // refused before anything is read or reserved. The fields
                // are collected once, labels sorted, the last value of a
                // repeated label kept.
                let n = self.u64()?;
                if n > self.remaining() as u64 / 2 {
                    return Err(PersistError::Malformed(format!(
                        "a record of {n} fields in {} bytes",
                        self.remaining()
                    )));
                }
                Value::Record(
                    (0..n)
                        .map(|_| Ok((self.label()?, self.value()?)))
                        .collect::<Result<_, PersistError>>()?,
                )
            }
            TAGGED => {
                let l = self.label()?;
                Value::Tagged(l, Box::new(self.value()?))
            }
            DYN => {
                let ty = self.ty()?;
                let v = self.value()?;
                Value::dynamic(ty, v)
            }
            REF => Value::Ref(Oid(self.u64()?)),
            t => return Err(PersistError::Malformed(format!("unknown value tag {t}"))),
        })
    }
}

// ---------- unit framing ----------

/// The parsed framing header of a stored unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitHeader {
    /// The format version the unit was written by.
    pub version: u8,
    /// Trace id active when the unit was encoded (`0`: none recorded).
    pub trace_id: u64,
    /// Span id active when the unit was encoded (`0`: none recorded).
    pub span_id: u64,
}

/// Frame a payload as a version-2 unit:
/// `MAGIC ∥ VERSION ∥ crc32 ∥ trace_id ∥ span_id ∥ payload`.
///
/// The CRC-32 covers everything after the checksum field itself — the
/// trace-origin varints *and* the payload — so any single-bit flip in
/// the stored bytes outside the five magic/version bytes fails the
/// checksum (and a flip inside them fails the magic or version check).
/// The origin ids are the calling thread's current trace context.
pub fn frame_unit(payload: &[u8]) -> Vec<u8> {
    let (trace_id, span_id) = dbpl_obs::trace::current()
        .map(|c| (c.trace_id, c.span_id))
        .unwrap_or((0, 0));
    let mut out = Vec::with_capacity(payload.len() + 29);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 4]); // checksum, patched below
    put_u64(&mut out, trace_id);
    put_u64(&mut out, span_id);
    out.extend_from_slice(payload);
    let crc = crate::crc::crc32(&out[9..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Strip and verify a unit's framing, returning the header and payload.
///
/// Version-2 units have their checksum verified here — a mismatch is
/// [`PersistError::ChecksumMismatch`], never a successful decode.
/// Version-1 (legacy, unframed) units are passed through with zeroed
/// origin ids; they carry no checksum to verify.
pub fn unframe_unit(buf: &[u8]) -> Result<(UnitHeader, &[u8]), PersistError> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    match r.byte()? {
        LEGACY_VERSION => Ok((
            UnitHeader {
                version: LEGACY_VERSION,
                trace_id: 0,
                span_id: 0,
            },
            &buf[5..],
        )),
        VERSION => {
            let stored = u32::from_le_bytes(r.bytes(4)?.try_into().expect("exactly 4"));
            if crate::crc::crc32(&buf[r.position()..]) != stored {
                return Err(PersistError::ChecksumMismatch { offset: 0 });
            }
            let trace_id = r.u64()?;
            let span_id = r.u64()?;
            Ok((
                UnitHeader {
                    version: VERSION,
                    trace_id,
                    span_id,
                },
                &buf[r.position()..],
            ))
        }
        v => Err(PersistError::UnsupportedVersion(v)),
    }
}

// ---------- self-describing units ----------

/// Encode a dynamic value as a framed, self-describing unit:
/// a [`frame_unit`] header over `type ∥ value`.
pub fn encode_dyn(d: &DynValue) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    put_type(&mut payload, &d.ty);
    put_value(&mut payload, &d.value);
    frame_unit(&payload)
}

/// Decode a self-describing unit (either framed version).
pub fn decode_dyn(buf: &[u8]) -> Result<DynValue, PersistError> {
    let (_, payload) = unframe_unit(buf)?;
    let mut r = Reader::new(payload);
    let ty = r.ty()?;
    let value = r.value()?;
    if r.remaining() != 0 {
        return Err(PersistError::Malformed("trailing bytes after unit".into()));
    }
    Ok(DynValue::new(ty, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: Value) {
        let mut out = Vec::new();
        put_value(&mut out, &v);
        let got = Reader::new(&out).value().unwrap();
        assert_eq!(got, v);
    }

    fn roundtrip_type(t: Type) {
        let mut out = Vec::new();
        put_type(&mut out, &t);
        let got = Reader::new(&out).ty().unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn varints_roundtrip_extremes() {
        for x in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, x);
            assert_eq!(Reader::new(&out).u64().unwrap(), x);
        }
        for x in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_i64(&mut out, x);
            assert_eq!(Reader::new(&out).i64().unwrap(), x);
        }
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(Value::Unit);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::float(3.25));
        roundtrip_value(Value::str("héllo"));
        roundtrip_value(Value::list([Value::Int(1), Value::str("x")]));
        roundtrip_value(Value::set([Value::Int(1), Value::Int(2)]));
        roundtrip_value(Value::record([
            ("Name", Value::str("J Doe")),
            ("Addr", Value::record([("City", Value::str("Austin"))])),
        ]));
        roundtrip_value(Value::tagged("Some", Value::Int(1)));
        roundtrip_value(Value::dynamic(Type::Int, Value::Int(3)));
        roundtrip_value(Value::Ref(Oid(777)));
    }

    #[test]
    fn a_record_decodes_sorted_with_the_last_value_of_a_repeated_label() {
        // Labels out of order and `b` twice; no encoder writes this, but
        // a unit file may hold it.
        let mut out = vec![vtag::RECORD];
        put_u64(&mut out, 4);
        for (l, v) in [("c", 1), ("b", 2), ("a", 3), ("b", 4)] {
            put_str(&mut out, l);
            put_value(&mut out, &Value::Int(v));
        }
        let got = Reader::new(&out).value().unwrap();
        let want = Value::record([
            ("a", Value::Int(3)),
            ("b", Value::Int(4)),
            ("c", Value::Int(1)),
        ]);
        assert_eq!(got, want);
        let labels: Vec<&str> = got
            .as_record()
            .unwrap()
            .keys()
            .map(|l| l.as_str())
            .collect();
        assert_eq!(labels, ["a", "b", "c"]);
    }

    #[test]
    fn a_record_claiming_more_fields_than_bytes_is_malformed() {
        let mut out = vec![vtag::RECORD];
        put_u64(&mut out, 1 << 40);
        put_str(&mut out, "a");
        put_value(&mut out, &Value::Int(1));
        // 2^40 fields of 56 bytes each could not be reserved; the decoder
        // refuses the count before reading a field.
        assert!(matches!(
            Reader::new(&out).value(),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn types_roundtrip() {
        roundtrip_type(Type::Int);
        roundtrip_type(Type::record([
            ("a", Type::Str),
            ("b", Type::list(Type::Int)),
        ]));
        roundtrip_type(Type::variant([("Nil", Type::Unit)]));
        roundtrip_type(Type::fun(Type::Int, Type::Bool));
        roundtrip_type(Type::named("Person"));
        roundtrip_type(Type::forall(
            "t",
            Some(Type::named("Person")),
            Type::fun(Type::var("t"), Type::var("t")),
        ));
        roundtrip_type(Type::exists("u", None, Type::var("u")));
        roundtrip_type(Type::Dynamic);
    }

    #[test]
    fn dyn_units_roundtrip_and_validate() {
        let d = DynValue::new(
            Type::record([("Name", Type::Str)]),
            Value::record([("Name", Value::str("d"))]),
        );
        let bytes = encode_dyn(&d);
        assert_eq!(decode_dyn(&bytes).unwrap(), d);
        // Corrupt the magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_dyn(&bad), Err(PersistError::BadMagic)));
        // Unsupported version.
        let mut v2 = bytes.clone();
        v2[4] = 99;
        assert!(matches!(
            decode_dyn(&v2),
            Err(PersistError::UnsupportedVersion(99))
        ));
        // Trailing garbage.
        let mut trail = bytes.clone();
        trail.push(0);
        assert!(decode_dyn(&trail).is_err());
        // Truncation anywhere is detected.
        for cut in 5..bytes.len() {
            assert!(
                decode_dyn(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    /// Build the version-1 (unframed) encoding of a dynamic value, as a
    /// pre-checksum store would have written it.
    fn encode_dyn_legacy(d: &DynValue) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(LEGACY_VERSION);
        put_type(&mut out, &d.ty);
        put_value(&mut out, &d.value);
        out
    }

    #[test]
    fn legacy_v1_units_still_decode() {
        let d = DynValue::new(Type::Str, Value::str("old data"));
        let old = encode_dyn_legacy(&d);
        assert_eq!(decode_dyn(&old).unwrap(), d);
        let (header, _) = unframe_unit(&old).unwrap();
        assert_eq!(header.version, LEGACY_VERSION);
        assert_eq!((header.trace_id, header.span_id), (0, 0));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let d = DynValue::new(
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
            Value::record([("Name", Value::str("J Doe")), ("Empno", Value::Int(7))]),
        );
        let bytes = encode_dyn(&d);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    decode_dyn(&flipped).is_err(),
                    "flip of bit {bit} in byte {i} was served"
                );
            }
        }
    }

    #[test]
    fn framing_records_the_active_trace_context() {
        let d = DynValue::new(Type::Int, Value::Int(1));
        // Outside any span: ids are zero.
        let (h, _) = unframe_unit(&encode_dyn(&d)).unwrap();
        assert_eq!((h.trace_id, h.span_id), (0, 0));
        // Inside a traced span: the unit remembers its origin.
        let (bytes, spans) = dbpl_obs::trace::capture("extern_site", || encode_dyn(&d));
        let (h, _) = unframe_unit(&bytes).unwrap();
        assert_eq!(h.trace_id, spans[0].trace_id);
        assert_eq!(h.span_id, spans[0].span_id);
        assert_ne!(h.span_id, 0);
        assert_eq!(decode_dyn(&bytes).unwrap(), d);
    }

    #[test]
    fn a_record_unit_encodes_to_pinned_bytes() {
        // Labels and strings are written by name, length-prefixed, fields
        // in label order; a change of in-memory representation must not
        // move a byte of a stored unit.
        let d = DynValue::new(
            Type::record([
                ("Addr", Type::record([("City", Type::Str)])),
                ("Name", Type::Str),
                ("Status", Type::variant([("Active", Type::Int)])),
            ]),
            Value::record([
                ("Status", Value::tagged("Active", Value::Int(3))),
                ("Name", Value::str("J Doe")),
                ("Addr", Value::record([("City", Value::str("Austin"))])),
            ]),
        );
        let payload: &[&[u8]] = &[
            // type: a record of three fields
            &[ttag::RECORD, 3],
            &[4],
            b"Addr",
            &[ttag::RECORD, 1, 4],
            b"City",
            &[ttag::STR, 4],
            b"Name",
            &[ttag::STR, 6],
            b"Status",
            &[ttag::VARIANT, 1, 6],
            b"Active",
            &[ttag::INT],
            // value: the same three fields
            &[vtag::RECORD, 3, 4],
            b"Addr",
            &[vtag::RECORD, 1, 4],
            b"City",
            &[vtag::STR, 6],
            b"Austin",
            &[4],
            b"Name",
            &[vtag::STR, 5],
            b"J Doe",
            &[6],
            b"Status",
            &[vtag::TAGGED, 6],
            b"Active",
            &[vtag::INT, 6],
        ];
        let payload = payload.concat();
        let mut want = b"DBPL\x02".to_vec();
        want.extend(0x3ec9_abcd_u32.to_le_bytes());
        want.extend([0, 0]); // no trace origin
        want.extend(&payload);
        let mut got = Vec::new();
        put_type(&mut got, &d.ty);
        put_value(&mut got, &d.value);
        assert_eq!(got, payload);
        assert_eq!(encode_dyn(&d), want);
        assert_eq!(decode_dyn(&want).unwrap(), d);
    }

    #[test]
    fn nan_floats_roundtrip() {
        let v = Value::float(f64::NAN);
        let mut out = Vec::new();
        put_value(&mut out, &v);
        let got = Reader::new(&out).value().unwrap();
        assert_eq!(got, v, "total-order equality treats NaN = NaN");
    }
}
