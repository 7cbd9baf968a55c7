//! The one byte codec of the durability and wire layers: every byte
//! that reaches `wal.log`, `snapshot.bin`, `sessions.log` or a socket is
//! laid out by a function in this file and parsed back by one.
//!
//! - **Scalars** — little-endian integers, `bool` as one byte, `f64` as
//!   raw IEEE-754 bits, length-prefixed UTF-8, tagged [`Value`]s.
//! - **Counted sequences** — `u32 count, item*` ([`put_seq`] /
//!   [`Reader::seq`]); [`Reader::counted`] is the only place a decoded
//!   count turns into an allocation.
//! - **Rows and schemas** — [`put_rows`] / [`read_rows`], the same
//!   row-major bytes written from and read into stored columns
//!   ([`put_columns`] / [`read_columns`]), and [`put_schema`] /
//!   [`read_schema`], shared by the WAL, the snapshot and the wire.
//! - **Records** — `u32 len | u32 crc32(payload) | payload`
//!   ([`put_record`], [`record_header`]) and [`walk_records`], the walk
//!   over a log image that tells a torn tail from corruption.
//!
//! Everything is hand-rolled (the CRC-32 is the table-driven IEEE 802.3
//! one zlib/PNG use) so the layer stays dependency-free.

use crate::error::{Error, Result};
use crate::expr;
use crate::schema::{Column, Schema};
use crate::table::Row;
use crate::value::{DataType, Value};

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte (`0` / `1`).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

/// Append an `f64` as its raw IEEE-754 bits, so the round trip is
/// bit-exact (NaN payloads and signed zeros included).
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    put_u64(buf, x.to_bits());
}

/// Append a length-prefixed (`u32`) UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a counted sequence: `u32` count, then each item through `put`.
pub fn put_seq<T>(
    buf: &mut Vec<u8>,
    items: impl ExactSizeIterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) {
    put_u32(buf, items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

/// A cursor over an immutable byte slice. Every read is bounds-checked
/// and returns [`Error::Corruption`] on overrun — decoding never panics
/// on truncated or garbage input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string used in corruption errors ("wal record", …).
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice; `what` names the container for error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, detail: impl std::fmt::Display) -> Error {
        Error::corruption(format!("{}: {detail} at byte {}", self.what, self.pos))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some(s) = self.buf[self.pos..].get(..n) else {
            let had = self.remaining();
            return Err(self.corrupt(format_args!("truncated (needed {n} bytes, had {had})")));
        };
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N bytes"))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a `bool` written by [`put_bool`] (any non-zero byte is true).
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// Read an `f64` written by [`put_f64`].
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| self.corrupt("invalid utf-8 string ending"))
    }

    /// Read `n` items through `item` — the one place a count taken from
    /// input becomes an allocation. Every item of every layout occupies
    /// at least one byte, so a count above the bytes that remain is
    /// corrupt, and the reservation is capped at those bytes: no input
    /// makes a decoder reserve more than the input itself could hold.
    pub fn counted<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let left = self.remaining();
        if n > left {
            return Err(self.corrupt(format_args!("count {n} exceeds the {left} bytes left")));
        }
        let mut out = Vec::with_capacity(n.min(left / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Read a counted sequence written by [`put_seq`].
    pub fn seq<T>(&mut self, item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        self.counted(n, item)
    }

    /// Finish decoding: anything left unread is corruption.
    pub fn end(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format_args!("{n} trailing bytes"))),
        }
    }
}

/// Value tags for the binary codec. Stable on-disk numbers — do not
/// reorder.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;

/// Append one [`Value`]: a 1-byte tag then the fixed/length-prefixed
/// payload. Doubles are stored as raw IEEE-754 bits so the round-trip
/// is bit-exact (NaN payloads and signed zeros included).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(TAG_DOUBLE);
            put_f64(buf, *d);
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
    }
}

/// Decode one [`Value`] written by [`put_value`].
pub fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(r.u64()? as i64)),
        TAG_DOUBLE => Ok(Value::Double(r.f64()?)),
        TAG_STR => Ok(Value::Str(r.str()?.into())),
        tag => Err(Error::corruption(format!("unknown value tag {tag:#04x}"))),
    }
}

/// Append an optional [`Value`]: a presence `bool`, then the value.
pub fn put_opt_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    put_bool(buf, v.is_some());
    if let Some(v) = v {
        put_value(buf, v);
    }
}

/// Decode an optional [`Value`] written by [`put_opt_value`].
pub fn read_opt_value(r: &mut Reader<'_>) -> Result<Option<Value>> {
    r.bool()?.then(|| read_value(r)).transpose()
}

/// Append the values of `rows` back to back. The layout carries no
/// count of its own: the container writes the row count (and, where the
/// reader has no schema, the arity) in front.
pub fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    for v in rows.iter().flat_map(|row| row.iter()) {
        put_value(buf, v);
    }
}

/// Decode `nrows` rows of `arity` values each, written by [`put_rows`].
/// Every value is at least its tag byte, so `nrows × arity` is checked
/// against the bytes that remain before any row is reserved.
pub fn read_rows(r: &mut Reader<'_>, nrows: u64, arity: usize) -> Result<Vec<Row>> {
    if u128::from(nrows) * arity as u128 > r.remaining() as u128 {
        return Err(r.corrupt(format_args!(
            "{nrows} rows of {arity} values overrun the input"
        )));
    }
    r.counted(nrows as usize, |r| {
        Ok(r.counted(arity, read_value)?.into_boxed_slice())
    })
}

/// Append the first `nrows` rows of a column set, value by value in row
/// order: the bytes [`put_rows`] writes for the same rows.
pub fn put_columns(buf: &mut Vec<u8>, cols: &[expr::Column], nrows: usize) {
    for pos in 0..nrows {
        for col in cols {
            put_value(buf, &col.value(pos));
        }
    }
}

/// Decode `nrows` rows written by [`put_rows`] or [`put_columns`] into
/// one storage column per declared column; a value its column cannot
/// store is corruption. Bounded against the input as [`read_rows`] is.
pub fn read_columns(
    r: &mut Reader<'_>,
    nrows: u64,
    declared: &[Column],
) -> Result<Vec<expr::Column>> {
    if u128::from(nrows) * declared.len().max(1) as u128 > r.remaining() as u128 {
        let arity = declared.len();
        return Err(r.corrupt(format_args!(
            "{nrows} rows of {arity} values overrun the input"
        )));
    }
    let mut cols: Vec<_> = declared.iter().map(|c| expr::Column::empty(c.ty)).collect();
    for _ in 0..nrows {
        for col in &mut cols {
            let v = read_value(r)?;
            col.push(&v).map_err(|e| r.corrupt(e))?;
        }
    }
    Ok(cols)
}

/// Column types by tag. Stable on-disk and on-wire numbers — append only.
const DTYPES: [DataType; 3] = [DataType::BigInt, DataType::Double, DataType::Varchar];

/// Append a table schema: the columns (`str name, u8 type`) and the
/// primary-key column positions, each as a counted sequence.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_seq(buf, schema.columns().iter(), |buf, col| {
        put_str(buf, &col.name);
        let tag = DTYPES.iter().position(|ty| *ty == col.ty);
        buf.push(tag.expect("every type has a tag") as u8);
    });
    put_seq(buf, schema.primary_key().iter(), |buf, &idx| {
        put_u32(buf, idx as u32)
    });
}

/// Decode a schema written by [`put_schema`]; an unknown type tag, a
/// key position past the columns or a schema [`Schema::new`] rejects
/// (duplicate names) is corruption.
pub fn read_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let columns = r.seq(|r| {
        let name = r.str()?;
        let ty = DTYPES.get(r.u8()? as usize);
        Ok(Column::new(
            name,
            *ty.ok_or_else(|| r.corrupt("unknown column type tag"))?,
        ))
    })?;
    let key = r.seq(|r| {
        let name = columns.get(r.u32()? as usize).map(|c| c.name.clone());
        name.ok_or_else(|| r.corrupt("primary-key column index out of range"))
    })?;
    let key: Vec<&str> = key.iter().map(String::as_str).collect();
    Schema::new(columns, &key).map_err(|e| r.corrupt(format_args!("bad schema ({e})")))
}

/// Byte length of a record header (`u32 len | u32 crc32`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Append one record: `u32 len | u32 crc32(payload) | payload`. The
/// frame of every WAL record, session-journal record and wire message.
pub fn put_record(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(RECORD_HEADER_LEN + payload.len());
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(payload));
    buf.extend_from_slice(payload);
}

/// Split a record header into the payload length and the stored CRC.
pub fn record_header(header: &[u8; RECORD_HEADER_LEN]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Walk a log image — `magic`, then records back to back — handing each
/// complete record's payload (and the offset just past it) to `each`;
/// returns the byte length of the valid prefix. The one recovery walk
/// of both append-only logs (docs/ROBUSTNESS.md "On-disk formats"):
///
/// - an image shorter than the magic is a crash during file creation,
///   before anything was acknowledged: an empty log, valid length `0`;
/// - a **torn tail** — the image ends inside a header or a payload; only
///   unacknowledged bytes can be torn — just ends the walk, and the
///   caller truncates the file to the returned length;
/// - **corruption** — a wrong magic, or a complete record whose checksum
///   does not match — is [`Error::Corruption`] naming the offset.
///
/// One ambiguity is inherent to length-prefixed logs: a flipped bit in
/// the *final* record's length field is indistinguishable from a torn
/// append and is truncated rather than reported.
pub fn walk_records<'a>(
    bytes: &'a [u8],
    magic: &[u8],
    what: &str,
    mut each: impl FnMut(&'a [u8], usize) -> Result<()>,
) -> Result<usize> {
    if bytes.len() < magic.len() {
        return Ok(0);
    }
    if !bytes.starts_with(magic) {
        return Err(Error::corruption(format!("{what}: bad magic")));
    }
    let mut pos = magic.len();
    while let Some((header, rest)) = bytes[pos..].split_first_chunk() {
        let (len, stored) = record_header(header);
        let Some(payload) = rest.get(..len) else {
            break;
        };
        let computed = crc32(payload);
        if computed != stored {
            return Err(Error::corruption(format!(
                "{what}: checksum mismatch at byte {pos} (stored {stored:#010x}, \
                 computed {computed:#010x})"
            )));
        }
        pos += RECORD_HEADER_LEN + len;
        each(payload, pos)?;
    }
    Ok(pos)
}

/// CRC-32 (IEEE, reflected, init/xorout `0xFFFF_FFFF`) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table built once; 256 entries of the reflected polynomial.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_byte_flip() {
        let base = b"hello durable world".to_vec();
        let c0 = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), c0, "flip byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn value_codec_round_trips() {
        let vals = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(1.0 / 3.0),
            Value::Double(f64::MIN_POSITIVE),
            Value::Double(f64::NEG_INFINITY),
            Value::Str("".into()),
            Value::Str("it's got 'quotes' and unicode: π≈3.14159".into()),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf, "test");
        for v in &vals {
            let got = read_value(&mut r).unwrap();
            match (v, &got) {
                // NaN-free list, so PartialEq is fine; -0.0 needs bits.
                (Value::Double(a), Value::Double(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &got),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn nan_payload_survives_bit_exact() {
        let weird_nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Double(weird_nan));
        let mut r = Reader::new(&buf, "test");
        match read_value(&mut r).unwrap() {
            Value::Double(d) => assert_eq!(d.to_bits(), weird_nan.to_bits()),
            other => panic!("expected double, got {other:?}"),
        }
    }

    #[test]
    fn truncated_input_is_corruption_not_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Str("hello".into()));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut], "test");
            assert!(
                matches!(read_value(&mut r), Err(Error::Corruption { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let mut r = Reader::new(&[0xFE], "test");
        assert!(matches!(read_value(&mut r), Err(Error::Corruption { .. })));
    }

    #[test]
    fn a_count_above_the_bytes_left_is_corruption_before_any_allocation() {
        // u32::MAX items claimed, three bytes behind the count.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[TAG_NULL; 3]);
        let mut r = Reader::new(&buf, "test");
        assert!(matches!(r.seq(read_value), Err(Error::Corruption { .. })));
        // Rows: the product is checked, not just each factor.
        let mut r = Reader::new(&[TAG_NULL; 8], "test");
        assert!(matches!(
            read_rows(&mut r, 3, 3),
            Err(Error::Corruption { .. })
        ));
        assert_eq!(read_rows(&mut r, 4, 2).unwrap().len(), 4);
        r.end().unwrap();
    }

    #[test]
    fn sequences_and_schemas_round_trip() {
        let schema = Schema::new(
            vec![
                Column::bigint("rid"),
                Column::double("v"),
                Column::varchar("s"),
            ],
            &["v", "rid"],
        )
        .unwrap();
        let mut buf = Vec::new();
        put_seq(&mut buf, ["a", "", "π"].into_iter(), put_str);
        put_schema(&mut buf, &schema);
        put_schema(&mut buf, &Schema::keyless(vec![]).unwrap());
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.seq(|r| r.str()).unwrap(), ["a", "", "π"]);
        assert_eq!(read_schema(&mut r).unwrap(), schema);
        assert_eq!(read_schema(&mut r).unwrap().arity(), 0);
        r.end().unwrap();
        // A key position past the columns, an unknown type tag.
        let mut bad = Vec::new();
        put_seq(&mut bad, [0u8].into_iter(), |b, tag| {
            put_str(b, "c");
            b.push(tag);
        });
        put_seq(&mut bad, [1u32].into_iter(), put_u32);
        assert!(read_schema(&mut Reader::new(&bad, "test")).is_err());
        bad[9] = 7;
        assert!(read_schema(&mut Reader::new(&bad, "test")).is_err());
    }

    #[test]
    fn the_walk_tells_a_torn_tail_from_corruption() {
        let magic = b"MAGIC\n";
        let mut image = magic.to_vec();
        put_record(&mut image, b"first");
        let one = image.len();
        put_record(&mut image, b"");
        put_record(&mut image, b"third record");
        let walk = |bytes: &[u8]| {
            let mut seen = Vec::new();
            let valid = walk_records(bytes, magic, "test", |payload, end| {
                seen.push((payload.to_vec(), end));
                Ok(())
            });
            valid.map(|valid| (seen, valid))
        };
        let (seen, valid) = walk(&image).unwrap();
        assert_eq!(valid, image.len());
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (b"first".to_vec(), one));
        // Every cut is a torn tail: a prefix of the records, no error.
        for cut in 0..image.len() {
            let (seen, valid) = walk(&image[..cut]).unwrap();
            assert!(valid <= cut && seen.len() <= 2, "cut {cut}");
            let empty = if cut < magic.len() { 0 } else { magic.len() };
            assert_eq!(valid, seen.last().map_or(empty, |s| s.1), "cut {cut}");
        }
        // A flipped payload byte of a complete record is corruption, and
        // so is a wrong magic.
        let mut bad = image.clone();
        bad[magic.len() + RECORD_HEADER_LEN] ^= 1;
        assert!(matches!(walk(&bad), Err(Error::Corruption { .. })));
        bad = image.clone();
        bad[0] ^= 1;
        assert!(matches!(walk(&bad), Err(Error::Corruption { .. })));
    }
}
