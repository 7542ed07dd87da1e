//! Byte-level primitives of the atlas snapshot format.
//!
//! Everything is little-endian. Floats travel as their IEEE-754 bit
//! patterns, so a round trip is bit-identical — including NaNs and signed
//! zeros — which the cache-key semantics require (canonical keys compare
//! `f64` fields by bits, not by value).

use std::fmt;

/// CRC-32 (IEEE 802.3, reflected polynomial), bitwise. Records are a few
/// kilobytes at most, so a table-free implementation is plenty fast and
/// keeps the format self-contained.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// 8-hex-char digest of encoded fingerprint words (CRC32 over the
/// little-endian bytes). Collision-tolerant use only: `GET /healthz` labels
/// the serving optimizer's configuration with it.
pub fn fingerprint_digest(words: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    format!("{:08x}", crc32(&bytes))
}

/// Why a record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value it promised.
    Truncated,
    /// A discriminant byte holds an unknown value.
    BadDiscriminant(&'static str, u64),
    /// A length prefix is implausible for its container.
    BadLength(&'static str, u64),
    /// A string is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadDiscriminant(what, v) => {
                write!(f, "unknown {what} discriminant {v}")
            }
            CodecError::BadLength(what, v) => write!(f, "implausible {what} length {v}"),
            CodecError::BadUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink for encoding one record.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u64(v);
        }
    }

    pub fn put_usize_slice(&mut self, vs: &[usize]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u64(v as u64);
        }
    }

    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u32(v);
        }
    }

    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_f64_bits(v);
        }
    }
}

/// Guard against hostile or garbled length prefixes: no vector in a design
/// point legitimately exceeds this.
const MAX_SEQ: u64 = 1 << 20;

/// Cursor over one record's payload.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        Ok(self.get_u64()? as usize)
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::BadDiscriminant("bool", u64::from(v))),
        }
    }

    pub fn get_f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = u64::from(self.get_u32()?);
        if len > MAX_SEQ {
            return Err(CodecError::BadLength(what, len));
        }
        Ok(len as usize)
    }

    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len("string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.get_len("u64 vec")?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    pub fn get_usize_vec(&mut self) -> Result<Vec<usize>, CodecError> {
        let len = self.get_len("usize vec")?;
        (0..len).map(|_| self.get_usize()).collect()
    }

    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let len = self.get_len("u32 vec")?;
        (0..len).map(|_| self.get_u32()).collect()
    }

    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let len = self.get_len("f64 vec")?;
        (0..len).map(|_| self.get_f64_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_digest_is_the_crc_of_the_little_endian_words() {
        assert_eq!(fingerprint_digest(&[]), "00000000");
        let mut bytes = 0x0102_0304_0506_0708u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            fingerprint_digest(&[0x0102_0304_0506_0708, u64::MAX]),
            format!("{:08x}", crc32(&bytes))
        );
    }

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64_bits(f64::NAN);
        w.put_f64_bits(-0.0);
        w.put_str("thistle");
        w.put_u64_slice(&[1, 2, 3]);
        w.put_f64_slice(&[1.5, f64::INFINITY]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64_bits().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "thistle");
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f64_vec().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_and_bad_discriminants_are_reported() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(
            r.get_bool(),
            Err(CodecError::BadDiscriminant("bool", 9))
        ));
        // A hostile length prefix must not trigger a huge allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_u64_vec(), Err(CodecError::BadLength(_, _))));
    }
}
