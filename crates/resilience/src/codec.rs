//! A minimal hand-rolled binary codec for checkpoints.
//!
//! Checkpoint framing is spelled out explicitly: little-endian
//! fixed-width integers and length-prefixed byte strings, nothing
//! self-describing. That serves the resume contract — the encoding has
//! exactly one valid form per value, so "byte-identical checkpoint" and
//! "equal state" are the same statement.
//!
//! Layout rules (see DESIGN.md "Failure model & recovery"):
//! * all integers little-endian, fixed width;
//! * `bool` is one byte, `0` or `1` (anything else is a decode error);
//! * strings/byte-strings are `u32` length + raw bytes;
//! * options are a `bool` presence flag + payload;
//! * sequences are a `u32` count + elements.

/// A checkpoint decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value did.
    Truncated,
    /// The leading magic bytes are not a checkpoint's.
    BadMagic,
    /// The checkpoint's format version is not one this decoder reads.
    UnsupportedVersion(u32),
    /// A value was structurally invalid (bad bool byte, non-UTF-8
    /// string, trailing garbage…).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "checkpoint truncated"),
            DecodeError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            DecodeError::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends canonically-encoded values to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding and yields the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("checkpoint field over 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Reads canonically-encoded values back out of a byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool byte")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| DecodeError::Invalid("utf-8 string"))
    }

    /// Asserts the buffer was fully consumed (no trailing garbage).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert_eq!(r.get_u64(), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_bool_and_trailing_bytes_are_rejected() {
        let mut r = Reader::new(&[9]);
        assert_eq!(r.get_bool(), Err(DecodeError::Invalid("bool byte")));
        let r = Reader::new(&[0]);
        assert_eq!(r.finish(), Err(DecodeError::Invalid("trailing bytes")));
    }
}
