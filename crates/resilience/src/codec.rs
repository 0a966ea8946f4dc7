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
//!
//! **One layout declaration per persisted type.** Every type a frame
//! carries implements the crate-private `Wire` trait once, by listing its
//! fields in wire order (the `layout!` macro) or, for the few types whose
//! shape is not a plain field list, by hand. That one declaration yields
//! both directions:
//!
//! * `put` writes the fields into a `Sink`. The frame [`Writer`] is one
//!   sink; the state digest's slot hasher (`crate::delta`) is the other,
//!   so the digest hashes exactly the words the frame writes, each
//!   widened to `u64`, with byte strings folded 8 bytes at a time;
//! * `get` reads them back through the strict [`Reader`].
//!
//! A new state slot is therefore laid out once, and the encoder, the
//! decoder and the digest cannot disagree about its field order.

use adplatform::delivery::DeliveryStats;
use adplatform::pixel::PixelEvent;
use adplatform::profile::ProfileFacets;
use adplatform::reporting::Impression;
use adplatform::AdCreative;
use adsim_types::{AccountId, AdId, AudienceId, CampaignId, Money, PixelId, SimTime, UserId};
use websim::extension::ObservedAd;

use crate::checkpoint::{ConfigEcho, ReportCounters, UserCursor};
use crate::fault::{FaultReport, LostWork};
use crate::ledger::LedgerHead;

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

/// Where a [`Wire`] layout writes its words: the frame [`Writer`], or
/// the state digest's slot hasher.
pub(crate) trait Sink {
    /// A `u32` word.
    fn u32(&mut self, v: u32);
    /// A `u64` word.
    fn u64(&mut self, v: u64);
    /// An `i64` word, as its two's-complement `u64`.
    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    /// An option's presence flag.
    fn flag(&mut self, v: bool);
    /// A sequence's element count.
    fn count(&mut self, n: usize);
    /// A length-prefixed byte string.
    fn bytes(&mut self, b: &[u8]);
}

impl Sink for Writer {
    fn u32(&mut self, v: u32) {
        self.put_u32(v);
    }
    fn u64(&mut self, v: u64) {
        self.put_u64(v);
    }
    fn flag(&mut self, v: bool) {
        self.put_bool(v);
    }
    fn count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("checkpoint sequence over u32::MAX entries"));
    }
    fn bytes(&mut self, b: &[u8]) {
        self.put_bytes(b);
    }
}

/// A persisted type's one layout declaration: `put` writes its fields in
/// wire order into any [`Sink`], `get` reads them back in the same order
/// through the strict [`Reader`].
pub(crate) trait Wire: Sized {
    /// Writes `self` into `s`.
    fn put<S: Sink>(&self, s: &mut S);
    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Declares a struct's layout as its fields, listed once in wire order.
macro_rules! layout {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put<S: $crate::codec::Sink>(&self, s: &mut S) {
                $($crate::codec::Wire::put(&self.$field, s);)+
            }
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok($ty {
                    $($field: $crate::codec::Wire::get(r)?,)+
                })
            }
        }
    };
}
pub(crate) use layout;

/// Declares `u64` id newtypes: each is its raw id word.
macro_rules! id_layout {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put<S: Sink>(&self, s: &mut S) {
                s.u64(self.0);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($ty(r.get_u64()?))
            }
        }
    )+};
}

impl Wire for u32 {
    fn put<S: Sink>(&self, s: &mut S) {
        s.u32(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn put<S: Sink>(&self, s: &mut S) {
        s.u64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_u64()
    }
}

impl Wire for i64 {
    fn put<S: Sink>(&self, s: &mut S) {
        s.i64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_i64()
    }
}

/// A `usize` travels as a `u64` word.
impl Wire for usize {
    fn put<S: Sink>(&self, s: &mut S) {
        s.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.get_u64()? as usize)
    }
}

impl Wire for String {
    fn put<S: Sink>(&self, s: &mut S) {
        s.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.get_str()
    }
}

/// A fixed-size array carries no count.
impl Wire for [u64; 4] {
    fn put<S: Sink>(&self, s: &mut S) {
        for word in self {
            s.u64(*word);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        s.flag(self.is_some());
        if let Some(v) = self {
            v.put(s);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(if r.get_bool()? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// Writes a sequence: its count, then each element.
fn put_seq<T: Wire, S: Sink>(items: &[T], s: &mut S) {
    s.count(items.len());
    for item in items {
        item.put(s);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        put_seq(self, s);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.get_u32()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put<S: Sink>(&self, s: &mut S) {
        self.0.put(s);
        self.1.put(s);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put<S: Sink>(&self, s: &mut S) {
        self.0.put(s);
        self.1.put(s);
        self.2.put(s);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

// ---------------------------------------------------------------------------
// Layouts of the types a frame body carries (the body itself,
// `crate::delta::DeltaFrame`, declares its own)
// ---------------------------------------------------------------------------

id_layout!(AccountId, AdId, AudienceId, CampaignId, PixelId, UserId);

impl Wire for SimTime {
    fn put<S: Sink>(&self, s: &mut S) {
        s.u64(self.0);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SimTime(r.get_u64()?))
    }
}

/// Money travels in micros.
impl Wire for Money {
    fn put<S: Sink>(&self, s: &mut S) {
        s.i64(self.as_micros());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Money::micros(r.get_i64()?))
    }
}

layout!(ConfigEcho {
    shards,
    seed,
    tick_ms,
    users,
    days,
    views_bits,
});
layout!(ReportCounters {
    users,
    shards,
    ticks,
    page_views,
    pixel_fires,
    opportunities,
    impressions,
});
layout!(FaultReport {
    injected,
    recovered,
    unrecoverable,
    lost,
});
layout!(LostWork {
    tick,
    shard,
    page_views,
    pixel_fires,
    opportunities,
});
layout!(LedgerHead { chain, head, count });
layout!(UserCursor {
    user,
    rng,
    cursor,
    seq,
    fseq,
});
layout!(DeliveryStats {
    opportunities,
    won,
    lost_to_background,
    unfilled,
});
layout!(Impression {
    ad,
    campaign,
    account,
    user,
    at,
    price,
    spec_digest,
});
layout!(PixelEvent { pixel, user, at });
layout!(ObservedAd { ad, at, creative });

/// The image is one byte string, not a sequence of byte words.
impl Wire for AdCreative {
    fn put<S: Sink>(&self, s: &mut S) {
        self.headline.put(s);
        self.body.put(s);
        s.flag(self.image.is_some());
        if let Some(image) = &self.image {
            s.bytes(image);
        }
        self.landing_url.put(s);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AdCreative {
            headline: String::get(r)?,
            body: String::get(r)?,
            image: if r.get_bool()? {
                Some(r.get_bytes()?)
            } else {
                None
            },
            landing_url: Option::get(r)?,
        })
    }
}

/// Bitset words, home state and ZIP symbols, then the visited-ZIP
/// symbols, which must be strictly sorted. Whether the symbols fall inside
/// the table is checked once the whole frame is read
/// (`crate::delta::DeltaFrame`), since the bound is the frame's own table.
impl Wire for ProfileFacets {
    fn put<S: Sink>(&self, s: &mut S) {
        put_seq(self.attr_words(), s);
        s.u32(self.state());
        s.u32(self.zip());
        put_seq(self.visited_zip_symbols(), s);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let attr_words = Vec::get(r)?;
        let state = r.get_u32()?;
        let zip = r.get_u32()?;
        let visited: Vec<u32> = Vec::get(r)?;
        if !visited.windows(2).all(|pair| pair[0] < pair[1]) {
            return Err(DecodeError::Invalid("visited-ZIP symbols not sorted"));
        }
        Ok(ProfileFacets::from_parts(attr_words, state, zip, visited))
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
