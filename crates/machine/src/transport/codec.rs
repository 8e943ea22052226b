//! Hand-rolled wire encoding for envelopes and batches.
//!
//! The build environment is offline (no serde/bincode), so the socket
//! backend frames messages with an explicit little-endian codec: every
//! multi-byte integer is LE, sequences are a `u32` count followed by the
//! elements, and options are a one-byte presence flag. The format is the
//! moral equivalent of `bincode` over a `#[derive(Serialize)]` envelope —
//! in particular the checker's vector clock travels as a plain `Vec<u64>`
//! — and a round-trip unit test pins it.
//!
//! [`MsgSize::size_bytes`](crate::MsgSize::size_bytes) remains the *simulated* payload size; the
//! encoded byte count is a property of the codec, not of the cost model.
//! The two are deliberately independent (see `DESIGN.md` §14).

use std::sync::Arc;

use crate::envelope::{Envelope, Wire};

/// A decode failure: the frame was truncated, carried an unknown tag, or
/// an embedded string was not UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A length or string field was malformed.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            CodecError::Invalid(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over a received frame body.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`-counted word vector.
    pub fn words(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.u32()? as usize;
        if self.remaining() < n.checked_mul(8).ok_or(CodecError::Invalid("word count"))? {
            return Err(CodecError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Read a `u32`-counted UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

/// Append a `u32`-counted word vector.
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    out.extend_from_slice(&(words.len() as u32).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Append a `u32`-counted UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A message type that can cross a real wire.
///
/// Every message type used with a [`crate::transport::Transport`] backend
/// must be encodable; the in-process backend never calls these, but the
/// bound lives on [`crate::MachineBuilder::run`] so the transport can be
/// chosen at runtime.
pub trait WireCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError>;
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl WireCodec for Vec<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_words(out, self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        r.words()
    }
}

impl WireCodec for Arc<[u64]> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_words(out, self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(r.words()?.into())
    }
}

/// Encode an optional vector clock: a presence byte, then the clock as a
/// plain word vector (the `Arc` is a host-side sharing detail).
fn put_vc(out: &mut Vec<u8>, vc: &Option<Arc<[u64]>>) {
    match vc {
        None => out.push(0),
        Some(vc) => {
            out.push(1);
            put_words(out, vc);
        }
    }
}

fn get_vc(r: &mut WireReader<'_>) -> Result<Option<Arc<[u64]>>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.words()?.into())),
        t => Err(CodecError::BadTag(t)),
    }
}

impl<M: WireCodec> WireCodec for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.src as u32).to_le_bytes());
        out.extend_from_slice(&self.send_time.to_le_bytes());
        out.extend_from_slice(&(self.bytes as u32).to_le_bytes());
        put_vc(out, &self.vc);
        out.extend_from_slice(&self.sw.to_le_bytes());
        self.msg.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(Envelope {
            src: r.u32()? as usize,
            send_time: r.u64()?,
            bytes: r.u32()? as usize,
            vc: get_vc(r)?,
            sw: r.u64()?,
            msg: M::decode(r)?,
        })
    }
}

/// Wire-envelope tags.
const WIRE_SINGLE: u8 = 0;
const WIRE_BATCH: u8 = 1;

impl<M: WireCodec> WireCodec for Wire<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Wire::Single(env) => {
                out.push(WIRE_SINGLE);
                env.encode(out);
            }
            Wire::Batch { src, send_time, wire_bytes, parts, vc, sw } => {
                out.push(WIRE_BATCH);
                out.extend_from_slice(&(*src as u32).to_le_bytes());
                out.extend_from_slice(&send_time.to_le_bytes());
                out.extend_from_slice(&(*wire_bytes as u32).to_le_bytes());
                put_vc(out, vc);
                out.extend_from_slice(&sw.to_le_bytes());
                out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
                for (msg, payload) in parts {
                    out.extend_from_slice(&(*payload as u32).to_le_bytes());
                    msg.encode(out);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            WIRE_SINGLE => Ok(Wire::Single(Envelope::decode(r)?)),
            WIRE_BATCH => {
                let src = r.u32()? as usize;
                let send_time = r.u64()?;
                let wire_bytes = r.u32()? as usize;
                let vc = get_vc(r)?;
                let sw = r.u64()?;
                let n = r.u32()? as usize;
                let mut parts = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let payload = r.u32()? as usize;
                    parts.push((M::decode(r)?, payload));
                }
                Ok(Wire::Batch { src, send_time, wire_bytes, parts, vc, sw })
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: WireCodec>(w: &Wire<M>) -> Wire<M> {
        let mut buf = Vec::new();
        w.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let back = Wire::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume the whole frame");
        back
    }

    #[test]
    fn envelope_round_trips_with_and_without_vc() {
        for vc in [None, Some(Arc::from(vec![3u64, 0, 7]))] {
            let env = Envelope { src: 5, send_time: 12345, bytes: 28, vc, sw: 4, msg: 99u64 };
            let mut buf = Vec::new();
            env.encode(&mut buf);
            let back = Envelope::<u64>::decode(&mut WireReader::new(&buf)).unwrap();
            assert_eq!(back.src, env.src);
            assert_eq!(back.send_time, env.send_time);
            assert_eq!(back.bytes, env.bytes);
            assert_eq!(back.msg, env.msg);
            assert_eq!(back.vc.as_deref(), env.vc.as_deref(), "vc travels as plain words");
            assert_eq!(back.sw, 4, "switch epoch travels as one word");
        }
    }

    #[test]
    fn single_wire_round_trips() {
        let w = Wire::Single(Envelope {
            src: 2,
            send_time: 777,
            bytes: 16,
            vc: Some(Arc::from(vec![1u64, 2])),
            sw: 9,
            msg: 41u64,
        });
        match round_trip(&w) {
            Wire::Single(env) => {
                assert_eq!((env.src, env.send_time, env.bytes, env.msg), (2, 777, 16, 41));
                assert_eq!(env.vc.as_deref(), Some(&[1u64, 2][..]));
                assert_eq!(env.sw, 9);
            }
            Wire::Batch { .. } => panic!("single decoded as batch"),
        }
    }

    #[test]
    fn batch_wire_round_trips_in_order() {
        let w: Wire<Vec<u64>> = Wire::Batch {
            src: 3,
            send_time: 42,
            wire_bytes: 100,
            parts: vec![(vec![1, 2], 16), (vec![], 0), (vec![9], 8)],
            vc: None,
            sw: 2,
        };
        match round_trip(&w) {
            Wire::Batch { src, send_time, wire_bytes, parts, vc, sw } => {
                assert_eq!((src, send_time, wire_bytes), (3, 42, 100));
                assert!(vc.is_none());
                assert_eq!(sw, 2);
                assert_eq!(parts, vec![(vec![1, 2], 16), (vec![], 0), (vec![9], 8)]);
            }
            Wire::Single(_) => panic!("batch decoded as single"),
        }
    }

    #[test]
    fn truncated_and_bad_tag_frames_are_rejected() {
        let env = Envelope { src: 0, send_time: 0, bytes: 8, vc: None, sw: 0, msg: 7u64 };
        let mut buf = Vec::new();
        Wire::Single(env).encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Wire::<u64>::decode(&mut WireReader::new(&buf[..cut]));
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
        let bad = [9u8, 0, 0, 0];
        assert!(matches!(
            Wire::<u64>::decode(&mut WireReader::new(&bad)),
            Err(CodecError::BadTag(9))
        ));
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "node-3 panicked: boom");
        let s = WireReader::new(&buf).string().unwrap();
        assert_eq!(s, "node-3 panicked: boom");
    }
}
