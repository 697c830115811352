//! Message envelopes and payload encoding.
//!
//! Payloads are stored as [`bytes::Bytes`] so that a buffered send is a
//! cheap reference-counted handoff, mirroring an eager-protocol MPI
//! implementation. Typed helpers encode/decode `f64` slices — the only
//! payload type SWEEP3D exchanges (cell-face fluxes and reduction scalars).

use bytes::Bytes;

use crate::error::{MpiError, Result};

/// An immutable message payload.
#[derive(Debug, Clone)]
pub struct Payload(Bytes);

impl Payload {
    /// Wrap raw bytes.
    pub fn from_bytes(bytes: Bytes) -> Self {
        Payload(bytes)
    }

    /// Encode a slice of `f64` values (little-endian).
    pub fn from_f64s(values: &[f64]) -> Self {
        let mut buf = Vec::with_capacity(values.len() * 8);
        for v in values {
            buf.extend_from_slice(&v.to_le_bits_bytes());
        }
        Payload(Bytes::from(buf))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Decode as a vector of `f64`s; errors unless the length is a multiple
    /// of eight bytes.
    pub fn to_f64s(&self) -> Result<Vec<f64>> {
        if !self.0.len().is_multiple_of(8) {
            return Err(MpiError::PayloadType {
                detail: format!("byte length {} is not a multiple of 8", self.0.len()),
            });
        }
        let mut out = Vec::with_capacity(self.0.len() / 8);
        for chunk in self.0.chunks_exact(8) {
            let mut arr = [0u8; 8];
            arr.copy_from_slice(chunk);
            out.push(f64::from_le_bytes(arr));
        }
        Ok(out)
    }
}

/// Internal helper so `Payload::from_f64s` reads naturally.
trait F64Ext {
    fn to_le_bits_bytes(&self) -> [u8; 8];
}

impl F64Ext for f64 {
    #[inline]
    fn to_le_bits_bytes(&self) -> [u8; 8] {
        self.to_le_bytes()
    }
}

/// A message envelope queued in a rank's mailbox.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub source: usize,
    /// User tag, matched on receive.
    pub tag: i32,
    /// Monotonic per-sender sequence number; receives match the earliest
    /// sequence number among candidates, preserving MPI's non-overtaking
    /// guarantee for a `(source, tag)` pair.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

impl Message {
    /// True when the envelope matches a receive posted for `source` and
    /// `tag`.
    #[inline]
    pub fn matches(&self, source: usize, tag: i32) -> bool {
        self.source == source && self.tag == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let vals = [0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        let p = Payload::from_f64s(&vals);
        assert_eq!(p.len(), vals.len() * 8);
        assert_eq!(p.to_f64s().unwrap(), vals);
    }

    #[test]
    fn empty_roundtrip() {
        let p = Payload::from_f64s(&[]);
        assert!(p.is_empty());
        assert_eq!(p.to_f64s().unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn bad_length_rejected() {
        let p = Payload::from_bytes(Bytes::from_static(&[1, 2, 3]));
        assert!(matches!(p.to_f64s(), Err(MpiError::PayloadType { .. })));
    }

    #[test]
    fn matching_is_exact() {
        let m = Message { source: 3, tag: 9, seq: 0, payload: Payload::from_f64s(&[]) };
        assert!(m.matches(3, 9));
        assert!(!m.matches(2, 9));
        assert!(!m.matches(3, 8));
    }
}
