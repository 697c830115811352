//! 64-bit FNV-1a, the crate's one content hash: chunk-store keys,
//! campaign identities and payload digests, and the planner's machine
//! buckets. Stored chunks are named by it, so it must never change.

/// An FNV-1a digest in progress. Through its [`std::fmt::Write`] impl,
/// formatted text digests without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV offset basis).
    pub(crate) const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The digest after folding in `bytes`.
    pub(crate) fn add(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest of `bytes` alone.
    pub(crate) fn of(bytes: &[u8]) -> u64 {
        Self::new().add(bytes).finish()
    }

    /// The digest value.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.add(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv1a::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut text = Fnv1a::new();
        std::fmt::Write::write_fmt(&mut text, format_args!("foo{}", "bar")).unwrap();
        assert_eq!(text.finish(), Fnv1a::of(b"foobar"));
    }
}
