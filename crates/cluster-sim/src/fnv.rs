//! 64-bit FNV-1a, the workspace's one content hash: `RunReport` digests,
//! workload parameter digests, chunk-store keys, campaign identities and
//! payload digests, and the planner's machine buckets. Golden digests and
//! stored chunk names are built on it, so it must never change.

/// An FNV-1a digest in progress. Through its [`std::fmt::Write`] impl,
/// formatted text digests without allocating.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The digest after folding in `data`.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest after folding in `v`'s little-endian bytes.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest of `data` alone.
    pub fn of(data: &[u8]) -> u64 {
        Self::new().bytes(data).finish()
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.bytes(s.as_bytes());
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

    #[test]
    fn u64_folds_the_little_endian_bytes() {
        for v in [0, 1, 0x0102_0304_0506_0708, u64::MAX] {
            let h = Fnv1a::new().bytes(b"a");
            assert_eq!(h.u64(v).finish(), h.bytes(&v.to_le_bytes()).finish());
        }
    }
}
