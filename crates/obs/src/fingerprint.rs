//! Stable content fingerprints for trace keys.
//!
//! Spans must not be keyed by submission indices or thread ids —
//! both vary with scheduling, and the canonical export promises
//! byte-identical traces across worker counts and submission orders.
//! Instead, requests and contexts are keyed by a fingerprint of their
//! *content* (history bits, horizon, codec, configuration), computed with
//! the 64-bit FNV-1a hash below: stable across platforms and runs, with
//! no dependence on `std::hash`'s randomized state.

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds raw bytes into the fingerprint.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string's UTF-8 bytes into the fingerprint.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Folds a `u64` (little-endian bytes) into the fingerprint.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Combines two fingerprints into one (splitmix64 finalizer over the
/// pair), used to disambiguate the k-th occurrence of identical content.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let mut a = Fingerprint::new();
        a.write_str("prompt");
        a.write_u64(7);
        let mut b = Fingerprint::new();
        b.write_str("prompt");
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_str("prompt");
        c.write_u64(8);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn byte_boundaries_matter() {
        // "ab" + "c" must differ from "a" + "bc" only if the hash saw the
        // same byte stream — FNV is a pure byte fold, so they collide by
        // design; u64 framing is what callers add to separate fields.
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_eq!(a.finish(), b.finish());
        let mut framed_a = Fingerprint::new();
        framed_a.write_u64(2);
        framed_a.write_str("ab");
        framed_a.write_str("c");
        let mut framed_b = Fingerprint::new();
        framed_b.write_u64(1);
        framed_b.write_str("a");
        framed_b.write_str("bc");
        assert_ne!(framed_a.finish(), framed_b.finish());
    }

    #[test]
    fn mix_disambiguates_occurrences() {
        let base = Fingerprint::new().finish();
        assert_ne!(mix(base, 0), mix(base, 1));
        assert_ne!(mix(base, 1), mix(base, 2));
        assert_eq!(mix(base, 1), mix(base, 1));
    }
}
