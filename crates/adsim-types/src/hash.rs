//! The workspace's hash primitives: from-scratch SHA-256 for PII, and the
//! one splitmix64 mixer ([`mix64`]) behind every non-cryptographic hash.
//!
//! Ad platforms require custom-audience PII uploads (emails, phone numbers)
//! to be SHA-256 hashed [Facebook/Google/Twitter custom-audience docs, cited
//! in the paper §3.1 "Supporting PII"], and the Treads opt-in flow relies on
//! users being able to hand the transparency provider *hashed* PII only. We
//! implement SHA-256 here rather than pull a crypto crate, and validate it
//! against the NIST FIPS 180-4 test vectors in the unit tests.
//!
//! The implementation is the straightforward single-block-at-a-time
//! compression function. It hashes PII, targeting-spec digests, codebook
//! tokens and the labels of RNG substreams derived once per run
//! ([`crate::rng::substream`]): a few thousand short strings per
//! experiment, so throughput is irrelevant — correctness and zero
//! dependencies are the goals.
//!
//! Trace ids, delta-frame state digests, delivery-receipt signatures, the
//! frequency-cap map and the per-user and per-user-day RNG streams
//! ([`crate::rng::keyed_stream`]) all hash on hot paths where SHA-256 is
//! far too slow. They share [`mix64`] and keep their own
//! domain-separation constants beside their call sites.

/// SHA-256 round constants (FIPS 180-4 §4.2.2): first 32 bits of the
/// fractional parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (FIPS 180-4 §5.3.3): first 32 bits of the fractional
/// parts of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lowercase hex rendering of the digest (the format platforms accept
    /// for hashed-PII uploads).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A compact 64-bit fingerprint (first 8 bytes, big-endian). Used as a
    /// cheap map key when the full digest is overkill.
    pub fn fingerprint(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = H0;

    // Message padding: append 0x80, zeros, then the 64-bit bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = Vec::with_capacity(data.len() + 72);
    msg.extend_from_slice(data);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    debug_assert_eq!(msg.len() % 64, 0);

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// The `splitmix64` finalizer: a cheap, well-mixed, bijective avalanche
/// step on one 64-bit word. Not a cryptographic hash — it guards against
/// bookkeeping bugs and simulated faults, not adversaries.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a piece of PII the way ad platforms expect: trimmed, lowercased,
/// then SHA-256. (Facebook and Google both document trim+lowercase
/// normalization before hashing for custom-audience matching.)
pub fn hash_pii(pii: &str) -> Digest {
    sha256(pii.trim().to_lowercase().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST FIPS 180-4 / NESSIE test vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        // The classic one-million-'a' NIST vector exercises multi-block
        // hashing and the length encoding.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must all
        // produce distinct, stable digests (regression guard for the
        // padding logic).
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xAB; len];
            assert!(seen.insert(sha256(&data)), "collision at len {len}");
        }
    }

    #[test]
    fn pii_normalization() {
        // Platforms match on normalized PII: case and surrounding
        // whitespace must not change the digest.
        assert_eq!(
            hash_pii("Alice@Example.COM "),
            hash_pii("alice@example.com")
        );
        assert_ne!(hash_pii("alice@example.com"), hash_pii("bob@example.com"));
    }

    #[test]
    fn mix64_is_the_splitmix64_finalizer() {
        // The first output of a splitmix64 generator seeded with 0 is the
        // finalizer applied to one golden-ratio increment.
        assert_eq!(mix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0), 0);
        const AT_COMPILE_TIME: u64 = mix64(1);
        assert_eq!(AT_COMPILE_TIME, mix64(1));
    }

    #[test]
    fn digest_display_and_fingerprint() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert_eq!(d.fingerprint(), 0xba7816bf8f01cfea);
        assert_eq!(format!("{d:?}"), format!("Digest({})", d.to_hex()));
    }
}
