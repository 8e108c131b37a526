//! A from-scratch SHA-256 (FIPS 180-4), because the environment is offline
//! and the store's only job is collision-resistant content addressing.
//!
//! The portable path is the textbook one: 512-bit blocks, 64 rounds, the
//! fractional-parts-of-primes constants. Every cache key and every store
//! read hashes through here (a resumed job re-hashes its stored payload),
//! so on a campaign served from the store the hash is a leading cost. On
//! x86-64 CPUs with the SHA extensions, whole blocks therefore go through
//! the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions instead, chosen
//! by runtime feature detection; the portable function remains the path on
//! every other CPU. Both paths are checked against the FIPS test vectors
//! and against each other (see the tests at the bottom).

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block function: runs the compression function over whole 64-byte
/// blocks, in order.
type Blocks = fn(&mut [u32; 8], &[[u8; 64]]);

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// A partial block carried between `update` calls; whole blocks of the
    /// input are compressed straight from the caller's slice.
    block: [u8; 64],
    block_len: usize,
    total_bytes: u64,
    blocks: Blocks,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher, on the fastest block function this CPU supports.
    pub fn new() -> Sha256 {
        Self::with_blocks(sha_ni().unwrap_or(portable_blocks))
    }

    fn with_blocks(blocks: Blocks) -> Sha256 {
        Sha256 {
            state: H0,
            block: [0; 64],
            block_len: 0,
            total_bytes: 0,
            blocks,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes = self.total_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.block_len > 0 {
            let take = (64 - self.block_len).min(rest.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < 64 {
                return;
            }
            (self.blocks)(&mut self.state, &[self.block]);
            self.block_len = 0;
        }
        let (whole, tail) = rest.as_chunks::<64>();
        (self.blocks)(&mut self.state, whole);
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the big-endian bit length.
        // That is one block, or two when the carried partial block leaves
        // fewer than 9 bytes free.
        let n = self.block_len;
        let mut tail = [[0u8; 64]; 2];
        let used = if n < 56 { 1 } else { 2 };
        tail[0][..n].copy_from_slice(&self.block[..n]);
        tail[0][n] = 0x80;
        tail[used - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        (self.blocks)(&mut self.state, &tail[..used]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable block function.
fn portable_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress(state, block);
    }
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-NI block function, when this CPU has every feature it enables.
#[cfg(target_arch = "x86_64")]
fn sha_ni() -> Option<Blocks> {
    use std::arch::is_x86_feature_detected as has;
    if has!("sha") && has!("sse2") && has!("ssse3") && has!("sse4.1") {
        let f: Blocks = |state, blocks| {
            // SAFETY: `sha_ni_blocks` only requires the CPU features it
            // enables, and this closure is returned only after
            // `is_x86_feature_detected!` found all four on this CPU.
            unsafe { sha_ni_blocks(state, blocks) }
        };
        Some(f)
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn sha_ni() -> Option<Blocks> {
    None
}

/// The block function on the x86 SHA extensions (Intel's `sha256rnds2`
/// scheme: the state lives in two registers as `ABEF` and `CDGH`, and each
/// `sha256rnds2` runs two rounds on the low two words of its message-plus-
/// constant operand).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn sha_ni_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::*;

    /// Lane `i` of a register as the `u32` it holds.
    macro_rules! lane {
        ($v:expr, $i:literal) => {
            _mm_extract_epi32::<$i>($v) as u32
        };
    }
    /// A register whose lanes hold `w3, w2, w1, w0` from high to low.
    macro_rules! set {
        ($w3:expr, $w2:expr, $w1:expr, $w0:expr) => {
            _mm_set_epi32($w3 as i32, $w2 as i32, $w1 as i32, $w0 as i32)
        };
    }

    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = set!(a, b, e, f);
    let mut cdgh = set!(c, d, g, h);
    for block in blocks {
        let word = |i: usize| u32::from_be_bytes(block.as_chunks::<4>().0[i]);
        // Message words in groups of four, low lane first, as
        // `sha256msg1/2` expect: `w0` holds the group the next four rounds
        // consume, `w1..w3` the three after it.
        let [mut w0, mut w1, mut w2, mut w3]: [__m128i; 4] = std::array::from_fn(|j| {
            set!(
                word(4 * j + 3),
                word(4 * j + 2),
                word(4 * j + 1),
                word(4 * j)
            )
        });
        let (abef_in, cdgh_in) = (abef, cdgh);
        for group in 0..16 {
            let k = 4 * group;
            let wk = _mm_add_epi32(w0, set!(K[k + 3], K[k + 2], K[k + 1], K[k]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            // Group `group + 4` of the schedule from groups
            // `group..group + 4`; the last four rounds need no more.
            let next = if group < 12 {
                let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                _mm_sha256msg2_epu32(t, w3)
            } else {
                w0
            };
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        lane!(abef, 3),
        lane!(abef, 2),
        lane!(cdgh, 3),
        lane!(cdgh, 2),
        lane!(abef, 1),
        lane!(abef, 0),
        lane!(cdgh, 1),
        lane!(cdgh, 0),
    ];
}

/// Lowercase hex digits, indexed by nibble.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// `digest` as 64 lowercase hex characters.
fn to_hex(digest: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for &byte in digest {
        out.push(char::from(HEX[usize::from(byte >> 4)]));
        out.push(char::from(HEX[usize::from(byte & 0xf)]));
    }
    out
}

/// Hashes `data` and returns the digest as 64 lowercase hex characters.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    to_hex(&h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every block function this CPU can run, by name. The SHA-NI one is
    /// left out, with a note saying why, on a CPU without the extensions.
    fn paths() -> Vec<(&'static str, Blocks)> {
        let mut paths = vec![("portable", portable_blocks as Blocks)];
        match sha_ni() {
            Some(f) => paths.push(("sha-ni", f)),
            None => eprintln!("skipping the SHA-NI path: this CPU lacks the SHA extensions"),
        }
        paths
    }

    /// Hashes `data` fed in `chunk`-byte pieces through block function `f`.
    fn hex_with(f: Blocks, data: &[u8], chunk: usize) -> String {
        let mut h = Sha256::with_blocks(f);
        for piece in data.chunks(chunk.max(1)) {
            h.update(piece);
        }
        to_hex(&h.finish())
    }

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn fips_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (data, want) in vectors {
            assert_eq!(sha256_hex(data), want);
            for (name, f) in paths() {
                assert_eq!(hex_with(f, data, data.len()), want, "{name}");
            }
        }
    }

    #[test]
    fn million_a() {
        // Stream in uneven chunks to exercise block buffering.
        let data = vec![b'a'; 1_000_000];
        for (name, f) in paths() {
            assert_eq!(
                hex_with(f, &data, 997),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn chunking_is_invariant() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = sha256_hex(&data);
        for chunk in [1usize, 3, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(to_hex(&h.finish()), whole, "chunk size {chunk}");
        }
    }

    /// Both block functions agree on every message length from 0 to 1100
    /// bytes of seeded pseudo-random data (every padding case, one to
    /// eighteen blocks), at every chunking.
    #[test]
    fn paths_agree_on_seeded_messages() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..1100)
            .map(|_| {
                // xorshift64: a fixed pseudo-random byte sequence.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect();
        let paths = paths();
        for len in 0..=data.len() {
            let message = &data[..len];
            let want = hex_with(portable_blocks, message, len);
            for chunk in [1, 3, 63, 64, 65, 4096] {
                for (name, f) in &paths {
                    assert_eq!(
                        hex_with(*f, message, chunk),
                        want,
                        "{name}, length {len}, chunk {chunk}"
                    );
                }
            }
        }
    }
}
