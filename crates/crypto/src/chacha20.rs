//! RFC 7539 ChaCha20 stream cipher.
//!
//! The simulator's stand-in for the SGX memory-encryption engine: page
//! contents evicted by `EWB` (or by the SGXv2 software path) are encrypted
//! with a per-platform key and a nonce derived from the page's eviction
//! version, so ciphertexts never repeat.
//!
//! # Batched kernel
//!
//! [`ChaCha20::apply_keystream`] works on up to [`LANES`] blocks (1 KiB) at
//! a time. One kernel call computes `n <= LANES` consecutive blocks into a
//! struct-of-arrays keystream, `ks[word][lane]`, and the data is then XORed
//! one 32-bit word at a time. A call whose length is not a multiple of 64
//! discards the rest of its last block, so the counter advances by
//! `ceil(len / 64)` per call. Only those blocks are computed: deriving the
//! 32-byte Poly1305 key costs one block, not sixteen.
//!
//! The lane loop in `blocks` is shaped for LLVM's loop vectorizer, which
//! turns it into `paddd`/`pxor`/`pslld`/`psrld` on baseline x86-64 with no
//! target-specific code: each iteration computes one whole block, the ten
//! double rounds are ten straight-line calls rather than a loop, and each
//! result word is stored at `ks[word][lane]`, contiguous across
//! iterations. Wrapping the double rounds in `for _ in 0..10` leaves the
//! lane loop scalar, and so do variants that look more SIMD-like
//! (`[u32; 4]` lane helpers, row-wise rounds, a fixed 4- or 8-lane loop):
//! LLVM unrolls them fully, the SLP vectorizer does not fire, and they
//! run slower than a plain one-block-at-a-time cipher. Keep this shape,
//! and check the disassembly for `paddd` after changing it.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// Blocks computed by one call of the batched kernel.
pub const LANES: usize = 16;

/// ChaCha20 cipher instance bound to a key and nonce.
pub struct ChaCha20 {
    state: [u32; 16],
}

impl ChaCha20 {
    /// Create a cipher with the given key, nonce, and initial block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] =
                u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        Self { state }
    }

    /// Keystream of the `n <= LANES` blocks at counters `counter..counter + n`
    /// (wrapping), as `ks[word][lane]`. Lanes `n..` are left zero.
    // Index loops on purpose: this is the shape the vectorizer needs (see
    // the module docs); iterator rewrites are not checked to vectorize.
    #[allow(clippy::needless_range_loop)]
    fn blocks(&self, n: usize) -> [[u32; LANES]; 16] {
        let mut ks = [[0u32; LANES]; 16];
        for lane in 0..n.min(LANES) {
            let mut init = self.state;
            init[12] = init[12].wrapping_add(lane as u32);
            let mut v = init;
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            double_round(&mut v);
            for i in 0..16 {
                ks[i][lane] = v[i].wrapping_add(init[i]);
            }
        }
        ks
    }

    /// XOR the keystream into `data` in place (encrypts or decrypts).
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64 * LANES) {
            let n = chunk.len().div_ceil(64);
            let ks = self.blocks(n);
            self.state[12] = self.state[12].wrapping_add(n as u32);
            for (lane, block) in chunk.chunks_mut(64).enumerate() {
                // Word index of a trailing partial word; 16 for a whole block.
                let last = block.len() / 4;
                let mut words = block.chunks_exact_mut(4);
                for (i, word) in (&mut words).enumerate() {
                    let x = u32::from_le_bytes(word.try_into().expect("4 bytes")) ^ ks[i][lane];
                    word.copy_from_slice(&x.to_le_bytes());
                }
                if let Some(k) = ks.get(last) {
                    for (byte, k) in words.into_remainder().iter_mut().zip(k[lane].to_le_bytes()) {
                        *byte ^= k;
                    }
                }
            }
        }
    }

    /// Generate `out.len()` bytes of raw keystream (used to derive the
    /// Poly1305 one-time key in the AEAD construction).
    pub fn keystream(&mut self, out: &mut [u8]) {
        out.fill(0);
        self.apply_keystream(out);
    }
}

/// One column round and one diagonal round.
#[inline(always)]
fn double_round(s: &mut [u32; 16]) {
    quarter_round(s, 0, 4, 8, 12);
    quarter_round(s, 1, 5, 9, 13);
    quarter_round(s, 2, 6, 10, 14);
    quarter_round(s, 3, 7, 11, 15);
    quarter_round(s, 0, 5, 10, 15);
    quarter_round(s, 1, 6, 11, 12);
    quarter_round(s, 2, 7, 8, 13);
    quarter_round(s, 3, 4, 9, 14);
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to_bytes(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    // RFC 7539 §2.4.2 test vector.
    #[test]
    fn rfc7539_encryption() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let nonce = [0u8, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        let expected = hex_to_bytes(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    // RFC 7539 §2.3.2 block function vector (first keystream block).
    #[test]
    fn rfc7539_block_function() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let nonce = [0u8, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let mut ks = [0u8; 64];
        cipher.keystream(&mut ks);
        let expected = hex_to_bytes(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(ks.to_vec(), expected);
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let mut data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let orig = data.clone();
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
        assert_ne!(data, orig);
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn counter_advances_across_chunks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut a = vec![0u8; 200];
        ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut a);
        let mut b = vec![0u8; 200];
        let mut cipher = ChaCha20::new(&key, &nonce, 0);
        cipher.apply_keystream(&mut b[..64]);
        cipher.apply_keystream(&mut b[64..128]);
        cipher.apply_keystream(&mut b[128..]);
        assert_eq!(a, b);
    }
}
