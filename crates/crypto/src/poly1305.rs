//! RFC 7539 Poly1305 one-time authenticator.
//!
//! The accumulator `h` and key `r` live in three limbs of 44, 44 and 42
//! bits (the poly1305-donna-64 layout), so every limb product fits a `u128`
//! with room for the sums: a block multiply is nine 64×64→128 products.
//! Because 2^130 ≡ 5 (mod p), a product term that lands at bit 132 or above
//! folds back multiplied by 5·4 = 20, which is why `new` keeps `20·r`.
//!
//! Full 32-byte steps absorb two blocks at once as
//! `h = (h + m1)·r² + m2·r`, with `r²` computed once in [`Poly1305::new`].
//! The two products do not depend on each other, so their multiplies
//! overlap instead of queueing on one carry chain. Limbs are only partly
//! reduced between steps (a limb may exceed its width by a few bits);
//! [`Poly1305::finalize`] reduces fully before the tag is written, so the
//! output is the RFC value whatever the step order.

/// Key length in bytes (16-byte `r` + 16-byte `s`).
pub const KEY_LEN: usize = 32;

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// A field element as three limbs of 44, 44 and 42 bits.
type Limbs = [u64; 3];

/// Streaming Poly1305 context.
pub struct Poly1305 {
    r: Limbs,
    r2: Limbs,
    h: Limbs,
    pad: [u64; 2],
    buf: [u8; 16],
    buf_len: usize,
}

/// Split 16 little-endian bytes into limbs; `hibit` is added at bit 128.
fn limbs(bytes: &[u8], hibit: u64) -> Limbs {
    let t0 = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    let t1 = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | (hibit << 40),
    ]
}

/// `a·b` as unreduced 128-bit limb sums; `b20` is `20·b`.
#[inline(always)]
fn mul(a: &Limbs, b: &Limbs, b20: &Limbs) -> [u128; 3] {
    let m = |x: u64, y: u64| x as u128 * y as u128;
    [
        m(a[0], b[0]) + m(a[1], b20[2]) + m(a[2], b20[1]),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b20[2]),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]),
    ]
}

/// Carry 128-bit limb sums back into 44/44/42-bit limbs (partly reduced).
#[inline(always)]
fn carry(d: [u128; 3]) -> Limbs {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

fn times20(x: &Limbs) -> Limbs {
    [x[0] * 20, x[1] * 20, x[2] * 20]
}

impl Poly1305 {
    /// Create an authenticator from the 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // r is clamped per the RFC: clear the top 4 bits of bytes 3/7/11/15
        // and the bottom 2 bits of bytes 4/8/12.
        let mut r = limbs(&key[..16], 0);
        r[0] &= 0x0ffc_0fff_ffff;
        r[1] &= 0x0fff_ffc0_ffff;
        r[2] &= 0x000f_ffff_fc0f;
        let r2 = carry(mul(&r, &r, &times20(&r)));
        let pad = [
            u64::from_le_bytes(key[16..24].try_into().expect("8 bytes")),
            u64::from_le_bytes(key[24..32].try_into().expect("8 bytes")),
        ];
        Self {
            r,
            r2,
            h: [0; 3],
            pad,
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// `h = (h + m)·r` for one 16-byte block (`hibit` 0 for the padded
    /// final block, 1 otherwise).
    fn block(&mut self, block: &[u8], hibit: u64) {
        let m = limbs(block, hibit);
        let h = [self.h[0] + m[0], self.h[1] + m[1], self.h[2] + m[2]];
        self.h = carry(mul(&h, &self.r, &times20(&self.r)));
    }

    /// `h = (h + m1)·r² + m2·r` for two full blocks.
    fn pair(&mut self, blocks: &[u8]) {
        let m1 = limbs(&blocks[..16], 1);
        let m2 = limbs(&blocks[16..32], 1);
        let h = [self.h[0] + m1[0], self.h[1] + m1[1], self.h[2] + m1[2]];
        let a = mul(&h, &self.r2, &times20(&self.r2));
        let b = mul(&m2, &self.r, &times20(&self.r));
        self.h = carry([a[0] + b[0], a[1] + b[1], a[2] + b[2]]);
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let mut data = data;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return self;
            }
            let block = self.buf;
            self.block(&block, 1);
            self.buf_len = 0;
        }
        let mut pairs = data.chunks_exact(32);
        for pair in &mut pairs {
            self.pair(pair);
        }
        let mut data = pairs.remainder();
        if data.len() >= 16 {
            self.block(&data[..16], 1);
            data = &data[16..];
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
        self
    }

    /// Finish and return the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry twice: afterwards every limb fits its width and h < 2^130.
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        h2 += h1 >> 44;
        h1 &= MASK44;

        // g = h + 5 - 2^130; select g when it is non-negative (h >= p).
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1); // all-ones if h >= p
        let h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        let h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        let h2 = (h2 & !mask) | (g2 & mask);

        // h %= 2^128, then add pad.
        let lo = (h0 | (h1 << 44)) as u128 | ((h1 >> 20 | h2 << 24) as u128) << 64;
        let pad = self.pad[0] as u128 | (self.pad[1] as u128) << 64;
        lo.wrapping_add(pad).to_le_bytes()
    }
}

/// One-shot Poly1305 tag of `data` under `key`.
pub fn poly1305(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(data);
    mac.finalize()
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

    // RFC 7539 §2.5.2 test vector.
    #[test]
    fn rfc7539_tag() {
        let key: [u8; 32] =
            hex_to_bytes("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .expect("32");
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(&key, msg);
        assert_eq!(
            tag.to_vec(),
            hex_to_bytes("a8061dc1305136c6c22b8baf0c0127a9")
        );
    }

    // RFC 7539 §A.3 vector #1: all-zero key, all-zero message.
    #[test]
    fn zero_key_zero_msg() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(poly1305(&key, &msg), [0u8; 16]);
    }

    // RFC 7539 §A.3 vector #2.
    #[test]
    fn rfc7539_a3_vector2() {
        let mut key = [0u8; 32];
        let s = hex_to_bytes("36e5f6b5c5e06070f0efca96227a863e");
        key[16..].copy_from_slice(&s);
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(
            poly1305(&key, msg.as_slice()).to_vec(),
            hex_to_bytes("36e5f6b5c5e06070f0efca96227a863e")
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().expect("32");
        let data: Vec<u8> = (0..259u32).map(|i| (i * 3 % 256) as u8).collect();
        for split in [0usize, 1, 15, 16, 17, 100, 259] {
            let mut mac = Poly1305::new(&key);
            mac.update(&data[..split]);
            mac.update(&data[split..]);
            assert_eq!(mac.finalize(), poly1305(&key, &data), "split {split}");
        }
    }
}
