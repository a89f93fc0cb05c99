//! Randomized property tests for the crypto primitives: streaming/one-shot
//! agreement under arbitrary chunkings, batched ChaCha20 keystream against
//! single blocks, AEAD round-trips and tamper rejection for arbitrary
//! inputs.
//!
//! Inputs are drawn from the deterministic [`SimRng`] (seeded per test),
//! so every run exercises the same cases and failures are reproducible.

use autarky_crypto::chacha20::LANES;
use autarky_crypto::poly1305::poly1305;
use autarky_crypto::{aead, hmac_sha256, sha256, ChaCha20, HmacSha256, Poly1305, Sha256};
use autarky_prng::SimRng;

const CASES: usize = 64;

fn random_vec(rng: &mut SimRng, range: core::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range_usize(range);
    let mut buf = vec![0u8; len];
    rng.fill_bytes(&mut buf);
    buf
}

#[test]
fn sha256_streaming_agrees_with_oneshot() {
    let mut rng = SimRng::seed_from_u64(0x5a01);
    for _ in 0..CASES {
        let data = random_vec(&mut rng, 0..2048);
        let n_splits = rng.gen_range_usize(0..8);
        let mut cuts: Vec<usize> = (0..n_splits)
            .map(|_| rng.gen_range_usize(0..data.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut prev = 0;
        for cut in cuts {
            hasher.update(&data[prev..cut]);
            prev = cut;
        }
        hasher.update(&data[prev..]);
        assert_eq!(hasher.finalize(), sha256(&data));
    }
}

#[test]
fn hmac_streaming_agrees_with_oneshot() {
    let mut rng = SimRng::seed_from_u64(0x5a02);
    for _ in 0..CASES {
        let key = random_vec(&mut rng, 0..200);
        let data = random_vec(&mut rng, 0..1024);
        let cut = rng.gen_range_usize(0..data.len() + 1);
        let mut mac = HmacSha256::new(&key);
        mac.update(&data[..cut]);
        mac.update(&data[cut..]);
        assert_eq!(mac.finalize(), hmac_sha256(&key, &data));
    }
}

#[test]
fn chacha20_is_an_involution() {
    let mut rng = SimRng::seed_from_u64(0x5a03);
    for _ in 0..CASES {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let counter = rng.next_u32();
        let data = random_vec(&mut rng, 0..1024);
        let mut buf = data.clone();
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut buf);
        assert_eq!(buf, data);
    }
}

fn random_key_nonce(rng: &mut SimRng) -> ([u8; 32], [u8; 12]) {
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    (key, nonce)
}

/// The keystream block at `counter`, computed on its own.
fn single_block(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> [u8; 64] {
    let mut block = [0u8; 64];
    ChaCha20::new(key, nonce, counter).keystream(&mut block);
    block
}

#[test]
fn batched_keystream_equals_single_blocks() {
    let mut rng = SimRng::seed_from_u64(0x5a06);
    for case in 0..8 {
        let (key, nonce) = random_key_nonce(&mut rng);
        // Every other case starts just below the wrap, which must wrap to 0.
        let counter = if case % 2 == 0 {
            u32::MAX - rng.gen_below(2 * LANES as u64 + 2) as u32
        } else {
            rng.next_u32()
        };
        for n in 1..=2 * LANES + 1 {
            let reference: Vec<u8> = (0..n as u32)
                .flat_map(|i| single_block(&key, &nonce, counter.wrapping_add(i)))
                .collect();
            // A whole last block, then a random partial one.
            for len in [n * 64, (n - 1) * 64 + rng.gen_range_usize(1..64)] {
                let mut ks = vec![0u8; len];
                ChaCha20::new(&key, &nonce, counter).apply_keystream(&mut ks);
                assert_eq!(ks, reference[..len], "counter {counter} n {n} len {len}");
            }
        }
    }
}

#[test]
fn counter_advances_by_blocks_used() {
    let mut rng = SimRng::seed_from_u64(0x5a07);
    for _ in 0..CASES {
        let (key, nonce) = random_key_nonce(&mut rng);
        let counter = rng.next_u32();
        let len = rng.gen_range_usize(0..3 * 64 * LANES);
        let mut cipher = ChaCha20::new(&key, &nonce, counter);
        cipher.apply_keystream(&mut vec![0u8; len]);
        let mut next = [0u8; 64];
        cipher.keystream(&mut next);
        let used = len.div_ceil(64) as u32;
        assert_eq!(
            next,
            single_block(&key, &nonce, counter.wrapping_add(used)),
            "len {len}"
        );
    }
}

#[test]
fn poly1305_streaming_equals_oneshot_at_every_split() {
    let mut rng = SimRng::seed_from_u64(0x5a08);
    let (key, _) = random_key_nonce(&mut rng);
    let data = random_vec(&mut rng, 100..101);
    for len in 0..=data.len() {
        let msg = &data[..len];
        let expected = poly1305(&key, msg);
        for split in 0..=len {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..split]).update(&msg[split..]);
            assert_eq!(mac.finalize(), expected, "len {len} split {split}");
        }
    }
}

#[test]
fn aead_page_rejects_a_bit_flip_at_every_kib() {
    let mut rng = SimRng::seed_from_u64(0x5a09);
    for _ in 0..8 {
        let (key, nonce) = random_key_nonce(&mut rng);
        let aad = random_vec(&mut rng, 0..32);
        let page = random_vec(&mut rng, 4096..4097);
        let mut ciphertext = page.clone();
        let tag = aead::seal(&key, &nonce, &aad, &mut ciphertext);
        let mut plain = ciphertext.clone();
        aead::open(&key, &nonce, &aad, &mut plain, &tag).expect("authentic");
        assert_eq!(plain, page);
        for offset in (0..4096).step_by(1024).chain([4095]) {
            let mut corrupt = ciphertext.clone();
            corrupt[offset] ^= 1 << rng.gen_below(8);
            assert!(aead::open(&key, &nonce, &aad, &mut corrupt, &tag).is_err());
        }
        for byte in 0..tag.len() {
            let mut bad_tag = tag;
            bad_tag[byte] ^= 1 << rng.gen_below(8);
            let mut ct = ciphertext.clone();
            assert!(aead::open(&key, &nonce, &aad, &mut ct, &bad_tag).is_err());
            assert_eq!(ct, ciphertext, "a rejected open leaves the data alone");
        }
    }
}

#[test]
fn aead_roundtrip_and_tamper() {
    let mut rng = SimRng::seed_from_u64(0x5a04);
    for _ in 0..CASES {
        let mut key = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut nonce);
        let aad = random_vec(&mut rng, 0..64);
        let data = random_vec(&mut rng, 1..1024);
        let flip = rng.next_u64() as usize;

        let original = data.clone();
        let mut buf = data;
        let tag = aead::seal(&key, &nonce, &aad, &mut buf);
        // Round-trips.
        let mut plain = buf.clone();
        aead::open(&key, &nonce, &aad, &mut plain, &tag).expect("authentic");
        assert_eq!(&plain, &original);
        // A single flipped ciphertext bit must be rejected.
        let mut corrupt = buf.clone();
        let idx = flip % corrupt.len();
        corrupt[idx] ^= 1;
        assert!(aead::open(&key, &nonce, &aad, &mut corrupt, &tag).is_err());
        // A flipped AAD byte must be rejected.
        if !aad.is_empty() {
            let mut bad_aad = aad.clone();
            bad_aad[flip % aad.len()] ^= 1;
            let mut ct = buf.clone();
            assert!(aead::open(&key, &nonce, &bad_aad, &mut ct, &tag).is_err());
        }
    }
}

#[test]
fn distinct_inputs_give_distinct_digests() {
    let mut rng = SimRng::seed_from_u64(0x5a05);
    for _ in 0..CASES {
        let a = random_vec(&mut rng, 1..128);
        let b = random_vec(&mut rng, 1..128);
        if a == b {
            continue;
        }
        assert_ne!(sha256(&a), sha256(&b));
    }
}
