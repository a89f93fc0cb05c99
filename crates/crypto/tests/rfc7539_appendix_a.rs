//! RFC 7539 Appendix A test vectors, through the crate's public API.
//!
//! A.1 block function, A.2 encryption, A.3 Poly1305 (including the
//! `h >= p` and carry corner cases #5–#11), A.4 one-time key generation
//! and A.5 AEAD decryption.

use autarky_crypto::aead::{self, AeadError};
use autarky_crypto::poly1305::poly1305;
use autarky_crypto::ChaCha20;

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn key32(s: &str) -> [u8; 32] {
    hex(s).try_into().expect("32 bytes")
}

fn nonce12(s: &str) -> [u8; 12] {
    hex(s).try_into().expect("12 bytes")
}

const ZERO_KEY: &str = "00000000000000000000000000000000 00000000000000000000000000000000";
const ONE_KEY: &str = "00000000000000000000000000000000 00000000000000000000000000000001";
const JABBER_KEY: &str = "1c9240a5eb55d38af333888604f6b5f0 473917c1402b80099dca5cbc207075c0";
const ZERO_NONCE: &str = "000000000000000000000000";
const NONCE_2: &str = "000000000000000000000002";

const IETF_TEXT: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within \
the context of an IETF activity is considered an \"IETF Contribution\". Such statements \
include oral statements in IETF sessions, as well as written and electronic communications \
made at any time or place, which are addressed to";

const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

fn block(key: &str, nonce: &str, counter: u32) -> Vec<u8> {
    let mut ks = [0u8; 64];
    ChaCha20::new(&key32(key), &nonce12(nonce), counter).keystream(&mut ks);
    ks.to_vec()
}

// A.1: the ChaCha20 block function.
#[test]
fn a1_block_function() {
    let cases = [
        (
            ZERO_KEY,
            ZERO_NONCE,
            0,
            "76b8e0ada0f13d90405d6ae55386bd28 bdd219b8a08ded1aa836efcc8b770dc7
             da41597c5157488d7724e03fb8d84a37 6a43b8f41518a11cc387b669b2ee6586",
        ),
        (
            ZERO_KEY,
            ZERO_NONCE,
            1,
            "9f07e7be5551387a98ba977c732d080d cb0f29a048e3656912c6533e32ee7aed
             29b721769ce64e43d57133b074d839d5 31ed1f28510afb45ace10a1f4b794d6f",
        ),
        (
            ONE_KEY,
            ZERO_NONCE,
            1,
            "3aeb5224ecf849929b9d828db1ced4dd 832025e8018b8160b82284f3c949aa5a
             8eca00bbb4a73bdad192b5c42f73f2fd 4e273644c8b36125a64addeb006c13a0",
        ),
        (
            "00ff0000000000000000000000000000 00000000000000000000000000000000",
            ZERO_NONCE,
            2,
            "72d54dfbf12ec44b362692df94137f32 8fea8da73990265ec1bbbea1ae9af0ca
             13b25aa26cb4a648cb9b9d1be65b2c09 24a66c54d545ec1b7374f4872e99f096",
        ),
        (
            ZERO_KEY,
            NONCE_2,
            0,
            "c2c64d378cd536374ae204b9ef933fcd 1a8b2288b3dfa49672ab765b54ee27c7
             8a970e0e955c14f3a88e741b97c286f7 5f8fc299e8148362fa198a39531bed6d",
        ),
    ];
    for (i, (key, nonce, counter, expected)) in cases.into_iter().enumerate() {
        assert_eq!(block(key, nonce, counter), hex(expected), "A.1 #{}", i + 1);
    }
}

// A.2: ChaCha20 encryption.
#[test]
fn a2_encryption() {
    let cases: [(&str, &str, u32, &[u8], &str); 3] = [
        (
            ZERO_KEY,
            ZERO_NONCE,
            0,
            &[0u8; 64],
            "76b8e0ada0f13d90405d6ae55386bd28 bdd219b8a08ded1aa836efcc8b770dc7
             da41597c5157488d7724e03fb8d84a37 6a43b8f41518a11cc387b669b2ee6586",
        ),
        (
            ONE_KEY,
            NONCE_2,
            1,
            IETF_TEXT,
            "a3fbf07df3fa2fde4f376ca23e827370 41605d9f4f4f57bd8cff2c1d4b7955ec
             2a97948bd3722915c8f3d337f7d37005 0e9e96d647b7c39f56e031ca5eb6250d
             4042e02785ececfa4b4bb5e8ead0440e 20b6e8db09d881a7c6132f420e527950
             42bdfa7773d8a9051447b3291ce1411c 680465552aa6c405b7764d5e87bea85a
             d00f8449ed8f72d0d662ab052691ca66 424bc86d2df80ea41f43abf937d3259d
             c4b2d0dfb48a6c9139ddd7f76966e928 e635553ba76c5c879d7b35d49eb2e62b
             0871cdac638939e25e8a1e0ef9d5280f a8ca328b351c3c765989cbcf3daa8b6c
             cc3aaf9f3979c92b3720fc88dc95ed84 a1be059c6499b9fda236e7e818b04b0b
             c39c1e876b193bfe5569753f88128cc0 8aaa9b63d1a16f80ef2554d7189c411f
             5869ca52c5b83fa36ff216b9c1d30062 bebcfd2dc5bce0911934fda79a86f6e6
             98ced759c3ff9b6477338f3da4f9cd85 14ea9982ccafb341b2384dd902f3d1ab
             7ac61dd29c6f21ba5b862f3730e37cfd c4fd806c22f221",
        ),
        (
            JABBER_KEY,
            NONCE_2,
            42,
            JABBERWOCKY,
            "62e6347f95ed87a45ffae7426f27a1df 5fb69110044c0d73118effa95b01e5cf
             166d3df2d721caf9b21e5fb14c616871 fd84c54f9d65b283196c7fe4f60553eb
             f39c6402c42234e32a356b3e764312a6 1a5532055716ead6962568f87d3f3f77
             04c6a8d1bcd1bf4d50d6154b6da731b1 87b58dfd728afa36757a797ac188d1",
        ),
    ];
    for (i, (key, nonce, counter, plaintext, expected)) in cases.into_iter().enumerate() {
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key32(key), &nonce12(nonce), counter).apply_keystream(&mut data);
        assert_eq!(data, hex(expected), "A.2 #{}", i + 1);
    }
}

// A.3: Poly1305. #5–#11 drive `h` to or past `p` and through the carries.
#[test]
fn a3_poly1305() {
    let cases: [(&str, Vec<u8>, &str); 11] = [
        (ZERO_KEY, vec![0; 64], "00000000000000000000000000000000"),
        (
            "00000000000000000000000000000000 36e5f6b5c5e06070f0efca96227a863e",
            IETF_TEXT.to_vec(),
            "36e5f6b5c5e06070f0efca96227a863e",
        ),
        (
            "36e5f6b5c5e06070f0efca96227a863e 00000000000000000000000000000000",
            IETF_TEXT.to_vec(),
            "f3477e7cd95417af89a6b8794c310cf0",
        ),
        (
            JABBER_KEY,
            JABBERWOCKY.to_vec(),
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        (
            "02000000000000000000000000000000 00000000000000000000000000000000",
            hex("ffffffffffffffffffffffffffffffff"),
            "03000000000000000000000000000000",
        ),
        (
            "02000000000000000000000000000000 ffffffffffffffffffffffffffffffff",
            hex("02000000000000000000000000000000"),
            "03000000000000000000000000000000",
        ),
        (
            "01000000000000000000000000000000 00000000000000000000000000000000",
            hex(
                "ffffffffffffffffffffffffffffffff f0ffffffffffffffffffffffffffffff
                 11000000000000000000000000000000",
            ),
            "05000000000000000000000000000000",
        ),
        (
            "01000000000000000000000000000000 00000000000000000000000000000000",
            hex(
                "ffffffffffffffffffffffffffffffff fbfefefefefefefefefefefefefefefe
                 01010101010101010101010101010101",
            ),
            "00000000000000000000000000000000",
        ),
        (
            "02000000000000000000000000000000 00000000000000000000000000000000",
            hex("fdffffffffffffffffffffffffffffff"),
            "faffffffffffffffffffffffffffffff",
        ),
        (
            "01000000000000000400000000000000 00000000000000000000000000000000",
            hex(
                "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000
                 00000000000000000000000000000000 01000000000000000000000000000000",
            ),
            "14000000000000005500000000000000",
        ),
        (
            "01000000000000000400000000000000 00000000000000000000000000000000",
            hex(
                "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000
                 00000000000000000000000000000000",
            ),
            "13000000000000000000000000000000",
        ),
    ];
    for (i, (key, msg, tag)) in cases.iter().enumerate() {
        assert_eq!(
            poly1305(&key32(key), msg).to_vec(),
            hex(tag),
            "A.3 #{}",
            i + 1
        );
    }
}

// A.4: the Poly1305 one-time key is the first 32 bytes of block 0.
#[test]
fn a4_poly1305_key_generation() {
    let cases = [
        (
            ZERO_KEY,
            ZERO_NONCE,
            "76b8e0ada0f13d90405d6ae55386bd28 bdd219b8a08ded1aa836efcc8b770dc7",
        ),
        (
            ONE_KEY,
            NONCE_2,
            "ecfa254f845f647473d3cb140da9e876 06cb33066c447b87bc2666dde3fbb739",
        ),
        (
            JABBER_KEY,
            NONCE_2,
            "965e3bc6f9ec7ed9560808f4d229f94b 137ff275ca9b3fcbdd59deaad23310ae",
        ),
    ];
    for (i, (key, nonce, expected)) in cases.into_iter().enumerate() {
        let mut otk = [0u8; 32];
        ChaCha20::new(&key32(key), &nonce12(nonce), 0).keystream(&mut otk);
        assert_eq!(otk.to_vec(), hex(expected), "A.4 #{}", i + 1);
    }
}

// A.5: ChaCha20-Poly1305 AEAD decryption.
#[test]
fn a5_aead_decryption() {
    let key = key32(JABBER_KEY);
    let nonce = nonce12("000000000102030405060708");
    let aad = hex("f33388860000000000004e91");
    let tag: [u8; 16] = hex("eead9d67890cbb22392336fea1851f38")
        .try_into()
        .expect("16 bytes");
    let ciphertext = hex(
        "64a0861575861af460f062c79be643bd 5e805cfd345cf389f108670ac76c8cb2
         4c6cfc18755d43eea09ee94e382d26b0 bdb7b73c321b0100d4f03b7f355894cf
         332f830e710b97ce98c8a84abd0b9481 14ad176e008d33bd60f982b1ff37c855
         9797a06ef4f0ef61c186324e2b350638 3606907b6a7c02b0f9f6157b53c867e4
         b9166c767b804d46a59b5216cde7a4e9 9040c5a40433225ee282a1b0a06c523e
         af4534d7f83fa1155b0047718cbc546a 0d072b04b3564eea1b422273f548271a
         0bb2316053fa76991955ebd63159434e cebb4e466dae5a1073a6727627097a10
         49e617d91d361094fa68f0ff77987130 305beaba2eda04df997b714d6c6f2c29
         a6ad5cb4022b02709b",
    );
    let plaintext = "Internet-Drafts are draft documents valid for a maximum of six \
months and may be updated, replaced, or obsoleted by other documents at any time. It is \
inappropriate to use Internet-Drafts as reference material or to cite them other than as \
/\u{201c}work in progress./\u{201d}";

    let mut data = ciphertext.clone();
    aead::open(&key, &nonce, &aad, &mut data, &tag).expect("A.5 tag verifies");
    assert_eq!(data, plaintext.as_bytes());

    let mut resealed = data;
    assert_eq!(aead::seal(&key, &nonce, &aad, &mut resealed), tag);
    assert_eq!(resealed, ciphertext);

    let mut bad_tag = tag;
    bad_tag[15] ^= 1;
    let mut data = ciphertext;
    assert_eq!(
        aead::open(&key, &nonce, &aad, &mut data, &bad_tag),
        Err(AeadError::TagMismatch)
    );
}
