//! Software page sealing for the SGXv2 eviction path (paper §6).
//!
//! With SGXv2 dynamic memory instructions the runtime can evict pages
//! itself: it encrypts and signs the contents with its *own* key, parks
//! the blob in untrusted memory, trims the EPC page, and later restores it
//! with `EAUG`+`EACCEPTCOPY`. This is more flexible than `EWB`/`ELDU`
//! (custom encryption, skipping clean pages, alternate backing stores) at
//! the price of an extra enclave crossing — the trade-off Figure 5
//! quantifies.
//!
//! Anti-replay comes from a runtime-held version counter per page, bound
//! into the AEAD associated data; the OS returning an older blob fails
//! authentication.

use autarky_crypto::aead::{self, NONCE_LEN, TAG_LEN};
use autarky_sgx_sim::{Vpn, PAGE_SIZE};

/// Serialized software-sealed page: `version (8) || tag (16) || ciphertext`.
pub fn sw_seal(key: &[u8; 32], vpn: Vpn, version: u64, contents: &[u8]) -> Vec<u8> {
    debug_assert_eq!(contents.len(), PAGE_SIZE);
    let (nonce, aad) = (sw_nonce(vpn, version), sw_aad(vpn, version));
    aead::seal_framed(key, &nonce, &aad, &version.to_le_bytes(), contents)
}

/// Verify and decrypt a blob produced by [`sw_seal`]. `expected_version`
/// enforces freshness: an old-but-authentic blob is rejected as a replay.
pub fn sw_open(
    key: &[u8; 32],
    vpn: Vpn,
    expected_version: u64,
    blob: &[u8],
) -> Option<[u8; PAGE_SIZE]> {
    let (version, rest) = blob.split_first_chunk::<8>()?;
    let (tag, ciphertext) = rest.split_first_chunk::<TAG_LEN>()?;
    let version = u64::from_le_bytes(*version);
    if version != expected_version {
        return None;
    }
    let mut page: [u8; PAGE_SIZE] = ciphertext.try_into().ok()?;
    let (nonce, aad) = (sw_nonce(vpn, version), sw_aad(vpn, version));
    aead::open(key, &nonce, &aad, &mut page, tag).ok()?;
    Some(page)
}

fn sw_nonce(vpn: Vpn, version: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&version.to_le_bytes());
    nonce[8..].copy_from_slice(&(vpn.0 as u32).to_le_bytes());
    nonce
}

fn sw_aad(vpn: Vpn, version: u64) -> [u8; 16] {
    let mut aad = [0u8; 16];
    aad[..8].copy_from_slice(&vpn.0.to_le_bytes());
    aad[8..].copy_from_slice(&version.to_le_bytes());
    aad
}

/// Untrusted-store key for a page's blob (per enclave id + page).
pub fn blob_key(eid_raw: u32, vpn: Vpn) -> u64 {
    ((eid_raw as u64) << 40) | (vpn.0 & 0xFF_FFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [0x11; 32];

    fn page(byte: u8) -> [u8; PAGE_SIZE] {
        [byte; PAGE_SIZE]
    }

    #[test]
    fn roundtrip() {
        let blob = sw_seal(&KEY, Vpn(5), 3, &page(0x7C));
        let opened = sw_open(&KEY, Vpn(5), 3, &blob).expect("authentic");
        assert_eq!(opened, page(0x7C));
    }

    #[test]
    fn replay_of_old_version_rejected() {
        let old = sw_seal(&KEY, Vpn(5), 3, &page(1));
        let _new = sw_seal(&KEY, Vpn(5), 4, &page(2));
        assert!(
            sw_open(&KEY, Vpn(5), 4, &old).is_none(),
            "stale blob must fail"
        );
    }

    #[test]
    fn wrong_page_rejected() {
        let blob = sw_seal(&KEY, Vpn(5), 3, &page(1));
        assert!(sw_open(&KEY, Vpn(6), 3, &blob).is_none());
    }

    #[test]
    fn tamper_rejected() {
        let mut blob = sw_seal(&KEY, Vpn(5), 3, &page(1));
        blob[40] ^= 1;
        assert!(sw_open(&KEY, Vpn(5), 3, &blob).is_none());
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = sw_seal(&KEY, Vpn(5), 3, &page(1));
        assert!(sw_open(&KEY, Vpn(5), 3, &blob[..100]).is_none());
    }

    #[test]
    fn blob_keys_distinct_across_enclaves() {
        assert_ne!(blob_key(1, Vpn(5)), blob_key(2, Vpn(5)));
        assert_ne!(blob_key(1, Vpn(5)), blob_key(1, Vpn(6)));
    }
}
