//! Sealing of evicted EPC pages (`EWB`/`ELDU` crypto).
//!
//! `EWB` encrypts an evicted page and binds it to the enclave, the page's
//! linear address, and a monotonically increasing eviction *version*
//! (modeling the Version Array nonce that gives SGX its anti-replay
//! guarantee). `ELDU` rejects blobs whose authentication fails or whose
//! version does not match the outstanding one.

use autarky_crypto::aead::{self, AeadError, NONCE_LEN, TAG_LEN};

use crate::addr::{EnclaveId, Vpn, PAGE_SIZE};
use crate::epc::{PageData, Perms};

/// A page evicted from EPC, living in untrusted memory.
///
/// Everything in this struct is visible to the adversary; confidentiality
/// and integrity come only from the ciphertext/tag pair.
#[derive(Debug, Clone)]
pub struct SealedPage {
    /// Owning enclave (metadata, also authenticated).
    pub eid: EnclaveId,
    /// Linear page this blob backs.
    pub vpn: Vpn,
    /// Anti-replay version assigned at eviction.
    pub version: u64,
    /// Permissions to restore.
    pub perms: Perms,
    /// Encrypted page contents.
    pub ciphertext: Vec<u8>,
    /// Authentication tag over ciphertext and metadata.
    pub tag: [u8; TAG_LEN],
}

fn nonce_for(eid: EnclaveId, vpn: Vpn, version: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&eid.0.to_le_bytes());
    nonce[4..8].copy_from_slice(&(vpn.0 as u32).to_le_bytes());
    // Low 32 bits of the version; combined with the AAD (full version) this
    // keeps (key, nonce) pairs unique per eviction.
    nonce[8..12].copy_from_slice(&(version as u32).to_le_bytes());
    nonce
}

fn aad_for(eid: EnclaveId, vpn: Vpn, version: u64, perms: Perms) -> [u8; 23] {
    let mut aad = [0u8; 23];
    aad[..4].copy_from_slice(&eid.0.to_le_bytes());
    aad[4..12].copy_from_slice(&vpn.0.to_le_bytes());
    aad[12..20].copy_from_slice(&version.to_le_bytes());
    aad[20..].copy_from_slice(&[perms.r as u8, perms.w as u8, perms.x as u8]);
    aad
}

/// Seal a page for eviction.
pub fn seal_page(
    key: &[u8; 32],
    eid: EnclaveId,
    vpn: Vpn,
    version: u64,
    perms: Perms,
    contents: &[u8; PAGE_SIZE],
) -> SealedPage {
    let mut ciphertext = contents.to_vec();
    let nonce = nonce_for(eid, vpn, version);
    let aad = aad_for(eid, vpn, version, perms);
    let tag = aead::seal(key, &nonce, &aad, &mut ciphertext);
    SealedPage {
        eid,
        vpn,
        version,
        perms,
        ciphertext,
        tag,
    }
}

/// Verify and decrypt a sealed page.
pub fn open_page(key: &[u8; 32], sealed: &SealedPage) -> Result<PageData, AeadError> {
    let mut page =
        PageData::try_from(sealed.ciphertext.clone()).map_err(|_| AeadError::TagMismatch)?;
    let nonce = nonce_for(sealed.eid, sealed.vpn, sealed.version);
    let aad = aad_for(sealed.eid, sealed.vpn, sealed.version, sealed.perms);
    aead::open(key, &nonce, &aad, &mut page[..], &sealed.tag)?;
    Ok(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epc::zeroed_page;

    const KEY: [u8; 32] = [0x42; 32];

    fn page_with(byte: u8) -> PageData {
        let mut p = zeroed_page();
        p[0] = byte;
        p[PAGE_SIZE - 1] = byte;
        p
    }

    #[test]
    fn roundtrip() {
        let page = page_with(0x7f);
        let sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, &page);
        assert_ne!(&sealed.ciphertext[..], &page[..], "must be encrypted");
        let opened = open_page(&KEY, &sealed).expect("authentic");
        assert_eq!(&opened[..], &page[..]);
    }

    #[test]
    fn tamper_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, &page);
        sealed.ciphertext[100] ^= 0xff;
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn metadata_swap_detected() {
        // An attacker relocating a blob to a different page must fail.
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, &page);
        sealed.vpn = Vpn(6);
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn version_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::RW, &page);
        sealed.version = 4;
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn perms_swap_detected() {
        let page = page_with(1);
        let mut sealed = seal_page(&KEY, EnclaveId(1), Vpn(5), 3, Perms::R, &page);
        sealed.perms = Perms::RWX;
        assert!(open_page(&KEY, &sealed).is_err());
    }

    #[test]
    fn distinct_versions_distinct_ciphertexts() {
        let page = page_with(1);
        let a = seal_page(&KEY, EnclaveId(1), Vpn(5), 1, Perms::RW, &page);
        let b = seal_page(&KEY, EnclaveId(1), Vpn(5), 2, Perms::RW, &page);
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
