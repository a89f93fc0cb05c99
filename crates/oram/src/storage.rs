//! Untrusted bucket storage for PathORAM.
//!
//! Buckets are stored *encrypted*: every write re-encrypts the bucket
//! under a fresh nonce, so the adversary watching the storage learns only
//! which tree positions are touched — and PathORAM guarantees those are a
//! uniformly random root-to-leaf path per access.
//!
//! A sealed bucket is `nonce ‖ tag ‖ ciphertext`. [`BucketSealer`] works on
//! whole paths: [`BucketSealer::frame`] reserves the next nonce for one
//! bucket, in the order the caller frames them, and
//! [`BucketSealer::seal_all`] / [`BucketSealer::open_all`] then run the
//! path's AEAD in place as one batch that parked helper threads may share.
//! Since the nonces are fixed before the fan-out, every ciphertext is the
//! same whichever thread sealed it.

use autarky_crypto::aead::{self, NONCE_LEN, TAG_LEN};

use crate::batch;

/// Abstract untrusted storage holding one ciphertext per tree bucket.
///
/// Implementations decide where the bytes live (host memory, the
/// simulator's observable backing store, a file, ...). The ORAM only ever
/// calls these two methods, so an implementation's access log *is* the
/// adversary's view.
pub trait BucketStorage {
    /// Read the ciphertext of bucket `index` (empty if never written).
    fn read(&mut self, index: usize) -> Vec<u8>;
    /// Replace the ciphertext of bucket `index`.
    fn write(&mut self, index: usize, ciphertext: Vec<u8>);
}

/// Plain in-memory storage with an access log, used by tests and as the
/// default backing when no simulator is attached.
#[derive(Default)]
pub struct MemStorage {
    buckets: Vec<Vec<u8>>,
    /// Sequence of `(index, was_write)` accesses, adversary-visible.
    pub log: Vec<(usize, bool)>,
}

impl MemStorage {
    /// Storage for `buckets` buckets.
    pub fn new(buckets: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); buckets],
            log: Vec::new(),
        }
    }

    /// Flip one ciphertext bit (fault injection for integrity tests).
    pub fn corrupt(&mut self, index: usize, byte: usize) {
        if let Some(b) = self.buckets.get_mut(index).and_then(|v| v.get_mut(byte)) {
            *b ^= 1;
        }
    }
}

impl BucketStorage for MemStorage {
    fn read(&mut self, index: usize) -> Vec<u8> {
        self.log.push((index, false));
        self.buckets[index].clone()
    }

    fn write(&mut self, index: usize, ciphertext: Vec<u8>) {
        self.log.push((index, true));
        self.buckets[index] = ciphertext;
    }
}

/// Bytes in front of a bucket's ciphertext: its nonce, then its tag.
const BUCKET_HEADER: usize = NONCE_LEN + TAG_LEN;

const BUCKET_AAD: &[u8] = b"oram-bucket";

/// Bucket sealing: encrypt-then-MAC with a per-write nonce counter.
pub struct BucketSealer {
    key: [u8; 32],
    counter: u64,
}

impl BucketSealer {
    /// Create a sealer under `key`.
    pub fn new(key: [u8; 32]) -> Self {
        Self { key, counter: 0 }
    }

    /// A zeroed frame for a `len`-byte bucket, stamped with the next
    /// nonce. The caller writes the plaintext into
    /// [`body_mut`](Self::body_mut).
    pub fn frame(&mut self, len: usize) -> Vec<u8> {
        self.counter += 1;
        let mut frame = vec![0u8; BUCKET_HEADER + len];
        frame[..8].copy_from_slice(&self.counter.to_le_bytes());
        frame
    }

    /// Seal frames from [`frame`](Self::frame) in place, as one batch.
    pub fn seal_all(&self, frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        batch::run(self.key, seal_frame, frames).0
    }

    /// Open sealed buckets in place, as one batch. Each opened bucket's
    /// plaintext is its [`body`](Self::body); empty (never-written)
    /// buckets stay empty. Also returns the index of the first bucket that
    /// failed authentication.
    pub fn open_all(&self, sealed: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, Option<usize>) {
        batch::run(self.key, open_frame, sealed)
    }

    /// The plaintext of an opened bucket; empty for a never-written one.
    pub fn body(bucket: &[u8]) -> &[u8] {
        bucket.get(BUCKET_HEADER..).unwrap_or_default()
    }

    /// The plaintext area of a frame.
    pub fn body_mut(frame: &mut [u8]) -> &mut [u8] {
        &mut frame[BUCKET_HEADER..]
    }
}

fn seal_frame(key: &[u8; 32], frame: &mut [u8]) -> bool {
    let (header, body) = frame.split_at_mut(BUCKET_HEADER);
    let (nonce, tag) = header.split_at_mut(NONCE_LEN);
    let nonce: &[u8; NONCE_LEN] = (&*nonce).try_into().expect("nonce length");
    tag.copy_from_slice(&aead::seal(key, nonce, BUCKET_AAD, body));
    true
}

fn open_frame(key: &[u8; 32], sealed: &mut [u8]) -> bool {
    if sealed.is_empty() {
        return true;
    }
    let Some((header, body)) = sealed.split_first_chunk_mut::<BUCKET_HEADER>() else {
        return false;
    };
    let (nonce, tag) = header.split_at(NONCE_LEN);
    let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("nonce length");
    let tag: &[u8; TAG_LEN] = tag.try_into().expect("tag length");
    aead::open(key, nonce, BUCKET_AAD, body, tag).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_logs_accesses() {
        let mut storage = MemStorage::new(4);
        storage.write(2, vec![1, 2, 3]);
        assert_eq!(storage.read(2), vec![1, 2, 3]);
        assert_eq!(storage.read(0), Vec::<u8>::new());
        assert_eq!(storage.log, vec![(2, true), (2, false), (0, false)]);
    }

    #[test]
    fn sealer_roundtrip() {
        let mut sealer = BucketSealer::new([7; 32]);
        let mut frame = sealer.frame(3);
        BucketSealer::body_mut(&mut frame).copy_from_slice(&[9, 9, 9]);
        let sealed = sealer.seal_all(vec![frame]);
        let (opened, failed) = sealer.open_all(sealed);
        assert_eq!(failed, None);
        assert_eq!(BucketSealer::body(&opened[0]), [9, 9, 9]);
    }

    #[test]
    fn sealer_detects_tamper() {
        let mut sealer = BucketSealer::new([7; 32]);
        let frames = vec![sealer.frame(3), sealer.frame(3), sealer.frame(3)];
        let mut sealed = sealer.seal_all(frames);
        let last = sealed[1].len() - 1;
        sealed[1][last] ^= 1;
        sealed[2].truncate(BUCKET_HEADER - 1);
        assert_eq!(sealer.open_all(sealed).1, Some(1));
        assert_eq!(sealer.open_all(vec![Vec::new()]).1, None, "never written");
    }

    #[test]
    fn reencryption_changes_ciphertext() {
        let mut sealer = BucketSealer::new([7; 32]);
        let frames = vec![sealer.frame(3), sealer.frame(3)];
        let sealed = sealer.seal_all(frames);
        assert_ne!(sealed[0], sealed[1], "fresh nonce per write");
    }

    #[test]
    fn sealed_frame_matches_one_shot_aead() {
        let mut sealer = BucketSealer::new([7; 32]);
        let plaintext = [5u8; 4096];
        let mut frames = Vec::new();
        for _ in 0..3 {
            let mut frame = sealer.frame(plaintext.len());
            BucketSealer::body_mut(&mut frame).copy_from_slice(&plaintext);
            frames.push(frame);
        }
        for (n, sealed) in (1u64..).zip(sealer.seal_all(frames)) {
            let mut nonce = [0u8; NONCE_LEN];
            nonce[..8].copy_from_slice(&n.to_le_bytes());
            let want = aead::seal_framed(&[7; 32], &nonce, BUCKET_AAD, &nonce, &plaintext);
            assert_eq!(sealed, want, "bucket sealed with nonce {n}");
        }
    }
}
