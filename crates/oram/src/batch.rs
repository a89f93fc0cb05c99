//! One ORAM path's bucket crypto, shared between the calling thread and
//! parked helper threads.
//!
//! A PathORAM access opens every bucket on one root-to-leaf path and then
//! re-seals every bucket on it. The buckets are independent of each other,
//! so [`run`] treats a path as one batch: the caller and up to
//! `available_parallelism − 1` long-lived helpers claim its items through
//! a shared cursor, and the caller gets the buffers back in their original
//! order. Only a key, a work function and owned buffers cross threads; the
//! nonces are already in the buffers, so the output does not depend on
//! which thread ran which item.
//!
//! * Helpers start on the first batch worth sharing and then park on a
//!   [`Condvar`] between batches. On one CPU there are none, and the
//!   caller runs every item in the same claim loop.
//! * A batch is shared only if at least two of its buffers are a page or
//!   larger; tiny-block ORAMs stay on the caller.
//! * Helpers are sized for one caller. While a second thread is inside
//!   [`run`] the CPUs are already busy, so neither caller shares, and at
//!   most one batch is shared at a time.
//! * A shared batch wakes at most one helper per item beyond the first,
//!   since the caller works too.
//! * Helpers never allocate, and free nothing of a batch: they work in
//!   place on the caller's buffers, and the caller holds the last
//!   reference to every batch.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Work on one buffer under a key; `false` reports a failed item.
pub(crate) type Work = fn(&[u8; 32], &mut [u8]) -> bool;

/// Smallest buffer worth a helper's wake-up: one page. On a 2-vCPU Xeon,
/// sharing every batch made a 288-byte-bucket ORAM take 27–30 µs per
/// access instead of 18–24 µs inline; 2 KiB buckets about broke even.
const HANDOFF_BYTES: usize = 4096;

/// Run `work` on every buffer, sharing the batch with the helpers when it
/// is large enough and no other caller is running one. Returns the
/// buffers in order and the index of the first one whose work failed.
pub(crate) fn run(key: [u8; 32], work: Work, bufs: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, Option<usize>) {
    let caller = Caller::enter();
    let large = bufs.iter().filter(|b| b.len() >= HANDOFF_BYTES).count();
    let wake = if caller.alone && large >= 2 {
        helpers().min(bufs.len() - 1)
    } else {
        0
    };
    run_waking(key, work, bufs, wake)
}

/// [`run`], sharing the batch with `wake` helpers if that is nonzero.
fn run_waking(
    key: [u8; 32],
    work: Work,
    bufs: Vec<Vec<u8>>,
    wake: usize,
) -> (Vec<Vec<u8>>, Option<usize>) {
    let batch = Arc::new(Batch {
        key,
        work,
        next: AtomicUsize::new(0),
        items: bufs
            .into_iter()
            .map(|buf| Mutex::new(Item { buf, ok: false }))
            .collect(),
    });
    if wake > 0 {
        POOL.post(&batch, wake);
    }
    batch.drain();
    if wake > 0 {
        POOL.retire(&batch);
    }
    let batch = Arc::into_inner(batch).expect("helpers let go of the batch");
    let mut failed = None;
    let bufs = batch
        .items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let item = item
                .into_inner()
                .expect("bucket crypto panicked on a helper");
            if !item.ok && failed.is_none() {
                failed = Some(i);
            }
            item.buf
        })
        .collect();
    (bufs, failed)
}

/// Threads inside [`run`].
static CALLERS: AtomicUsize = AtomicUsize::new(0);

/// One thread inside [`run`], counted in [`CALLERS`] until dropped.
struct Caller {
    /// No other thread was inside [`run`] on entry. The count's
    /// acquire/release pairs order a caller's `post` after the previous
    /// sharing caller's `retire`.
    alone: bool,
}

impl Caller {
    fn enter() -> Self {
        Self {
            alone: CALLERS.fetch_add(1, Ordering::Acquire) == 0,
        }
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        CALLERS.fetch_sub(1, Ordering::Release);
    }
}

struct Item {
    buf: Vec<u8>,
    ok: bool,
}

struct Batch {
    key: [u8; 32],
    work: Work,
    /// The next unclaimed item. It only hands out indices, so `Relaxed`
    /// suffices: each item's buffer is published through its own lock.
    next: AtomicUsize,
    items: Vec<Mutex<Item>>,
}

impl Batch {
    /// Claim and run items until none is left.
    fn drain(&self) {
        while let Some(item) = self.items.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let mut item = item.lock().expect("item lock");
            let Item { buf, ok } = &mut *item;
            *ok = (self.work)(&self.key, buf);
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.items.len()
    }
}

/// The shared batch, if any, and the two wake-up signals.
struct Pool {
    /// The batch whose caller is still claiming items.
    open: Mutex<Option<Arc<Batch>>>,
    /// Signalled when a batch is posted.
    posted: Condvar,
    /// Signalled when a helper lets go of a batch.
    released: Condvar,
}

static POOL: Pool = Pool {
    open: Mutex::new(None),
    posted: Condvar::new(),
    released: Condvar::new(),
};

/// The number of helper threads, starting them on the first call.
/// Helpers live as long as the process and are never joined: `serve`
/// never returns, and it hands a panic in an item back to that item's
/// caller.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let wanted = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        (0..wanted)
            .filter(|_| {
                // Unnamed: std would allocate a copy of the name on the
                // new thread.
                thread::Builder::new().spawn(|| POOL.serve()).is_ok()
            })
            .count()
    })
}

impl Pool {
    /// Share `batch` and wake `wake` parked helpers. Through [`run`] no
    /// other batch is shared; one posted over another would only keep
    /// further helpers off the older one, which its caller still drains.
    fn post(&self, batch: &Arc<Batch>, wake: usize) {
        *self.open.lock().expect("pool lock") = Some(Arc::clone(batch));
        for _ in 0..wake {
            self.posted.notify_one();
        }
    }

    /// Withdraw the drained batch and wait until no helper holds it.
    fn retire(&self, batch: &Arc<Batch>) {
        let mut open = self.open.lock().expect("pool lock");
        *open = None;
        while Arc::strong_count(batch) > 1 {
            open = self.released.wait(open).expect("pool lock");
        }
    }

    /// A helper's life: help with the shared batch while it has unclaimed
    /// items, otherwise park.
    fn serve(&self) {
        let mut open = self.open.lock().expect("pool lock");
        loop {
            let Some(batch) = open.as_ref().filter(|b| !b.exhausted()).cloned() else {
                open = self.posted.wait(open).expect("pool lock");
                continue;
            };
            drop(open);
            // A panic poisons the item's lock, which the caller reports;
            // the helper itself stays up.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| batch.drain()));
            open = self.open.lock().expect("pool lock");
            // Let go under the lock that `retire` checks the count under.
            drop(batch);
            self.released.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR with the key; odd-length buffers fail.
    fn xor_key(key: &[u8; 32], buf: &mut [u8]) -> bool {
        for (i, b) in buf.iter_mut().enumerate() {
            *b ^= key[i % 32];
        }
        buf.len().is_multiple_of(2)
    }

    #[test]
    fn results_come_back_in_order_with_the_first_failure() {
        let lens = [1, 1, 0, 1, 0, 1].map(|odd| HANDOFF_BYTES + odd);
        let bufs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; lens[i as usize]]).collect();
        let key = [0x0F; 32];
        for wake in [0, helpers()] {
            let (out, failed) = run_waking(key, xor_key, bufs.clone(), wake);
            assert_eq!(failed, Some(0));
            for (i, buf) in out.iter().enumerate() {
                assert_eq!(buf.len(), lens[i]);
                assert!(buf.iter().all(|&b| b == i as u8 ^ 0x0F), "buffer {i}");
            }
            let rest: Vec<Vec<u8>> = out.into_iter().skip(2).collect();
            assert_eq!(run_waking(key, xor_key, rest, wake).1, Some(1));
        }
    }

    /// Even callers share every batch, so shared batches overlap; odd
    /// callers go through [`run`], which shares only when alone.
    #[test]
    fn more_callers_than_helpers_each_get_their_own_results() {
        let callers = helpers() + 3;
        let start = std::sync::Barrier::new(callers);
        thread::scope(|s| {
            for caller in 0..callers {
                let start = &start;
                s.spawn(move || {
                    let key = [caller as u8 + 1; 32];
                    start.wait();
                    for round in 0..50usize {
                        let bufs: Vec<Vec<u8>> = (0..7)
                            .map(|i| vec![(caller * 31 + round * 7 + i) as u8; 2 * HANDOFF_BYTES])
                            .collect();
                        let (out, failed) = if caller % 2 == 0 {
                            run_waking(key, xor_key, bufs.clone(), helpers())
                        } else {
                            run(key, xor_key, bufs.clone())
                        };
                        assert_eq!(failed, None);
                        for (got, sent) in out.iter().zip(&bufs) {
                            let want: Vec<u8> = sent.iter().map(|b| b ^ key[0]).collect();
                            assert_eq!(got, &want, "caller {caller} round {round}");
                        }
                    }
                });
            }
        });
    }
}
