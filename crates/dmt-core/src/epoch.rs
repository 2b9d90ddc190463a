//! Epoch-published read snapshots: lock-free-for-practical-purposes serving
//! of a value that is concurrently being rebuilt by a single writer.
//!
//! The serving plane (`dmt-serve`) must answer predictions from a tree that
//! is *simultaneously learning*. Taking the writer's lock per prediction
//! would couple predict tail latency to `learn_batch` duration; instead the
//! writer periodically **publishes** an immutable snapshot and readers
//! **pin** whichever snapshot is current. The registry publishes a
//! [`PredictView`](crate::PredictView) of its
//! [`DynamicModelTree`](crate::DynamicModelTree): the arena's split columns
//! plus one clone of every leaf model, one allocation per leaf beside the
//! seven columns. The inner models, loss windows and candidate pools stay
//! with the writer, because only learning reads them. The cell itself is
//! generic over what it publishes.
//!
//! ```text
//!  writer thread                         reader threads
//!  ─────────────                         ──────────────
//!  learn_batch(&mut tree)                pin()  ── Arc clone ──▶ epoch N
//!  tree.predict_view()  (leaf models)    predict(&epoch)        (no locks)
//!  publish(view)        (O(1) swap)      pin()  ───────────────▶ epoch N+1
//! ```
//!
//! The only shared state is one `RwLock<Arc<Epoch<T>>>` held for the
//! duration of an `Arc` clone (readers) or an `Arc` swap (writer) — both
//! O(1) pointer operations, never while learning, predicting or freeing the
//! superseded epoch. A reader
//! therefore observes either the epoch before a publish or the epoch after
//! it, never a torn intermediate: every prediction is attributable to
//! exactly one published epoch (`integration_serve` pins this bit-exactly).
//!
//! Reclamation is reference-counted: an epoch's memory is freed when the
//! last pin *and* the cell's current pointer have released it, so a reader
//! holding epoch N can keep predicting from it unperturbed while the writer
//! publishes N+1, N+2, … ([`EpochCell::live_epochs`] exposes the count so
//! tests can assert that superseded epochs are reclaimed and pinned ones are
//! not).

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::lockrank::{LockRank, RankToken};

/// Debug-build ceiling on [`EpochCell::live_epochs`]: the serving plane
/// retains the current epoch plus one per in-flight pin, so a live count
/// beyond this bound means pins are being leaked (held across batches or
/// parked in a collection) rather than dropped after each prediction.
/// [`EpochCell::publish`] asserts against it under `cfg(debug_assertions)`;
/// release builds carry no check.
pub const EPOCH_LEAK_HIGH_WATER: usize = 256;

/// One published snapshot: an immutable value tagged with the sequence
/// number the writer published it under.
///
/// Dereferences to the wrapped value. Epochs are handed out pinned inside an
/// [`Arc`] (see [`EpochCell::pin`]); the value is dropped when the last pin
/// releases it.
#[derive(Debug)]
pub struct Epoch<T> {
    seq: u64,
    value: T,
    /// Shared live-epoch counter of the owning cell, decremented on drop so
    /// the cell can report how many snapshots are still resident.
    live: Arc<AtomicUsize>,
}

impl<T> Epoch<T> {
    /// The sequence number this snapshot was published under (0 = the value
    /// the cell was created with; each publish increments it by one).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The snapshot value (also available through `Deref`).
    pub fn value(&self) -> &T {
        &self.value
    }
}

impl<T> Deref for Epoch<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> Drop for Epoch<T> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A pinned epoch: an [`Arc`] keeping one published snapshot alive for as
/// long as the reader holds it, regardless of how many newer epochs the
/// writer publishes in the meantime.
pub type PinnedEpoch<T> = Arc<Epoch<T>>;

/// The publication point between one writer and many readers (see the
/// [module docs](self)).
///
/// All methods take `&self`; the cell is `Sync` when `T: Send + Sync` and is
/// usually shared as an `Arc<EpochCell<T>>` between the writer thread and
/// the serving threads.
#[derive(Debug)]
pub struct EpochCell<T> {
    /// The current epoch. The lock is held only for an `Arc` clone (readers)
    /// or an `Arc` swap (the writer) — never across learning, predicting,
    /// the snapshot clone, or freeing the superseded epoch.
    current: RwLock<PinnedEpoch<T>>,
    /// Sequence number of the current epoch, readable without the lock.
    seq: AtomicU64,
    /// Snapshots created minus snapshots dropped — current + pinned.
    live: Arc<AtomicUsize>,
}

impl<T> EpochCell<T> {
    /// Create a cell whose epoch 0 is `initial`.
    pub fn new(initial: T) -> Self {
        let live = Arc::new(AtomicUsize::new(1));
        Self {
            current: RwLock::new(Arc::new(Epoch {
                seq: 0,
                value: initial,
                live: Arc::clone(&live),
            })),
            seq: AtomicU64::new(0),
            live,
        }
    }

    /// Pin the current epoch: an O(1) `Arc` clone under a read lock. The
    /// returned snapshot stays valid (and bit-identical) for as long as the
    /// pin is held, no matter what the writer publishes afterwards.
    ///
    /// Lock poisoning cannot occur in practice — no code runs inside the
    /// critical section but the `Arc` operations — but a poisoned lock is
    /// still served (the pointer is always valid) rather than panicking.
    pub fn pin(&self) -> PinnedEpoch<T> {
        let _rank = RankToken::acquire(LockRank::EpochCell);
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Publish `value` as the next epoch and return its sequence number.
    ///
    /// The single-writer discipline is the caller's (the registry serialises
    /// publishes through the tenant's writer lock); concurrent publishes are
    /// still memory-safe, they just interleave their sequence numbers.
    pub fn publish(&self, value: T) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        // Leak detector (debug builds): a healthy cell holds the current
        // epoch plus one per in-flight pin; a count past the high-water mark
        // means readers are leaking pins, and the test that drove it here
        // should fail loudly instead of the process growing without bound.
        #[cfg(debug_assertions)]
        assert!(
            live <= EPOCH_LEAK_HIGH_WATER,
            "epoch leak: {live} live epochs exceed the high-water mark of \
             {EPOCH_LEAK_HIGH_WATER} — pins are being retained across publishes"
        );
        #[cfg(not(debug_assertions))]
        let _ = live;
        let epoch = Arc::new(Epoch {
            seq,
            value,
            live: Arc::clone(&self.live),
        });
        let superseded = {
            let _rank = RankToken::acquire(LockRank::EpochCell);
            let mut guard = match self.current.write() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::replace(&mut *guard, epoch)
        };
        // When no reader pins the superseded epoch, freeing its value runs
        // here, after the unlock, so no `pin()` waits on it.
        drop(superseded);
        seq
    }

    /// Sequence number of the current epoch (0 until the first publish).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Number of epochs still resident: the current one plus every
    /// superseded epoch some reader still pins. A quiescent cell (no
    /// outstanding pins) always reports 1 — superseded epochs are reclaimed
    /// as their last pin drops, and the current epoch is never reclaimed.
    pub fn live_epochs(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn pin_sees_the_latest_publish() {
        let cell = EpochCell::new(10usize);
        assert_eq!(cell.pin().seq(), 0);
        assert_eq!(*cell.pin().value(), 10);
        let seq = cell.publish(11);
        assert_eq!(seq, 1);
        assert_eq!(cell.current_seq(), 1);
        let pinned = cell.pin();
        assert_eq!((pinned.seq(), **pinned), (1, 11));
    }

    #[test]
    fn pinned_epochs_survive_later_publishes_and_are_reclaimed_on_release() {
        let cell = EpochCell::new(0usize);
        let old = cell.pin();
        for i in 1..=100usize {
            cell.publish(i);
        }
        // The pin still reads epoch 0's value bit-exactly.
        assert_eq!((old.seq(), **old), (0, 0));
        // Exactly two epochs are resident: the pinned one and the current
        // one — the 99 superseded, unpinned epochs were reclaimed eagerly.
        assert_eq!(cell.live_epochs(), 2);
        drop(old);
        assert_eq!(cell.live_epochs(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "epoch leak")]
    fn leaked_pins_trip_the_high_water_detector() {
        let cell = EpochCell::new(0usize);
        // A pathological reader parks every pin instead of dropping it; the
        // publish that pushes the live count past the bound must panic.
        let mut leaked = Vec::new();
        for i in 1..=(EPOCH_LEAK_HIGH_WATER + 1) {
            leaked.push(cell.pin());
            cell.publish(i);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn epoch_publish_frees_the_superseded_value_outside_the_lock() {
        // A value whose drop takes the cell's own rank: freed while publish
        // still held the lock, it would trip the lock-rank checker.
        struct RankedDrop(Arc<AtomicUsize>);
        impl Drop for RankedDrop {
            fn drop(&mut self) {
                let _rank = RankToken::acquire(LockRank::EpochCell);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let freed = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::new(RankedDrop(Arc::clone(&freed)));
        for _ in 0..3 {
            cell.publish(RankedDrop(Arc::clone(&freed)));
        }
        // Each publish freed the value it superseded, none of them pinned.
        assert_eq!(freed.load(Ordering::Relaxed), 3);
        assert_eq!(cell.live_epochs(), 1);
    }

    #[test]
    fn bounded_pins_stay_under_the_high_water_mark() {
        // The detector must NOT fire for the intended usage: pins dropped
        // promptly, far more publishes than the bound.
        let cell = EpochCell::new(0usize);
        for i in 1..=(2 * EPOCH_LEAK_HIGH_WATER) {
            let pin = cell.pin();
            assert_eq!(**pin, i - 1);
            cell.publish(i);
        }
        assert_eq!(cell.live_epochs(), 1);
    }

    #[test]
    fn concurrent_readers_always_observe_a_published_pair() {
        // The epoch value is a (seq, seq * 3) pair; a torn read would show a
        // mismatched pair. Readers hammer pin() while the writer publishes.
        let cell = Arc::new(EpochCell::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    // At least one pin even if the writer finishes before
                    // this thread is first scheduled (single-core machines).
                    let mut pins = 0u64;
                    loop {
                        let epoch = cell.pin();
                        let (a, b) = **epoch;
                        assert_eq!(a, epoch.seq());
                        assert_eq!(b, a * 3);
                        pins += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    pins
                })
            })
            .collect();
        for i in 1..=500u64 {
            cell.publish((i, i * 3));
        }
        stop.store(true, Ordering::Relaxed);
        for handle in readers {
            assert!(handle.join().expect("reader panicked") > 0);
        }
        assert_eq!(cell.current_seq(), 500);
        assert_eq!(cell.live_epochs(), 1);
    }
}
