//! Lock-rank discipline: a `cfg(debug_assertions)` runtime checker that
//! turns latent lock-order inversions into immediate, deterministic panics.
//!
//! The workspace has exactly four ordered locks on the serving plane, and
//! every thread must acquire them in **strictly increasing rank order**:
//!
//! | rank | lock                | lives in                         |
//! |------|---------------------|----------------------------------|
//! | 1    | `RegistryMap`       | `dmt::registry` shard `RwLock`s  |
//! | 2    | `TenantWriter`      | `dmt::registry` tenant `Mutex`   |
//! | 3    | `PoolJobSlot`       | `dmt_core::parallel` pool state  |
//! | 4    | `EpochCell`         | `dmt_core::epoch` current-epoch  |
//!
//! A deadlock needs a cycle; a global acquisition order makes cycles
//! impossible. The checker enforces the order *empirically*: each lock site
//! acquires a [`RankToken`] **before** blocking on the lock, the token
//! records the rank in a thread-local stack, and acquiring a rank not
//! strictly above every held rank asserts (debug builds only — in release
//! the token is a zero-sized no-op and the whole module compiles away).
//! Any test that exercises an inverted path therefore fails loudly on the
//! exact acquisition site, instead of the suite hanging once in a thousand
//! runs on a real interleave.
//!
//! [`Ranked`] packages a token with a lock guard for functions that *return*
//! guards (the registry's shard and writer accessors), dereferencing
//! transparently to the guarded value so call sites read unchanged.

use std::ops::{Deref, DerefMut};

/// The workspace lock order (see the [module docs](self)). Declaration
/// order is rank order; `derive(PartialOrd)` relies on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// A registry tenant-map shard (`dmt::registry`).
    RegistryMap = 1,
    /// A tenant's writer mutex (`dmt::registry`).
    TenantWriter = 2,
    /// The worker pool's job-slot state mutex (`dmt_core::parallel`).
    PoolJobSlot = 3,
    /// An epoch cell's current-snapshot lock (`dmt_core::epoch`).
    EpochCell = 4,
}

impl LockRank {
    /// Human-readable statement of the full order, for diagnostics.
    pub const ORDER: &'static str =
        "RegistryMap(1) -> TenantWriter(2) -> PoolJobSlot(3) -> EpochCell(4)";

    /// Numeric rank for the debug-build checker's message, its only caller.
    #[cfg(debug_assertions)]
    fn as_u8(self) -> u8 {
        self as u8
    }
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks this thread currently holds tokens for. Pushes are checked
        /// strictly increasing; out-of-order drops are allowed (guards may
        /// be released in any order), so removal is by value, not pop.
        pub(super) static STACK: RefCell<Vec<super::LockRank>> = const { RefCell::new(Vec::new()) };
    }
}

/// RAII witness that the current thread may acquire a lock of a given rank.
///
/// Acquire the token **before** blocking on the lock it covers (the check
/// must fire even on acquisitions that would deadlock), keep it alive
/// exactly as long as the guard, and let it drop with the guard. In release
/// builds this is a zero-sized type with no `Drop` — no thread-local, no
/// branch, nothing.
#[must_use = "a RankToken must live as long as the lock guard it covers"]
pub struct RankToken {
    #[cfg(debug_assertions)]
    rank: LockRank,
}

impl RankToken {
    /// Record the intent to acquire a lock of `rank`.
    ///
    /// Debug builds assert that `rank` is strictly above every rank this
    /// thread already holds — equal ranks are rejected too (the workspace
    /// never nests two locks of one rank on a thread; allowing it would
    /// permit shard/shard deadlocks the order cannot break).
    #[inline]
    pub fn acquire(rank: LockRank) -> Self {
        #[cfg(debug_assertions)]
        {
            held::STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(&worst) = stack.iter().max() {
                    assert!(
                        worst < rank,
                        "lock rank inversion: acquiring {rank:?} (rank {}) while \
                         holding {worst:?} (rank {}); locks must be taken in \
                         strictly increasing order: {}",
                        rank.as_u8(),
                        worst.as_u8(),
                        LockRank::ORDER,
                    );
                }
                stack.push(rank);
            });
            RankToken { rank }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = rank;
            RankToken {}
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for RankToken {
    fn drop(&mut self) {
        held::STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&r| r == self.rank) {
                stack.remove(pos);
            }
        });
    }
}

/// A lock guard bundled with the [`RankToken`] that covered its acquisition,
/// for accessors that return guards to their callers.
///
/// Dereferences to the guarded value (not to the guard), so replacing a
/// `MutexGuard<'_, T>` return type with `Ranked<MutexGuard<'_, T>>` leaves
/// every call site compiling unchanged. Field order matters: the guard drops
/// (releasing the lock) before the token pops its rank.
pub struct Ranked<G> {
    guard: G,
    _token: RankToken,
}

impl<G> Ranked<G> {
    /// Bundle `guard` with the `token` acquired before blocking on its lock.
    pub fn new(token: RankToken, guard: G) -> Self {
        Self {
            guard,
            _token: token,
        }
    }
}

impl<G: Deref> Deref for Ranked<G> {
    type Target = G::Target;

    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Ranked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_acquisition_is_clean() {
        let a = RankToken::acquire(LockRank::RegistryMap);
        let b = RankToken::acquire(LockRank::TenantWriter);
        let c = RankToken::acquire(LockRank::PoolJobSlot);
        let d = RankToken::acquire(LockRank::EpochCell);
        drop((a, b, c, d));
    }

    #[test]
    fn skipping_ranks_is_fine() {
        let a = RankToken::acquire(LockRank::TenantWriter);
        let b = RankToken::acquire(LockRank::EpochCell);
        drop((a, b));
    }

    #[test]
    fn release_resets_the_thread() {
        // Sequential (non-nested) acquisitions at any ranks are legal.
        drop(RankToken::acquire(LockRank::EpochCell));
        drop(RankToken::acquire(LockRank::RegistryMap));
        drop(RankToken::acquire(LockRank::EpochCell));
    }

    #[test]
    fn out_of_order_drops_are_tolerated() {
        let a = RankToken::acquire(LockRank::RegistryMap);
        let b = RankToken::acquire(LockRank::TenantWriter);
        drop(a); // dropped before b — removal is by value, not stack pop
        let c = RankToken::acquire(LockRank::PoolJobSlot);
        drop((b, c));
        drop(RankToken::acquire(LockRank::RegistryMap));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn inverted_acquisition_panics_in_debug() {
        let _epoch = RankToken::acquire(LockRank::EpochCell);
        let _writer = RankToken::acquire(LockRank::TenantWriter);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank inversion")]
    fn same_rank_reacquisition_panics_in_debug() {
        let _a = RankToken::acquire(LockRank::RegistryMap);
        let _b = RankToken::acquire(LockRank::RegistryMap);
    }

    #[test]
    fn ranked_guard_derefs_to_the_guarded_value() {
        let mutex = std::sync::Mutex::new(41usize);
        let token = RankToken::acquire(LockRank::TenantWriter);
        let guard = match mutex.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut ranked = Ranked::new(token, guard);
        *ranked += 1;
        assert_eq!(*ranked, 42);
        drop(ranked);
        // The rank is released with the guard.
        drop(RankToken::acquire(LockRank::RegistryMap));
    }
}
