//! Lock-order-enforcing synchronization primitives.
//!
//! The engine's concurrency invariant is a total order over its locks (the
//! ranks in [`ranks`], mirrored by the checked-in `lock_order.json` spec that
//! `lsm-lint` derives statically): a thread may only acquire a lock whose
//! rank is *strictly greater* than every rank it already holds. Acquiring in
//! increasing rank order on every thread makes lock-cycle deadlocks
//! impossible.
//!
//! [`OrderedMutex`] / [`OrderedRwLock`] wrap the `parking_lot` primitives and
//! enforce the invariant at runtime in debug and test builds via a
//! thread-local held-set; a violation panics naming both locks and the
//! expected ordering. In release builds the tracking compiles away and the
//! wrappers are plain `parking_lot` locks (one extra `LockRank` word per lock
//! instance, zero per-acquisition cost).
//!
//! Re-acquiring a rank already held by the same thread also panics — the
//! engine's locks are not reentrant, and a same-rank `RwLock::read` recursion
//! can still deadlock against a queued writer.
//!
//! With the `loom` feature the `parking_lot` backing is swapped for the
//! vendored `loom` model checker so `loom::model` can exhaustively explore
//! interleavings of code built on these primitives (the group-commit
//! driver's models in `lsm-core`, and the models in `tests/`). The rank
//! checks stay active under loom — the model threads are real threads, so
//! the thread-local held-set works unchanged. The only API difference: constructors are not `const`
//! under loom (each lock needs a runtime-allocated model identity).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

#[cfg(feature = "loom")]
use loom::sync as sync_impl;
#[cfg(not(feature = "loom"))]
use parking_lot as sync_impl;

pub use sync_impl::WaitTimeoutResult;

pub mod ranks;

pub mod atomic {
    //! Atomics that swap with the lock-free layer's model checker.
    //!
    //! Code (and loom models) that uses `lsm_sync::atomic::{AtomicU64, ..}`
    //! compiles against `std::sync::atomic` normally and against the
    //! vendored loom's store-buffer-modeled atomics under the `loom`
    //! feature, the same way the lock wrappers swap their backing. Only
    //! the types the engine's lock-free structures use are re-exported.

    #[cfg(feature = "loom")]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(feature = "loom"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// A named position in the workspace lock hierarchy (see [`ranks`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockRank {
    name: &'static str,
    order: u32,
}

impl LockRank {
    /// Creates a rank. `order` is the position in the acquisition order:
    /// lower-ranked locks must be taken before higher-ranked ones.
    pub const fn new(name: &'static str, order: u32) -> Self {
        Self { name, order }
    }

    /// The lock's name as it appears in panics and `lock_order.json`.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's position in the acquisition order.
    pub const fn order(&self) -> u32 {
        self.order
    }
}

/// Debug-build thread-local held-set. Each entry is the rank of a lock the
/// current thread holds; acquisition asserts the new rank is strictly above
/// all of them. Threads hold at most a handful of locks, so a linear scan
/// over a small `Vec` beats any fancier structure.
#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(worst) = held.iter().max_by_key(|r| r.order()) {
                // A panic here is the contract: this module is the debug-mode
                // deadlock detector, and unwinding at the violating
                // acquisition site is exactly the diagnostic we want.
                assert!(
                    worst.order() < rank.order(),
                    "lock-order violation: thread acquiring `{}` (rank {}) while holding `{}` \
                     (rank {}); locks must be acquired in strictly increasing rank order \
                     — see lsm-sync::ranks and lock_order.json",
                    rank.name(),
                    rank.order(),
                    worst.name(),
                    worst.order(),
                );
            }
            held.push(rank);
        });
    }

    pub(super) fn release(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|r| r == &rank) {
                held.remove(pos);
            }
        });
    }
}

#[cfg(not(debug_assertions))]
mod held {
    use super::LockRank;
    #[inline(always)]
    pub(super) fn acquire(_rank: LockRank) {}
    #[inline(always)]
    pub(super) fn release(_rank: LockRank) {}
}

/// A `parking_lot::Mutex` that participates in the workspace lock hierarchy.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: sync_impl::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex at the given rank.
    #[cfg(not(feature = "loom"))]
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: sync_impl::Mutex::new(value),
        }
    }

    /// Creates a mutex at the given rank (non-`const` under loom: the
    /// model checker assigns each lock a runtime identity).
    #[cfg(feature = "loom")]
    pub fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: sync_impl::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// The rank this mutex was constructed with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the mutex, asserting (debug builds) that its rank is above
    /// every rank the current thread already holds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        held::acquire(self.rank);
        OrderedMutexGuard {
            rank: self.rank,
            inner: self.inner.lock(),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Guard for [`OrderedMutex`]; releases the held-set entry on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    rank: LockRank,
    inner: sync_impl::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        held::release(self.rank);
    }
}

/// A `parking_lot::RwLock` that participates in the workspace lock hierarchy.
///
/// Read and write acquisitions are tracked identically: even a shared read
/// below an already-held rank can deadlock (reader queued behind a writer
/// that is queued behind this thread), so the rank rule makes no distinction.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: sync_impl::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates an rwlock at the given rank.
    #[cfg(not(feature = "loom"))]
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: sync_impl::RwLock::new(value),
        }
    }

    /// Creates an rwlock at the given rank (non-`const` under loom: the
    /// model checker assigns each lock a runtime identity).
    #[cfg(feature = "loom")]
    pub fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: sync_impl::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// The rank this rwlock was constructed with.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires shared access, asserting the rank order (debug builds).
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        held::acquire(self.rank);
        OrderedRwLockReadGuard {
            rank: self.rank,
            inner: self.inner.read(),
        }
    }

    /// Acquires exclusive access, asserting the rank order (debug builds).
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        held::acquire(self.rank);
        OrderedRwLockWriteGuard {
            rank: self.rank,
            inner: self.inner.write(),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    rank: LockRank,
    inner: sync_impl::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        held::release(self.rank);
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    rank: LockRank,
    inner: sync_impl::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        held::release(self.rank);
    }
}

/// A condition variable paired with [`OrderedMutex`].
///
/// While a thread is parked in [`wait`](Self::wait) /
/// [`wait_for`](Self::wait_for) the mutex's rank stays in its held-set even
/// though the lock itself is released for the duration: the thread cannot
/// acquire anything while parked, and on wakeup it holds the mutex again, so
/// the conservative bookkeeping is both simple and sound.
#[derive(Default)]
pub struct Condvar {
    inner: sync_impl::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    #[cfg(not(feature = "loom"))]
    pub const fn new() -> Self {
        Self {
            inner: sync_impl::Condvar::new(),
        }
    }

    /// Creates a condition variable (non-`const` under loom: the model
    /// checker assigns each condvar a runtime identity).
    #[cfg(feature = "loom")]
    pub fn new() -> Self {
        Self {
            inner: sync_impl::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing the guard's mutex.
    pub fn wait<T>(&self, guard: &mut OrderedMutexGuard<'_, T>) {
        self.inner.wait(&mut guard.inner);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.inner.wait_for(&mut guard.inner, timeout)
    }

    /// Wakes one parked thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all parked threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// Under the loom feature the primitives only function inside
// `loom::model` (the model scheduler owns every thread), so the plain
// unit tests are built against the parking_lot backing only; the loom
// configuration is covered by the loom models.
#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    const LOW: LockRank = LockRank::new("test.low", 10);
    const HIGH: LockRank = LockRank::new("test.high", 20);

    #[test]
    fn increasing_order_is_allowed() {
        let a = OrderedMutex::new(LOW, 1u32);
        let b = OrderedRwLock::new(HIGH, 2u32);
        let ga = a.lock();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn reacquire_after_drop_is_allowed() {
        let a = OrderedMutex::new(LOW, 1u32);
        let b = OrderedMutex::new(HIGH, 2u32);
        drop(b.lock());
        // HIGH was released, so LOW is fine now.
        let ga = a.lock();
        assert_eq!(*ga, 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checks are debug-only")]
    #[should_panic(expected = "lock-order violation")]
    fn decreasing_order_panics() {
        let a = OrderedMutex::new(LOW, 1u32);
        let b = OrderedMutex::new(HIGH, 2u32);
        let _gb = b.lock();
        let _ga = a.lock(); // rank 10 under rank 20: must panic
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank checks are debug-only")]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_nesting_panics() {
        let a = OrderedRwLock::new(LOW, 1u32);
        let b = OrderedRwLock::new(LOW, 2u32);
        let _ga = a.read();
        let _gb = b.read(); // equal rank: not strictly increasing
    }

    #[test]
    fn rwlock_write_guard_is_tracked() {
        let a = OrderedRwLock::new(LOW, 0u32);
        let b = OrderedMutex::new(HIGH, ());
        {
            let mut ga = a.write();
            *ga += 1;
            let _gb = b.lock();
        }
        // Both released; any order is fine again.
        let _gb = b.lock();
        drop(_gb);
        let _ga = a.read();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = OrderedMutex::new(LOW, false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn registry_is_strictly_ordered_and_unique() {
        let mut seen_orders = std::collections::BTreeSet::new();
        let mut seen_names = std::collections::BTreeSet::new();
        for (const_name, rank) in ranks::REGISTRY {
            assert!(
                seen_orders.insert(rank.order()),
                "duplicate order {} ({})",
                rank.order(),
                const_name
            );
            assert!(
                seen_names.insert(rank.name()),
                "duplicate lock name {}",
                rank.name()
            );
        }
        assert!(!ranks::REGISTRY.is_empty());
    }
}
