//! The workspace's one keyed build-once cache.
//!
//! Every process-wide cache above this crate — lowered bytecode
//! programs, PARTI communication schedules, the daemon's compiled
//! programs — is the same shape: look a key up, build the value exactly
//! once however many threads race the cold key, share it as an `Arc`,
//! report hit or miss to the caller, and stay bounded. [`OnceMap`] is
//! that shape, written once:
//!
//! * **one map lock, held for one probe** — the build runs under a
//!   per-key slot lock, so same-key racers block on the slot and see a
//!   hit while builds of different keys proceed in parallel;
//! * **equality decides** — the map stores full keys; a hash only routes
//!   to a bucket, so colliding keys get distinct slots and values;
//! * **failed builds leave nothing behind** — a `build` that returns
//!   `Err` or panics retires its slot and removes the key, so errors are
//!   never cached, a panic surfaces once and the next caller retries;
//! * **bounded** — at capacity, inserting a new key evicts one arbitrary
//!   *finished* entry (a safety valve, not an LRU policy). A slot some
//!   thread is still building is never the victim, so the map can exceed
//!   its capacity only by the number of builds in flight.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Lock, recovering from poison: `build` is caller code running under a
/// slot lock, and a panic there must surface once — not cascade as
/// `PoisonError` panics in every other caller. Sound because every
/// update under either lock is a single assignment or map operation.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

enum State<V> {
    /// Not built yet; whoever holds the slot lock builds.
    Empty,
    Ready(Arc<V>),
    /// The build failed and the key left the map: waiters that were
    /// queued on this slot start over from the map.
    Retired,
}

struct Slot<V> {
    state: Mutex<State<V>>,
}

/// A concurrent, capacity-bounded `K → Arc<V>` map whose values are
/// built at most once per resident key. See the module docs.
pub struct OnceMap<K, V> {
    cap: usize,
    map: Mutex<HashMap<K, Arc<Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Retires the slot unless the build stored a value — on `Err` and on
/// unwind alike. Holds the slot lock for the whole build.
struct Building<'a, K: Eq + Hash, V> {
    owner: &'a OnceMap<K, V>,
    key: &'a K,
    slot: &'a Arc<Slot<V>>,
    state: MutexGuard<'a, State<V>>,
}

impl<K: Eq + Hash, V> Drop for Building<'_, K, V> {
    fn drop(&mut self) {
        if matches!(*self.state, State::Empty) {
            *self.state = State::Retired;
            // Slot → map is the only nested lock order; the map lock is
            // never held while *blocking* on a slot (eviction only
            // `try_lock`s, `len` snapshots first).
            let mut map = recover(&self.owner.map);
            if map.get(self.key).is_some_and(|s| Arc::ptr_eq(s, self.slot)) {
                map.remove(self.key);
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V> OnceMap<K, V> {
    /// Empty map holding at most `cap` finished entries.
    pub fn new(cap: usize) -> Self {
        OnceMap {
            cap,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The slot for `key`, inserting (and evicting at capacity) if new.
    fn slot(&self, key: &K) -> Arc<Slot<V>> {
        let mut map = recover(&self.map);
        if let Some(slot) = map.get(key) {
            return Arc::clone(slot);
        }
        let evicted = if map.len() >= self.cap {
            map.extract_if(|_, s| matches!(s.state.try_lock().as_deref(), Ok(State::Ready(_))))
                .next()
        } else {
            None
        };
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Empty),
        });
        map.insert(key.clone(), Arc::clone(&slot));
        // Freeing a whole evicted value must not stall every other key.
        drop(map);
        drop(evicted);
        slot
    }

    /// Look `key` up, building with `build` on a miss. Returns the shared
    /// value and whether this call was a hit. Concurrent callers of one
    /// key block until its single build finishes, then all share it; an
    /// `Err` (or panic) from `build` goes to its caller only and is not
    /// cached.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        loop {
            let slot = self.slot(key);
            let state = recover(&slot.state);
            match &*state {
                State::Ready(v) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(v), true));
                }
                State::Retired => continue,
                State::Empty => {}
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut building = Building {
                owner: self,
                key,
                slot: &slot,
                state,
            };
            let v = Arc::new(build()?);
            *building.state = State::Ready(Arc::clone(&v));
            return Ok((v, false));
        }
    }

    /// Lookups that found their value built.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran `build` (successfully or not).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of finished entries. Blocks on builds in flight.
    pub fn len(&self) -> usize {
        // Snapshot, then release the map lock before touching any slot:
        // one may be mid-build, and waiting on it under the map lock
        // would stall every other key.
        let slots: Vec<Arc<Slot<V>>> = recover(&self.map).values().cloned().collect();
        slots
            .iter()
            .filter(|s| matches!(*recover(&s.state), State::Ready(_)))
            .count()
    }

    /// `true` when no entry is finished.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry. Builds in flight finish for their callers but
    /// are not retained.
    pub fn clear(&self) {
        recover(&self.map).clear();
    }
}

impl<K, V> fmt::Debug for OnceMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnceMap")
            .field("cap", &self.cap)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish_non_exhaustive()
    }
}
