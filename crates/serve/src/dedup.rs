//! In-flight request dedup: concurrent identical jobs share one
//! execution.
//!
//! The group key is the full [`RunRequest`](crate::protocol::RunRequest)
//! (derived `Hash`/`Eq` over source, grid, machine and options — the
//! same identity the bytecode program cache derives its key from), so
//! two jobs batch iff they are structurally the same job. The first
//! request in becomes the **leader** and executes; everyone else
//! becomes a **joiner** and blocks on the group's slot until the leader
//! publishes the shared result. The leader's completion guard
//! publishes-on-drop (the fallback supplied at entry, which the server
//! makes a 500), so even a leader that panics mid-execution resolves
//! its group instead of stranding joiners.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight execution's rendezvous point.
#[derive(Debug)]
struct Slot<R> {
    result: Mutex<Option<R>>,
    done: Condvar,
}

/// What [`Inflight::enter`] hands back.
pub enum Entry<K: Eq + Hash + Clone, R: Clone> {
    /// This request leads: execute the job, then resolve the guard.
    Lead(Leader<K, R>),
    /// Another identical request was already executing; its result.
    Joined(R),
}

/// Map of in-flight executions keyed by job identity.
#[derive(Debug)]
pub struct Inflight<K: Eq + Hash + Clone, R: Clone> {
    slots: Mutex<HashMap<K, Arc<Slot<R>>>>,
}

impl<K: Eq + Hash + Clone, R: Clone> Default for Inflight<K, R> {
    fn default() -> Self {
        Inflight {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, R: Clone> Inflight<K, R> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the in-flight execution of `key`, or become its leader.
    /// Joiners block until the leader resolves. `fallback` is what the
    /// leader guard publishes if it is dropped without resolving.
    pub fn enter(self: &Arc<Self>, key: K, fallback: R) -> Entry<K, R> {
        let slot = {
            let mut slots = self.slots.lock().unwrap();
            match slots.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(Slot {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    slots.insert(key.clone(), Arc::clone(&slot));
                    return Entry::Lead(Leader {
                        map: Arc::clone(self),
                        key,
                        slot,
                        fallback: Some(fallback),
                    });
                }
            }
        };
        let mut result = slot.result.lock().unwrap();
        while result.is_none() {
            result = slot.done.wait(result).unwrap();
        }
        Entry::Joined(result.as_ref().unwrap().clone())
    }

    /// Number of distinct jobs currently executing.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests that joined an in-flight execution and wait for it, over
    /// every group: each holds the group's slot besides the map and the
    /// leader.
    pub fn joiners(&self) -> usize {
        let slots = self.slots.lock().unwrap();
        slots.values().map(|slot| Arc::strong_count(slot) - 2).sum()
    }
}

/// The leader's completion guard. [`Leader::resolve`] publishes the
/// result to every joiner; dropping without resolving publishes the
/// fallback supplied to [`Inflight::enter`] so joiners never hang
/// behind a panicked leader.
pub struct Leader<K: Eq + Hash + Clone, R: Clone> {
    map: Arc<Inflight<K, R>>,
    key: K,
    slot: Arc<Slot<R>>,
    fallback: Option<R>,
}

impl<K: Eq + Hash + Clone, R: Clone> Leader<K, R> {
    /// Publish `result` to every joiner and retire the group: requests
    /// arriving after this start a fresh execution (they will hit the
    /// warm caches instead).
    pub fn resolve(mut self, result: R) {
        self.fallback = None;
        self.publish(result);
    }

    fn publish(&self, result: R) {
        {
            let mut slots = self.map.slots.lock().unwrap();
            slots.remove(&self.key);
        }
        let mut r = self.slot.result.lock().unwrap();
        *r = Some(result);
        self.slot.done.notify_all();
    }
}

impl<K: Eq + Hash + Clone, R: Clone> Drop for Leader<K, R> {
    fn drop(&mut self) {
        if let Some(fallback) = self.fallback.take() {
            self.publish(fallback);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn joiners_share_one_execution() {
        let map: Arc<Inflight<String, u64>> = Arc::new(Inflight::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let joins = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let map = Arc::clone(&map);
                let executions = Arc::clone(&executions);
                let joins = Arc::clone(&joins);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match map.enter("job".to_string(), 0) {
                        Entry::Lead(leader) => {
                            executions.fetch_add(1, Ordering::SeqCst);
                            // Let joiners pile onto the slot.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            leader.resolve(42);
                            42
                        }
                        Entry::Joined(v) => {
                            joins.fetch_add(1, Ordering::SeqCst);
                            v
                        }
                    }
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|&v| v == 42));
        // Every thread that didn't lead joined an in-flight execution.
        assert_eq!(
            executions.load(Ordering::SeqCst) + joins.load(Ordering::SeqCst),
            8
        );
        assert!(executions.load(Ordering::SeqCst) >= 1);
        assert!(map.is_empty(), "groups retire after resolution");
    }

    #[test]
    fn dropped_leader_unblocks_joiners_with_fallback() {
        let map: Arc<Inflight<u32, u64>> = Arc::new(Inflight::new());
        let Entry::Lead(leader) = map.enter(7, 999) else {
            panic!("first in must lead")
        };
        let entering = Arc::new(AtomicUsize::new(0));
        let joiner = {
            let map = Arc::clone(&map);
            let entering = Arc::clone(&entering);
            std::thread::spawn(move || {
                entering.store(1, Ordering::SeqCst);
                match map.enter(7, 999) {
                    Entry::Joined(v) => v,
                    Entry::Lead(_) => panic!("second in must join"),
                }
            })
        };
        while entering.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Give the joiner time to reach the slot before the leader dies.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(leader); // simulated panic path
        assert_eq!(joiner.join().unwrap(), 999, "fallback published on drop");
        assert!(map.is_empty());
    }

    #[test]
    fn distinct_keys_do_not_batch() {
        let map: Arc<Inflight<u32, u64>> = Arc::new(Inflight::new());
        let Entry::Lead(a) = map.enter(1, 0) else {
            panic!()
        };
        let Entry::Lead(b) = map.enter(2, 0) else {
            panic!("different key must lead, not join")
        };
        assert_eq!(map.len(), 2);
        a.resolve(1);
        b.resolve(2);
        assert!(map.is_empty());
    }
}
