//! The contract of [`OnceMap`], checked once for every cache built on it
//! (bytecode programs in `f90d-core`, schedules in `f90d-comm`, compiled
//! programs in `f90d-serve`): racing callers of one key build exactly
//! once, distinct keys build in parallel, failed builds are not cached
//! and leave nothing behind, the capacity bound holds without ever
//! evicting a build in flight, and equality — not the hash — decides.

use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use f90d_machine::OnceMap;

/// Infallible lookup: the value for `key` is `key * 10`.
fn get(map: &OnceMap<usize, usize>, key: usize, builds: &AtomicUsize) -> (Arc<usize>, bool) {
    let Ok(found) = map.get_or_try_build(&key, || {
        builds.fetch_add(1, Ordering::SeqCst);
        Ok::<_, Infallible>(key * 10)
    });
    found
}

#[test]
fn same_key_races_build_exactly_once() {
    const THREADS: usize = 16;
    let map = OnceMap::new(8);
    let builds = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let values: Vec<Arc<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait(); // all threads hit the cold key together
                    get(&map, 7, &builds).0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(builds.load(Ordering::SeqCst), 1, "duplicate build");
    assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
    assert_eq!(
        (map.misses(), map.hits(), map.len()),
        (1, THREADS as u64 - 1, 1)
    );
}

#[test]
fn distinct_keys_build_in_parallel() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 4;
    let map = OnceMap::new(THREADS);
    let builds = AtomicUsize::new(0);
    // Every build waits for every other key's build to be in flight: a
    // map that serialized builds of different keys would deadlock here.
    let all_building = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (map, builds, all_building) = (&map, &builds, &all_building);
            s.spawn(move || {
                let Ok((v, hit)) = map.get_or_try_build(&t, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    all_building.wait();
                    Ok::<_, Infallible>(t * 10)
                });
                assert_eq!((*v, hit), (t * 10, false));
                // Then every thread touches every key, several times, in
                // a thread-dependent order: all hits, all the right value.
                for r in 0..ROUNDS {
                    for off in 0..THREADS {
                        let key = (t + off + r) % THREADS;
                        assert_eq!(get(map, key, builds), (Arc::new(key * 10), true));
                    }
                }
            });
        }
    });
    assert_eq!(builds.load(Ordering::SeqCst), THREADS, "one build per key");
    assert_eq!(map.misses(), THREADS as u64);
    assert_eq!(map.hits(), (THREADS * THREADS * ROUNDS) as u64);
    assert_eq!(map.len(), THREADS);
}

#[test]
fn panicking_build_poisons_nothing() {
    const THREADS: usize = 8;
    let map = OnceMap::new(64);
    let builds = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        // One builder panics on the hot key…
        let (map, builds, barrier) = (&map, &builds, &barrier);
        s.spawn(move || {
            barrier.wait();
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                let _ = map
                    .get_or_try_build(&0, || -> Result<usize, Infallible> { panic!("build bug") });
            }));
            assert!(panicked.is_err(), "the panic surfaces to its caller");
        });
        // …while other keys keep building and hitting undisturbed.
        for t in 1..=THREADS {
            s.spawn(move || {
                barrier.wait();
                let (first, hit_first) = get(map, t, builds);
                let (again, hit_again) = get(map, t, builds);
                assert!(!hit_first && hit_again && Arc::ptr_eq(&first, &again));
            });
        }
    });
    // It surfaced once: the next caller of that key retries the build
    // instead of meeting a `PoisonError`.
    assert_eq!(map.len(), THREADS);
    assert_eq!(get(&map, 0, &builds), (Arc::new(0), false));
    assert!(get(&map, 0, &builds).1);
    assert_eq!(map.len(), THREADS + 1);
}

#[test]
fn errors_are_not_cached_and_racers_converge_on_one_retry() {
    const THREADS: usize = 8;
    let map: OnceMap<usize, usize> = OnceMap::new(4);
    assert_eq!(map.get_or_try_build(&1, || Err("nope")), Err("nope"));
    assert!(map.is_empty());
    assert!(!map.get_or_try_build(&1, || Ok::<_, &str>(10)).unwrap().1);

    // Under contention: whichever thread builds first fails; the racers
    // queued behind it must end up sharing ONE successful build.
    let attempts = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);
    let successes: Vec<Arc<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    map.get_or_try_build(&7, || match attempts.fetch_add(1, Ordering::SeqCst) {
                        0 => Err("transient"),
                        _ => Ok(70),
                    })
                    .ok()
                    .map(|(v, _)| v)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "one failure, one build");
    assert_eq!(successes.len(), THREADS - 1);
    assert!(successes.iter().all(|v| Arc::ptr_eq(v, &successes[0])));
    assert_eq!(map.len(), 2);
}

#[test]
fn failed_builds_leave_nothing_behind() {
    /// A key that shows how many clones of it are alive.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Tracked(usize, Arc<()>);

    const CAP: usize = 8;
    let map: OnceMap<Tracked, usize> = OnceMap::new(CAP);
    let alive = Arc::new(());
    for i in 0..3 * CAP {
        let key = Tracked(i, Arc::clone(&alive));
        if i % 2 == 0 {
            assert!(map.get_or_try_build(&key, || Err::<usize, _>(())).is_err());
        } else {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let _ = map.get_or_try_build(&key, || -> Result<usize, ()> { panic!("bug") });
            }));
            assert!(unwound.is_err());
        }
    }
    assert_eq!(map.len(), 0);
    assert_eq!(Arc::strong_count(&alive), 1, "the map kept a failed key");
    assert_eq!(map.misses(), 3 * CAP as u64);
    // A key that failed builds fine afterwards, and only then is kept.
    let key = Tracked(0, Arc::clone(&alive));
    assert_eq!(*map.get_or_try_build(&key, || Ok::<_, ()>(5)).unwrap().0, 5);
    assert_eq!((map.len(), Arc::strong_count(&alive)), (1, 3));
}

#[test]
fn capacity_bounds_the_map_and_evicted_keys_rebuild() {
    const CAP: usize = 16;
    let map = OnceMap::new(CAP);
    let builds = AtomicUsize::new(0);
    for key in 0..3 * CAP {
        assert_eq!(get(&map, key, &builds), (Arc::new(key * 10), false));
        assert!(map.len() <= CAP, "{} entries exceed the cap", map.len());
    }
    assert_eq!(map.len(), CAP);
    assert_eq!(
        builds.load(Ordering::SeqCst),
        3 * CAP,
        "each key built once"
    );
    // At least 2 × CAP keys were evicted; each is simply rebuilt on next
    // use, and the residents still hit.
    let rebuilt = (0..3 * CAP)
        .filter(|&key| !get(&map, key, &builds).1)
        .count();
    assert!(rebuilt >= 2 * CAP, "only {rebuilt} keys were ever evicted");
    assert!(map.len() <= CAP);
}

#[test]
fn a_build_in_flight_is_never_the_eviction_victim() {
    const CAP: usize = 2;
    let map = OnceMap::new(CAP);
    let builds = AtomicUsize::new(0);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let map = &map;
        let slow = s.spawn(move || {
            map.get_or_try_build(&0, || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                Ok::<_, Infallible>(0)
            })
        });
        started_rx.recv().unwrap();
        // Key 0 is mid-build while 5 × CAP other keys churn through.
        for key in 1..=5 * CAP {
            get(map, key, &builds);
        }
        release_tx.send(()).unwrap();
        let Ok((_, hit)) = slow.join().unwrap();
        assert!(!hit);
    });
    // Had the churn evicted key 0's slot, this would be a second build.
    assert_eq!(get(&map, 0, &builds), (Arc::new(0), true));
}

#[test]
fn clear_drops_every_entry() {
    let map = OnceMap::new(64);
    let builds = AtomicUsize::new(0);
    for key in 0..64 {
        get(&map, key, &builds);
    }
    assert_eq!(map.len(), 64);
    map.clear();
    assert!(map.is_empty());
    assert_eq!(get(&map, 3, &builds), (Arc::new(30), false));
}

/// "Hashes route, equality decides", for every instance at once: a key
/// type whose hash is constant still gets one slot and one value per
/// distinct key.
#[test]
fn all_keys_collide_yet_equality_decides() {
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(usize);
    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            0u8.hash(state);
        }
    }

    const KEYS: usize = 32;
    let map = OnceMap::new(KEYS);
    let lookup = |k: usize| {
        let Ok(found) = map.get_or_try_build(&Colliding(k), || Ok::<_, Infallible>(k));
        found
    };
    let first: Vec<Arc<usize>> = (0..KEYS)
        .map(|k| {
            let (v, hit) = lookup(k);
            assert!(!hit, "a colliding hash must not read as a hit");
            v
        })
        .collect();
    assert_eq!(
        (map.len(), map.misses(), map.hits()),
        (KEYS, KEYS as u64, 0)
    );
    for (k, v) in first.iter().enumerate() {
        let (again, hit) = lookup(k);
        assert!(hit && Arc::ptr_eq(v, &again));
        assert_eq!(**v, k, "each key owns its own value");
    }
}
