//! What is specific to the schedule cache as an instance of
//! `f90d_machine::OnceMap` (whose own battery, `crates/machine/tests/
//! once_map.rs`, covers racing, failure, eviction and colliding hashes):
//! what a [`SchedKey`] distinguishes, the bound at the real cap, and
//! the bytes an entry keeps per element it moves.
//!
//! A counting global allocator tracks the bytes live on the heap, per
//! thread (a const-initialised thread-local), so tests running beside
//! each other do not perturb each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::Arc;

use f90d_comm::sched_cache::{Pattern, SchedKey, SCHED_CACHE_CAP};
use f90d_comm::schedule::{build_schedule, ElementReq, Schedule, ScheduleKind};
use f90d_machine::OnceMap;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking live bytes on the calling thread.
struct Counting;

fn count(bytes: isize) {
    // A thread being torn down has no counter left; it is not counted.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are the ones `System` needs;
// the counting itself touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// A one-request pattern and its key.
fn key(kind: ScheduleKind, grid: &[i64], src_off: usize) -> (SchedKey, Vec<ElementReq>) {
    let reqs = vec![ElementReq::moving(1, 0, src_off, 0)];
    (SchedKey::new(kind, grid.to_vec(), Pattern::of(&reqs)), reqs)
}

/// The schedule of `reqs` under its key `k`, and whether it was cached.
fn get(
    cache: &OnceMap<SchedKey, Schedule>,
    k: &SchedKey,
    reqs: &[ElementReq],
) -> (Arc<Schedule>, bool) {
    let Ok(found) =
        cache.get_or_try_build(k, || Ok::<_, Infallible>(build_schedule(k.kind(), reqs)));
    found
}

#[test]
fn kind_grid_and_pattern_are_each_part_of_the_key() {
    let cache = OnceMap::new(SCHED_CACHE_CAP);
    let keys = [
        key(ScheduleKind::LocalOnly, &[4], 3),
        key(ScheduleKind::FanInRequests, &[4], 3),
        key(ScheduleKind::LocalOnly, &[2, 2], 3),
        key(ScheduleKind::LocalOnly, &[4], 4),
    ];
    for (k, reqs) in &keys {
        let (sched, hit) = get(&cache, k, reqs);
        assert!(!hit, "{k:?} aliased an earlier key");
        assert_eq!(sched.kind(), k.kind());
    }
    assert_eq!(cache.len(), keys.len());
    assert!(keys.iter().all(|(k, reqs)| get(&cache, k, reqs).1));
}

/// The fingerprint a key's `Hash` routes by is one word and linear in a
/// request's fields, so two patterns can share it: moving a request's
/// `(requester, owner, src_off, dst_off)` by [`KERNEL`], whose dot
/// product with [`SchedKey::FIELD_WEIGHTS`] is 0 modulo 2^64, leaves
/// the request word unchanged. Equality still tells the keys apart —
/// they get two slots, two schedules, and each finds its own.
#[test]
fn two_patterns_with_equal_fingerprints_are_still_two_schedules() {
    let weights = SchedKey::FIELD_WEIGHTS;
    let word = (KERNEL.iter().zip(weights)).fold(0u64, |h, (&d, w)| {
        h.wrapping_add((d as u64).wrapping_mul(w))
    });
    assert_eq!(word, 0, "KERNEL is not in the fingerprint's kernel");
    let pattern = |shift: i64| {
        let [r, o, s, d] = KERNEL.map(|d| (40_000 + shift * d) as usize);
        let head = ElementReq::moving(3, 2, 11, 0);
        let reqs = vec![head, ElementReq::moving(o as i64, r as i64, s, d)];
        (
            SchedKey::new(ScheduleKind::FanInRequests, vec![4], Pattern::of(&reqs)),
            reqs,
        )
    };
    let ((a, reqs_a), (b, reqs_b)) = (pattern(0), pattern(1));
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "the collision this test is about"
    );
    assert_ne!(a, b);
    let hash = |k: &SchedKey| {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(k)
    };
    assert_eq!(hash(&a), hash(&b), "same bucket");

    let cache = OnceMap::new(SCHED_CACHE_CAP);
    let (sa, hit_a) = get(&cache, &a, &reqs_a);
    let (sb, hit_b) = get(&cache, &b, &reqs_b);
    assert!(!hit_a && !hit_b, "the second pattern aliased the first");
    assert_eq!(cache.len(), 2);
    assert_ne!(sa.plan(), sb.plan());
    for (k, reqs, want) in [(&a, &reqs_a, &sa), (&b, &reqs_b, &sb)] {
        let (found, hit) = get(&cache, k, reqs);
        assert!(hit && Arc::ptr_eq(&found, want));
    }
}

/// An inspector pushes its requests one at a time; a planner's list is
/// packed at once. Either way the key is the same: the same words, the
/// same fingerprint, equal keys.
#[test]
fn a_pushed_pattern_is_its_packed_list() {
    let reqs: Vec<_> = (0..50)
        .map(|k| ElementReq::moving(k % 7, (k * 3) % 5, k as usize * 11, k as usize))
        .collect();
    let mut pushed = Pattern::with_capacity(reqs.len());
    for r in &reqs {
        pushed.push(r.owner, r.requester, r.src_off, r.dst_off);
    }
    let packed = Pattern::of(&reqs);
    assert_eq!(pushed.words(), packed.words());
    let key = |p: Pattern| SchedKey::new(ScheduleKind::SenderDriven, vec![8], p);
    let (a, b) = (key(pushed), key(packed));
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a, b);
}

#[test]
fn the_real_cap_bounds_the_schedule_cache() {
    let cache = OnceMap::new(SCHED_CACHE_CAP);
    for i in 0..3 * SCHED_CACHE_CAP {
        let (k, reqs) = key(ScheduleKind::LocalOnly, &[4], i);
        assert!(!get(&cache, &k, &reqs).1);
    }
    assert_eq!(cache.len(), SCHED_CACHE_CAP);
    assert_eq!(cache.misses(), 3 * SCHED_CACHE_CAP as u64);
}

/// A short vector `Δ` with `Σ Δᵢ·wᵢ ≡ 0 (mod 2^64)` over the fingerprint's
/// field weights `w`, found by lattice reduction: every entry is small
/// enough that a request moved by it still has 32-bit fields.
const KERNEL: [i64; 4] = [-24564, -20344, 8596, -30408];

/// Elements each schedule of [`a_cached_schedule_keeps_24_bytes_an_element`]
/// moves: not a power of two, so a request list that kept its growth
/// slack would show.
const ELEMENTS: usize = 6000;

/// What a cached irregular schedule keeps: its request pattern in the
/// key, 16 bytes an element (four 32-bit words), and its move table, 8
/// (a 32-bit source and destination offset), plus a processor-pair
/// table and the map's slot — at most 1.1 × 24 bytes an element moved.
/// [`ELEMENTS`] requests over 16 ranks, each rank's in turn to owners
/// spread over every rank, are pushed one at a time into a list that
/// grows as it goes and is dropped once the schedule is cached: what
/// stays is the key's packed copy and the move table.
///
/// It fails where a key kept the inspector's own list of requests (two
/// 64-bit ranks and two 64-bit offsets, with its growth slack) and the
/// move table two 64-bit columns: 48 bytes an element and more.
#[test]
fn a_cached_schedule_keeps_24_bytes_an_element() {
    const SCHEDULES: usize = 16;
    const RANKS: usize = 16;
    let cache = OnceMap::new(SCHED_CACHE_CAP);
    let before = live();
    let keys: Vec<SchedKey> = (0..SCHEDULES)
        .map(|k| {
            let block = ELEMENTS / RANKS + 1;
            let mut reqs = Vec::new();
            for i in 0..ELEMENTS {
                let g = (i * 2731 + k * 97) % ELEMENTS;
                reqs.push(ElementReq::moving(
                    (g / block) as i64,
                    (i / block) as i64,
                    g % block,
                    i % block,
                ));
            }
            let pattern = Pattern::of(&reqs);
            let key = SchedKey::new(ScheduleKind::FanInRequests, vec![RANKS as i64], pattern);
            assert!(
                !get(&cache, &key, &reqs).1,
                "schedule {k} aliased an earlier one"
            );
            key
        })
        .collect();
    let kept = live() - before;
    let per_element = kept as f64 / (SCHEDULES * ELEMENTS) as f64;
    eprintln!("{SCHEDULES} cached schedules keep {per_element:.2} B an element moved");
    assert_eq!(cache.len(), keys.len());
    assert!(
        per_element <= 24.0 * 1.1,
        "a cached schedule keeps {per_element:.2} B an element moved, above 1.1 × 24"
    );
}
