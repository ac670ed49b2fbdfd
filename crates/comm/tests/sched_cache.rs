//! What is specific to the schedule cache as an instance of
//! `f90d_machine::OnceMap` (whose own battery, `crates/machine/tests/
//! once_map.rs`, covers racing, failure, eviction and colliding hashes):
//! what a [`SchedKey`] distinguishes, and the bound at the real cap.

use std::convert::Infallible;
use std::sync::Arc;

use f90d_comm::sched_cache::{SchedKey, SCHED_CACHE_CAP};
use f90d_comm::schedule::{build_schedule, ElementReq, Schedule, ScheduleKind};
use f90d_machine::OnceMap;

fn key(kind: ScheduleKind, grid: &[i64], src_off: usize) -> SchedKey {
    let req = ElementReq {
        requester: 0,
        owner: 1,
        src_off,
        dst_off: 0,
    };
    SchedKey::new(kind, grid.to_vec(), vec![req])
}

fn get(cache: &OnceMap<SchedKey, Schedule>, k: &SchedKey) -> (Arc<Schedule>, bool) {
    let Ok(found) = cache.get_or_try_build(k, || {
        Ok::<_, Infallible>(build_schedule(k.kind(), k.reqs()))
    });
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
    for k in &keys {
        let (sched, hit) = get(&cache, k);
        assert!(!hit, "{k:?} aliased an earlier key");
        assert_eq!(sched.kind(), k.kind());
    }
    assert_eq!(cache.len(), keys.len());
    assert!(keys.iter().all(|k| get(&cache, k).1));
}

/// The fingerprint a key's `Hash` routes by is one word and linear in a
/// request's fields, so two patterns can share it: moving `src_off` up
/// by the `dst_off` weight and `dst_off` down by the `src_off` weight
/// leaves the request word unchanged. Equality still tells the keys
/// apart — they get two slots, two schedules, and each finds its own.
#[test]
fn two_patterns_with_equal_fingerprints_are_still_two_schedules() {
    let [_, _, ws, wd] = SchedKey::FIELD_WEIGHTS;
    let pattern = |src_off: usize, dst_off: usize| {
        let head = ElementReq {
            requester: 2,
            owner: 3,
            src_off: 11,
            dst_off: 0,
        };
        let moved = ElementReq {
            requester: 0,
            owner: 1,
            src_off,
            dst_off,
        };
        SchedKey::new(ScheduleKind::FanInRequests, vec![4], vec![head, moved])
    };
    let a = pattern(5, 7);
    let b = pattern(
        5usize.wrapping_add(wd as usize),
        7usize.wrapping_sub(ws as usize),
    );
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
    let (sa, hit_a) = get(&cache, &a);
    let (sb, hit_b) = get(&cache, &b);
    assert!(!hit_a && !hit_b, "the second pattern aliased the first");
    assert_eq!(cache.len(), 2);
    assert_ne!(sa.signature(), sb.signature());
    for (k, want) in [(&a, &sa), (&b, &sb)] {
        let (found, hit) = get(&cache, k);
        assert!(hit && Arc::ptr_eq(&found, want));
    }
}

#[test]
fn the_real_cap_bounds_the_schedule_cache() {
    let cache = OnceMap::new(SCHED_CACHE_CAP);
    for i in 0..3 * SCHED_CACHE_CAP {
        assert!(!get(&cache, &key(ScheduleKind::LocalOnly, &[4], i)).1);
    }
    assert_eq!(cache.len(), SCHED_CACHE_CAP);
    assert_eq!(cache.misses(), 3 * SCHED_CACHE_CAP as u64);
}
