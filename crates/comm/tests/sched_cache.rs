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
    SchedKey {
        kind,
        grid: grid.to_vec(),
        reqs: vec![ElementReq {
            requester: 0,
            owner: 1,
            src_off,
            dst_off: 0,
        }],
    }
}

fn get(cache: &OnceMap<SchedKey, Schedule>, k: &SchedKey) -> (Arc<Schedule>, bool) {
    let Ok(found) =
        cache.get_or_try_build(k, || Ok::<_, Infallible>(build_schedule(k.kind, &k.reqs)));
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
        assert_eq!(sched.kind(), k.kind);
    }
    assert_eq!(cache.len(), keys.len());
    assert!(keys.iter().all(|k| get(&cache, k).1));
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
