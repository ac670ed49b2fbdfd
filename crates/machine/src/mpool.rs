//! Machine pooling: check out a [`Machine`], run on it, check it back in.
//!
//! The repro harness builds one `Machine` per matrix cell and drops it;
//! that is fine for a batch run but wrong for a long-running service,
//! where steady-state traffic would construct (and tear down) a grid,
//! a transport, and `P` node memories per request. A [`MachinePool`]
//! keeps finished machines shelved by their *identity* — cost-model spec
//! plus logical grid shape — and hands them back out after a full
//! [`Machine::reset`], so the hot path of a warmed-up server performs
//! **zero** machine constructions (the `created`/`reused` counters make
//! that claim checkable from telemetry).
//!
//! Lifecycle rules (also the contract for
//! [`Transport`](crate::transport::Transport) implementors that want
//! their transport to survive pooling):
//!
//! 1. Check-in resets the machine: memories cleared, clocks zeroed,
//!    mailboxes emptied, tag sequence restarted, transport epoch bumped
//!    (outstanding receive handles fail with `StaleHandle` rather than
//!    dangling into another tenant's run), worker pool and budget lease
//!    released.
//! 2. A checked-out machine is exclusively owned — the pool never keeps
//!    an alias; a panicking run simply drops the machine and the pool
//!    shrinks by one (never serving a half-poisoned machine).
//! 3. Reuse must be observationally identical to construction: a run on
//!    a recycled machine produces bit-identical virtual metrics, arrays
//!    and PRINT output to the same run on `Machine::new`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use f90d_distrib::ProcGrid;

use crate::machine::Machine;
use crate::spec::MachineSpec;

/// Pool identity: machines are interchangeable iff they simulate the
/// same machine model on the same logical grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShelfKey {
    /// Spec name — unique per cost model in this workspace; the full
    /// spec is re-verified on checkout so a name collision can never
    /// alias two different models.
    spec_name: String,
    grid: Vec<i64>,
}

/// A keyed shelf of reset, ready-to-run [`Machine`]s with reuse counters.
///
/// `Send + Sync`: one pool is shared by every connection/worker thread of
/// a server.
pub struct MachinePool {
    shelves: Mutex<HashMap<ShelfKey, Vec<Machine>>>,
    /// Per-key shelf cap: beyond it, checked-in machines are dropped.
    cap_per_key: usize,
    created: AtomicU64,
    reused: AtomicU64,
}

impl MachinePool {
    /// Empty pool keeping at most `cap_per_key` idle machines per
    /// (spec, grid) identity.
    pub fn new(cap_per_key: usize) -> Self {
        MachinePool {
            shelves: Mutex::new(HashMap::new()),
            cap_per_key,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Check out a machine for `spec` on `grid`: a shelved one when
    /// available (after verifying the full spec matches, not just its
    /// name), else a freshly constructed one. The caller owns the result;
    /// return it with [`MachinePool::check_in`] when the run is done.
    pub fn check_out(&self, spec: &MachineSpec, grid: &[i64]) -> Machine {
        self.check_out_traced(spec, grid).0
    }

    /// [`MachinePool::check_out`] that also reports whether the machine
    /// came off the shelf (`true`) or had to be constructed (`false`) —
    /// per-request telemetry needs the answer for *this* checkout, which
    /// the racy `created()`/`reused()` deltas cannot give.
    pub fn check_out_traced(&self, spec: &MachineSpec, grid: &[i64]) -> (Machine, bool) {
        let key = ShelfKey {
            spec_name: spec.name.clone(),
            grid: grid.to_vec(),
        };
        let shelved = {
            let mut shelves = self.shelves.lock().unwrap();
            shelves.get_mut(&key).and_then(Vec::pop)
        };
        match shelved {
            // PartialEq over every cost constant + topology: a machine is
            // only reused for the exact model it was built for.
            Some(m) if *m.spec() == *spec => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                (m, true)
            }
            _ => {
                self.created.fetch_add(1, Ordering::Relaxed);
                (Machine::new(spec.clone(), ProcGrid::new(grid)), false)
            }
        }
    }

    /// Return a machine to the pool. It is fully [`Machine::reset`] —
    /// memories, clocks, mailboxes, tags, stats, worker lease — before it
    /// becomes visible to the next [`MachinePool::check_out`]. Machines
    /// past the per-key cap are dropped instead of shelved.
    pub fn check_in(&self, mut m: Machine) {
        m.reset();
        let key = ShelfKey {
            spec_name: m.spec().name.clone(),
            grid: m.grid.shape.clone(),
        };
        let mut shelves = self.shelves.lock().unwrap();
        let shelf = shelves.entry(key).or_default();
        if shelf.len() < self.cap_per_key {
            shelf.push(m);
        }
        // else: drop `m` here — the pool is full for this identity.
    }

    /// Machines constructed by [`MachinePool::check_out`] so far. A
    /// warmed-up steady state keeps this flat — `f90d-serve`'s
    /// `second_request_rides_every_warm_path` test asserts exactly that.
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Checkouts served from the shelf so far.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Idle machines currently shelved (all identities).
    pub fn idle(&self) -> usize {
        self.shelves.lock().unwrap().values().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for MachinePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachinePool")
            .field("cap_per_key", &self.cap_per_key)
            .field("created", &self.created())
            .field("reused", &self.reused())
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ExecMode;
    use crate::memory::LocalArray;
    use crate::value::{ElemType, Value};
    use crate::{budget, MachineSpec};

    #[test]
    fn checkout_checkin_reuses_instead_of_constructing() {
        let pool = MachinePool::new(4);
        let spec = MachineSpec::ipsc860();
        let m1 = pool.check_out(&spec, &[4]);
        assert_eq!((pool.created(), pool.reused()), (1, 0));
        pool.check_in(m1);
        assert_eq!(pool.idle(), 1);
        let _m2 = pool.check_out(&spec, &[4]);
        assert_eq!((pool.created(), pool.reused()), (1, 1));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn identities_do_not_alias() {
        let pool = MachinePool::new(4);
        pool.check_in(pool.check_out(&MachineSpec::ipsc860(), &[4]));
        // Different grid: no reuse.
        let m = pool.check_out(&MachineSpec::ipsc860(), &[2, 2]);
        assert_eq!(pool.reused(), 0);
        pool.check_in(m);
        // Different machine model: no reuse.
        let _m = pool.check_out(&MachineSpec::ncube2(), &[4]);
        assert_eq!(pool.reused(), 0);
        assert_eq!(pool.created(), 3);
        // Same identity: reuse.
        let _m = pool.check_out(&MachineSpec::ipsc860(), &[4]);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn same_name_different_constants_is_not_reused() {
        let pool = MachinePool::new(4);
        let spec = MachineSpec::ipsc860();
        pool.check_in(pool.check_out(&spec, &[4]));
        let mut tweaked = spec.clone();
        tweaked.alpha *= 2.0;
        let m = pool.check_out(&tweaked, &[4]);
        assert_eq!(
            (pool.created(), pool.reused()),
            (2, 0),
            "spec drift under one name must construct, not alias"
        );
        assert_eq!(*m.spec(), tweaked);
    }

    #[test]
    fn cap_bounds_idle_machines() {
        let pool = MachinePool::new(2);
        let spec = MachineSpec::ideal();
        let ms: Vec<Machine> = (0..5).map(|_| pool.check_out(&spec, &[2])).collect();
        for m in ms {
            pool.check_in(m);
        }
        assert_eq!(pool.idle(), 2, "shelf capped per key");
    }

    #[test]
    fn reset_on_checkin_clears_observable_state() {
        budget::global().ensure_total_at_least(8);
        let pool = MachinePool::new(2);
        let spec = MachineSpec::ideal();
        let mut m = pool.check_out(&spec, &[2]);
        // Dirty everything a program could observe: memories, clocks,
        // stats, tags, threaded pool + budget lease.
        m.set_exec(ExecMode::Threaded);
        assert!(m.workers() >= 2);
        for mem in &mut m.mems {
            mem.insert_array("X", LocalArray::zeros(ElemType::Int, &[2]));
            mem.set_scalar("S", Value::Int(7));
        }
        m.local_phase(|_, _| 10);
        let _tag = m.fresh_tag();
        m.stats.record("transfer");
        let in_use_before = budget::global().in_use();
        pool.check_in(m);
        let m = pool.check_out(&spec, &[2]);
        assert_eq!(pool.reused(), 1);
        assert!(
            budget::global().in_use() < in_use_before,
            "check-in must release the worker lease"
        );
        assert_eq!(m.workers(), 0, "recycled machine starts sequential");
        assert_eq!(m.elapsed(), 0.0, "clocks zeroed");
        assert_eq!(m.stats.count("transfer"), 0, "stats cleared");
        for mem in &m.mems {
            assert!(!mem.has_array("X"), "memories cleared");
            assert_eq!(mem.scalar_opt("S"), None, "scalars cleared");
        }
    }
}
