//! The [`Machine`]: grid + transport + per-node memories + statistics,
//! with the loosely synchronous local-phase executor.
//!
//! Generated SPMD programs alternate *local computation* phases and
//! *global communication* phases (paper §2). `Machine::local_phase` runs a
//! per-rank closure over every node memory, one rank after another on
//! the calling thread, and charges each node's modelled cost to its
//! virtual clock. Communication phases are executed by the collective
//! library (`f90d-comm`) through the machine's [`MailboxTransport`].
//! Host parallelism comes from running many machines at once (the repro
//! harness's `--jobs`, the daemon's admission slots), never from inside
//! one: time is virtual, so a node program's speed on the host moves no
//! modelled second.

use std::collections::HashMap;

use f90d_distrib::ProcGrid;

use crate::memory::NodeMemory;
use crate::spec::MachineSpec;
use crate::transport::MailboxTransport;

/// How local phases are executed. There is one way — rank by rank on
/// the calling thread — and the enum remains only because `benchmark/`
/// names it and a PR that changes the library may not edit it (ROADMAP
/// item 1(e) deletes it with `CompileOptions::{exec_mode, with_exec}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One rank after another on the calling thread.
    #[default]
    Sequential,
}

/// Per-primitive call counters, for communication-volume experiments.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    counts: HashMap<&'static str, u64>,
}

impl MachineStats {
    /// Record one invocation of primitive `name`.
    pub fn record(&mut self, name: &'static str) {
        *self.counts.entry(name).or_insert(0) += 1;
    }

    /// Number of recorded invocations of `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable();
        v
    }

    /// Clear every counter.
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

/// A simulated distributed-memory MIMD machine.
#[derive(Debug)]
pub struct Machine {
    /// Logical processor grid (stage 3 of the data mapping).
    pub grid: ProcGrid,
    /// Point-to-point transport with virtual clocks.
    pub transport: MailboxTransport,
    /// Per-rank memories, indexed by physical rank.
    pub mems: Vec<NodeMemory>,
    /// Primitive call counters.
    pub stats: MachineStats,
    tag_seq: u32,
}

// Per-job isolation audit for the parallel repro harness: every matrix
// cell constructs its own `Machine` and may hand it to a job thread,
// so the whole aggregate (grid, transport, memories, stats) must stay
// owned data — `Send`, no shared interior mutability.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

impl Machine {
    /// Build a machine running `spec` with the given logical grid.
    pub fn new(spec: MachineSpec, grid: ProcGrid) -> Self {
        let n = grid.size();
        Machine {
            grid,
            transport: MailboxTransport::new(spec, n),
            mems: (0..n).map(|_| NodeMemory::new()).collect(),
            stats: MachineStats::default(),
            tag_seq: 0,
        }
    }

    /// A fresh message tag, unique within this machine. Each collective
    /// invocation tags its messages so rounds can never cross-match.
    pub fn fresh_tag(&mut self) -> crate::transport::Tag {
        self.tag_seq = self.tag_seq.wrapping_add(1);
        self.tag_seq
    }

    /// Number of nodes.
    pub fn nranks(&self) -> i64 {
        self.mems.len() as i64
    }

    /// The machine spec.
    pub fn spec(&self) -> &MachineSpec {
        self.transport.spec()
    }

    /// Elapsed virtual time (max over node clocks).
    pub fn elapsed(&self) -> f64 {
        self.transport.elapsed()
    }

    /// Publish one read-only constant table to every rank: each
    /// [`NodeMemory`] holds an `Arc` clone of the same map, so a
    /// 4096-rank machine stores program constants once instead of 4096
    /// times. Per-rank [`NodeMemory::set_scalar`] writes shadow the
    /// shared values locally; [`Machine::reset`] drops the table.
    pub fn share_consts(&mut self, consts: HashMap<String, crate::value::Value>) {
        let consts = std::sync::Arc::new(consts);
        for mem in &mut self.mems {
            mem.install_consts(std::sync::Arc::clone(&consts));
        }
    }

    /// Toggle per-link contention modelling (see
    /// [`MailboxTransport::set_contention`]). Off by default, and
    /// switched off again by [`Machine::reset`] — runs on a pooled
    /// machine start from the paper's distance-only cost model unless
    /// they opt in.
    pub fn set_contention(&mut self, on: bool) {
        self.transport.set_contention(on);
    }

    /// Reset clocks, mailboxes and statistics; keep memories.
    pub fn reset_time(&mut self) {
        self.transport.reset();
        self.stats.reset();
    }

    /// Restore the machine to its freshly-constructed state so it can be
    /// reused for another program run (the [`crate::mpool::MachinePool`]
    /// check-in path): memories are cleared, the transport is reset (its
    /// epoch bump invalidates any outstanding
    /// [`RecvHandle`](crate::transport::RecvHandle)s), and statistics and
    /// the tag sequence restart from zero. A subsequent run on this
    /// machine is bit-identical to one on `Machine::new` with the same
    /// spec and grid: every source of state a program can observe
    /// (arrays, scalars, clocks, mailboxes, tags) restarts from zero.
    pub fn reset(&mut self) {
        for mem in &mut self.mems {
            mem.clear();
        }
        self.transport.reset();
        self.stats.reset();
        self.tag_seq = 0;
    }

    /// Run one local computation phase. The closure receives
    /// `(rank, &mut NodeMemory)` and returns the number of modelled
    /// element operations it performed; that cost is charged to the
    /// node's clock.
    pub fn local_phase<F>(&mut self, mut f: F)
    where
        F: FnMut(i64, &mut NodeMemory) -> i64,
    {
        self.local_phase_map(|r, mem| ((), f(r, mem)));
    }

    /// Like [`Machine::local_phase`] but also collects a per-rank result.
    /// Ranks run in rank order, each seeing exactly its own
    /// [`NodeMemory`], and each rank's cost is charged to its own clock.
    pub fn local_phase_map<T, F>(&mut self, mut f: F) -> Vec<T>
    where
        F: FnMut(i64, &mut NodeMemory) -> (T, i64),
    {
        let transport = &mut self.transport;
        (self.mems.iter_mut().enumerate())
            .map(|(r, mem)| {
                let (v, ops) = f(r as i64, mem);
                transport.charge_elem_ops(r as i64, ops);
                v
            })
            .collect()
    }

    /// Barrier over all nodes.
    pub fn barrier(&mut self) {
        let ranks: Vec<i64> = (0..self.nranks()).collect();
        self.transport.barrier(&ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::LocalArray;
    use crate::value::{ElemType, Value};

    fn machine(n: i64) -> Machine {
        Machine::new(MachineSpec::ideal(), ProcGrid::new(&[n]))
    }

    #[test]
    fn local_phase_runs_every_rank() {
        let mut m = machine(4);
        for mem in &mut m.mems {
            mem.insert_array("X", LocalArray::zeros(ElemType::Int, &[1]));
        }
        m.local_phase(|r, mem| {
            mem.array_mut("X").set(&[0], Value::Int(r * 10));
            3
        });
        for r in 0..4 {
            assert_eq!(m.mems[r as usize].array("X").get(&[0]), Value::Int(r * 10));
        }
        // ideal spec: 1 s per elem op → every clock at 3 s
        for r in 0..4 {
            assert_eq!(m.transport.clock(r), 3.0);
        }
        assert_eq!(m.elapsed(), 3.0);
    }

    #[test]
    fn local_phase_map_collects_results() {
        let mut m = machine(3);
        let vals = m.local_phase_map(|r, _| (r * r, r));
        assert_eq!(vals, vec![0, 1, 4]);
        assert_eq!(m.transport.clock(2), 2.0);
    }

    #[test]
    fn unbalanced_cost_shows_in_elapsed() {
        let mut m = machine(2);
        m.local_phase(|r, _| if r == 0 { 100 } else { 1 });
        assert_eq!(m.elapsed(), 100.0);
        m.barrier();
        assert_eq!(m.transport.clock(1), 100.0);
    }

    #[test]
    fn share_consts_reaches_every_rank_and_reset_drops_them() {
        let mut m = machine(4);
        m.share_consts([("N".to_string(), Value::Int(4096))].into_iter().collect());
        for mem in &m.mems {
            assert_eq!(mem.scalar("N"), Value::Int(4096));
        }
        m.reset();
        for mem in &m.mems {
            assert_eq!(mem.scalar_opt("N"), None);
        }
    }

    #[test]
    fn stats_counting() {
        let mut m = machine(2);
        m.stats.record("multicast");
        m.stats.record("multicast");
        m.stats.record("transfer");
        assert_eq!(m.stats.count("multicast"), 2);
        assert_eq!(m.stats.count("gather"), 0);
        assert_eq!(m.stats.sorted(), vec![("multicast", 2), ("transfer", 1)]);
    }
}
