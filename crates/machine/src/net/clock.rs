//! Per-link congestion: busy-until clocks that serialize concurrent
//! transfers sharing a wire.
//!
//! The model is cut-through: a message's *header* leaves the sender at
//! `start + α`, then crosses its route one link at a time, paying τ per
//! link **after waiting for that link to drain**
//! (`max(head, busy[link]) + τ`). Once the header holds the whole path,
//! the payload streams behind it in `β·bytes`, and every link of the
//! route stays busy until the tail clears at the arrival time.
//!
//! With all links idle this degenerates to `start + α + τ·hops +
//! β·bytes` — the sum of exactly the terms of
//! [`MachineSpec::msg_time`](crate::spec::MachineSpec::msg_time), so an
//! uncontended network reproduces the paper's distance-only formula, and
//! a contended one can only be **slower**, never faster (queueing waits
//! are `max`es against the uncontended head time).

use crate::net::route::LinkId;
use crate::spec::{MachineSpec, Topology};

/// Busy-until virtual times of the directed links, indexed by
/// [`Topology::link_slot`]. The table grows on demand to the highest
/// slot a transfer has touched, so a machine pays for the slot range of
/// the links its program crosses — the slot formulas keep that range
/// near the family's link count (`2·arity^levels·levels` on a fat tree,
/// `P·log2 P` on a hypercube) but for the crossbar, whose `P²` links
/// bound its table. A slot no transfer has touched holds `-∞`, which
/// every head time beats as an idle link's `0` did.
#[derive(Debug, Clone, Default)]
pub struct LinkClocks {
    busy: Vec<f64>,
    /// Slots that have carried traffic.
    used: usize,
    /// The slots of the route being charged: one buffer for every
    /// transfer.
    route: Vec<usize>,
}

impl LinkClocks {
    /// All links idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all traffic (transport reset).
    pub fn clear(&mut self) {
        self.busy.clear();
        self.used = 0;
    }

    /// Number of links that have carried traffic so far.
    pub fn links_used(&self) -> usize {
        self.used
    }

    /// Busy-until time of one link of `topology` (0 when it never
    /// carried traffic).
    pub fn busy_until(&self, topology: &Topology, link: LinkId) -> f64 {
        let at = self.busy.get(topology.link_slot(link));
        at.copied()
            .filter(|t| *t != f64::NEG_INFINITY)
            .unwrap_or(0.0)
    }

    /// Charge one transfer posted at `start` along `route` (links of
    /// `spec`'s topology) and return its arrival time; every link of the
    /// route becomes busy until then. An empty route (self-message) is
    /// the caller's problem — this model only prices wire traffic.
    ///
    /// A route of another topology is a caller error: its links take
    /// `spec.topology`'s slots, which may be another link's, and are
    /// priced wrongly. A debug build asserts every link is one of
    /// `spec.topology`'s ([`Topology::is_link`]).
    pub fn transfer(
        &mut self,
        spec: &MachineSpec,
        route: &[LinkId],
        start: f64,
        bytes: i64,
    ) -> f64 {
        debug_assert!(
            route.iter().all(|&link| spec.topology.is_link(link)),
            "a route of another topology than {:?}: {route:?}",
            spec.topology
        );
        self.route.clear();
        (self.route).extend(route.iter().map(|link| spec.topology.link_slot(*link)));
        if let Some(&top) = self.route.iter().max() {
            if top >= self.busy.len() {
                self.busy.resize(top + 1, f64::NEG_INFINITY);
            }
        }
        let mut head = start + spec.alpha;
        for &slot in &self.route {
            head = head.max(self.busy[slot]) + spec.tau;
        }
        let arrival = head + spec.beta * bytes as f64;
        for &slot in &self.route {
            let busy = &mut self.busy[slot];
            self.used += (*busy == f64::NEG_INFINITY) as usize;
            *busy = arrival;
        }
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Topology;

    fn spec() -> MachineSpec {
        MachineSpec::ipsc860()
    }

    #[test]
    fn idle_network_degenerates_to_distance_formula() {
        let s = spec();
        let t = Topology::Hypercube;
        for (a, b, bytes) in [(0, 1, 800), (0, 7, 64), (2, 5, 8000)] {
            let mut lc = LinkClocks::new();
            let route = t.route(a, b);
            let got = lc.transfer(&s, &route, 0.0, bytes);
            let want = s.msg_time(a, b, bytes);
            assert!(
                (got - want).abs() < 1e-15,
                "idle transfer {a}->{b}: {got} vs msg_time {want}"
            );
        }
    }

    #[test]
    fn same_link_transfers_serialize() {
        let s = spec();
        let route = [LinkId::new(0, 1)];
        let mut lc = LinkClocks::new();
        let t1 = lc.transfer(&s, &route, 0.0, 8000);
        let t2 = lc.transfer(&s, &route, 0.0, 8000);
        // The second message queues behind the first's tail.
        assert!(t2 > t1, "{t2} vs {t1}");
        assert!((t2 - (t1 + s.tau + s.beta * 8000.0)).abs() < 1e-12);
        // Disjoint links never collide.
        let mut lc = LinkClocks::new();
        let u1 = lc.transfer(&s, &[LinkId::new(0, 1)], 0.0, 8000);
        let u2 = lc.transfer(&s, &[LinkId::new(2, 3)], 0.0, 8000);
        assert!((u1 - u2).abs() < 1e-15);
    }

    #[test]
    fn contention_never_beats_the_idle_time() {
        let s = MachineSpec::torus(&[4, 4]).expect("valid torus");
        let t = s.topology.clone();
        let mut lc = LinkClocks::new();
        // Pre-load traffic over a shared link region.
        for src in 1..4 {
            lc.transfer(&s, &t.route(src, 0), 0.0, 4096);
        }
        for (a, b) in [(5, 0), (1, 0), (15, 0), (3, 9)] {
            let idle = s.msg_time(a, b, 512);
            let got = lc.clone().transfer(&s, &t.route(a, b), 0.0, 512);
            assert!(
                got >= idle - 1e-15,
                "contended {a}->{b} {got} beats idle {idle}"
            );
        }
    }

    #[test]
    fn full_duplex_directions_are_independent_links() {
        let s = spec();
        let mut lc = LinkClocks::new();
        let fwd = lc.transfer(&s, &[LinkId::new(0, 1)], 0.0, 8000);
        let rev = lc.transfer(&s, &[LinkId::new(1, 0)], 0.0, 8000);
        assert!((fwd - rev).abs() < 1e-15, "opposite directions collide");
        assert_eq!(lc.links_used(), 2);
    }

    #[test]
    fn clear_forgets_traffic() {
        let s = spec();
        let mut lc = LinkClocks::new();
        lc.transfer(&s, &[LinkId::new(0, 1)], 0.0, 64);
        assert_eq!(lc.links_used(), 1);
        lc.clear();
        assert_eq!(lc.links_used(), 0);
        assert_eq!(lc.busy_until(&s.topology, LinkId::new(0, 1)), 0.0);
    }
}
