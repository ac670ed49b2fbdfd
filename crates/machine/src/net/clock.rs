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

use crate::int_hash::IntMap;
use crate::net::route::LinkId;
use crate::spec::MachineSpec;

/// Busy-until virtual times, one per directed link that has ever carried
/// traffic (absent = idle since t=0). Link state is sparse: a 4096-rank
/// machine only pays for the links its program actually crosses (a
/// crossbar has P² of them, so a dense table is not an option) — the
/// probes are kept cheap by the integer hasher instead.
#[derive(Debug, Clone, Default)]
pub struct LinkClocks {
    busy: IntMap<LinkId, f64>,
}

impl LinkClocks {
    /// All links idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all traffic (transport reset).
    pub fn clear(&mut self) {
        self.busy.clear();
    }

    /// Number of links that have carried traffic so far.
    pub fn links_used(&self) -> usize {
        self.busy.len()
    }

    /// Busy-until time of one link (0 when it never carried traffic).
    pub fn busy_until(&self, link: LinkId) -> f64 {
        self.busy.get(&link).copied().unwrap_or(0.0)
    }

    /// Charge one transfer posted at `start` along `route` and return
    /// its arrival time; every link of the route becomes busy until
    /// then. An empty route (self-message) is the caller's problem —
    /// this model only prices wire traffic.
    pub fn transfer(
        &mut self,
        spec: &MachineSpec,
        route: &[LinkId],
        start: f64,
        bytes: i64,
    ) -> f64 {
        let mut head = start + spec.alpha;
        for link in route {
            head = head.max(self.busy_until(*link)) + spec.tau;
        }
        let arrival = head + spec.beta * bytes as f64;
        for link in route {
            self.busy.insert(*link, arrival);
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
        let s = spec();
        let t = Topology::Torus { dims: vec![4, 4] };
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
        assert_eq!(lc.busy_until(LinkId::new(0, 1)), 0.0);
    }
}
