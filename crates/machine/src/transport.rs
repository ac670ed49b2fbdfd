//! Point-to-point message transport — the Express/PVM layer of the paper.
//!
//! The collective communication library (`f90d-comm`) is written against
//! the [`Transport`] trait only. Porting the whole system to another
//! "machine" means implementing this trait — the compiler and the
//! collective library never change, which is precisely the portability
//! argument of paper §5 (reason 3) and §8.1.
//!
//! # Posted operations
//!
//! The trait is a *nonblocking* posted-operation API, mirroring the
//! Express `isend`/`irecv`/`msgwait` calls the paper's node programs are
//! written against:
//!
//! * [`Transport::post_send`] — the sender pays the startup α **at post
//!   time** and is immediately free to compute; the payload arrives at
//!   `post_time + msg_time`.
//! * [`Transport::post_recv`] — registers intent to receive and returns a
//!   [`RecvHandle`]; charges nothing.
//! * [`Transport::complete`] — consumes the handle and delivers the
//!   payload; the receiver's clock advances to
//!   `max(own clock, arrival time)` **at completion time**, so any local
//!   compute charged between post and complete genuinely hides wire time
//!   (paper §5.1/§7: communication–computation overlap into ghost areas).
//!
//! There is no blocking receive: an unmatched or stale completion
//! surfaces as a structured [`TransportError`] that the collective
//! library propagates up to `ExecError`.
//!
//! # One blocking pair
//!
//! [`Transport::deliver`] is a send its receiver completes at once — the
//! edge of a collective tree, whose next stage needs the payload. Its
//! provided body is the posted trio, so an implementor gets it for free
//! and it costs exactly what the trio costs. Override it only to skip
//! work the trio does on the host and the model does not see: the
//! mailbox transport charges the send and the receive and hands the
//! payload back, without queueing it, whenever no earlier message or
//! receive waits on its channel. An override must charge what the trio
//! charges, in the trio's order, bit for bit.
//!
//! Messages carry [`ArrayData`] payloads (typed element vectors). Cost is
//! charged against virtual clocks: the sender pays the startup α, the
//! payload occupies the wire for β·bytes, and the receiver cannot complete
//! its receive before the arrival time.
//!
//! # The two halves of a message
//!
//! The trait prices every message in two halves, and the mailbox
//! transport builds its trio and `deliver` from them:
//!
//! * [`Transport::charge_send`] — the send charge: the sender's
//!   α (or a self-copy's memcpy), the message and byte counters and the
//!   link clocks; it returns the arrival time;
//! * [`Transport::arrive`] — the arrival: the receiver's clock
//!   advances to `max(own clock, arrival)`.
//!
//! A caller that holds its messages itself — an exchange that keeps
//! every payload in one buffer of its own, an inspector whose request
//! messages carry nothing the model reads — calls the two halves
//! directly and skips the channel table. The transport counts every
//! message charged and not yet arrived, so one that is never completed
//! still fails [`Transport::quiescent_check`].

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use crate::int_hash::IntMap;
use crate::net::{LinkClocks, LinkId};
use crate::spec::MachineSpec;
use crate::value::ArrayData;

/// A tag distinguishing message streams between the same (src, dst) pair.
pub type Tag = u32;

/// Structured failure of a posted-operation completion or of the
/// end-of-run quiescence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// `complete` found no matching message: in the loosely synchronous
    /// execution model every receive is posted after its matching send,
    /// so this is a compiler/runtime bug surfaced as an error instead of
    /// an abort.
    NoMatchingMessage {
        /// Receiving rank.
        to: i64,
        /// Sending rank.
        from: i64,
        /// Message tag.
        tag: Tag,
    },
    /// The handle was posted before a [`MailboxTransport::reset`]: reset
    /// invalidates every outstanding handle instead of letting it match a
    /// message from a later run.
    StaleHandle {
        /// Receiving rank.
        to: i64,
        /// Sending rank.
        from: i64,
        /// Message tag.
        tag: Tag,
    },
    /// End-of-run leak report: messages still in flight (posted sends
    /// never received) or receive handles never completed.
    NotQuiescent {
        /// Number of undelivered messages.
        in_flight: usize,
        /// Number of posted-but-never-completed receives.
        open_recvs: usize,
        /// `(from, to, tag)` of one leaked message (or, when nothing is
        /// in flight, one never-completed receive), for diagnostics.
        example: Option<(i64, i64, Tag)>,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::NoMatchingMessage { to, from, tag } => {
                write!(f, "recv({to} <- {from}, tag {tag}): no pending message")
            }
            TransportError::StaleHandle { to, from, tag } => write!(
                f,
                "recv({to} <- {from}, tag {tag}): handle invalidated by transport reset"
            ),
            TransportError::NotQuiescent {
                in_flight,
                open_recvs,
                example,
            } => {
                write!(
                    f,
                    "transport not quiescent: {in_flight} message(s) in flight, \
                     {open_recvs} posted receive(s) never completed"
                )?;
                if let Some((from, to, tag)) = example {
                    write!(f, " (e.g. {from} -> {to}, tag {tag})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Handle to one posted receive, consumed by [`Transport::complete`].
///
/// Deliberately neither `Clone` nor `Copy`: a posted receive completes
/// exactly once. The fields are fixed at post time; `epoch` ties the
/// handle to the transport generation so a [`MailboxTransport::reset`]
/// between post and complete surfaces as [`TransportError::StaleHandle`]
/// instead of silently matching a message from the next run.
#[derive(Debug)]
pub struct RecvHandle {
    to: i64,
    from: i64,
    tag: Tag,
    epoch: u64,
}

impl RecvHandle {
    /// Construct a handle — for [`Transport`] implementors only.
    pub fn new(to: i64, from: i64, tag: Tag, epoch: u64) -> Self {
        RecvHandle {
            to,
            from,
            tag,
            epoch,
        }
    }

    /// Receiving rank.
    pub fn to(&self) -> i64 {
        self.to
    }

    /// Sending rank.
    pub fn from(&self) -> i64 {
        self.from
    }

    /// Message tag.
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// Transport generation the receive was posted in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Point-to-point posted-operation message passing with virtual-time
/// accounting (see the module docs for the clock rules).
pub trait Transport {
    /// Number of nodes reachable through this transport.
    fn nranks(&self) -> i64;

    /// The send half of a message of `bytes` from `from` to `to`: the
    /// sender's clock advances by the startup α (a self-send pays the
    /// memcpy rate), the message and byte counters and the links are
    /// charged, and the message counts as in flight until
    /// [`Transport::arrive`] takes the arrival time this returns.
    /// [`Transport::post_send`] is this and a queued payload; a caller
    /// that holds a message's payload itself calls it directly.
    fn charge_send(&mut self, from: i64, to: i64, bytes: i64) -> f64;

    /// The arrival half of a message [`Transport::charge_send`] charged
    /// in this epoch: the receiver `to`'s clock advances to
    /// `max(own clock, arrival)`, and the message is no longer in
    /// flight. [`Transport::complete`] is a dequeued payload and this.
    fn arrive(&mut self, to: i64, arrival: f64);

    /// Post a send of `payload` from `from` to `to` under `tag`. The
    /// sender's clock advances by the startup α only (a self-send pays
    /// the memcpy rate); the payload arrives at `post_time + msg_time`.
    fn post_send(&mut self, from: i64, to: i64, tag: Tag, payload: ArrayData);

    /// Post a receive of the oldest pending (or future) message from
    /// `from` to `to` under `tag`. Charges nothing; matching happens at
    /// [`Transport::complete`] time, in completion order per channel.
    fn post_recv(&mut self, to: i64, from: i64, tag: Tag) -> RecvHandle;

    /// Complete a posted receive (Express `msgwait`): delivers the
    /// payload and advances the receiver's clock to
    /// `max(own clock, arrival)`. An unmatched or stale handle surfaces
    /// as a [`TransportError`].
    fn complete(&mut self, h: RecvHandle) -> Result<ArrayData, TransportError>;

    /// End-of-run check: `Err` when messages are still in flight or
    /// posted receives were never completed, instead of silently
    /// dropping them.
    fn quiescent_check(&self) -> Result<(), TransportError>;

    /// One blocking message: `post_send`, then `post_recv` and
    /// `complete` on the receiver, with nothing in between — what a
    /// collective's tree edge is, since its next stage needs the payload.
    /// Clocks, counters and errors are the trio's; an implementor that
    /// can deliver without queueing (no earlier message waits on the
    /// channel) overrides it to skip the queue, and must keep every
    /// charge and its order.
    fn deliver(
        &mut self,
        from: i64,
        to: i64,
        tag: Tag,
        payload: ArrayData,
    ) -> Result<ArrayData, TransportError> {
        self.post_send(from, to, tag, payload);
        let h = self.post_recv(to, from, tag);
        self.complete(h)
    }
}

/// `(arrival_time, payload)` of the in-flight messages of one channel,
/// oldest first.
type Queue = VecDeque<(f64, ArrayData)>;

/// One `(from, to, tag)` channel: its in-flight messages and the count
/// of receives posted on it and not yet completed.
#[derive(Debug)]
struct Channel {
    queue: Queue,
    open_recvs: u64,
}

/// In-memory mailbox transport with virtual clocks — the `Sim` machine's
/// native transport.
#[derive(Debug)]
pub struct MailboxTransport {
    spec: MachineSpec,
    nranks: i64,
    /// `clocks[r]` = virtual time of node `r`, in seconds.
    pub clocks: Vec<f64>,
    /// `(from, to, tag) → channel`. An entry exists **iff** the channel
    /// holds an in-flight message or an open receive: the completion
    /// that drains it removes it, so under collectives (a fresh tag
    /// each) the table stays a handful of entries instead of growing by
    /// one per message, and the quiescence report can still *name* a
    /// leaked handle when nothing is left in flight.
    channels: IntMap<(i64, i64, Tag), Channel>,
    /// Messages charged by [`Transport::charge_send`] and not yet
    /// [`Transport::arrive`]d: those queued in `channels` and
    /// those their sender holds.
    in_flight: u64,
    /// Drained queues of removed channels, reused (always empty) by the
    /// next channel created, so a message costs no queue allocation.
    spare: Vec<Queue>,
    /// Total messages sent (excluding self-copies).
    pub messages: u64,
    /// Total payload bytes sent (excluding self-copies).
    pub bytes: u64,
    /// Transport generation, bumped by [`MailboxTransport::reset`]:
    /// handles from earlier epochs are stale.
    epoch: u64,
    /// Per-link congestion state ([`crate::net`]): `Some` routes every
    /// wire message over the topology's links and serializes transfers
    /// that share one; `None` (the default, and the state after
    /// [`MailboxTransport::reset`]) keeps the paper's distance-only
    /// formula bit-exact.
    contention: Option<LinkClocks>,
    /// The route of the message being posted (contention on only) —
    /// one buffer for every message instead of a `Vec` each.
    route: Vec<LinkId>,
}

impl MailboxTransport {
    /// New transport over `nranks` nodes with clocks at zero.
    pub fn new(spec: MachineSpec, nranks: i64) -> Self {
        assert!(nranks > 0);
        MailboxTransport {
            spec,
            nranks,
            clocks: vec![0.0; nranks as usize],
            channels: IntMap::default(),
            in_flight: 0,
            spare: Vec::new(),
            messages: 0,
            bytes: 0,
            epoch: 0,
            contention: None,
            route: Vec::new(),
        }
    }

    /// The machine spec backing the cost model.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Enable or disable per-link contention modelling
    /// ([`crate::net::LinkClocks`]). Off (the default), message arrival
    /// is the paper's `α + β·bytes + τ·hops`; on, each message routes
    /// over the topology's directed links and queues behind earlier
    /// transfers on every link it shares. Switching on starts from an
    /// idle network; switching off forgets all link state.
    pub fn set_contention(&mut self, on: bool) {
        self.contention = on.then(LinkClocks::new);
    }

    /// `true` when per-link contention modelling is enabled.
    pub fn contention(&self) -> bool {
        self.contention.is_some()
    }

    /// Directed links that have carried traffic so far (0 with
    /// contention off — link state exists only under the model).
    pub fn links_used(&self) -> usize {
        self.contention.as_ref().map_or(0, LinkClocks::links_used)
    }

    /// Charge `seconds` of local computation to node `rank`.
    pub fn charge_compute(&mut self, rank: i64, seconds: f64) {
        self.clocks[rank as usize] += seconds;
    }

    /// Charge the memcpy of `bytes` (packing or unpacking a message, a
    /// local copy) to node `rank`.
    pub fn charge_copy(&mut self, rank: i64, bytes: i64) {
        self.clocks[rank as usize] += self.spec.time_copy_byte * bytes as f64;
    }

    /// Charge `n` modelled element operations to node `rank`.
    ///
    /// Cost-model contract (relied on by `f90d_comm::sched_cache`): the
    /// virtual clocks, message and byte counters advance **only** through
    /// these explicit charge/send calls — never as a side effect of host
    /// work. That is what lets a cache skip rebuilding a data structure
    /// (host wall clock) while re-charging its modelled cost, keeping
    /// virtual metrics bit-identical across cold, warm and disabled
    /// caches.
    pub fn charge_elem_ops(&mut self, rank: i64, n: i64) {
        self.clocks[rank as usize] += self.spec.compute_time(n);
    }

    /// Current virtual time of node `rank`.
    pub fn clock(&self, rank: i64) -> f64 {
        self.clocks[rank as usize]
    }

    /// Elapsed time of the program so far: the maximum clock.
    pub fn elapsed(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Synchronize a set of nodes (barrier): all clocks advance to the max.
    pub fn barrier(&mut self, ranks: &[i64]) {
        let t = ranks
            .iter()
            .map(|&r| self.clocks[r as usize])
            .fold(0.0, f64::max);
        for &r in ranks {
            self.clocks[r as usize] = t;
        }
    }

    /// Reset clocks and statistics (memories are not owned here).
    ///
    /// Bumps the transport epoch: every [`RecvHandle`] posted before the
    /// reset is invalidated and completes as
    /// [`TransportError::StaleHandle`] instead of dangling into the next
    /// run's mailboxes.
    ///
    /// Also returns the transport to its constructed contention state —
    /// **off**, link clocks dropped — which is what lets the
    /// [`MachinePool`](crate::mpool::MachinePool) promise that a
    /// recycled machine is observationally identical to a fresh one.
    /// Experiments that model contention re-enable it per run with
    /// [`MailboxTransport::set_contention`].
    pub fn reset(&mut self) {
        self.clocks.iter_mut().for_each(|c| *c = 0.0);
        self.channels.clear();
        self.in_flight = 0;
        self.messages = 0;
        self.bytes = 0;
        self.epoch += 1;
        self.contention = None;
    }

    /// `true` when no message is still in flight.
    pub fn quiescent(&self) -> bool {
        self.in_flight == 0
    }

    /// The transport generation: bumped by [`MailboxTransport::reset`].
    /// A caller holding messages across calls keeps the epoch it sent
    /// them in, and must not [`Transport::arrive`] them in
    /// another.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live channels: those holding an in-flight message or
    /// an open receive. Zero between collectives.
    pub fn channels_len(&self) -> usize {
        self.channels.len()
    }

    /// The channel `key`, created (on a recycled queue) if absent.
    fn channel(&mut self, key: (i64, i64, Tag)) -> &mut Channel {
        self.channels.entry(key).or_insert_with(|| Channel {
            queue: self.spare.pop().unwrap_or_default(),
            open_recvs: 0,
        })
    }
}

impl Transport for MailboxTransport {
    fn nranks(&self) -> i64 {
        self.nranks
    }

    fn charge_send(&mut self, from: i64, to: i64, bytes: i64) -> f64 {
        self.in_flight += 1;
        let start = self.clocks[from as usize];
        if from != to {
            // Sender is busy for the startup portion; the payload arrives
            // at start + full wire time — or later, when the contention
            // model is on and the route's links are still draining
            // earlier transfers (the link model prices the whole
            // transfer then, and the idle-network time goes unused).
            self.clocks[from as usize] = start + self.spec.alpha;
            self.messages += 1;
            self.bytes += bytes as u64;
            match &mut self.contention {
                Some(links) => {
                    self.spec.topology.route_into(from, to, &mut self.route);
                    links.transfer(&self.spec, &self.route, start, bytes)
                }
                None => start + self.spec.msg_time(from, to, bytes),
            }
        } else {
            // Self-messages are local copies: no wire, no link state.
            let copy = start + self.spec.msg_time(from, to, bytes);
            self.clocks[from as usize] = copy;
            copy
        }
    }

    fn arrive(&mut self, to: i64, arrival: f64) {
        debug_assert!(self.in_flight > 0, "an arrival with nothing in flight");
        self.in_flight -= 1;
        let c = &mut self.clocks[to as usize];
        *c = c.max(arrival);
    }

    fn post_send(&mut self, from: i64, to: i64, tag: Tag, payload: ArrayData) {
        let bytes = payload.len() as i64 * payload.elem_type().bytes();
        let arrival = self.charge_send(from, to, bytes);
        self.channel((from, to, tag))
            .queue
            .push_back((arrival, payload));
    }

    fn post_recv(&mut self, to: i64, from: i64, tag: Tag) -> RecvHandle {
        self.channel((from, to, tag)).open_recvs += 1;
        RecvHandle::new(to, from, tag, self.epoch)
    }

    fn complete(&mut self, h: RecvHandle) -> Result<ArrayData, TransportError> {
        if h.epoch != self.epoch {
            return Err(TransportError::StaleHandle {
                to: h.to,
                from: h.from,
                tag: h.tag,
            });
        }
        // Only a *successful* completion retires the posted receive: a
        // failed one never delivered, so its channel stays, the receive
        // still counted against the quiescence check.
        let no_message = TransportError::NoMatchingMessage {
            to: h.to,
            from: h.from,
            tag: h.tag,
        };
        let Entry::Occupied(mut slot) = self.channels.entry((h.from, h.to, h.tag)) else {
            return Err(no_message);
        };
        let ch = slot.get_mut();
        let (arrival, payload) = ch.queue.pop_front().ok_or(no_message)?;
        ch.open_recvs = ch.open_recvs.saturating_sub(1);
        if ch.queue.is_empty() && ch.open_recvs == 0 {
            self.spare.push(slot.remove().queue);
        }
        self.arrive(h.to, arrival);
        Ok(payload)
    }

    /// With no live channel `(from, to, tag)` the message is the only
    /// one on it, so it is charged exactly as the posted trio charges it
    /// and handed back without entering the table. Otherwise an earlier
    /// message or receive is queued there, and the trio runs.
    fn deliver(
        &mut self,
        from: i64,
        to: i64,
        tag: Tag,
        payload: ArrayData,
    ) -> Result<ArrayData, TransportError> {
        if !self.channels.is_empty() && self.channels.contains_key(&(from, to, tag)) {
            self.post_send(from, to, tag, payload);
            let h = self.post_recv(to, from, tag);
            return self.complete(h);
        }
        let bytes = payload.len() as i64 * payload.elem_type().bytes();
        let arrival = self.charge_send(from, to, bytes);
        self.arrive(to, arrival);
        Ok(payload)
    }

    /// Every live channel is a leak, and so is a message its sender
    /// holds and never brought to [`Transport::arrive`]: counted
    /// in `in_flight`, with no channel to name.
    fn quiescent_check(&self) -> Result<(), TransportError> {
        if self.channels.is_empty() && self.in_flight == 0 {
            return Ok(());
        }
        // Name one live channel: an in-flight message if any, otherwise
        // an open receive (deterministically the smallest key either
        // way) — the latter is what a failed completion leaves behind.
        let example = self
            .channels
            .iter()
            .map(|(&key, c)| (c.queue.is_empty(), key))
            .min()
            .map(|(_, key)| key);
        Err(TransportError::NotQuiescent {
            in_flight: self.in_flight as usize,
            open_recvs: self.channels.values().map(|c| c.open_recvs).sum::<u64>() as usize,
            example,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ElemType;

    fn payload(n: usize) -> ArrayData {
        ArrayData::zeros(ElemType::Real, n)
    }

    /// Post a receive and complete it at once.
    fn recv(t: &mut MailboxTransport, to: i64, from: i64, tag: Tag) -> ArrayData {
        let h = t.post_recv(to, from, tag);
        t.complete(h).expect("a matching message is pending")
    }

    #[test]
    fn send_recv_fifo_per_tag() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 2);
        let mut a = payload(1);
        a.set(0, crate::value::Value::Real(1.0));
        let mut b = payload(1);
        b.set(0, crate::value::Value::Real(2.0));
        t.post_send(0, 1, 7, a.clone());
        t.post_send(0, 1, 7, b.clone());
        assert_eq!(recv(&mut t, 1, 0, 7), a);
        assert_eq!(recv(&mut t, 1, 0, 7), b);
    }

    #[test]
    fn clocks_advance_with_messages() {
        let mut t = MailboxTransport::new(MachineSpec::ipsc860(), 2);
        t.post_send(0, 1, 0, payload(1000)); // 8000 bytes
        let expect = 75e-6 + 0.36e-6 * 8000.0 + 10e-6; // alpha + beta*m + 1 hop
        recv(&mut t, 1, 0, 0);
        assert!((t.clock(1) - expect).abs() < 1e-12, "{}", t.clock(1));
        // sender only paid alpha
        assert!((t.clock(0) - 75e-6).abs() < 1e-12);
    }

    #[test]
    fn receiver_waits_for_latest_of_arrival_and_own_clock() {
        let mut t = MailboxTransport::new(MachineSpec::ipsc860(), 2);
        t.charge_compute(1, 1.0); // receiver busy until t=1
        t.post_send(0, 1, 0, payload(1));
        recv(&mut t, 1, 0, 0);
        assert!((t.clock(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_between_post_and_complete_hides_wire_time() {
        // The §5.1 latency-hiding effect the posted API exists for: a
        // receiver that computes while the message is on the wire pays
        // max(compute, wire), not compute + wire.
        let mut t = MailboxTransport::new(MachineSpec::ipsc860(), 2);
        let wire = t.spec().msg_time(0, 1, 8000);
        t.post_send(0, 1, 0, payload(1000)); // 8000 bytes
        let h = t.post_recv(1, 0, 0);
        // Posting charged nothing on the receiver.
        assert_eq!(t.clock(1), 0.0);
        // Interior compute worth half the wire time, charged while the
        // payload is in flight.
        t.charge_compute(1, wire * 0.5);
        t.complete(h).unwrap();
        assert!(
            (t.clock(1) - wire).abs() < 1e-15,
            "wire fully hides compute"
        );
        // Blocking equivalent: recv first, then compute — strictly later.
        let mut b = MailboxTransport::new(MachineSpec::ipsc860(), 2);
        b.post_send(0, 1, 0, payload(1000));
        recv(&mut b, 1, 0, 0);
        b.charge_compute(1, wire * 0.5);
        assert!(t.clock(1) < b.clock(1));
    }

    #[test]
    fn self_send_is_cheap_copy() {
        let mut t = MailboxTransport::new(MachineSpec::ipsc860(), 2);
        t.post_send(0, 0, 0, payload(1000));
        recv(&mut t, 0, 0, 0);
        // A self-copy pays only the memcpy rate, never the wire.
        let copy = t.spec().time_copy_byte * 8000.0;
        assert!((t.clock(0) - copy).abs() < 1e-12);
        assert!(t.clock(0) < t.spec().msg_time(0, 1, 8000));
        assert_eq!(t.messages, 0);
    }

    #[test]
    fn barrier_syncs_clocks() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 4);
        t.charge_compute(2, 5.0);
        t.barrier(&[0, 1, 2, 3]);
        for r in 0..4 {
            assert_eq!(t.clock(r), 5.0);
        }
        assert_eq!(t.elapsed(), 5.0);
    }

    #[test]
    fn one_message_completes_one_receive() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 2);
        t.post_send(0, 1, 0, payload(1));
        recv(&mut t, 1, 0, 0);
        let h = t.post_recv(1, 0, 0);
        assert_eq!(
            t.complete(h),
            Err(TransportError::NoMatchingMessage {
                to: 1,
                from: 0,
                tag: 0
            })
        );
    }

    #[test]
    fn complete_without_send_is_a_structured_error() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 2);
        let h = t.post_recv(1, 0, 3);
        assert_eq!(
            t.complete(h),
            Err(TransportError::NoMatchingMessage {
                to: 1,
                from: 0,
                tag: 3
            })
        );
        // A failed completion never delivered: the posted receive must
        // keep counting against quiescence.
        match t.quiescent_check() {
            Err(TransportError::NotQuiescent { open_recvs, .. }) => assert_eq!(open_recvs, 1),
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
    }

    #[test]
    fn reset_invalidates_outstanding_handles() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 2);
        t.post_send(0, 1, 5, payload(1));
        let h = t.post_recv(1, 0, 5);
        t.reset();
        // The handle must not match a message posted after the reset.
        t.post_send(0, 1, 5, payload(1));
        assert_eq!(
            t.complete(h),
            Err(TransportError::StaleHandle {
                to: 1,
                from: 0,
                tag: 5
            })
        );
        // The stale completion touched nothing: the new message is
        // still there for a fresh post/complete pair, which drains it.
        assert_eq!(t.channels_len(), 1);
        let h2 = t.post_recv(1, 0, 5);
        assert!(t.complete(h2).is_ok());
        assert_eq!(t.channels_len(), 0);
        assert!(t.quiescent_check().is_ok());
    }

    fn tagged(v: f64) -> ArrayData {
        ArrayData::Real(vec![v])
    }

    #[test]
    fn a_channel_lives_only_while_in_flight_or_awaited() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 4);
        assert_eq!(t.channels_len(), 0);
        // A fresh tag per message, as collectives do: the table must
        // not keep one entry per message ever sent.
        for tag in 0..1000 {
            t.post_send(0, 1, tag, payload(2));
            assert_eq!(t.channels_len(), 1);
            let h = t.post_recv(1, 0, tag);
            t.complete(h).unwrap();
            assert_eq!(t.channels_len(), 0);
        }
        // A receive posted first opens the channel; the send joins it.
        let h = t.post_recv(2, 3, 9);
        assert_eq!(t.channels_len(), 1);
        t.post_send(3, 2, 9, payload(1));
        assert_eq!(t.channels_len(), 1);
        t.complete(h).unwrap();
        assert_eq!(t.channels_len(), 0);
        assert!(t.quiescent_check().is_ok());
        // Two messages, one completed: still in flight, entry stays.
        t.post_send(0, 1, 5, payload(1));
        t.post_send(0, 1, 5, payload(1));
        recv(&mut t, 1, 0, 5);
        assert_eq!(t.channels_len(), 1);
        recv(&mut t, 1, 0, 5);
        assert_eq!(t.channels_len(), 0);
    }

    #[test]
    fn fifo_per_channel_with_interleaved_tags_and_recycled_queues() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 3);
        // Drain a few channels first so later ones run on recycled
        // queues: a reused queue must never carry a message across.
        for tag in 100..104 {
            t.post_send(2, 0, tag, tagged(-1.0));
            recv(&mut t, 0, 2, tag);
        }
        // Interleave three channels, several messages each.
        for round in 0..4 {
            t.post_send(0, 1, 7, tagged(70.0 + round as f64));
            t.post_send(0, 1, 8, tagged(80.0 + round as f64));
            t.post_send(1, 0, 7, tagged(170.0 + round as f64));
        }
        // Completion order across channels is free; within one it is
        // the send order.
        for round in 0..4 {
            assert_eq!(recv(&mut t, 0, 1, 7), tagged(170.0 + round as f64));
        }
        for round in 0..4 {
            assert_eq!(recv(&mut t, 1, 0, 8), tagged(80.0 + round as f64));
            assert_eq!(recv(&mut t, 1, 0, 7), tagged(70.0 + round as f64));
        }
        assert_eq!(t.channels_len(), 0);
        // A new channel on a recycled queue starts empty.
        let h = t.post_recv(1, 0, 7);
        assert_eq!(
            t.complete(h),
            Err(TransportError::NoMatchingMessage {
                to: 1,
                from: 0,
                tag: 7
            })
        );
    }

    #[test]
    fn failed_complete_keeps_its_receive_counted_and_named() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 4);
        // Two receives on one channel, one message: the second
        // completion fails and must stay open, alone, under its key.
        t.post_send(2, 3, 11, payload(1));
        let h1 = t.post_recv(3, 2, 11);
        let h2 = t.post_recv(3, 2, 11);
        assert!(t.complete(h1).is_ok());
        assert!(t.complete(h2).is_err());
        assert_eq!(t.channels_len(), 1);
        assert_eq!(
            t.quiescent_check(),
            Err(TransportError::NotQuiescent {
                in_flight: 0,
                open_recvs: 1,
                example: Some((2, 3, 11)),
            })
        );
        // An in-flight message elsewhere takes over as the example
        // (smallest such key), the open receive still counted.
        t.post_send(1, 0, 4, payload(1));
        t.post_send(0, 1, 6, payload(1));
        assert_eq!(
            t.quiescent_check(),
            Err(TransportError::NotQuiescent {
                in_flight: 2,
                open_recvs: 1,
                example: Some((0, 1, 6)),
            })
        );
        // The late send satisfies a fresh receive on the failed
        // channel; the original leak remains.
        t.post_send(2, 3, 11, payload(1));
        recv(&mut t, 3, 2, 11);
        match t.quiescent_check() {
            Err(TransportError::NotQuiescent { open_recvs, .. }) => assert_eq!(open_recvs, 1),
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
    }

    #[test]
    fn contention_off_matches_distance_formula_bit_exactly() {
        // Two transports, one with the toggle flipped on and back off:
        // every arrival must be bit-identical to the plain formula.
        let mut a = MailboxTransport::new(MachineSpec::ipsc860(), 8);
        let mut b = MailboxTransport::new(MachineSpec::ipsc860(), 8);
        b.set_contention(true);
        b.set_contention(false);
        for (from, to) in [(0, 7), (1, 2), (3, 3), (6, 0)] {
            a.post_send(from, to, 0, payload(100));
            b.post_send(from, to, 0, payload(100));
            recv(&mut a, to, from, 0);
            recv(&mut b, to, from, 0);
        }
        assert_eq!(a.clocks, b.clocks);
        assert_eq!(b.links_used(), 0);
    }

    #[test]
    fn contention_serializes_same_link_senders() {
        // On a 5-ring the minimal route 2->0 is [2->1, 1->0], sharing
        // its last link with the route 1->0.
        let spec = MachineSpec {
            topology: crate::spec::Topology::Torus { dims: vec![5] },
            ..MachineSpec::ipsc860()
        };
        let mut off = MailboxTransport::new(spec.clone(), 5);
        let mut on = MailboxTransport::new(spec, 5);
        on.set_contention(true);
        for t in [&mut off, &mut on] {
            t.post_send(1, 0, 0, payload(1000)); // route [1->0]
            t.post_send(2, 0, 1, payload(1000)); // route [2->1, 1->0]: collides
            recv(t, 0, 1, 0);
            recv(t, 0, 2, 1);
        }
        assert!(
            on.clock(0) > off.clock(0),
            "shared link must delay the receiver: {} vs {}",
            on.clock(0),
            off.clock(0)
        );
        assert!(on.links_used() >= 2);
        // Reset returns to the constructed (off) state and idle links.
        on.reset();
        assert!(!on.contention());
        assert_eq!(on.links_used(), 0);
    }

    #[test]
    fn contention_on_idle_network_changes_nothing_observable() {
        // A single message on an idle network arrives at the same time
        // (up to fp association) with the model on or off.
        let mut off = MailboxTransport::new(MachineSpec::ipsc860(), 8);
        let mut on = MailboxTransport::new(MachineSpec::ipsc860(), 8);
        on.set_contention(true);
        off.post_send(0, 5, 0, payload(500));
        on.post_send(0, 5, 0, payload(500));
        recv(&mut off, 5, 0, 0);
        recv(&mut on, 5, 0, 0);
        assert!((on.clock(5) - off.clock(5)).abs() < 1e-15);
    }

    #[test]
    fn the_two_halves_charge_what_the_trio_charges() {
        let mut trio = MailboxTransport::new(MachineSpec::ipsc860(), 4);
        let mut held = MailboxTransport::new(MachineSpec::ipsc860(), 4);
        for t in [&mut trio, &mut held] {
            t.charge_compute(3, 1e-4);
        }
        trio.post_send(0, 3, 1, payload(100));
        recv(&mut trio, 3, 0, 1);
        let arrival = held.charge_send(0, 3, 800);
        // A held message is in flight with no channel to name.
        assert!(!held.quiescent());
        assert_eq!(
            held.quiescent_check(),
            Err(TransportError::NotQuiescent {
                in_flight: 1,
                open_recvs: 0,
                example: None,
            })
        );
        held.arrive(3, arrival);
        let bits = |t: &MailboxTransport| t.clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&held), bits(&trio));
        assert_eq!((held.messages, held.bytes), (trio.messages, trio.bytes));
        assert_eq!(held.channels_len(), 0);
        assert!(held.quiescent_check().is_ok());
        // A reset forgets a held message along with the channels.
        let epoch = held.epoch();
        held.charge_send(1, 2, 8);
        held.reset();
        assert_eq!(held.epoch(), epoch + 1);
        assert!(held.quiescent_check().is_ok());
    }

    #[test]
    fn quiescent_check_reports_leaks() {
        let mut t = MailboxTransport::new(MachineSpec::ideal(), 3);
        assert!(t.quiescent_check().is_ok());
        t.post_send(0, 1, 0, payload(10));
        t.post_send(1, 2, 0, payload(10));
        assert_eq!(t.messages, 2);
        assert_eq!(t.bytes, 160);
        assert!(!t.quiescent());
        match t.quiescent_check() {
            Err(TransportError::NotQuiescent {
                in_flight,
                open_recvs,
                example,
            }) => {
                assert_eq!(in_flight, 2);
                assert_eq!(open_recvs, 0);
                assert!(example.is_some());
            }
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
        recv(&mut t, 1, 0, 0);
        recv(&mut t, 2, 1, 0);
        assert!(t.quiescent());
        assert!(t.quiescent_check().is_ok());
        // An open posted receive is also a leak.
        let h = t.post_recv(0, 2, 9);
        assert!(t.quiescent_check().is_err());
        let _ = h;
    }
}
