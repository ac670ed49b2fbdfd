//! `Transport::deliver` is the posted trio: on random message sequences
//! over every topology family, with the contention model on and off,
//! self-sends, and deliveries on a channel where an earlier send still
//! waits, a transport that delivers through `MailboxTransport`'s
//! override and one that runs `post_send` + `post_recv` + `complete`
//! end every step with the same clocks (by bits), the same message and
//! byte counts, the same links used, the same payload or error, and the
//! same quiescence report.

use f90d_machine::transport::Tag;
use f90d_machine::{ArrayData, MachineSpec, MailboxTransport, Topology, Transport, TransportError};
use proptest::prelude::*;

/// A topology of 16 ranks from each family.
fn spec(family: usize) -> MachineSpec {
    let topology = match family {
        0 => Topology::Hypercube,
        1 => Topology::Crossbar,
        2 => Topology::Mesh2D { rows: 4, cols: 4 },
        3 => Topology::Torus { dims: vec![2, 8] },
        _ => Topology::FatTree {
            arity: 2,
            levels: 4,
        },
    };
    MachineSpec {
        topology,
        ..MachineSpec::ipsc860()
    }
}

/// The trio, as `deliver`'s provided body spells it.
fn trio(
    t: &mut MailboxTransport,
    from: i64,
    to: i64,
    tag: Tag,
    payload: ArrayData,
) -> Result<ArrayData, TransportError> {
    t.post_send(from, to, tag, payload);
    let h = t.post_recv(to, from, tag);
    t.complete(h)
}

fn assert_same(a: &MailboxTransport, b: &MailboxTransport) -> Result<(), TestCaseError> {
    let bits = |t: &MailboxTransport| t.clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(a), bits(b));
    prop_assert_eq!(a.messages, b.messages);
    prop_assert_eq!(a.bytes, b.bytes);
    prop_assert_eq!(a.links_used(), b.links_used());
    prop_assert_eq!(a.channels_len(), b.channels_len());
    prop_assert_eq!(a.quiescent(), b.quiescent());
    prop_assert_eq!(a.quiescent_check(), b.quiescent_check());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deliver_is_the_posted_trio(
        family in 0usize..5,
        contention in 0usize..2,
        seed in 0i64..i64::MAX,
        n in 1usize..80,
    ) {
        let spec = spec(family);
        let mut fast = MailboxTransport::new(spec.clone(), 16);
        let mut posted = MailboxTransport::new(spec, 16);
        for t in [&mut fast, &mut posted] {
            t.set_contention(contention == 1);
        }
        let mut rng = seed as u64 | 1;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        // Few tags, so a delivery often lands on a live channel.
        let mut sent = 0.0;
        for _ in 0..n {
            let (from, to) = (next(16) as i64, next(16) as i64);
            let to = if next(6) == 0 { from } else { to };
            let tag = next(3) as Tag;
            let len = next(40) as usize;
            sent += 1.0;
            let payload = ArrayData::Real(vec![sent; len]);
            match next(8) {
                // Leave a message on the channel: a later delivery on
                // the key must take the oldest one.
                0 => {
                    fast.post_send(from, to, tag, payload.clone());
                    posted.post_send(from, to, tag, payload);
                }
                1 => {
                    let dt = next(100) as f64 * 1e-6;
                    fast.charge_compute(to, dt);
                    posted.charge_compute(to, dt);
                }
                // A reset drops every channel and the link clocks.
                2 if next(4) == 0 => {
                    for t in [&mut fast, &mut posted] {
                        t.reset();
                        t.set_contention(contention == 1);
                    }
                }
                _ => {
                    let got = fast.deliver(from, to, tag, payload.clone());
                    let want = trio(&mut posted, from, to, tag, payload);
                    prop_assert_eq!(got, want);
                }
            }
            assert_same(&fast, &posted)?;
        }
    }
}

/// A delivery on a channel with a receive already open: the trio's
/// handle completes the message it just sent, and the open receive
/// stays counted against quiescence, on both paths.
#[test]
fn deliver_behind_an_open_receive_takes_the_posted_path() {
    let mut fast = MailboxTransport::new(MachineSpec::ipsc860(), 4);
    let mut posted = MailboxTransport::new(MachineSpec::ipsc860(), 4);
    let _open = [fast.post_recv(1, 0, 5), posted.post_recv(1, 0, 5)];
    let got = fast.deliver(0, 1, 5, ArrayData::Real(vec![1.0]));
    let want = trio(&mut posted, 0, 1, 5, ArrayData::Real(vec![1.0]));
    assert_eq!(got, want);
    assert_same(&fast, &posted).unwrap();
    assert!(matches!(
        fast.quiescent_check(),
        Err(TransportError::NotQuiescent { open_recvs: 1, .. })
    ));
}
