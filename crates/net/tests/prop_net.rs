//! Property tests for the network layer: codec totality/roundtrips, the
//! addressing schema and routing invariants.

use proptest::prelude::*;
use upnp_net::addr;
use upnp_net::link::{LinkChaos, LinkDegrade, LinkQuality};
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody, Value};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::tlv::{self, Tlv, TlvType};
use upnp_net::{Datagram, Network, NodeId};
use upnp_sim::{SimDuration, SimTime};

proptest! {
    /// The message decoder never panics on arbitrary payloads.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&bytes);
    }

    /// The (5) upload header peek is total and agrees with the full
    /// decoder on every frame: same peripheral and image when `decode`
    /// yields an upload, `None` otherwise. `as_upload` and `fit_len`
    /// steer the bytes towards the accept path and its off-by-one
    /// neighbours, which uniform bytes almost never reach.
    #[test]
    fn upload_peek_agrees_with_decode(
        mut bytes in prop::collection::vec(any::<u8>(), 0..200),
        as_upload: bool,
        fit_len: bool,
        slack in 0usize..3,
    ) {
        if as_upload && !bytes.is_empty() {
            bytes[0] = MessageBody::DRIVER_UPLOAD_TYPE;
        }
        if fit_len && bytes.len() >= 9 {
            let len = (bytes.len() - 9 + slack).wrapping_sub(1) as u16;
            bytes[7..9].copy_from_slice(&len.to_be_bytes());
        }
        let peeked = Message::peek_upload(&bytes).map(|(p, image)| (p, image.to_vec()));
        let decoded = Message::decode(&bytes).and_then(|m| match m.body {
            MessageBody::DriverUpload { peripheral, image } => Some((peripheral, image)),
            _ => None,
        });
        prop_assert_eq!(peeked, decoded);
    }

    /// The (1)/(3) advertisement peek is total and agrees with the full
    /// decoder on every frame: the same kind, peripherals and TLV lists
    /// (compared as wire bytes) when `decode` yields an advertisement,
    /// `None` otherwise. `mode` picks uniform bytes under an advertisement
    /// type byte, a well-formed advertisement, or one cut short or padded
    /// by `slack + 1` bytes, so the accept path and its off-by-one
    /// neighbours are reached as often as the reject paths.
    #[test]
    fn advert_peek_agrees_with_decode(
        ads in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u8>(), 0..6)),
                0..4,
            )),
            0..4,
        ),
        solicited: bool,
        noise in prop::collection::vec(any::<u8>(), 0..120),
        mode in 0u8..4,
        slack in 0usize..3,
    ) {
        let ty = if solicited { 3 } else { 1 };
        let wire = || {
            let ads = ads
                .iter()
                .map(|(peripheral, tlvs)| AdvertisedPeripheral {
                    peripheral: *peripheral,
                    tlvs: tlvs
                        .iter()
                        .map(|(tag, value)| Tlv::new(TlvType::from_tag(*tag), value.clone()))
                        .collect(),
                })
                .collect();
            let body = if solicited {
                MessageBody::SolicitedAdvertisement(ads)
            } else {
                MessageBody::UnsolicitedAdvertisement(ads)
            };
            Message { seq: 9, body }.encode()
        };
        let bytes = match mode {
            0 => {
                let mut b = noise.clone();
                if let Some(first) = b.first_mut() {
                    *first = ty;
                }
                b
            }
            1 => wire(),
            2 => {
                let mut b = wire();
                b.truncate(b.len().saturating_sub(slack + 1));
                b
            }
            _ => {
                let mut b = wire();
                b.extend_from_slice(&noise[..noise.len().min(slack + 1)]);
                b
            }
        };
        let peeked = match Message::peek_adverts(&bytes) {
            Some(view) => {
                prop_assert_eq!(view.len(), view.iter().count());
                let ads: Vec<(u32, Vec<u8>)> =
                    view.iter().map(|(p, tlvs)| (p, tlvs.to_vec())).collect();
                Some((view.solicited, ads))
            }
            None => None,
        };
        let as_wire = |ads: Vec<AdvertisedPeripheral>| -> Vec<(u32, Vec<u8>)> {
            ads.into_iter()
                .map(|a| {
                    let mut out = Vec::new();
                    tlv::encode_list(&a.tlvs, &mut out);
                    (a.peripheral, out)
                })
                .collect()
        };
        let decoded = Message::decode(&bytes).and_then(|m| match m.body {
            MessageBody::UnsolicitedAdvertisement(ads) => Some((false, as_wire(ads))),
            MessageBody::SolicitedAdvertisement(ads) => Some((true, as_wire(ads))),
            _ => None,
        });
        if mode == 1 {
            prop_assert!(decoded.is_some(), "a well-formed advertisement decodes");
        }
        prop_assert_eq!(peeked, decoded);
    }

    /// Scalar-bearing messages roundtrip for arbitrary field values.
    #[test]
    fn scalar_messages_roundtrip(seq: u16, peripheral: u32, v: i32) {
        for body in [
            MessageBody::Read { peripheral },
            MessageBody::DriverRequest { peripheral },
            MessageBody::Data { peripheral, value: Value::I32(v) },
            MessageBody::Write { peripheral, value: Value::F32(v as f32) },
            MessageBody::WriteAck { peripheral, ok: v % 2 == 0 },
        ] {
            let m = Message { seq, body };
            prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }
    }

    /// Byte-payload messages roundtrip for arbitrary contents.
    #[test]
    fn byte_messages_roundtrip(
        seq: u16,
        peripheral: u32,
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let m = Message {
            seq,
            body: MessageBody::DriverUpload { peripheral, image: payload.clone() },
        };
        prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        let m = Message {
            seq,
            body: MessageBody::Data {
                peripheral,
                value: Value::Bytes(payload.into_iter().take(255).collect()),
            },
        };
        prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    /// TLV lists roundtrip for arbitrary tuples.
    #[test]
    fn tlv_roundtrip(items in prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..60)),
        0..10,
    )) {
        let tlvs: Vec<Tlv> = items
            .into_iter()
            .map(|(tag, value)| Tlv::new(TlvType::from_tag(tag), value))
            .collect();
        let mut buf = Vec::new();
        tlv::encode_list(&tlvs, &mut buf);
        let mut i = 0;
        let back = tlv::decode_list(&buf, &mut i).unwrap();
        prop_assert_eq!(back, tlvs);
        prop_assert_eq!(i, buf.len());
    }

    /// The multicast schema embeds and recovers prefix and peripheral for
    /// any inputs.
    #[test]
    fn schema_roundtrip(prefix in 0u64..(1u64 << 48), peripheral: u32) {
        let g = addr::peripheral_group(prefix, peripheral);
        prop_assert!(g.is_multicast());
        prop_assert_eq!(addr::peripheral_of(g), Some(peripheral));
        prop_assert_eq!(addr::prefix_of(g), Some(prefix));
    }

    /// On random connected topologies, every tree route starts and ends at
    /// the right nodes, uses only existing links and visits no node twice.
    #[test]
    fn routes_are_simple_paths(
        n in 2usize..20,
        extra_links in prop::collection::vec((0usize..20, 0usize..20), 0..15),
        src in 0usize..20,
        dst in 0usize..20,
    ) {
        let mut topo = Topology::new(n);
        // A spanning chain guarantees connectivity.
        for i in 1..n {
            topo.link(i, i - 1, LinkQuality::PERFECT);
        }
        for (a, b) in extra_links {
            let (a, b) = (a % n, b % n);
            if a != b {
                topo.link(a, b, LinkQuality::new(0.9));
            }
        }
        let dodag = Dodag::build(&topo, 0);
        let (src, dst) = (src % n, dst % n);
        let path = dodag.route(src, dst).unwrap();
        prop_assert_eq!(*path.first().unwrap(), src);
        prop_assert_eq!(*path.last().unwrap(), dst);
        for w in path.windows(2) {
            prop_assert!(topo.quality(w[0], w[1]).is_some(), "missing link {w:?}");
        }
        let unique: std::collections::HashSet<_> = path.iter().collect();
        prop_assert_eq!(unique.len(), path.len(), "route revisits a node");
    }

    /// Route-table and SMRF-plan caches stay coherent under arbitrary
    /// plug/unplug (group join/leave) and topology churn: after every
    /// operation, each memoised entry equals a fresh recomputation.
    #[test]
    fn caches_coherent_under_arbitrary_churn(
        n in 2usize..12,
        ops in prop::collection::vec((0u8..6, 0usize..12, 0usize..12), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        // A spanning chain guarantees everything is initially routable.
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        let group_of = |g: usize| addr::peripheral_group(PREFIX, (g % 3) as u32);
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            match op {
                0 => net.join_group(nodes[a], group_of(b)),
                1 => {
                    net.leave_group(nodes[a], group_of(b));
                }
                2 if a != b => net.link(nodes[a], nodes[b], LinkQuality::new(0.9)),
                3 => net.build_tree(nodes[a]),
                4 => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: group_of(b),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xcd; 16].into(),
                    };
                    net.send(t, nodes[a], d);
                }
                _ => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: net.addr_of(nodes[b]),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xef; 16].into(),
                    };
                    net.send(t, nodes[a], d);
                }
            }
            prop_assert!(
                net.caches_coherent(),
                "cached routes/plans diverged from fresh computation"
            );
        }
        net.poll(SimTime::MAX);
    }

    /// The same churn model with a seeded delay/duplicate link schedule
    /// switched on: late and doubled deliveries must not desynchronise
    /// the memoised route tables and SMRF plans from a fresh
    /// recomputation — chaos perturbs *when* (and how often) frames
    /// arrive, never what the topology caches believe.
    #[test]
    fn caches_coherent_under_churn_with_link_chaos(
        n in 2usize..12,
        chaos_seed in any::<u64>(),
        ops in prop::collection::vec((0u8..6, 0usize..12, 0usize..12), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        // An aggressive schedule: half of everything late, a third
        // doubled — far past the soak profile, same invariants.
        net.set_link_chaos(Some(LinkChaos {
            seed: chaos_seed,
            delay_p: 0.5,
            max_delay: SimDuration::from_millis(80),
            duplicate_p: 0.33,
        }));
        let group_of = |g: usize| addr::peripheral_group(PREFIX, (g % 3) as u32);
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            match op {
                0 => net.join_group(nodes[a], group_of(b)),
                1 => {
                    net.leave_group(nodes[a], group_of(b));
                }
                2 if a != b => net.link(nodes[a], nodes[b], LinkQuality::new(0.9)),
                3 => net.build_tree(nodes[a]),
                4 => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: group_of(b),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xcd; 16].into(),
                    };
                    net.send(t, nodes[a], d);
                }
                _ => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: net.addr_of(nodes[b]),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xef; 16].into(),
                    };
                    net.send(t, nodes[a], d);
                }
            }
            prop_assert!(
                net.caches_coherent(),
                "cached routes/plans diverged under link chaos"
            );
        }
        net.poll(SimTime::MAX);
        // Draining the queue with chaos on must also leave the caches
        // coherent — the perturbations only ever touch delivery timing.
        prop_assert!(net.caches_coherent());
    }

    /// Cross-shard cache coherence: a pair of shard slices over one
    /// global node-id space — every node present in both, each slice
    /// linking only its own members under the shared root — stays
    /// coherent under arbitrary join/leave/reroot churn interleaved with
    /// shard-boundary rebalancing (a node migrating between slices, both
    /// slices rebuilt and memberships replayed into the new owner).
    #[test]
    fn shard_slice_caches_coherent_under_rebalancing(
        n in 3usize..12,
        assign_bits in any::<u16>(),
        ops in prop::collection::vec((0u8..6, 0usize..12, 0usize..12), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let group_of = |g: usize| addr::peripheral_group(PREFIX, (g % 3) as u32);
        // Node 0 is the replicated root; the rest belong to one of two
        // shards. `owner[i]` is the current assignment.
        let mut owner: Vec<usize> = (0..n)
            .map(|i| usize::from(assign_bits & (1 << i) != 0))
            .collect();
        owner[0] = usize::MAX; // the root is in every slice
        // Global membership model: (node, group) pairs.
        let mut members: std::collections::BTreeSet<(usize, std::net::Ipv6Addr)> =
            std::collections::BTreeSet::new();

        // Builds one slice: all nodes added (so ids and addresses match
        // the global space), links only for the slice's own members, the
        // shared tree root, and the current memberships of its nodes.
        let build_slice = |shard: usize,
                           owner: &[usize],
                           members: &std::collections::BTreeSet<(usize, std::net::Ipv6Addr)>|
         -> Network {
            let mut net = Network::new(PREFIX, 0x6030 + shard as u64);
            let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
            for i in 1..n {
                if owner[i] == shard {
                    net.link(nodes[0], nodes[i], LinkQuality::PERFECT);
                }
            }
            net.build_tree(nodes[0]);
            net.set_replicated_nodes([nodes[0]]);
            net.enable_cross_shard_capture();
            for &(node, group) in members {
                if owner[node] == shard {
                    net.join_group(NodeId(node as u32), group);
                }
            }
            net
        };

        let mut slices = [build_slice(0, &owner, &members), build_slice(1, &owner, &members)];
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (1 + a % (n - 1), b % 12); // a: never the root
            match op {
                0 => {
                    members.insert((a, group_of(b)));
                    slices[owner[a]].join_group(NodeId(a as u32), group_of(b));
                }
                1 => {
                    members.remove(&(a, group_of(b)));
                    slices[owner[a]].leave_group(NodeId(a as u32), group_of(b));
                }
                2 => {
                    // Rebalance: move `a` across the shard boundary and
                    // rebuild both slices, replaying memberships.
                    owner[a] = 1 - owner[a];
                    slices = [build_slice(0, &owner, &members), build_slice(1, &owner, &members)];
                }
                3 => {
                    // Reroot both slices (topology churn).
                    for s in &mut slices {
                        s.build_tree(NodeId(0));
                    }
                }
                4 => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: slices[owner[a]].addr_of(NodeId(a as u32)),
                        dst: group_of(b),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xcd; 16].into(),
                    };
                    slices[owner[a]].send(t, NodeId(a as u32), d);
                    // Continue the dissemination in the sibling slice, as
                    // the shard coordinator would.
                    for f in slices[owner[a]].take_cross_frames() {
                        slices[1 - owner[a]].multicast_from_root(f.at_root, f.dgram);
                    }
                }
                _ => {
                    t += SimDuration::from_millis(50);
                    let shard = owner[a];
                    let dst = slices[shard].addr_of(NodeId(((a + 1) % n) as u32));
                    let d = Datagram {
                        src: slices[shard].addr_of(NodeId(a as u32)),
                        dst,
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xef; 16].into(),
                    };
                    slices[shard].send(t, NodeId(a as u32), d);
                }
            }
            for (s, slice) in slices.iter().enumerate() {
                prop_assert!(
                    slice.caches_coherent(),
                    "slice {s} caches diverged from fresh computation"
                );
            }
            // The slices together must carry exactly the global
            // membership, each node's membership in its owning slice.
            for &(node, group) in &members {
                prop_assert!(
                    slices[owner[node]]
                        .group_members(group)
                        .any(|m| m == NodeId(node as u32)),
                    "membership lost after rebalancing"
                );
            }
        }
        for s in &mut slices {
            s.poll(SimTime::MAX);
        }
    }

    /// Multi-instance anycast (the distribution tier's addressing mode):
    /// under arbitrary instance join/leave churn, topology growth and
    /// reroots, every send resolves to the *nearest live instance* by
    /// DODAG hop distance (ties to the lowest node id, recomputed fresh
    /// from a mirror topology as the oracle), and the memoised
    /// resolution stays coherent with a cold recomputation throughout.
    #[test]
    fn anycast_resolves_nearest_live_instance_under_churn(
        n in 2usize..14,
        ops in prop::collection::vec((0u8..6, 0usize..14, 0usize..14), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mgr: std::net::Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        // Mirror topology: the oracle recomputes distances from scratch.
        let mut mirror = Topology::new(n);
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            mirror.link(i, i - 1, LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        // Node 0 is the always-present origin instance.
        net.set_anycast(nodes[0], mgr);
        let mut instances: std::collections::BTreeSet<usize> = [0].into();
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            match op {
                0 => {
                    // An edge cache joins the tier.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                }
                1 if a != 0 => {
                    // An edge cache leaves (the origin never does).
                    net.unset_anycast(nodes[a], mgr);
                    instances.remove(&a);
                }
                2 if a != b => {
                    net.link(nodes[a], nodes[b], LinkQuality::PERFECT);
                    mirror.link(a, b, LinkQuality::PERFECT);
                    net.build_tree(nodes[0]);
                }
                3 => {
                    net.build_tree(nodes[a]);
                }
                _ => {
                    // Send to the anycast address and check the delivery
                    // lands on the oracle's nearest live instance. Ops 3
                    // may have rerooted elsewhere; mirror that root.
                    let root = 0; // re-pin the root so the oracle is simple
                    net.build_tree(nodes[root]);
                    let dodag = Dodag::build(&mirror, root);
                    let expected = instances
                        .iter()
                        .filter_map(|&i| dodag.distance(a, i).map(|d| (d, i)))
                        .min();
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: mgr,
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xaa; 8].into(),
                    };
                    net.send(t, nodes[a], d);
                    let deliveries = net.poll(SimTime::MAX);
                    let (_, want) = expected.expect("origin is always live");
                    prop_assert_eq!(deliveries.len(), 1, "perfect links always deliver");
                    prop_assert_eq!(
                        deliveries[0].node,
                        nodes[want],
                        "must land on the nearest live instance"
                    );
                }
            }
            prop_assert!(
                net.caches_coherent(),
                "memoised anycast resolution diverged from fresh computation"
            );
        }
    }

    /// Ungraceful instance death (the chaos harness's cache crash): a
    /// crashed node must vanish from every anycast set it served and its
    /// memoised resolutions must be purged, so every later send resolves
    /// to the next-nearest *live* instance — checked against a
    /// fresh-built DODAG oracle under arbitrary join/leave/crash/revive
    /// churn and reroots.
    #[test]
    fn instance_death_invalidates_memos_under_crash_churn(
        n in 2usize..14,
        ops in prop::collection::vec((0u8..7, 0usize..14, 0usize..14), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mgr: std::net::Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        let origin: std::net::Ipv6Addr = "2001:db8:aaaa::2".parse().unwrap();
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        let mut mirror = Topology::new(n);
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            mirror.link(i, i - 1, LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        // Node 0 is the origin, an instance of both tier addresses.
        net.set_anycast(nodes[0], mgr);
        net.set_anycast(nodes[0], origin);
        let mut instances: std::collections::BTreeSet<usize> = [0].into();
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            match op {
                0 => {
                    // An edge cache joins the manager tier.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                }
                1 if a != 0 => {
                    // Graceful leave.
                    net.unset_anycast(nodes[a], mgr);
                    instances.remove(&a);
                }
                2 if a != 0 => {
                    // Ungraceful crash: the process dies mid-whatever.
                    // Every anycast identity it held must go with it.
                    net.fail_node(nodes[a]);
                    instances.remove(&a);
                }
                3 => {
                    // Revive: the cache process restarts and re-joins;
                    // stale memos must not shadow the new instance.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                }
                4 if a != b => {
                    net.link(nodes[a], nodes[b], LinkQuality::PERFECT);
                    mirror.link(a, b, LinkQuality::PERFECT);
                    net.build_tree(nodes[0]);
                }
                5 => {
                    net.build_tree(nodes[a]);
                }
                _ => {
                    let root = 0; // re-pin so the oracle is simple
                    net.build_tree(nodes[root]);
                    let dodag = Dodag::build(&mirror, root);
                    let expected = instances
                        .iter()
                        .filter_map(|&i| dodag.distance(a, i).map(|d| (d, i)))
                        .min();
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: mgr,
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xaa; 8].into(),
                    };
                    net.send(t, nodes[a], d);
                    let deliveries = net.poll(SimTime::MAX);
                    let (_, want) = expected.expect("the origin never crashes");
                    prop_assert_eq!(deliveries.len(), 1, "perfect links always deliver");
                    prop_assert_eq!(
                        deliveries[0].node,
                        nodes[want],
                        "must land on the nearest instance still alive"
                    );
                }
            }
            // The origin's second identity survives every crash of others.
            prop_assert!(instances.contains(&0));
            prop_assert!(
                net.caches_coherent(),
                "memoised anycast resolution diverged after crash churn"
            );
        }
    }

    /// The gray-link degrade schedule is a pure function of
    /// `(seed, directed node pair, window of the instant)`: a whole
    /// network and two arbitrarily-partitioned shard slices over the
    /// same node-id space — each holding a different subset of the
    /// links, with the degrade installed on all three — must return the
    /// same verdict for every probe, equal to evaluating the schedule
    /// standalone, and constant across instants inside one window. This
    /// is the property that makes gray soaks bit-identical under
    /// sharding: whichever shard executes a hop computes the same mode.
    #[test]
    fn gray_degrade_schedule_is_pure_across_partitions(
        n in 2usize..14,
        seed in any::<u64>(),
        assign_bits in any::<u16>(),
        probes in prop::collection::vec(
            (0usize..14, 0usize..14, 0u64..120_000),
            1..60,
        ),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let degrade = LinkDegrade::seeded(seed);
        let mut whole = Network::new(PREFIX, 0x6030);
        let mut slices = [Network::new(PREFIX, 0x6031), Network::new(PREFIX, 0x6032)];
        let nodes: Vec<NodeId> = (0..n).map(|_| whole.add_node()).collect();
        for s in &mut slices {
            for _ in 0..n {
                s.add_node();
            }
        }
        // The whole world holds the spanning chain; each slice holds
        // only the edges whose child it owns under `assign_bits`.
        for i in 1..n {
            whole.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            let shard = usize::from(assign_bits & (1 << i) != 0);
            slices[shard].link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
        }
        whole.set_link_degrade(Some(degrade));
        for s in &mut slices {
            s.set_link_degrade(Some(degrade));
        }
        for (a, b, millis) in probes {
            let (tx, rx) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            let at = SimTime::ZERO + SimDuration::from_millis(millis);
            let want = degrade.mode_at(tx, rx, at);
            prop_assert_eq!(whole.degrade_mode(tx, rx, at), want);
            prop_assert_eq!(slices[0].degrade_mode(tx, rx, at), want);
            prop_assert_eq!(slices[1].degrade_mode(tx, rx, at), want);
            // Constant inside the window: re-probe at the window's
            // midpoint and at its last nanosecond.
            let w = degrade.window.as_nanos().max(1);
            let idx = at.as_nanos() / w;
            for within in [idx * w + w / 2, idx * w + w - 1] {
                let t2 = SimTime::ZERO + SimDuration::from_nanos(within);
                prop_assert_eq!(degrade.mode_at(tx, rx, t2), want);
            }
        }
    }

    /// SMRF plans cover exactly the reachable members.
    #[test]
    fn smrf_covers_members(
        n in 2usize..16,
        member_bits in any::<u16>(),
        src in 0usize..16,
    ) {
        let mut topo = Topology::new(n);
        for i in 1..n {
            topo.link(i, (i - 1) / 2, LinkQuality::PERFECT);
        }
        let dodag = Dodag::build(&topo, 0);
        let src = src % n;
        let members: std::collections::BTreeSet<usize> =
            (0..n).filter(|i| member_bits & (1 << i) != 0).collect();
        let plan = upnp_net::smrf::plan(&dodag, src, &members).unwrap();
        let planned: std::collections::BTreeSet<usize> =
            plan.member_hops.iter().map(|(m, _)| *m).collect();
        prop_assert_eq!(planned, members);
    }
}
