//! Network-layer kernels: message codec, multicast address generation,
//! SMRF planning and frame-level sends.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use upnp_net::addr;
use upnp_net::link::LinkQuality;
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::smrf::{plan_from_path, MarkScratch};
use upnp_net::tlv::{Tlv, TlvType};
use upnp_net::{Datagram, Network};
use upnp_sim::{SimDuration, SimTime};

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_protocol");

    g.bench_function("generate_multicast_address", |b| {
        b.iter(|| black_box(addr::peripheral_group(0x2001_0db8_0000, 0xed3f_0ac1)))
    });

    let adv = Message {
        seq: 7,
        body: MessageBody::UnsolicitedAdvertisement(vec![AdvertisedPeripheral {
            peripheral: 0xad1c_be01,
            tlvs: vec![
                Tlv::text(TlvType::Name, "TMP36 temperature sensor"),
                Tlv::text(TlvType::Unit, "degC"),
                Tlv::new(TlvType::Channel, vec![0]),
            ],
        }]),
    };
    let wire = adv.encode();
    g.bench_function("encode_advertisement", |b| {
        b.iter(|| black_box(adv.encode()))
    });
    g.bench_function("decode_advertisement", |b| {
        b.iter(|| black_box(Message::decode(&wire).unwrap()))
    });

    g.bench_function("smrf_plan_64_nodes", |b| {
        // A binary tree of 64 nodes with 8 members.
        let mut topo = Topology::new(64);
        for i in 1..64 {
            topo.link(i, (i - 1) / 2, LinkQuality::PERFECT);
        }
        let dodag = Dodag::build(&topo, 0);
        let members: std::collections::BTreeSet<usize> = (56..64).collect();
        b.iter(|| black_box(upnp_net::smrf::plan(&dodag, 5, &members).unwrap()))
    });

    g.bench_function("smrf_plan_star_25k", |b| {
        // Fleet shape: one leaf's advertisement to a 4-client group on a
        // 25 000-child star, reusing the marking scratch as the network
        // does. The cost must not grow with the root's fan-out.
        let mut topo = Topology::new(25_001);
        for i in 1..=25_000 {
            topo.link(0, i, LinkQuality::PERFECT);
        }
        let dodag = Dodag::build(&topo, 0);
        let members: std::collections::BTreeSet<usize> = (1..=4).collect();
        let path = dodag.path_to_root(12_345);
        let mut scratch = MarkScratch::new();
        b.iter(|| black_box(plan_from_path(&dodag, &path, &members, &mut scratch).unwrap()))
    });

    g.bench_function("unicast_send_3_hops", |b| {
        let mut net = Network::new(0x2001_0db8_0000, 1);
        let n: Vec<_> = (0..4).map(|_| net.add_node()).collect();
        for w in n.windows(2) {
            net.link(w[0], w[1], LinkQuality::PERFECT);
        }
        net.build_tree(n[0]);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_secs(1);
            let d = Datagram {
                src: net.addr_of(n[3]),
                dst: net.addr_of(n[0]),
                src_port: addr::MCAST_PORT,
                dst_port: addr::MCAST_PORT,
                payload: vec![0; 32].into(),
            };
            black_box(net.send(t, n[3], d));
            net.poll(SimTime::MAX)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
