//! Per-layer host cost, measured from outside the program.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own inputs (its fleet size and shape, its device pool, its
//! message mix, its peak queue depth), and pairs it with the number of
//! such calls the traced run made, taken from the program's exact
//! counters and spans. [`shares`] multiplies the two to split the traced
//! wall by layer. The call counts are estimates where the program exposes
//! no exact counter; each one says where it comes from.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

use upnp_core::fleet::{Fleet, FleetConfig};
use upnp_core::world::WorldConfig;
use upnp_dsl::DriverImage;
use upnp_hw::id::DeviceTypeId;
use upnp_hw::peripheral::Interconnect;
use upnp_net::addr::MCAST_PORT;
use upnp_net::link::LinkQuality;
use upnp_net::msg::{Message, MessageBody, Value};
use upnp_net::network::{Datagram, Delivery, Network, NodeId};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::smrf::{self, MarkScratch};
use upnp_sim::{Scheduler, SimDuration, SimRng, SimTime};
use upnp_trace::{Span, SpanKind, TraceCtx, TraceSink, FLIGHT_RECORDER_CAPACITY};
use upnp_vm::runtime::PendingKind;

use crate::median;
use crate::workload::{Outcome, Size, Workload, FLASH_CACHES};

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 9;

/// Median host nanoseconds per call of `f`, over [`BATCHES`] batches
/// of `calls` calls each. `f` gets the call index.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let started = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(per_call)
}

/// One probed layer function: host ns per call, and how many calls the
/// traced run made.
pub struct Probe {
    pub ns_metric: &'static str,
    pub ns: f64,
    pub calls_metric: &'static str,
    pub calls: f64,
}

fn probe(ns_metric: &'static str, ns: f64, calls_metric: &'static str, calls: f64) -> Probe {
    Probe {
        ns_metric,
        ns,
        calls_metric,
        calls,
    }
}

/// Probes every layer function for `workload` at `size`, with the call
/// counts of `traced`, the traced run's outcome.
pub fn probes(workload: Workload, size: Size, seed: u64, traced: &Outcome) -> Vec<Probe> {
    let pool = FleetConfig::new(1).device_pool;
    let mut fleet = Fleet::build(FleetConfig::new(8 * pool.len()).with_seed(seed));
    fleet.discovery_wave();
    let images: Vec<(DeviceTypeId, Vec<u8>)> = pool
        .iter()
        .map(|&d| {
            let image = fleet.world.manager().driver_for(d).expect("catalog driver");
            (d, image.to_bytes())
        })
        .collect();
    let (encode_ns, decode_ns) = codec(&message_mix(workload, &images));

    let m = &traced.metrics;
    let spans = span_counts(&traced.spans);
    let count = |kind: SpanKind| spans.get(&kind).map_or(0, |s| s.0) as f64;
    // Every datagram a node receives is either its freshly allocated
    // payload or a refcounted multicast share of one.
    let deliveries = (m.payload_allocs + m.payload_clones) as f64;
    let distro_calls =
        (m.cache_hits + m.cache_misses + m.cache_coalesced) as f64 + count(SpanKind::ChunkFetch);
    let manager_calls =
        (m.origin_uploads + m.mgr_removal_acks) as f64 + count(SpanKind::ChunkFetch);
    // Manager and cache calls decode their request and encode their reply
    // themselves, so the codec is charged only for the other messages.
    let encodes = (m.payload_allocs as f64 - manager_calls - distro_calls).max(0.0);
    let decodes = (deliveries - manager_calls - distro_calls).max(0.0);
    // Plans are memoised per (group, source): a fresh fleet's wave plans
    // each Thing's first advertisement once, while steady and churn reuse
    // what their warm-up wave memoised.
    let plans = match workload {
        Workload::Discovery | Workload::Flash => count(SpanKind::Advertise),
        Workload::Steady | Workload::Churn => 0.0,
    };
    // A churn event that is not a plug is an unplug, which scans too.
    let unplugs = match workload {
        Workload::Churn => (m.events as f64 - count(SpanKind::Plug)).max(0.0),
        _ => 0.0,
    };
    let reads = match workload {
        Workload::Steady => (m.latency.samples + traced.stream_samples) as f64,
        _ => 0.0,
    };
    vec![
        probe(
            "sim.sched.ns_per_op",
            sched(workload, m.events),
            "sim.sched.ops",
            m.events as f64 + deliveries,
        ),
        probe(
            "net.send.ns_per_frame",
            net_send(workload, size, seed, &images),
            "net.frames",
            m.frames_tx as f64,
        ),
        probe(
            "net.codec.encode_ns",
            encode_ns,
            "net.codec.encodes",
            encodes,
        ),
        probe(
            "net.codec.decode_ns",
            decode_ns,
            "net.codec.decodes",
            decodes,
        ),
        probe(
            "net.smrf.plan_ns",
            smrf_plan(workload, size),
            "net.smrf.plans",
            plans,
        ),
        probe(
            "hw.scan.ns",
            scan(&mut fleet),
            "hw.scan.calls",
            count(SpanKind::Scan) + unplugs,
        ),
        probe(
            "dsl.decode_verify.ns",
            decode_verify(&images),
            "dsl.decode_verify.calls",
            count(SpanKind::Verify),
        ),
        probe(
            "vm.install.ns",
            install(&mut fleet, &images),
            "vm.install.calls",
            count(SpanKind::Install),
        ),
        probe("vm.read.ns", read(&mut fleet), "vm.read.calls", reads),
        probe(
            "distro.on_datagram.ns",
            distro(&mut fleet, &images),
            "distro.on_datagram.calls",
            distro_calls,
        ),
        probe(
            "core.manager.on_datagram.ns",
            manager(&mut fleet, &images),
            "core.manager.on_datagram.calls",
            manager_calls,
        ),
        probe(
            "trace.record.ns",
            record(&traced.spans),
            "trace.record.calls",
            traced.spans.len() as f64,
        ),
    ]
}

/// One push and one pop of a network delivery (the queue's own entry
/// type) at the workload's peak depth, with the workload's spacing:
/// `flash` schedules everything at one instant, the others at the
/// fleet's stagger.
fn sched(workload: Workload, depth: usize) -> f64 {
    let depth = depth.max(1);
    let spacing = if workload == Workload::Flash {
        0
    } else {
        FleetConfig::new(1).stagger.as_nanos()
    };
    let local = Ipv6Addr::LOCALHOST;
    let dgram = datagram(local, local, MessageBody::Read { peripheral: 1 });
    let mut queue: Scheduler<Delivery> = Scheduler::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        let at = SimTime::from_nanos(i * spacing);
        let node = NodeId(i as u32);
        queue.schedule_at(
            at,
            Delivery {
                at,
                node,
                dgram: dgram.clone(),
            },
        );
    }
    let horizon = depth as u64 * spacing;
    ns_per_call(20_000, |_| {
        let mut entry = queue.pop().expect("queue kept at depth").event;
        entry.at = SimTime::from_nanos(entry.at.as_nanos() + horizon);
        queue.schedule_at(entry.at, black_box(entry));
    })
}

/// The workload's network in fleet-build order: the border router (0),
/// the edge caches, the Things (each under the head the fleet builder
/// gives it) and the clients next to the border router.
struct Shape {
    nodes: usize,
    links: Vec<(usize, usize)>,
    first_thing: usize,
    things: usize,
    clients: Vec<usize>,
}

impl Shape {
    fn of(workload: Workload, size: Size) -> Shape {
        let caches = if workload == Workload::Flash {
            FLASH_CACHES
        } else {
            0
        };
        let clients = FleetConfig::new(size.things).clients;
        let first_thing = 1 + caches;
        let first_client = first_thing + size.things;
        let mut links: Vec<(usize, usize)> = (1..first_thing).map(|c| (0, c)).collect();
        for i in 0..size.things {
            let head = if caches == 0 { 0 } else { 1 + i % caches };
            links.push((head, first_thing + i));
        }
        links.extend((first_client..first_client + clients).map(|c| (0, c)));
        Shape {
            nodes: first_client + clients,
            links,
            first_thing,
            things: size.things,
            clients: (first_client..first_client + clients).collect(),
        }
    }
}

/// `Network::send` of the workload's legs on a network of its size and
/// shape: a driver request up to the border router, the driver upload
/// back down, and the Thing's advertisement multicast to the clients,
/// for a spread of Things. Reported per radio frame put on the air.
fn net_send(workload: Workload, size: Size, seed: u64, images: &[(DeviceTypeId, Vec<u8>)]) -> f64 {
    let shape = Shape::of(workload, size);
    let prefix = WorldConfig::default().prefix;
    let mut net = Network::with_capacity(prefix, seed, shape.nodes);
    for _ in 0..shape.nodes {
        net.add_node();
    }
    for &(a, b) in &shape.links {
        net.link(NodeId(a as u32), NodeId(b as u32), LinkQuality::PERFECT);
    }
    net.build_tree(NodeId(0));
    let all_clients = upnp_net::addr::all_clients_group(prefix);
    for &c in &shape.clients {
        net.join_group(NodeId(c as u32), all_clients);
    }
    let root = net.addr_of(NodeId(0));
    let mut rng = SimRng::seed(seed);
    let legs: Vec<(NodeId, Datagram)> = (0..1024)
        .flat_map(|j| {
            let thing = NodeId((shape.first_thing + rng.index(shape.things)) as u32);
            let addr = net.addr_of(thing);
            let (device, image) = &images[j % images.len()];
            let peripheral = device.raw();
            let request = MessageBody::DriverRequest { peripheral };
            let upload = MessageBody::DriverUpload {
                peripheral,
                image: image.clone(),
            };
            [
                (thing, datagram(addr, root, request)),
                (NodeId(0), datagram(root, addr, upload)),
                (
                    thing,
                    datagram(addr, all_clients, advertisement(peripheral)),
                ),
            ]
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut frames = 0u64;
    let mut buf: Vec<Delivery> = Vec::new();
    let mut batch_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for (from, dgram) in &legs {
            frames += net.send(now, *from, dgram.clone()).frames as u64;
        }
        batch_ns.push(started.elapsed().as_nanos() as f64);
        now += SimDuration::from_secs(10);
        buf.clear();
        net.poll_into(now, &mut buf);
    }
    let frames_per_batch = frames as f64 / BATCHES as f64;
    median(batch_ns) / frames_per_batch
}

fn advertisement(peripheral: u32) -> MessageBody {
    MessageBody::UnsolicitedAdvertisement(vec![upnp_net::msg::AdvertisedPeripheral {
        peripheral,
        tlvs: Vec::new(),
    }])
}

fn datagram(src: Ipv6Addr, dst: Ipv6Addr, body: MessageBody) -> Datagram {
    Datagram {
        src,
        dst,
        src_port: MCAST_PORT,
        dst_port: MCAST_PORT,
        payload: Message { seq: 1, body }.encode().into(),
    }
}

/// The messages a workload puts on the air, one per protocol leg.
fn message_mix(workload: Workload, images: &[(DeviceTypeId, Vec<u8>)]) -> Vec<Message> {
    let mut mix = Vec::new();
    for (device, image) in images {
        let peripheral = device.raw();
        let bodies = match workload {
            Workload::Discovery | Workload::Flash => {
                let mut legs = vec![
                    MessageBody::DriverRequest { peripheral },
                    MessageBody::DriverUpload {
                        peripheral,
                        image: image.clone(),
                    },
                    advertisement(peripheral),
                ];
                if workload == Workload::Flash {
                    legs.push(MessageBody::DriverChunkRequest {
                        peripheral,
                        session: 1,
                        chunk: 0,
                    });
                    legs.push(MessageBody::DriverChunk {
                        peripheral,
                        version: 1,
                        chunk: 0,
                        total: 1,
                        data: image.iter().copied().take(64).collect(),
                    });
                }
                legs
            }
            Workload::Steady => vec![
                MessageBody::Read { peripheral },
                MessageBody::Data {
                    peripheral,
                    value: Value::F32(21.5),
                },
                MessageBody::StreamData {
                    peripheral,
                    value: Value::F32(21.5),
                },
            ],
            Workload::Churn => vec![
                MessageBody::DriverRemovalAck {
                    peripheral,
                    removed: true,
                },
                advertisement(peripheral),
            ],
        };
        mix.extend(bodies.into_iter().map(|body| Message { seq: 7, body }));
    }
    mix
}

/// Mean host ns per `Message::encode` and per `Message::decode` over the
/// workload's message mix.
fn codec(mix: &[Message]) -> (f64, f64) {
    let encoded: Vec<Vec<u8>> = mix.iter().map(Message::encode).collect();
    let encode = ns_per_call(20_000, |i| {
        black_box(black_box(&mix[i % mix.len()]).encode());
    });
    let decode = ns_per_call(20_000, |i| {
        black_box(Message::decode(black_box(&encoded[i % encoded.len()])));
    });
    (encode, decode)
}

/// One SMRF plan for the multicast every wave sends once per Thing: its
/// advertisement to the all-clients group, from a spread of Things,
/// reusing the marking scratch as the network does.
fn smrf_plan(workload: Workload, size: Size) -> f64 {
    let shape = Shape::of(workload, size);
    let mut topo = Topology::new(shape.nodes);
    for &(a, b) in &shape.links {
        topo.link(a, b, LinkQuality::PERFECT);
    }
    let dodag = Dodag::build(&topo, 0);
    let members: BTreeSet<usize> = shape.clients.iter().copied().collect();
    let mut rng = SimRng::seed(size.things as u64);
    let paths: Vec<Vec<usize>> = (0..256)
        .map(|_| dodag.path_to_root(shape.first_thing + rng.index(shape.things)))
        .collect();
    let mut scratch = MarkScratch::new();
    ns_per_call(2_000, |i| {
        let plan = smrf::plan_from_path(&dodag, &paths[i % paths.len()], &members, &mut scratch);
        black_box(plan);
    })
}

/// A full bus scan of a Thing's board with its pool peripheral plugged.
fn scan(fleet: &mut Fleet) -> f64 {
    let things = fleet.things.clone();
    let now = fleet.world.now();
    ns_per_call(200, |i| {
        let board = fleet.world.thing_mut(things[i % things.len()]).board_mut();
        black_box(board.scan(now, 25.0));
    })
}

/// `DriverImage::from_bytes` plus `verify` over the pool's images.
fn decode_verify(images: &[(DeviceTypeId, Vec<u8>)]) -> f64 {
    ns_per_call(2_000, |i| {
        let image = DriverImage::from_bytes(black_box(&images[i % images.len()].1))
            .expect("catalog image decodes");
        black_box(upnp_dsl::verify(&image)).expect("catalog image verifies");
    })
}

/// One driver reinstall on a Thing's runtime: remove the installed
/// driver, install a fresh copy of the same image and run its `init`.
fn install(fleet: &mut Fleet, images: &[(DeviceTypeId, Vec<u8>)]) -> f64 {
    let decoded: BTreeMap<u32, DriverImage> = images
        .iter()
        .map(|(d, bytes)| (d.raw(), DriverImage::from_bytes(bytes).expect("decodes")))
        .collect();
    let things = fleet.things.clone();
    ns_per_call(500, |i| {
        let t = things[i % things.len()];
        let device = fleet.assigned_device(i % things.len()).raw();
        let runtime = &mut fleet.world.thing_mut(t).runtime;
        let slot = runtime.manager.slot_for_device(device).expect("installed");
        runtime.remove_driver(slot);
        runtime.run_until_idle();
        runtime
            .install_driver(decoded[&device].clone(), 0)
            .expect("reinstall fits");
        black_box(runtime.run_until_idle());
    })
}

/// One `read` handler run on a Thing's runtime, for Things whose
/// peripheral answers reads unprompted (as `steady_state` picks them).
fn read(fleet: &mut Fleet) -> f64 {
    let readable: Vec<(usize, u32)> = (0..fleet.things.len())
        .filter_map(|i| {
            let device = fleet.assigned_device(i);
            let entry = fleet.world.catalog().get(device)?;
            (entry.interconnect != Interconnect::Uart).then_some((i, device.raw()))
        })
        .collect();
    ns_per_call(500, |i| {
        let (t, device) = readable[i % readable.len()];
        let runtime = &mut fleet.world.thing_mut(fleet.things[t]).runtime;
        let slot = runtime.manager.slot_for_device(device).expect("installed");
        runtime.request(slot, PendingKind::Read, Vec::new());
        black_box(runtime.run_until_idle());
    })
}

/// A driver request answered by a warm edge cache (the hit path that
/// serves 99.9% of `flash`). The cache is warmed through a real chunked
/// fetch from the probe fleet's origin Manager.
fn distro(fleet: &mut Fleet, images: &[(DeviceTypeId, Vec<u8>)]) -> f64 {
    use upnp_distro::{CacheAction, CacheConfig, EdgeCache};
    let origin = fleet.world.manager().address;
    let cache_addr: Ipv6Addr = "2001:db8::cace".parse().expect("valid address");
    let mut cache = EdgeCache::new(NodeId(u32::MAX), cache_addr, origin, CacheConfig::default());
    let requester = fleet.world.thing_addr(fleet.things[0]);
    let requests: Vec<Datagram> = images
        .iter()
        .map(|(d, _)| {
            datagram(
                requester,
                cache_addr,
                MessageBody::DriverRequest {
                    peripheral: d.raw(),
                },
            )
        })
        .collect();
    for request in &requests {
        let mut inbox = vec![request.clone()];
        while let Some(dgram) = inbox.pop() {
            for action in cache.on_datagram(&dgram).actions {
                if let CacheAction::Send(out) = action {
                    if out.dst == origin {
                        let (replies, _, _) = fleet.world.manager_mut().on_datagram(&out);
                        inbox.extend(replies);
                    }
                }
            }
        }
    }
    assert_eq!(cache.len(), images.len(), "every pool image cached");
    ns_per_call(5_000, |i| {
        black_box(cache.on_datagram(black_box(&requests[i % requests.len()])));
    })
}

/// The origin Manager's `on_datagram` on (4) driver requests, its
/// traffic in every wave.
fn manager(fleet: &mut Fleet, images: &[(DeviceTypeId, Vec<u8>)]) -> f64 {
    let manager_anycast = fleet.world.manager_anycast;
    let inbound: Vec<Datagram> = fleet
        .things
        .iter()
        .zip(images.iter().cycle())
        .map(|(&t, (d, _))| {
            let request = MessageBody::DriverRequest {
                peripheral: d.raw(),
            };
            datagram(fleet.world.thing_addr(t), manager_anycast, request)
        })
        .collect();
    let manager = fleet.world.manager_mut();
    ns_per_call(2_000, |i| {
        black_box(manager.on_datagram(black_box(&inbound[i % inbound.len()])));
    })
}

/// `TraceSink::record` of the traced run's own spans (a synthetic plug
/// span when the workload records none).
fn record(spans: &[Span]) -> f64 {
    let fallback = [Span::new(TraceCtx::NONE, SpanKind::Plug, 1, 0, 1)];
    let spans = if spans.is_empty() {
        &fallback[..]
    } else {
        spans
    };
    let mut sink = TraceSink::new(true, FLIGHT_RECORDER_CAPACITY);
    let ns = ns_per_call(20_000, |i| {
        sink.record(black_box(spans[i % spans.len()]));
        if sink.len() >= 1 << 16 {
            sink.take_spans();
        }
    });
    black_box(sink.len());
    ns
}

/// Each layer's busy share of the traced run, calls × ns per call over
/// the traced wall times the threads it ran on, in [`LAYERS`] order; the
/// metric prefix names the layer.
pub fn shares(probes: &[Probe], wall_s: f64, threads: usize) -> Vec<(&'static str, f64)> {
    let wall_ns = wall_s * 1e9 * threads as f64;
    LAYERS
        .iter()
        .map(|&layer| {
            let busy_ns: f64 = probes
                .iter()
                .filter(|p| p.ns_metric.split('.').next() == Some(layer))
                .map(|p| p.calls * p.ns)
                .sum();
            (layer, busy_ns / wall_ns)
        })
        .collect()
}

/// The workspace crates on the hot path, in pipeline order.
pub const LAYERS: [&str; 8] = ["sim", "net", "hw", "dsl", "vm", "distro", "core", "trace"];

/// Span count and summed virtual duration (ns) per kind.
pub fn span_counts(spans: &[Span]) -> BTreeMap<SpanKind, (u64, u64)> {
    let mut by_kind = BTreeMap::new();
    for s in spans {
        let e = by_kind.entry(s.kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
    }
    by_kind
}
