//! Tests for the §9 future-work features the reproduction implements:
//! location-aware discovery, the vendor/product identifier structure,
//! driver validation on the OTA path and multi-hop multicast discovery.

use micropnp::core::world::{World, WorldConfig};
use micropnp::hw::id::prototypes;
use micropnp::hw::vendor::{DeviceClass, StructuredId, VendorId};
use micropnp::net::link::LinkQuality;

#[test]
fn location_aware_discovery_filters_by_tag() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let lab = w.add_thing();
    let greenhouse = w.add_thing();
    let client = w.add_client();
    w.star_topology();

    w.set_location(lab, "lab");
    w.set_location(greenhouse, "greenhouse");
    w.plug_and_wait(lab, 0, prototypes::TMP36);
    w.plug_and_wait(greenhouse, 0, prototypes::TMP36);

    // Unfiltered discovery sees both.
    let all = w.client_discover(client, prototypes::TMP36);
    assert_eq!(all.len(), 2);

    // Location-filtered discovery sees exactly one.
    let green = w.client_discover_at(client, prototypes::TMP36, "greenhouse");
    assert_eq!(green, vec![w.thing_addr(greenhouse)]);
    let nowhere = w.client_discover_at(client, prototypes::TMP36, "attic");
    assert!(nowhere.is_empty());
}

#[test]
fn advertisements_carry_the_location_tlv() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();
    w.set_location(thing, "rooftop");
    w.plug_and_wait(thing, 0, prototypes::BMP180);

    let tlvs = w.client(client).discovered[0].tlvs();
    let loc = tlvs
        .iter()
        .find(|t| t.ty == micropnp::net::tlv::TlvType::Location)
        .and_then(|t| t.as_text());
    assert_eq!(loc, Some("rooftop"));
}

#[test]
fn structured_ids_flow_through_the_whole_pipeline() {
    // A vendor-structured identifier is just a flat id underneath: it
    // must solve to resistors, identify on a board and produce a working
    // multicast group.
    let sid = StructuredId::new(VendorId(0x0a0b), DeviceClass::Identification, 0xf03);
    let flat = sid.device_id();
    assert_eq!(StructuredId::from_device_id(flat), sid);

    let solved = micropnp::hw::solver::solve_resistors(flat).unwrap();
    assert!(micropnp::hw::solver::verify_solution(&solved));

    let group = micropnp::net::addr::peripheral_group(0x2001_0db8_0000, flat.raw());
    assert_eq!(micropnp::net::addr::peripheral_of(group), Some(flat.raw()));
}

#[test]
fn manager_rejects_invalid_driver_uploads() {
    use micropnp::dsl::image::{BusKind, DriverImage, GlobalSlot, HandlerEntry};

    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    w.star_topology();

    // A stack-bomb image: pushes without bound inside a loop.
    let bomb = DriverImage {
        device_id: 0x7777_0001,
        bus: BusKind::None,
        imports: vec![],
        globals: vec![GlobalSlot {
            ty: micropnp::dsl::ast::Type::U8,
            array_len: None,
        }],
        handlers: vec![
            HandlerEntry {
                event_id: 0,
                n_params: 0,
                offset: 0,
            },
            HandlerEntry {
                event_id: 1,
                n_params: 0,
                offset: 5,
            },
        ],
        // 0: PUSH8 1; 2: JMP -5 (back to 0); 5: RET.
        code: vec![0x01, 1, 0x50, 0xfb, 0xff, 0x63],
    };
    let err = w.manager_mut().publish_driver(bomb).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("stack") || msg.contains("inconsistent"),
        "unexpected verdict: {msg}"
    );

    // A well-formed third-party driver is accepted.
    let good = micropnp::dsl::compile_source(
        "event init():\n    return;\nevent destroy():\n    return;\n",
        0x7777_0002,
    )
    .unwrap();
    w.manager_mut().publish_driver(good).unwrap();
}

#[test]
fn multihop_discovery_latency_grows_with_depth() {
    // §9: "test the performance of multicast service discovery in
    // heterogeneous and multi-hop network environments". Chain networks
    // of increasing depth: discovery must still work, with monotonically
    // increasing round-trip latency.
    let mut last_latency = 0.0;
    for depth in 1..=4usize {
        let mut w = World::new(WorldConfig::default());
        let mgr = w.add_manager();
        let mut prev = mgr;
        let mut leaf = None;
        for _ in 0..depth {
            let t = w.add_thing();
            w.link(prev, w.thing_node(t), LinkQuality::PERFECT);
            prev = w.thing_node(t);
            leaf = Some(t);
        }
        let client = w.add_client();
        w.link(mgr, w.client(client).node, LinkQuality::PERFECT);
        w.build_tree(mgr);

        let leaf = leaf.unwrap();
        w.plug_and_wait(leaf, 0, prototypes::TMP36);

        let t0 = w.now();
        let found = w.client_discover(client, prototypes::TMP36);
        let latency = w.now().since(t0).as_millis_f64();
        assert_eq!(found.len(), 1, "depth {depth}");
        assert!(
            latency > last_latency,
            "depth {depth}: {latency} ms not > {last_latency} ms"
        );
        last_latency = latency;
    }
}

#[test]
fn multihop_lossy_multicast_delivery_degrades_gracefully() {
    // Lossy multi-hop: SMRF has no retries on the down-tree broadcast, so
    // delivery is probabilistic but the network must never wedge.
    let mut w = World::new(WorldConfig::default());
    let mgr = w.add_manager();
    let relay = w.add_thing();
    let leaf = w.add_thing();
    let client = w.add_client();
    w.link(mgr, w.thing_node(relay), LinkQuality::new(0.9));
    w.link(
        w.thing_node(relay),
        w.thing_node(leaf),
        LinkQuality::new(0.9),
    );
    w.link(mgr, w.client(client).node, LinkQuality::new(0.9));
    w.build_tree(mgr);

    w.plug_and_wait(leaf, 0, prototypes::TMP36);
    let mut hits = 0;
    for _ in 0..10 {
        if !w.client_discover(client, prototypes::TMP36).is_empty() {
            hits += 1;
        }
    }
    assert!(hits >= 5, "only {hits}/10 discoveries succeeded");
}

#[test]
fn over_the_air_driver_update_replaces_running_driver() {
    use micropnp::net::msg::Value;

    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();
    w.thing_mut(thing).runtime.hw.env.temperature_c = 25.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);

    // v1 reports degC; the vendor ships v2 reporting deci-degC.
    let v2_src = "\
import adc;
uint16_t raw;
float temp;
event init():
    signal adc.init();
event destroy():
    return;
event read():
    signal adc.read();
event sampleDone(uint16_t r):
    raw = r;
    temp = (((raw * 3.3) / 1023.0 - 0.5) * 100.0) * 10.0;
    return temp;
error timeOut():
    return;
";
    let v2 = micropnp::dsl::compile_source(v2_src, prototypes::TMP36.raw()).unwrap();
    w.manager_mut().publish_driver(v2).unwrap();

    // The manager learns who runs the driver, then pushes the update.
    let addr = w.thing_addr(thing);
    let q = w.manager_mut().query_drivers(addr);
    let mgr_node = w.manager().node;
    let now = w.now();
    w.net.send(now, mgr_node, q);
    w.run_until_idle();
    let pushes = w.manager_mut().push_update(prototypes::TMP36);
    assert_eq!(pushes.len(), 1);
    let now = w.now();
    for p in pushes {
        w.net.send(now, mgr_node, p);
    }
    w.run_until_idle();

    // The updated driver answers in deci-degC.
    let v = w.client_read(client, thing, prototypes::TMP36).unwrap();
    let Value::F32(deci) = v else { panic!("{v:?}") };
    assert!(
        (deci - 250.0).abs() < 15.0,
        "expected ~250 deci-degC, got {deci}"
    );

    // The registry recorded the new version.
    let entry = w.manager().registry.get(prototypes::TMP36).unwrap();
    assert!(entry.driver_versions.len() >= 2);
}
