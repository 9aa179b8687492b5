//! Fleet-scale integration tests: determinism and discovery correctness
//! at 500 Things (ISSUE 2's acceptance bar for the scenario harness).

use std::collections::BTreeMap;

use upnp_core::fleet::{Fleet, FleetConfig, FleetTopology, ScenarioMetrics};

const THINGS: usize = 500;

/// Everything deterministic about a scenario outcome (wall-clock and
/// throughput fields deliberately excluded).
fn virtual_summary(m: &ScenarioMetrics) -> String {
    m.deterministic_summary()
}

fn full_run(seed: u64) -> (u64, String) {
    let mut fleet = Fleet::build(FleetConfig::new(THINGS).with_seed(seed));
    let d = fleet.discovery_wave();
    let c = fleet.churn_storm(THINGS / 2);
    let s = fleet.steady_state(THINGS / 2);
    let summary = format!(
        "{}\n{}\n{}",
        virtual_summary(&d),
        virtual_summary(&c),
        virtual_summary(&s)
    );
    (fleet.fingerprint(), summary)
}

#[test]
fn same_seed_produces_identical_traces_at_500_nodes() {
    let (fp1, sum1) = full_run(0x6030);
    let (fp2, sum2) = full_run(0x6030);
    assert_eq!(sum1, sum2, "virtual metrics must be bit-identical");
    assert_eq!(fp1, fp2, "world fingerprints must match");
}

#[test]
fn different_seeds_diverge_at_500_nodes() {
    let (fp1, _) = full_run(1);
    let (fp2, _) = full_run(2);
    assert_ne!(fp1, fp2);
}

#[test]
fn every_plugged_thing_is_discovered_exactly_once_at_500_nodes() {
    let mut fleet = Fleet::build(FleetConfig::new(THINGS));
    let wave = fleet.discovery_wave();
    assert_eq!(wave.completed, THINGS, "every driver must install");

    // One location-free discovery per peripheral type in the pool; every
    // Thing must answer the query for its own peripheral exactly once.
    let client = fleet.clients[0];
    let devices: Vec<_> = (0..fleet.things.len())
        .map(|i| fleet.assigned_device(i))
        .collect();
    let mut unique_devices = devices.clone();
    unique_devices.sort_unstable_by_key(|d| d.raw());
    unique_devices.dedup();

    for device in unique_devices {
        let before = fleet.world.client(client).discovered.len();
        let found = fleet.world.client_discover(client, device);

        // The advert stream gained exactly one solicited entry per Thing
        // carrying this peripheral — no duplicates, no strays.
        let mut per_thing: BTreeMap<std::net::Ipv6Addr, usize> = BTreeMap::new();
        for d in &fleet.world.client(client).discovered[before..] {
            assert!(d.solicited, "wave adverts were consumed before");
            assert_eq!(d.peripheral, device.raw(), "wrong group answered");
            *per_thing.entry(d.thing).or_default() += 1;
        }
        let expected: Vec<std::net::Ipv6Addr> = (0..fleet.things.len())
            .filter(|&i| devices[i] == device)
            .map(|i| fleet.world.thing_addr(fleet.things[i]))
            .collect();
        assert_eq!(
            per_thing.len(),
            expected.len(),
            "every Thing with {device} answers"
        );
        for addr in &expected {
            assert_eq!(
                per_thing.get(addr),
                Some(&1),
                "{addr} must answer exactly once"
            );
        }
        // And the dedup'd convenience view agrees.
        assert_eq!(found.len(), expected.len());
    }
}

#[test]
fn tree_fleet_is_deterministic_and_complete() {
    let run = || {
        let config = FleetConfig::new(120)
            .with_seed(0xfee7)
            .with_topology(FleetTopology::Tree { fanout: 4 });
        let mut fleet = Fleet::build(config);
        let wave = fleet.discovery_wave();
        assert_eq!(wave.completed, 120);
        (fleet.fingerprint(), virtual_summary(&wave))
    };
    assert_eq!(run(), run());
}

#[test]
fn boards_retain_one_scan_of_waveform_after_churn() {
    // A board's scope capture holds its latest scan only — at most 32
    // transitions on a three-channel board — however many interrupts a
    // churn storm delivers, so board memory is bounded by fleet size,
    // not event history.
    let things = 200;
    let mut fleet = Fleet::build(FleetConfig::new(things).with_seed(0x6030));
    fleet.discovery_wave();
    fleet.churn_storm(2_000);
    let scans: u64 = fleet
        .things
        .iter()
        .map(|&t| fleet.world.thing(t).board().scans())
        .sum();
    let retained: usize = fleet
        .things
        .iter()
        .map(|&t| fleet.world.thing(t).board().trace().len())
        .sum();
    assert!(
        scans > 2 * things as u64,
        "the storm rescanned boards: {scans}"
    );
    assert!(
        retained <= 32 * things,
        "{retained} waveform events retained by {things} boards"
    );
}
