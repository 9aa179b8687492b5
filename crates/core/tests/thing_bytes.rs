//! Heap census of a discovered Thing.
//!
//! A counting global allocator tracks live heap bytes and blocks; the
//! test builds a 2 000-Thing star, runs one discovery wave and bounds
//! what the fleet holds afterwards, per Thing. Everything the fleet owns
//! is included (network, manager, clients' logs, boards), so the figure
//! is the footprint a Thing costs a simulation, not just `Thing`'s own
//! fields.
//!
//! This file holds exactly one test so that no concurrently running test
//! thread allocates inside the measured window.

mod common;

use common::live;
use upnp_core::fleet::{Fleet, FleetConfig};

const THINGS: usize = 2_000;

#[test]
fn a_discovered_thing_stays_within_its_heap_budget() {
    let (bytes0, blocks0) = live();
    let mut fleet = Fleet::build(FleetConfig::new(THINGS).with_seed(1));
    let wave = fleet.discovery_wave();
    assert_eq!(wave.completed, THINGS, "every Thing must be served");
    let (bytes1, blocks1) = live();
    let bytes = (bytes1 - bytes0) as f64 / THINGS as f64;
    let blocks = (blocks1 - blocks0) as f64 / THINGS as f64;
    eprintln!("live heap per discovered Thing: {bytes:.0} B in {blocks:.1} blocks");
    // Measured: 4 952 B in 16.4 blocks (5 907 B in 37.4 blocks while every
    // client kept a decoded copy of each advertisement's TLV tuples and
    // every Thing its own decoded driver image; 9 155 B in 42.4 blocks
    // before driver slots grew on install). The count is deterministic
    // for a given seed and toolchain. The headroom (≈ 3 % of bytes, 0.6
    // blocks) absorbs growth-policy changes in std's collections, yet
    // either term coming back breaks both bounds: a private image per
    // Thing is ≈ 750 B in 5 blocks, and the four clients' decoded copies
    // of one advertisement are 16 blocks.
    assert!(bytes <= 5_120.0, "{bytes:.0} B per Thing (budget 5 120 B)");
    assert!(blocks <= 17.0, "{blocks:.1} blocks per Thing (budget 17)");
    drop(fleet);
}
