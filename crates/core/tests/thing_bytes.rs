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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use upnp_core::fleet::{Fleet, FleetConfig};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
            LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

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
    // Measured: 5 907 B in 37.4 blocks (9 155 B in 42.4 blocks while the
    // driver manager pre-allocated eight slots, the driver cache held a
    // second decoded image, timelines sat in a `HashMap` and every Thing
    // cloned the catalog). The count is deterministic for a given seed and
    // toolchain. The headroom (≈ 4 % of bytes, 0.6 blocks) absorbs
    // growth-policy changes in std's collections, yet any one of those
    // four terms coming back (the smallest, the catalog clone, is 280 B
    // in one block) breaks a bound.
    assert!(bytes <= 6_144.0, "{bytes:.0} B per Thing (budget 6 144 B)");
    assert!(blocks <= 38.0, "{blocks:.1} blocks per Thing (budget 38)");
    drop(fleet);
}
