//! The assembled µPnP system — the paper's contribution glued together.
//!
//! Three network entities (paper §5):
//!
//! * a **µPnP Thing** ([`thing`]) — an IoT device with the control board,
//!   the execution environment of `upnp-vm`, and the network protocol:
//!   plug a peripheral in and it is identified, its driver fetched over
//!   the air, its multicast group joined and its services advertised;
//! * a **µPnP Client** ([`client`]) — discovers peripherals by type and
//!   invokes read/stream/write on them;
//! * a **µPnP Manager** ([`manager`]) — the anycast-addressed driver
//!   repository that deploys and removes drivers remotely.
//!
//! [`world`] hosts any number of these on a simulated 6LoWPAN network and
//! drives the global virtual clock — it is the top-level API the examples,
//! integration tests and benchmarks use. [`catalog`] maps device-type
//! identifiers to peripheral models and shipped drivers; [`registry`]
//! implements the global address space of §3.3.
//!
//! Beyond the paper, the world can also host the driver-distribution
//! tier of `upnp-distro`: [`world::World::add_cache`] places edge caches
//! as additional instances of the manager's anycast address, so driver
//! requests are served in-network instead of by the single origin.

pub use upnp_distro as distro;

pub mod catalog;
pub mod chaos;
pub mod client;
pub mod device_map;
pub mod fleet;
pub mod image_pool;
pub mod manager;
pub mod registry;
pub mod shard;
pub mod thing;
pub mod world;

pub use catalog::{Catalog, CatalogEntry};
pub use chaos::{ChaosConfig, SoakReport};
pub use client::Client;
pub use device_map::DeviceMap;
pub use fleet::{Fleet, FleetConfig, FleetTopology, LatencyStats, ScenarioMetrics, ShardedFleet};
pub use manager::Manager;
pub use registry::{AddressSpace, AllocationError, RegistryEntry};
pub use shard::ShardedWorld;
pub use thing::{PlugTimeline, Thing};
pub use world::{CacheId, DistroStats, SimWorld, World, WorldConfig};
