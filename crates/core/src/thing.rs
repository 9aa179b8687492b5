//! The µPnP Thing: an IoT device with the control board, the execution
//! environment and the network protocol (paper §5, Figure 8).
//!
//! The Thing's life is event-driven:
//!
//! 1. the board's interrupt fires on plug/unplug → identification scan;
//! 2. a newly identified peripheral either has its driver locally or a
//!    (4) driver request goes to the manager's anycast address;
//! 3. on (5) driver upload: install, fire `init`, generate the
//!    peripheral's multicast address, join the group and send a (1)
//!    unsolicited advertisement to all clients;
//! 4. (2) discovery, (10) read, (12) stream, (16) write and the driver
//!    management messages are answered per §5.2–5.3.

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

use upnp_dsl::image::DriverImage;
use upnp_hw::board::ControlBoard;
use upnp_hw::channels::ChannelId;
use upnp_hw::id::DeviceTypeId;
use upnp_net::addr;
use upnp_net::calib;
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody, SeqNo, Value};
use upnp_net::tlv::{Tlv, TlvType};
use upnp_net::{Datagram, NodeId};
use upnp_sim::{SimDuration, SimTime};
use upnp_vm::controller::{PeripheralChange, PeripheralController};
use upnp_vm::runtime::{OpToken, PendingKind, Runtime};
use upnp_vm::vm::ReturnValue;

use crate::catalog::Catalog;
use crate::device_map::DeviceMap;
use crate::image_pool::ImagePool;

/// Whether a driver's scalar return is float- or integer-valued (carried
/// here rather than in the image format; a production registry would ship
/// it as driver metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Scalar float (e.g. degrees Celsius).
    Float,
    /// Scalar integer (e.g. pascals).
    Int,
}

/// Instrumentation of one plug-to-advertised pipeline (regenerates the
/// paper's Table 4 and the §8 "488.53 ms" claim).
#[derive(Debug, Clone, Default)]
pub struct PlugTimeline {
    /// Identification scan duration.
    pub scan: Option<SimDuration>,
    /// Driver request initiated (thing clock).
    pub request_sent: Option<SimTime>,
    /// Manager finished preparing the upload (world clock).
    pub upload_sent: Option<SimTime>,
    /// Upload delivered to the Thing.
    pub upload_received: Option<SimTime>,
    /// Driver installed and `init` completed.
    pub installed: Option<SimTime>,
    /// Multicast address generation duration.
    pub generate_addr: Option<SimDuration>,
    /// Group join duration.
    pub join_group: Option<SimDuration>,
    /// Advertisement build+send duration (up to last radio bit).
    pub advertise: Option<SimDuration>,
    /// Scan start (thing clock).
    pub scan_started: Option<SimTime>,
    /// Advertisement completed (thing clock).
    pub finished: Option<SimTime>,
    /// Deterministic trace id of the most recent plug of this
    /// peripheral (stamped by the world even when tracing is disabled,
    /// so chaos recovery attribution can name the serving trace).
    pub trace_id: u64,
}

impl PlugTimeline {
    /// `request driver` row: request sent → upload ready at the manager.
    pub fn request_driver(&self) -> Option<SimDuration> {
        Some(self.upload_sent?.saturating_since(self.request_sent?))
    }

    /// `install driver` row: upload ready → driver installed and started.
    pub fn install_driver(&self) -> Option<SimDuration> {
        Some(self.installed?.saturating_since(self.upload_sent?))
    }

    /// End-to-end plug-to-advertised time (the paper's §8 total).
    pub fn total(&self) -> Option<SimDuration> {
        Some(self.finished?.saturating_since(self.scan_started?))
    }
}

/// Side effects a Thing asks the world to perform.
#[derive(Debug)]
pub enum Outbound {
    /// Transmit a datagram (at the thing's current clock).
    Send(Datagram),
    /// Join a multicast group at the network layer.
    JoinGroup(Ipv6Addr),
    /// Leave a multicast group.
    LeaveGroup(Ipv6Addr),
    /// Schedule periodic stream ticks for a peripheral.
    StartStream {
        /// The streaming peripheral.
        peripheral: u32,
    },
    /// Stop the stream ticks for a peripheral.
    StopStream {
        /// The peripheral whose stream ended.
        peripheral: u32,
    },
}

#[derive(Debug)]
struct StreamState {
    group: Ipv6Addr,
    remaining: u32,
}

/// What a revive found in the torn flash staging area (see
/// [`Thing::revive_mcu`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashRecovery {
    /// Half-written images rejected on revive — stale install
    /// generation, or failed `verify()`.
    pub rejected: u64,
    /// Driver requests reissued end-to-end for peripherals still
    /// waiting (the refetch never stitches across the crash).
    pub refetches: u64,
}

/// The µPnP Thing.
pub struct Thing {
    /// This Thing's network node.
    pub node: NodeId,
    /// This Thing's unicast address.
    pub address: Ipv6Addr,
    /// The execution environment (buses, VM, router, drivers).
    pub runtime: Runtime,
    controller: PeripheralController,
    catalog: Catalog,
    prefix: u64,
    seq: SeqNo,
    /// Locally cached driver images by device id, shared with the
    /// drivers installed from them.
    driver_cache: DeviceMap<Arc<DriverImage>>,
    /// Peripherals waiting for a driver upload: device id → channels
    /// awaiting it, in plug order (one device type may be plugged on
    /// several channels at once).
    awaiting_driver: DeviceMap<Vec<ChannelId>>,
    /// In-flight remote operations: token → (reply seq, requester,
    /// peripheral, stream?).
    pending_ops: HashMap<OpToken, (SeqNo, Ipv6Addr, u32, bool)>,
    /// Active streams by peripheral id.
    streams: DeviceMap<StreamState>,
    /// Plug pipeline instrumentation by device id.
    pub timelines: DeviceMap<PlugTimeline>,
    /// Ambient temperature used for identification scans.
    pub scan_temp_c: f64,
    /// Samples per stream before `Closed` (configurable).
    pub stream_samples: u32,
    /// Physical location tag; discoveries carrying a `Location` TLV are
    /// only answered when it matches (§9's location-aware discovery).
    pub location: Option<String>,
    /// Flash install generation — bumped on every MCU crash, the same
    /// generation-stamp discipline the edge cache uses to fence stale
    /// chunk sessions across its own crashes. An image staged under an
    /// older generation can never be accepted after a crash.
    install_gen: u64,
    /// Driver bytes that were mid-flash when the MCU died: `(install
    /// generation at staging time, peripheral, the torn prefix)`.
    torn_flash: Vec<(u64, u32, Vec<u8>)>,
}

impl Thing {
    /// Creates a Thing on `node` with a sampled control board and its
    /// execution environment (typically stamped from the world's
    /// [`RuntimeTemplate`](upnp_vm::runtime::RuntimeTemplate)).
    pub fn new(
        node: NodeId,
        address: Ipv6Addr,
        prefix: u64,
        board: ControlBoard,
        catalog: Catalog,
        runtime: Runtime,
    ) -> Self {
        Thing {
            node,
            address,
            runtime,
            controller: PeripheralController::new(board),
            catalog,
            prefix,
            seq: 0,
            driver_cache: DeviceMap::new(),
            awaiting_driver: DeviceMap::new(),
            pending_ops: HashMap::new(),
            streams: DeviceMap::new(),
            timelines: DeviceMap::new(),
            scan_temp_c: 25.0,
            stream_samples: 5,
            location: None,
            install_gen: 0,
            torn_flash: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// The control board (plug/unplug peripherals, inspect traces).
    pub fn board_mut(&mut self) -> &mut ControlBoard {
        self.controller.board_mut()
    }

    /// The control board, immutable.
    pub fn board(&self) -> &ControlBoard {
        self.controller.board()
    }

    /// True if the board interrupt is pending.
    pub fn interrupt_pending(&self) -> bool {
        self.controller.interrupt_pending()
    }

    /// Device ids of currently driver-served peripherals.
    pub fn served_peripherals(&self) -> Vec<u32> {
        self.runtime
            .manager
            .iter()
            .map(|(_, d)| d.device_id)
            .collect()
    }

    /// True if an installed driver serves `device_id` (without building
    /// the [`Thing::served_peripherals`] list).
    pub fn serves(&self, device_id: u32) -> bool {
        self.runtime.manager.slot_for_device(device_id).is_some()
    }

    /// Services the board interrupt at world time `now`: runs the scan and
    /// reacts to every change.
    pub fn service_interrupt(&mut self, now: SimTime, mgr_anycast: Ipv6Addr) -> Vec<Outbound> {
        if self.runtime.now() < now {
            self.runtime.advance_to(now);
        }
        let scan_start = self.runtime.now();
        let (outcome, changes) = self
            .controller
            .service_interrupt(scan_start, self.scan_temp_c);
        self.runtime.advance_to(outcome.finished);

        let mut out = Vec::new();
        for change in changes {
            match change {
                PeripheralChange::Connected { channel, device_id } => {
                    let tl = self.timelines.get_or_default(device_id.raw());
                    tl.scan_started = Some(scan_start);
                    tl.scan = Some(outcome.duration());
                    if let Some(image) = self.driver_cache.get(device_id.raw()).cloned() {
                        out.extend(self.activate_driver(channel, device_id, image));
                    } else {
                        out.extend(self.request_driver(device_id, mgr_anycast));
                        self.awaiting_driver
                            .get_or_default(device_id.raw())
                            .push(channel);
                    }
                }
                PeripheralChange::Disconnected { channel, device_id } => {
                    out.extend(self.deactivate_driver(channel, device_id));
                }
                PeripheralChange::IdentificationFailed { .. } => {
                    // The MCU will retry on the next interrupt; nothing to
                    // send.
                }
            }
        }
        out
    }

    fn request_driver(&mut self, device_id: DeviceTypeId, mgr: Ipv6Addr) -> Vec<Outbound> {
        // The request-driver leg starts when the Thing decides to ask, so
        // its own send path counts into the measured row.
        if let Some(tl) = self.timelines.get_mut(device_id.raw()) {
            tl.request_sent = Some(self.runtime.now());
        }
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        vec![Outbound::Send(self.datagram(
            mgr,
            Message {
                seq,
                body: MessageBody::DriverRequest {
                    peripheral: device_id.raw(),
                },
            },
        ))]
    }

    /// Installs `image` for the peripheral on `channel`, joins its group
    /// and advertises it.
    fn activate_driver(
        &mut self,
        channel: ChannelId,
        device_id: DeviceTypeId,
        image: Arc<DriverImage>,
    ) -> Vec<Outbound> {
        let mut out = Vec::new();
        // Install cost scales with the image size (flash write).
        let size = image.size_bytes();
        self.runtime
            .charge(calib::INSTALL_PER_BYTE.times(size as u64));
        let Ok(slot) = self.runtime.install_driver(image, channel.0) else {
            return out;
        };
        self.catalog.attach(&mut self.runtime, slot, device_id);
        self.runtime.run_until_idle(); // the driver's init handler
        if let Some(tl) = self.timelines.get_mut(device_id.raw()) {
            tl.installed = Some(self.runtime.now());
        }

        // Generate the peripheral's multicast address (§5.1).
        let t0 = self.runtime.now();
        self.runtime.charge(calib::GEN_MCAST_ADDR);
        let group = addr::peripheral_group(self.prefix, device_id.raw());
        let t1 = self.runtime.now();

        // Join the group.
        self.runtime.charge(calib::JOIN_GROUP);
        out.push(Outbound::JoinGroup(group));
        let t2 = self.runtime.now();

        // Build and send the unsolicited advertisement.
        self.runtime.charge(calib::BUILD_ADVERTISEMENT);
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        out.push(Outbound::Send(self.datagram(
            addr::all_clients_group(self.prefix),
            Message {
                seq,
                body: MessageBody::UnsolicitedAdvertisement(vec![
                    self.advertised(device_id, channel),
                ]),
            },
        )));
        let t3 = self.runtime.now();

        if let Some(tl) = self.timelines.get_mut(device_id.raw()) {
            tl.generate_addr = Some(t1.since(t0));
            tl.join_group = Some(t2.since(t1));
            tl.advertise = Some(t3.since(t2));
            tl.finished = Some(t3);
        }
        out
    }

    fn deactivate_driver(&mut self, channel: ChannelId, device_id: DeviceTypeId) -> Vec<Outbound> {
        let mut out = Vec::new();
        // Cancel the in-flight driver request for *this* channel: an
        // upload racing this unplug must not activate a driver for a
        // peripheral that is no longer present (it is cached for the
        // next plug instead). Other channels carrying the same device
        // type keep their pending requests.
        if let Some(waiting) = self.awaiting_driver.get_mut(device_id.raw()) {
            waiting.retain(|&c| c != channel);
            if waiting.is_empty() {
                self.awaiting_driver.remove(device_id.raw());
            }
        }
        if let Some(slot) = self.runtime.manager.slot_for_channel(channel.0) {
            self.runtime.remove_driver(slot);
            self.catalog.detach(&mut self.runtime, slot, device_id);
        }
        let group = addr::peripheral_group(self.prefix, device_id.raw());
        out.push(Outbound::LeaveGroup(group));
        if let Some(stream) = self.streams.remove(device_id.raw()) {
            let seq = self.next_seq();
            out.push(Outbound::Send(self.datagram(
                stream.group,
                Message {
                    seq,
                    body: MessageBody::Closed {
                        peripheral: device_id.raw(),
                    },
                },
            )));
            out.push(Outbound::StopStream {
                peripheral: device_id.raw(),
            });
        }
        // Unplug also triggers an unsolicited advertisement (§5.2.1:
        // "whenever a new peripheral is connected or disconnected").
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        out.push(Outbound::Send(self.datagram(
            addr::all_clients_group(self.prefix),
            Message {
                seq,
                body: MessageBody::UnsolicitedAdvertisement(self.current_advertisement()),
            },
        )));
        out
    }

    fn advertised(&self, device_id: DeviceTypeId, channel: ChannelId) -> AdvertisedPeripheral {
        let mut tlvs = vec![Tlv::new(TlvType::Channel, vec![channel.0])];
        if let Some(entry) = self.catalog.get(device_id) {
            tlvs.push(Tlv::text(TlvType::Name, entry.name));
            tlvs.push(Tlv::text(TlvType::Unit, entry.unit));
        }
        if let Some(location) = &self.location {
            tlvs.push(Tlv::text(TlvType::Location, location));
        }
        AdvertisedPeripheral {
            peripheral: device_id.raw(),
            tlvs,
        }
    }

    fn current_advertisement(&self) -> Vec<AdvertisedPeripheral> {
        self.runtime
            .manager
            .iter()
            .map(|(_, d)| self.advertised(DeviceTypeId::new(d.device_id), ChannelId(d.channel)))
            .collect()
    }

    fn datagram(&self, dst: Ipv6Addr, msg: Message) -> Datagram {
        Datagram {
            src: self.address,
            dst,
            src_port: addr::MCAST_PORT,
            dst_port: addr::MCAST_PORT,
            payload: msg.encode().into(),
        }
    }

    /// The stream multicast group for one of this Thing's peripherals:
    /// distinct from the discovery group (the pad field carries the
    /// stream flag) and *per Thing* (the group id mixes the node id), so
    /// subscribers only receive samples of streams they asked this Thing
    /// for — not the cross-talk of every same-typed peripheral in the
    /// deployment. Per-Thing groups also keep stream traffic inside one
    /// shard of a partitioned world by construction.
    fn stream_group(&self, peripheral: u32) -> Ipv6Addr {
        // 40-bit group id: a full-avalanche mix of (peripheral, node)
        // fills the 32-bit group field plus pad octet 10, so distinct
        // (Thing, type) pairs collide with probability ~2^-40 per pair
        // rather than the birthday-prone 2^-32.
        let h = upnp_sim::splitmix64(((peripheral as u64) << 32) | self.node.0 as u64);
        let base = addr::peripheral_group(self.prefix, h as u32);
        let mut o = base.octets();
        o[10] = (h >> 32) as u8;
        o[11] = addr::STREAM_FLAG; // stream flag in the zero pad
        Ipv6Addr::from(o)
    }

    /// Handles a datagram delivered at `at` (world clock). A (5) driver
    /// upload is decoded and verified through the world's `images` pool,
    /// which hands back the image every other Thing that received the
    /// same bytes runs.
    pub fn on_datagram(
        &mut self,
        at: SimTime,
        dgram: &Datagram,
        images: &mut ImagePool,
    ) -> Vec<Outbound> {
        if self.runtime.now() < at {
            self.runtime.advance_to(at);
        }
        // The upload is read in place from the frame, not copied.
        if let Some((peripheral, image)) = Message::peek_upload(&dgram.payload) {
            self.runtime.charge(calib::UDP_RECV_PATH);
            return self.on_upload(at, peripheral, image, images);
        }
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Vec::new();
        };
        self.runtime.charge(calib::UDP_RECV_PATH);
        match msg.body {
            MessageBody::Discovery(tlvs) => {
                // A discovery reaches us through a peripheral group we
                // joined. Location-aware filtering (§9): a discovery
                // carrying a Location tuple is only answered by Things at
                // that location.
                let wanted_location = tlvs
                    .iter()
                    .find(|t| t.ty == TlvType::Location)
                    .and_then(|t| t.as_text());
                if let Some(wanted) = wanted_location {
                    if self.location.as_deref() != Some(wanted) {
                        return Vec::new();
                    }
                }
                self.runtime.charge(calib::UDP_SEND_PATH);
                let seq = msg.seq;
                vec![Outbound::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq,
                        body: MessageBody::SolicitedAdvertisement(self.current_advertisement()),
                    },
                ))]
            }
            MessageBody::Read { peripheral } => self.start_op(
                msg.seq,
                dgram.src,
                peripheral,
                PendingKind::Read,
                Vec::new(),
                false,
            ),
            MessageBody::Write { peripheral, value } => {
                let args = match value {
                    Value::I32(v) => vec![upnp_vm::value::Cell::from_i32(v)],
                    Value::F32(v) => vec![upnp_vm::value::Cell::from_f32(v)],
                    Value::Bytes(b) => b
                        .iter()
                        .map(|&x| upnp_vm::value::Cell::from_i32(x as i32))
                        .collect(),
                    Value::None => Vec::new(),
                };
                self.start_op(
                    msg.seq,
                    dgram.src,
                    peripheral,
                    PendingKind::Write,
                    args,
                    false,
                )
            }
            MessageBody::Stream { peripheral } => {
                let Some(_) = self.runtime.manager.slot_for_device(peripheral) else {
                    return Vec::new();
                };
                let group = self.stream_group(peripheral);
                self.streams.insert(
                    peripheral,
                    StreamState {
                        group,
                        remaining: self.stream_samples,
                    },
                );
                self.runtime.charge(calib::UDP_SEND_PATH);
                vec![
                    Outbound::Send(self.datagram(
                        dgram.src,
                        Message {
                            seq: msg.seq,
                            body: MessageBody::Established {
                                peripheral,
                                group: group.octets(),
                            },
                        },
                    )),
                    Outbound::StartStream { peripheral },
                ]
            }
            MessageBody::DriverDiscovery => {
                self.runtime.charge(calib::UDP_SEND_PATH);
                let drivers = self
                    .runtime
                    .manager
                    .iter()
                    .map(|(_, d)| (d.device_id, 1u16))
                    .collect();
                vec![Outbound::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::DriverAdvertisement { drivers },
                    },
                ))]
            }
            MessageBody::DriverRemoval { peripheral } => {
                let removed = match self.runtime.manager.slot_for_device(peripheral) {
                    Some(slot) => {
                        let channel = self.runtime.manager.get(slot).map(|d| d.channel);
                        self.runtime.remove_driver(slot);
                        if let Some(ch) = channel {
                            self.catalog.detach(
                                &mut self.runtime,
                                ch,
                                DeviceTypeId::new(peripheral),
                            );
                        }
                        self.driver_cache.remove(peripheral);
                        true
                    }
                    None => false,
                };
                self.runtime.charge(calib::UDP_SEND_PATH);
                let mut out = vec![Outbound::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::DriverRemovalAck {
                            peripheral,
                            removed,
                        },
                    },
                ))];
                if removed {
                    out.push(Outbound::LeaveGroup(addr::peripheral_group(
                        self.prefix,
                        peripheral,
                    )));
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// A (5) driver upload of `image` for `peripheral`, delivered at `at`.
    fn on_upload(
        &mut self,
        at: SimTime,
        peripheral: u32,
        image: &[u8],
        images: &mut ImagePool,
    ) -> Vec<Outbound> {
        if let Some(tl) = self.timelines.get_mut(peripheral) {
            tl.upload_received = Some(at);
        }
        let Some(parsed) = images.admit(image) else {
            return Vec::new();
        };
        // One decoded image serves the cache and every driver installed
        // from it.
        self.driver_cache.insert(peripheral, Arc::clone(&parsed));
        match self.awaiting_driver.remove(peripheral) {
            Some(channels) => {
                // One upload serves every channel still waiting for this
                // device type (usually exactly one).
                let mut out = Vec::new();
                for channel in channels {
                    out.extend(self.activate_driver(
                        channel,
                        DeviceTypeId::new(peripheral),
                        Arc::clone(&parsed),
                    ));
                }
                out
            }
            None => {
                // An unsolicited upload for a peripheral we are already
                // serving is an over-the-air *update*: destroy the
                // running driver and activate the new version in place
                // (§3.3: "the device drivers associated with an address
                // may be updated at any time").
                if let Some(slot) = self.runtime.manager.slot_for_device(peripheral) {
                    let channel = self
                        .runtime
                        .manager
                        .get(slot)
                        .map(|d| ChannelId(d.channel))
                        .expect("slot exists");
                    self.runtime.remove_driver(slot);
                    self.activate_driver(channel, DeviceTypeId::new(peripheral), parsed)
                } else {
                    Vec::new() // pre-staged driver for later
                }
            }
        }
    }

    /// Starts a read/write against a driver and flushes completions.
    fn start_op(
        &mut self,
        seq: SeqNo,
        requester: Ipv6Addr,
        peripheral: u32,
        kind: PendingKind,
        args: Vec<upnp_vm::value::Cell>,
        stream: bool,
    ) -> Vec<Outbound> {
        let Some(slot) = self.runtime.manager.slot_for_device(peripheral) else {
            // No driver: answer with an empty value / failed ack.
            self.runtime.charge(calib::UDP_SEND_PATH);
            let body = match kind {
                PendingKind::Write => MessageBody::WriteAck {
                    peripheral,
                    ok: false,
                },
                _ => MessageBody::Data {
                    peripheral,
                    value: Value::None,
                },
            };
            return vec![Outbound::Send(
                self.datagram(requester, Message { seq, body }),
            )];
        };
        let token = self.runtime.request(slot, kind, args);
        self.pending_ops
            .insert(token, (seq, requester, peripheral, stream));
        self.flush_completions()
    }

    /// Runs the runtime until idle and converts completed operations into
    /// protocol replies.
    pub fn flush_completions(&mut self) -> Vec<Outbound> {
        let completed = self.runtime.run_until_idle();
        let mut out = Vec::new();
        for op in completed {
            let Some((seq, requester, peripheral, stream)) = self.pending_ops.remove(&op.token)
            else {
                continue;
            };
            let value = convert_value(op.value.as_ref(), self.value_kind(peripheral));
            self.runtime.charge(calib::UDP_SEND_PATH);
            let body = match op.kind {
                PendingKind::Write => MessageBody::WriteAck {
                    peripheral,
                    ok: !matches!(value, Value::None),
                },
                _ if stream => MessageBody::StreamData { peripheral, value },
                _ => MessageBody::Data { peripheral, value },
            };
            let dst = if stream {
                self.streams
                    .get(peripheral)
                    .map(|s| s.group)
                    .unwrap_or(requester)
            } else {
                requester
            };
            out.push(Outbound::Send(self.datagram(dst, Message { seq, body })));
        }
        out
    }

    /// One periodic stream tick: sample the driver and multicast the
    /// value; close the stream after the configured sample count.
    pub fn stream_tick(&mut self, now: SimTime, peripheral: u32) -> Vec<Outbound> {
        if self.runtime.now() < now {
            self.runtime.advance_to(now);
        }
        let Some(state) = self.streams.get_mut(peripheral) else {
            return vec![Outbound::StopStream { peripheral }];
        };
        if state.remaining == 0 {
            let group = state.group;
            self.streams.remove(peripheral);
            self.runtime.charge(calib::UDP_SEND_PATH);
            let seq = self.next_seq();
            return vec![
                Outbound::Send(self.datagram(
                    group,
                    Message {
                        seq,
                        body: MessageBody::Closed { peripheral },
                    },
                )),
                Outbound::StopStream { peripheral },
            ];
        }
        state.remaining -= 1;
        let group = state.group;
        let seq = self.next_seq();
        self.start_op_to_group(seq, group, peripheral)
    }

    /// Each stream tick is a one-shot read whose reply is formatted as
    /// (14) stream data and sent to the stream group.
    fn start_op_to_group(&mut self, seq: SeqNo, group: Ipv6Addr, peripheral: u32) -> Vec<Outbound> {
        self.start_op(seq, group, peripheral, PendingKind::Read, Vec::new(), true)
    }

    /// True while a stream is active for `peripheral`.
    pub fn is_streaming(&self, peripheral: u32) -> bool {
        self.streams.contains(peripheral)
    }

    /// The MCU dies mid-operation. Bumps the flash install generation so
    /// anything staged before (or during) the outage is fenced: a
    /// half-written image from the old life can never be accepted by the
    /// new one, only rejected and refetched end-to-end.
    pub fn crash_mcu(&mut self) {
        self.install_gen = self.install_gen.wrapping_add(1);
    }

    /// Stages the torn remnant of a driver upload that arrived while the
    /// MCU was dead: only the first half of `image` reaches flash — the
    /// write was cut mid-stream — stamped with the current install
    /// generation for [`Thing::revive_mcu`] to audit.
    pub fn stage_torn_upload(&mut self, peripheral: u32, image: &[u8]) {
        let torn = &image[..image.len() / 2];
        self.torn_flash
            .push((self.install_gen, peripheral, torn.to_vec()));
    }

    /// Revives a crashed MCU at world time `now`: audits the torn flash
    /// staging area — an image is accepted only if its install
    /// generation is current *and* it still parses and passes
    /// `verify()`, which a torn prefix never does — and reissues a
    /// driver request for every peripheral still waiting, so the image
    /// is refetched end-to-end rather than stitched across the crash.
    ///
    /// Protocol state (streams, pending operations) is assumed to be
    /// restored from persistent storage; only the flash install path is
    /// torn by the crash.
    pub fn revive_mcu(
        &mut self,
        now: SimTime,
        mgr_anycast: Ipv6Addr,
    ) -> (FlashRecovery, Vec<Outbound>) {
        if self.runtime.now() < now {
            self.runtime.advance_to(now);
        }
        let mut recovery = FlashRecovery::default();
        for (generation, _peripheral, bytes) in std::mem::take(&mut self.torn_flash) {
            let intact = generation == self.install_gen
                && DriverImage::from_bytes(&bytes)
                    .ok()
                    .is_some_and(|image| upnp_dsl::verify(&image).is_ok());
            debug_assert!(!intact, "a torn prefix must never verify");
            if !intact {
                recovery.rejected += 1;
            }
        }
        let pending: Vec<u32> = self.awaiting_driver.iter().map(|(id, _)| id).collect();
        let mut out = Vec::new();
        for peripheral in pending {
            recovery.refetches += 1;
            out.extend(self.request_driver(DeviceTypeId::new(peripheral), mgr_anycast));
        }
        (recovery, out)
    }

    fn value_kind(&self, peripheral: u32) -> ValueKind {
        match self.catalog.get(DeviceTypeId::new(peripheral)) {
            Some(e) if e.unit == "Pa" => ValueKind::Int,
            Some(_) => ValueKind::Float,
            None => ValueKind::Int,
        }
    }
}

/// Converts a VM return value into a protocol value.
fn convert_value(rv: Option<&ReturnValue>, kind: ValueKind) -> Value {
    match rv {
        None => Value::None,
        Some(ReturnValue::Scalar(cell)) => match kind {
            ValueKind::Float => Value::F32(cell.as_f32()),
            ValueKind::Int => Value::I32(cell.as_i32()),
        },
        Some(ReturnValue::Array(_, cells)) => {
            Value::Bytes(cells.iter().map(|c| c.as_i32() as u8).collect())
        }
    }
}

impl std::fmt::Debug for Thing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thing")
            .field("node", &self.node)
            .field("address", &self.address)
            .field("drivers", &self.served_peripherals())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use upnp_hw::id::prototypes;

    use crate::world::{World, WorldConfig};

    #[test]
    fn reinstall_from_the_driver_cache_shares_the_cached_image() {
        let mut w = World::new(WorldConfig::default());
        w.add_manager();
        let t = w.add_thing();
        w.star_topology();
        let id = prototypes::TMP36.raw();
        w.plug_and_wait(t, 0, prototypes::TMP36);
        // The upload's one decoded image: held by the cache and the driver.
        let cached = Arc::clone(w.thing(t).driver_cache.get(id).expect("cached"));
        assert_eq!(Arc::strong_count(&cached), 3);

        w.unplug(t, 0);
        w.run_until_idle();
        assert!(!w.thing(t).serves(id));
        assert_eq!(Arc::strong_count(&cached), 2, "the removed driver let go");

        w.plug_and_wait(t, 0, prototypes::TMP36);
        assert_eq!(w.manager().uploads_served, 1, "served from the cache");
        let rt = &w.thing(t).runtime;
        let slot = rt.manager.slot_for_device(id).expect("reinstalled");
        let running = rt.manager.get(slot).expect("slot").instance.image();
        assert!(std::ptr::eq(running, &*cached), "shared, not copied");
        assert_eq!(Arc::strong_count(&cached), 3);
    }
}
