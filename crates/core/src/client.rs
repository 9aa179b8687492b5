//! The µPnP Client: remote discovery and usage of peripherals (paper §5).
//!
//! A client joins the all-clients group (so unsolicited advertisements
//! reach it), multicasts (2) discovery messages to peripheral-type groups,
//! and drives (10) read / (12) stream / (16) write interactions.

use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;
use std::sync::Arc;

use upnp_net::addr::{self, MCAST_PORT};
use upnp_net::msg::{AdvertsView, Message, MessageBody, SeqNo, Value};
use upnp_net::tlv::{self, Tlv};
use upnp_net::{Datagram, NodeId};
use upnp_sim::SimTime;

/// A discovered peripheral: where it lives and what it advertised.
///
/// The advertised TLV list is kept in wire form and shared: every record
/// of one client that heard the same list holds the same `Arc`, so a
/// client's log costs one small record per advertisement, not a decoded
/// copy of its tuples. `Debug` and `==` look at the content, never at
/// which `Arc` holds it.
#[derive(Clone, PartialEq)]
pub struct DiscoveredPeripheral {
    /// The Thing hosting the peripheral.
    pub thing: Ipv6Addr,
    /// The advertised 32-bit device-type identifier.
    pub peripheral: u32,
    /// True if it arrived solicited (reply to our discovery).
    pub solicited: bool,
    /// The advertised TLV list (count byte and tuples), as validated on
    /// receipt.
    tlvs: Arc<[u8]>,
}

impl DiscoveredPeripheral {
    /// The advertised extra-information tuples, decoded on demand.
    pub fn tlvs(&self) -> Vec<Tlv> {
        let mut i = 0;
        // Validated by `Message::peek_adverts` when the record was made.
        tlv::decode_list(&self.tlvs, &mut i).expect("a TLV list validated on receipt")
    }
}

impl std::fmt::Debug for DiscoveredPeripheral {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveredPeripheral")
            .field("thing", &self.thing)
            .field("peripheral", &self.peripheral)
            .field("solicited", &self.solicited)
            .field("tlvs", &self.tlvs())
            .finish()
    }
}

/// The µPnP Client.
pub struct Client {
    /// The client's network node.
    pub node: NodeId,
    /// The client's unicast address.
    pub address: Ipv6Addr,
    prefix: u64,
    seq: SeqNo,
    /// Everything discovered so far.
    pub discovered: Vec<DiscoveredPeripheral>,
    /// Read results: `(peripheral, value, at)`.
    pub readings: Vec<(u32, Value, SimTime)>,
    /// Stream samples: `(peripheral, value, at)`.
    pub stream_data: Vec<(u32, Value, SimTime)>,
    /// Stream-established groups: group address → peripheral. Keyed by
    /// the group (unique per Thing × peripheral since groups are
    /// per-Thing), so recording is idempotent and merge-order
    /// independent when shard replicas are folded into a master client.
    pub stream_groups: HashMap<Ipv6Addr, u32>,
    /// Streams that have been closed by the Thing.
    pub closed_streams: Vec<u32>,
    /// Write acknowledgements: `(peripheral, ok)`.
    pub write_acks: Vec<(u32, bool)>,
    /// Every distinct advertised TLV list this client has logged, once.
    tlv_lists: HashSet<Arc<[u8]>>,
    /// Arrival instants of the observations that carry none, kept only
    /// by the replicas of a sharded world so their logs merge in arrival
    /// order; `None` (and free) everywhere else.
    pub(crate) arrivals: Option<Arrivals>,
}

/// The virtual arrival instant of each entry in a replica client's
/// `discovered`, `closed_streams` and `write_acks` logs, index for index.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    pub(crate) discovered: Vec<SimTime>,
    pub(crate) closed_streams: Vec<SimTime>,
    pub(crate) write_acks: Vec<SimTime>,
}

impl Client {
    /// Creates a client (the world joins it to the all-clients group).
    pub fn new(node: NodeId, address: Ipv6Addr, prefix: u64) -> Self {
        Client {
            node,
            address,
            prefix,
            seq: 0x4000, // distinct space from things, aids debugging
            discovered: Vec::new(),
            readings: Vec::new(),
            stream_data: Vec::new(),
            stream_groups: HashMap::new(),
            closed_streams: Vec::new(),
            write_acks: Vec::new(),
            tlv_lists: HashSet::new(),
            arrivals: None,
        }
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    fn datagram(&self, dst: Ipv6Addr, msg: Message) -> Datagram {
        Datagram {
            src: self.address,
            dst,
            src_port: MCAST_PORT,
            dst_port: MCAST_PORT,
            payload: msg.encode().into(),
        }
    }

    /// Builds a (2) discovery for a peripheral type (or the all-peripherals
    /// wildcard `0`).
    pub fn discover(&mut self, peripheral: u32) -> Datagram {
        self.discover_with(peripheral, Vec::new())
    }

    /// Builds a location-filtered discovery (§9's location-aware
    /// discovery): only Things whose location tag matches will answer.
    pub fn discover_at(&mut self, peripheral: u32, location: &str) -> Datagram {
        self.discover_with(
            peripheral,
            vec![upnp_net::tlv::Tlv::text(
                upnp_net::tlv::TlvType::Location,
                location,
            )],
        )
    }

    fn discover_with(&mut self, peripheral: u32, tlvs: Vec<upnp_net::tlv::Tlv>) -> Datagram {
        let seq = self.next_seq();
        let group = addr::peripheral_group(self.prefix, peripheral);
        self.datagram(
            group,
            Message {
                seq,
                body: MessageBody::Discovery(tlvs),
            },
        )
    }

    /// Builds a (10) read for a peripheral on a specific Thing.
    pub fn read(&mut self, thing: Ipv6Addr, peripheral: u32) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Read { peripheral },
            },
        )
    }

    /// Builds a (16) write.
    pub fn write(&mut self, thing: Ipv6Addr, peripheral: u32, value: Value) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Write { peripheral, value },
            },
        )
    }

    /// Builds a (12) stream request.
    pub fn stream(&mut self, thing: Ipv6Addr, peripheral: u32) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Stream { peripheral },
            },
        )
    }

    /// Handles a delivery. Returns groups the client should join (e.g. a
    /// stream group from an (13) established message).
    pub fn on_datagram(&mut self, at: SimTime, dgram: &Datagram) -> Vec<Ipv6Addr> {
        // (1)/(3) advertisements, the bulk of a client's traffic, are
        // read in place; everything else is decoded.
        if let Some(ads) = Message::peek_adverts(&dgram.payload) {
            self.record_adverts(at, dgram.src, ads);
            return Vec::new();
        }
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Vec::new();
        };
        match msg.body {
            MessageBody::Data { peripheral, value } => {
                self.readings.push((peripheral, value, at));
                Vec::new()
            }
            MessageBody::Established { peripheral, group } => {
                let group = Ipv6Addr::from(group);
                self.stream_groups.insert(group, peripheral);
                vec![group]
            }
            MessageBody::StreamData { peripheral, value } => {
                self.stream_data.push((peripheral, value, at));
                Vec::new()
            }
            MessageBody::Closed { peripheral } => {
                self.closed_streams.push(peripheral);
                if let Some(a) = &mut self.arrivals {
                    a.closed_streams.push(at);
                }
                Vec::new()
            }
            MessageBody::WriteAck { peripheral, ok } => {
                self.write_acks.push((peripheral, ok));
                if let Some(a) = &mut self.arrivals {
                    a.write_acks.push(at);
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn record_adverts(&mut self, at: SimTime, thing: Ipv6Addr, ads: AdvertsView<'_>) {
        if let Some(a) = &mut self.arrivals {
            a.discovered.extend(std::iter::repeat_n(at, ads.len()));
        }
        for (peripheral, tlvs) in ads.iter() {
            let tlvs = match self.tlv_lists.get(tlvs) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let shared: Arc<[u8]> = tlvs.into();
                    self.tlv_lists.insert(Arc::clone(&shared));
                    shared
                }
            };
            self.discovered.push(DiscoveredPeripheral {
                thing,
                peripheral,
                solicited: ads.solicited,
                tlvs,
            });
        }
    }

    /// Things that advertised a given peripheral type.
    pub fn things_with(&self, peripheral: u32) -> Vec<Ipv6Addr> {
        let mut out: Vec<Ipv6Addr> = self
            .discovered
            .iter()
            .filter(|d| d.peripheral == peripheral)
            .map(|d| d.thing)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The most recent reading for a peripheral type.
    pub fn last_reading(&self, peripheral: u32) -> Option<&Value> {
        self.readings
            .iter()
            .rev()
            .find(|(p, _, _)| *p == peripheral)
            .map(|(_, v, _)| v)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("node", &self.node)
            .field("discovered", &self.discovered.len())
            .field("readings", &self.readings.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_net::msg::AdvertisedPeripheral;
    use upnp_net::tlv::TlvType;

    fn advert(src: Ipv6Addr, body: MessageBody) -> Datagram {
        Datagram {
            src,
            dst: src,
            src_port: MCAST_PORT,
            dst_port: MCAST_PORT,
            payload: Message { seq: 1, body }.encode().into(),
        }
    }

    fn tmp36_on(channel: u8) -> AdvertisedPeripheral {
        AdvertisedPeripheral {
            peripheral: 0xad1c_be01,
            tlvs: vec![
                Tlv::new(TlvType::Channel, vec![channel]),
                Tlv::text(TlvType::Name, "TMP36"),
            ],
        }
    }

    #[test]
    fn one_shared_list_per_distinct_advertised_tlv_list() {
        let mut c = Client::new(NodeId(0), Ipv6Addr::LOCALHOST, 0);
        for thing in 1..=3u16 {
            let src = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, thing);
            let body = MessageBody::UnsolicitedAdvertisement(vec![tmp36_on(0), tmp36_on(1)]);
            c.on_datagram(SimTime::ZERO, &advert(src, body));
        }
        let solicited = MessageBody::SolicitedAdvertisement(vec![tmp36_on(0)]);
        c.on_datagram(SimTime::ZERO, &advert(Ipv6Addr::LOCALHOST, solicited));

        assert_eq!(c.discovered.len(), 7);
        assert_eq!(c.tlv_lists.len(), 2, "two distinct lists: channel 0 and 1");
        let on_channel_0: Vec<&Arc<[u8]>> = c
            .discovered
            .iter()
            .filter(|d| d.tlvs()[0].value == [0])
            .map(|d| &d.tlvs)
            .collect();
        assert_eq!(on_channel_0.len(), 4);
        assert!(on_channel_0.iter().all(|a| Arc::ptr_eq(a, on_channel_0[0])));
        // Three records per list plus the interner's own reference.
        assert_eq!(Arc::strong_count(on_channel_0[0]), 5);

        // Content, not sharing, is what the records show and compare.
        let last = c.discovered.last().expect("logged");
        assert!(last.solicited);
        assert_eq!(last.peripheral, 0xad1c_be01);
        assert_eq!(last.tlvs(), tmp36_on(0).tlvs);
        assert_eq!(last.clone(), *last);
        assert!(format!("{last:?}").contains("ty: Name"));
    }
}
