//! Wire-level frames and airtime accounting.
//!
//! The network substrate is payload-agnostic: it moves opaque byte frames
//! between node positions. Protocol semantics (beacons, manoeuvres,
//! signatures) live in `platoon-proto`; the attacks that only need *bytes on
//! air* — jamming, eavesdropping, replay capture — operate at this layer,
//! which is exactly the paper's observation that 802.11p "is an open
//! standard" and its frames are observable and injectable by anyone (§I).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a radio node (vehicle OBU, RSU, or attacker device).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A 2-D position in metres (x = longitudinal along the road, y = lateral).
pub type Position = (f64, f64);

/// Euclidean distance between two positions.
pub fn distance(a: Position, b: Position) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Which physical channel a frame is sent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// IEEE 802.11p DSRC at 5.9 GHz.
    Dsrc,
    /// Visible light communication (headlight/taillight link).
    Vlc,
    /// 3GPP C-V2X sidelink (PC5), semi-persistent scheduling.
    CV2x,
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelKind::Dsrc => f.write_str("802.11p"),
            ChannelKind::Vlc => f.write_str("VLC"),
            ChannelKind::CV2x => f.write_str("C-V2X"),
        }
    }
}

/// Immutable, cheaply cloneable payload bytes.
///
/// Broadcast fans one encoded message out to every receiver (and, in hybrid
/// comms modes, onto several channels), so the bytes are reference-counted
/// (`Arc<[u8]>`) rather than copied per frame and per delivery. Cloning a
/// [`Payload`] — and therefore a [`Frame`] or [`Delivery`] — is a refcount
/// bump, not a byte copy. The type dereferences to `&[u8]`, so existing
/// slice-based consumers (codecs, hash functions) work unchanged.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The payload bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of payload bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// How many handles (frames, deliveries, caches) currently share these
    /// bytes. 1 means this is the only copy.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Identity of the shared allocation: equal for handles cloned from
    /// one another, distinct for any two live allocations — even when
    /// their bytes are equal. Only meaningful while the payload is alive.
    pub fn alloc_id(&self) -> usize {
        Arc::as_ptr(&self.0) as *const u8 as usize
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(bytes.into())
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Payload(bytes.as_slice().into())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

/// A frame handed to the medium for broadcast.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Transmitting node.
    pub sender: NodeId,
    /// Transmitter position at send time.
    pub origin: Position,
    /// Transmit power in dBm.
    pub power_dbm: f64,
    /// Channel the frame is sent on.
    pub channel: ChannelKind,
    /// Opaque payload bytes (already encoded and, if applicable, signed).
    pub payload: Payload,
}

impl Frame {
    /// Total on-air size: payload plus PHY/MAC overhead.
    pub fn air_bytes(&self) -> usize {
        // 802.11p MAC header + LLC + FCS ≈ 36 bytes; comparable for others.
        self.payload.len() + 36
    }

    /// Transmission duration at `bitrate` bits/s.
    pub fn airtime(&self, bitrate: f64) -> f64 {
        assert!(bitrate > 0.0, "bitrate must be positive");
        (self.air_bytes() * 8) as f64 / bitrate
    }
}

/// A successfully received frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// Transmitting node.
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// Channel the frame arrived on.
    pub channel: ChannelKind,
    /// End-to-end latency in seconds (MAC access + airtime).
    pub latency: f64,
    /// Received signal strength in dBm (what key-agreement probing reads).
    pub rssi_dbm: f64,
    /// The payload bytes (shared with the originating [`Frame`]).
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basic() {
        assert_eq!(distance((0.0, 0.0), (3.0, 4.0)), 5.0);
        assert_eq!(distance((1.0, 1.0), (1.0, 1.0)), 0.0);
    }

    #[test]
    fn airtime_scales_with_size() {
        let small = Frame {
            sender: NodeId(1),
            origin: (0.0, 0.0),
            power_dbm: 20.0,
            channel: ChannelKind::Dsrc,
            payload: vec![0u8; 100].into(),
        };
        let large = Frame {
            payload: vec![0u8; 1000].into(),
            ..small.clone()
        };
        let rate = 6e6;
        assert!(large.airtime(rate) > small.airtime(rate));
        // 136 bytes at 6 Mb/s ≈ 181 µs.
        assert!((small.airtime(rate) - 136.0 * 8.0 / 6e6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bitrate")]
    fn zero_bitrate_panics() {
        let f = Frame {
            sender: NodeId(1),
            origin: (0.0, 0.0),
            power_dbm: 20.0,
            channel: ChannelKind::Dsrc,
            payload: Vec::<u8>::new().into(),
        };
        f.airtime(0.0);
    }

    #[test]
    fn alloc_id_tracks_the_allocation_not_the_bytes() {
        let a = Payload::from(vec![1u8, 2, 3]);
        let shared = a.clone();
        let copy = Payload::from(a.as_slice());
        assert_eq!(a.alloc_id(), shared.alloc_id());
        assert_ne!(a.alloc_id(), copy.alloc_id());
        assert_eq!(a, copy, "equality and hashing stay by content");
    }

    #[test]
    fn channel_kind_display() {
        assert_eq!(ChannelKind::Dsrc.to_string(), "802.11p");
        assert_eq!(ChannelKind::Vlc.to_string(), "VLC");
        assert_eq!(ChannelKind::CV2x.to_string(), "C-V2X");
    }
}
