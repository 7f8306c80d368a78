//! # platoon-v2x
//!
//! Simulated V2X wireless substrate for the platoon security suite
//! (reproduction of Taylor et al., DSN-W 2021). Replaces the real IEEE
//! 802.11p / C-V2X / VLC hardware the paper's attack surface lives on:
//!
//! * [`message`] — frames, node ids, channels, deliveries.
//! * [`channel`] — log-distance + Nakagami-m DSRC propagation with SINR
//!   reception.
//! * [`medium`] — the shared broadcast medium with a CSMA/CA-flavoured MAC,
//!   C-V2X semi-persistent slots and VLC optical links.
//! * [`vlc`] — the line-of-sight visible-light channel used by the SP-VLC
//!   hybrid defense.
//! * [`spatial`] — uniform-grid index turning all-pairs reception scans into
//!   range queries for highway-scale (multi-platoon) worlds.
//! * [`jamming`] — continuous / periodic / reactive RF jammers.
//! * [`stats`] — PDR, latency and beacon-age accounting.
//! * [`hash`] — the integer hasher behind the maps keyed by simulation ids.
//!
//! The substrate is *open by construction*: any node can transmit any bytes
//! on any channel, and any node within radio range receives — this mirrors
//! the paper's core observation (§I) that 802.11p's open broadcast medium is
//! what makes platoons attackable, and it is what the attack crate exploits.
//!
//! # Examples
//!
//! ```
//! use platoon_v2x::prelude::*;
//! use rand::SeedableRng;
//!
//! let medium = RadioMedium::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let frame = Frame {
//!     sender: NodeId(0),
//!     origin: (0.0, 0.0),
//!     power_dbm: 20.0,
//!     channel: ChannelKind::Dsrc,
//!     payload: b"beacon".to_vec().into(),
//! };
//! let receivers = vec![Receiver { id: NodeId(1), position: (15.0, 0.0) }];
//! let (deliveries, stats) = medium.step(0.0, &[frame], &receivers, &[], &mut rng);
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(stats.delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod hash;
pub mod jamming;
pub mod medium;
pub mod message;
pub mod spatial;
pub mod stats;
pub mod vlc;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::channel::{dbm_to_mw, mw_to_dbm, DsrcPhy};
    pub use crate::jamming::{Jammer, JammingStrategy};
    pub use crate::medium::{RadioMedium, Receiver, StepStats};
    pub use crate::message::{distance, ChannelKind, Delivery, Frame, NodeId, Payload, Position};
    pub use crate::spatial::SpatialGrid;
    pub use crate::stats::{BeaconAgeTracker, LinkStats};
    pub use crate::vlc::VlcPhy;
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Delivered + lost never exceeds offered × receivers, and a sender
        /// never hears itself.
        #[test]
        fn medium_accounting_consistent(n_frames in 1usize..6, n_rx in 1usize..6, seed in 0u64..500) {
            let medium = RadioMedium::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let frames: Vec<Frame> = (0..n_frames).map(|i| Frame {
                sender: NodeId(i as u64),
                origin: (i as f64 * 20.0, 0.0),
                power_dbm: 20.0,
                channel: ChannelKind::Dsrc,
                payload: vec![0u8; 50].into(),
            }).collect();
            let receivers: Vec<Receiver> = (0..n_rx).map(|i| Receiver {
                id: NodeId(i as u64),
                position: (i as f64 * 20.0, 0.0),
            }).collect();
            let (deliveries, stats) = medium.step(0.0, &frames, &receivers, &[], &mut rng);
            prop_assert_eq!(stats.offered, n_frames);
            prop_assert!(deliveries.iter().all(|d| d.sender != d.receiver));
            prop_assert_eq!(deliveries.len(), stats.delivered);
            prop_assert!(stats.delivered + stats.lost <= n_frames * n_rx);
        }

        /// Path loss is monotone in distance.
        #[test]
        fn path_loss_monotone(d1 in 1.0f64..5000.0, d2 in 1.0f64..5000.0) {
            let phy = DsrcPhy::default();
            let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(phy.median_rx_power_dbm(20.0, near) >= phy.median_rx_power_dbm(20.0, far));
        }

        /// A covering radio horizon reproduces the all-pairs scan exactly on
        /// arbitrary geometry: identical deliveries, stats and rng stream.
        #[test]
        fn covering_horizon_step_equals_scan(
            xs in proptest::collection::vec((-3000.0f64..3000.0, -30.0f64..30.0), 1..10),
            n_rx in 1usize..8,
            seed in 0u64..200,
        ) {
            let scan = RadioMedium::default();
            let indexed = RadioMedium { radio_horizon_m: 50_000.0, ..RadioMedium::default() };
            let frames: Vec<Frame> = xs.iter().enumerate().map(|(i, &origin)| Frame {
                sender: NodeId(i as u64),
                origin,
                power_dbm: 20.0,
                channel: if i % 3 == 0 { ChannelKind::CV2x } else { ChannelKind::Dsrc },
                payload: vec![i as u8; 50].into(),
            }).collect();
            let receivers: Vec<Receiver> = (0..n_rx).map(|i| Receiver {
                id: NodeId(i as u64),
                position: (i as f64 * 40.0 - 500.0, (i % 3) as f64 * 3.5),
            }).collect();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let (da, sa) = scan.step(0.0, &frames, &receivers, &[], &mut rng_a);
            let (db, sb) = indexed.step(0.0, &frames, &receivers, &[], &mut rng_b);
            prop_assert_eq!(da, db);
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(rand::RngCore::next_u64(&mut rng_a), rand::RngCore::next_u64(&mut rng_b));
        }

        /// PDR is always within [0, 1].
        #[test]
        fn pdr_bounded(offers in 1u64..50, hits in 0u64..50) {
            let mut s = LinkStats::new();
            for _ in 0..offers { s.record_offer(NodeId(1)); }
            for _ in 0..hits.min(offers) { s.record_delivery(NodeId(1), NodeId(2), 0.001); }
            let pdr = s.pdr(NodeId(1), NodeId(2)).unwrap();
            prop_assert!((0.0..=1.0).contains(&pdr));
        }
    }
}
