//! Hidden-terminal interference in the shared medium.
//!
//! Two sender clusters sit about a kilometre apart, beyond each other's
//! carrier-sense range, so CSMA cannot serialise them and their frames
//! overlap in time. Receivers between the clusters hear both, and a jammer
//! adds to their interference budget. On C-V2X the second cluster's ids
//! share the first cluster's semi-persistent slots, so those frames
//! collide outright.
//!
//! The digests below pin every delivery of these runs (sender, receiver,
//! channel, and the exact bits of RSSI and latency). Any change to which
//! interferers a receiver sums, or to the order it sums them in, moves an
//! RSSI-threshold decision or an rng draw and changes a digest.

use platoon_sim::{fnv1a_extend, FNV1A_OFFSET};
use platoon_v2x::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Digest of the all-pairs scan runs over seeds `0..SEEDS`.
const SCAN_DIGEST: u64 = 0xad92_40cc_54eb_f261;
/// Digest of the runs under a horizon that does not cover the geometry.
const PRUNED_DIGEST: u64 = 0x636f_7082_5186_02be;
const SEEDS: u64 = 20;

fn frame(sender: u64, x: f64, channel: ChannelKind) -> Frame {
    Frame {
        sender: NodeId(sender),
        origin: (x, 0.0),
        power_dbm: 20.0,
        channel,
        payload: vec![sender as u8; 400].into(),
    }
}

/// Six senders at x = 0..75 m (ids 0..6) and six at x = 1000..1075 m
/// (ids 100..106, the same C-V2X slots), on DSRC and C-V2X; the senders
/// and seven roadside receivers between the clusters listen.
fn world() -> (Vec<Frame>, Vec<Receiver>, Vec<Jammer>) {
    let senders: Vec<(u64, f64)> = (0..6)
        .map(|i| (i, i as f64 * 15.0))
        .chain((0..6).map(|i| (100 + i, 1000.0 + i as f64 * 15.0)))
        .collect();
    let frames = senders
        .iter()
        .flat_map(|&(id, x)| {
            [
                frame(id, x, ChannelKind::Dsrc),
                frame(id, x, ChannelKind::CV2x),
            ]
        })
        .collect();
    let receivers = senders
        .iter()
        .copied()
        .chain((1..=7).map(|k| (200 + k, k as f64 * 135.0)))
        .map(|(id, x)| Receiver {
            id: NodeId(id),
            position: (x, 3.5),
        })
        .collect();
    let jammers = vec![Jammer::continuous((540.0, 20.0), 0.0)];
    (frames, receivers, jammers)
}

/// A 10 ms step, so each cluster's serialised frames fill a third of it
/// and the two clusters overlap.
fn medium(radio_horizon_m: f64) -> RadioMedium {
    RadioMedium {
        step_len: 0.01,
        radio_horizon_m,
        ..RadioMedium::default()
    }
}

fn fold(mut h: u64, deliveries: &[Delivery]) -> u64 {
    for d in deliveries {
        let channel: u8 = match d.channel {
            ChannelKind::Dsrc => 0,
            ChannelKind::CV2x => 1,
            ChannelKind::Vlc => 2,
        };
        h = fnv1a_extend(h, &d.sender.0.to_le_bytes());
        h = fnv1a_extend(h, &d.receiver.0.to_le_bytes());
        h = fnv1a_extend(h, &[channel]);
        h = fnv1a_extend(h, &d.rssi_dbm.to_bits().to_le_bytes());
        h = fnv1a_extend(h, &d.latency.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn hidden_terminal_interference_is_pinned() {
    let (frames, receivers, jammers) = world();
    let scan = medium(f64::INFINITY);
    let covering = medium(1.0e5);
    let pruned = medium(600.0);
    let mut scan_digest = FNV1A_OFFSET;
    let mut pruned_digest = FNV1A_OFFSET;
    let mut lost = 0;
    for seed in 0..SEEDS {
        let mut rng_scan = StdRng::seed_from_u64(seed);
        let mut rng_cover = StdRng::seed_from_u64(seed);
        let (d_scan, s_scan) = scan.step(0.0, &frames, &receivers, &jammers, &mut rng_scan);
        let (d_cover, s_cover) = covering.step(0.0, &frames, &receivers, &jammers, &mut rng_cover);
        assert_eq!(d_scan, d_cover, "seed {seed}");
        assert_eq!(s_scan, s_cover, "seed {seed}");
        assert_eq!(
            rng_scan.next_u64(),
            rng_cover.next_u64(),
            "rng streams diverged at seed {seed}"
        );
        lost += s_scan.lost;
        scan_digest = fold(scan_digest, &d_scan);

        let mut rng = StdRng::seed_from_u64(seed);
        let (d_pruned, _) = pruned.step(0.0, &frames, &receivers, &jammers, &mut rng);
        pruned_digest = fold(pruned_digest, &d_pruned);
    }
    assert!(
        lost > 0,
        "the hidden terminals and the jammer must cost frames"
    );
    assert_eq!(scan_digest, SCAN_DIGEST, "scan digest {scan_digest:#018x}");
    assert_eq!(
        pruned_digest, PRUNED_DIGEST,
        "pruned digest {pruned_digest:#018x}"
    );
}
