//! The shared broadcast medium: takes all frames offered in a communication
//! step and decides, per receiver, which are successfully decoded.
//!
//! The model is a CSMA/CA-flavoured abstraction of the 802.11p MAC on top of
//! the SINR channel of [`crate::channel`]:
//!
//! 1. Each frame draws a random contention offset within the step.
//! 2. Senders that can carrier-sense an earlier, in-progress transmission
//!    defer until it ends (CSMA serialisation).
//! 3. Each frame's interferers are found once: the other frames on its
//!    channel whose airtime overlaps it (hidden terminals that escaped
//!    carrier sensing), by a sort on start time and a forward sweep.
//! 4. For every (frame, receiver) pair, the received power is sampled from
//!    the fading channel; the interference budget sums the frame's
//!    interferers in range of the receiver and all active jammers; the
//!    frame decodes iff SINR clears the PHY threshold, against a noise
//!    floor computed once per step.
//!
//! VLC frames bypass all of this and use the geometric optical link; C-V2X
//! frames use deterministic semi-persistent slots (no contention) but share
//! the fading channel and can be jammed by a C-V2X-targeting jammer.

use crate::channel::{dbm_to_mw, DsrcPhy, NoiseFloor};
use crate::jamming::Jammer;
use crate::message::{distance, ChannelKind, Delivery, Frame, NodeId, Position};
use crate::spatial::SpatialGrid;
use crate::vlc::VlcPhy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A node able to receive frames this step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Receiver {
    /// Node identifier.
    pub id: NodeId,
    /// Node position.
    pub position: Position,
}

/// Carrier-sense threshold in dBm: a sender defers to transmissions it can
/// hear at or above this power.
const CARRIER_SENSE_DBM: f64 = -85.0;

/// Aggregate statistics for one medium step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Frames offered to the medium.
    pub offered: usize,
    /// (frame, receiver) pairs that decoded successfully.
    pub delivered: usize,
    /// (frame, receiver) pairs lost to SINR failure (fading, jamming or
    /// collision).
    pub lost: usize,
    /// RF (frame, receiver) pairs whose received power was sampled. Under a
    /// finite [`RadioMedium::radio_horizon_m`] this is the spatial index's
    /// candidate count; under the default infinite horizon it is the full
    /// all-pairs count — the ratio is the index's deterministic work saving.
    pub pairs_considered: usize,
}

/// The broadcast medium configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RadioMedium {
    /// DSRC PHY parameters.
    pub dsrc: DsrcPhy,
    /// VLC PHY parameters.
    pub vlc: VlcPhy,
    /// Communication step length in seconds (beacon interval granularity).
    pub step_len: f64,
    /// C-V2X semi-persistent-schedule slot count per step.
    pub cv2x_slots: usize,
    /// RF reception horizon in metres. `f64::INFINITY` (the default)
    /// reproduces the seed semantics exactly: every (frame, receiver) pair
    /// is evaluated by an all-pairs scan. A finite horizon enables the
    /// [`SpatialGrid`] fast path: receivers beyond the horizon never hear a
    /// frame and interferers beyond the horizon of a receiver contribute
    /// nothing. When the horizon covers the whole world the indexed path
    /// enumerates exactly the scan's pairs in the scan's order, so results
    /// (including the rng stream) are byte-identical.
    pub radio_horizon_m: f64,
}

impl Default for RadioMedium {
    fn default() -> Self {
        RadioMedium {
            dsrc: DsrcPhy::default(),
            vlc: VlcPhy::default(),
            step_len: 0.1,
            cv2x_slots: 100,
            radio_horizon_m: f64::INFINITY,
        }
    }
}

#[derive(Clone, Debug)]
struct ScheduledFrame {
    frame: Frame,
    start: f64,
    end: f64,
}

impl RadioMedium {
    /// Runs one communication step: schedules `frames`, applies the channel
    /// and jammers, and returns all successful deliveries (a node never
    /// receives its own frame).
    pub fn step<R: Rng + ?Sized>(
        &self,
        now: f64,
        frames: &[Frame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        rng: &mut R,
    ) -> (Vec<Delivery>, StepStats) {
        let mut deliveries = Vec::new();
        let mut stats = StepStats {
            offered: frames.len(),
            ..Default::default()
        };
        let traffic_on_air = !frames.is_empty();

        // Partition by channel.
        let dsrc_frames: Vec<&Frame> = frames
            .iter()
            .filter(|f| f.channel == ChannelKind::Dsrc)
            .collect();
        let vlc_frames: Vec<&Frame> = frames
            .iter()
            .filter(|f| f.channel == ChannelKind::Vlc)
            .collect();
        let cv2x_frames: Vec<&Frame> = frames
            .iter()
            .filter(|f| f.channel == ChannelKind::CV2x)
            .collect();

        // With a finite radio horizon, index receiver positions once so
        // delivery becomes range queries.
        let rx_grid = self.radio_horizon_m.is_finite().then(|| {
            let positions: Vec<Position> = receivers.iter().map(|r| r.position).collect();
            SpatialGrid::build(self.grid_cell(), &positions)
        });
        let noise = self.dsrc.noise();

        let scheduled = self.schedule_csma(&dsrc_frames, rng);
        let cv2x_scheduled = self.schedule_sps(&cv2x_frames);
        for (channel, scheduled) in [
            (ChannelKind::Dsrc, scheduled),
            (ChannelKind::CV2x, cv2x_scheduled),
        ] {
            let jammers: Vec<&Jammer> = jammers
                .iter()
                .filter(|jam| jam.target == channel && jam.is_active(now, traffic_on_air))
                .collect();
            self.deliver_rf(
                channel,
                &scheduled,
                receivers,
                &jammers,
                noise,
                rx_grid.as_ref(),
                &mut deliveries,
                &mut stats,
                rng,
            );
        }

        for frame in vlc_frames {
            for rx in receivers {
                if rx.id == frame.sender {
                    continue;
                }
                if self.vlc.receives(frame.origin, rx.position, rng) {
                    deliveries.push(Delivery {
                        sender: frame.sender,
                        receiver: rx.id,
                        channel: ChannelKind::Vlc,
                        latency: frame.airtime(self.vlc.bitrate),
                        rssi_dbm: 0.0,
                        payload: frame.payload.clone(),
                    });
                    stats.delivered += 1;
                } else if self.vlc.in_beam(frame.origin, rx.position) {
                    stats.lost += 1;
                }
            }
        }

        (deliveries, stats)
    }

    /// Cell size for spatial grids under a finite horizon: one horizon per
    /// cell, so a radius-`horizon` query touches at most a 3×3 block.
    fn grid_cell(&self) -> f64 {
        self.radio_horizon_m.max(1.0)
    }

    /// CSMA/CA-lite: random contention offsets, then defer to any earlier
    /// overlapping transmission the sender can hear.
    fn schedule_csma<R: Rng + ?Sized>(
        &self,
        frames: &[&Frame],
        rng: &mut R,
    ) -> Vec<ScheduledFrame> {
        let mut sched: Vec<ScheduledFrame> = frames
            .iter()
            .map(|f| {
                let airtime = f.airtime(self.dsrc.bitrate);
                let start = rng.gen_range(0.0..(self.step_len - airtime).max(1e-6));
                ScheduledFrame {
                    frame: (*f).clone(),
                    start,
                    end: start + airtime,
                }
            })
            .collect();
        sched.sort_by(|a, b| a.start.total_cmp(&b.start));

        // Defer pass: each sender listens before transmitting. The pass is
        // order-independent in j: `deferred_start` is the max of qualifying
        // ends, and a skipped j can only be one whose `heard` test would
        // have failed — so pruning by a carrier-sense range is exact.
        //
        // Under a finite horizon, prune candidate earlier senders to those
        // within the carrier-sense range of the *loudest* frame: beyond
        // that distance even the loudest frame's median power is below
        // CARRIER_SENSE_DBM, so `heard` is false for every frame.
        let cs_index = (self.radio_horizon_m.is_finite() && sched.len() > 1).then(|| {
            let origins: Vec<Position> = sched.iter().map(|s| s.frame.origin).collect();
            let loudest = sched
                .iter()
                .map(|s| s.frame.power_dbm)
                .fold(f64::NEG_INFINITY, f64::max);
            let cs_range = self
                .dsrc
                .range_for_median_power_m(loudest, CARRIER_SENSE_DBM);
            (SpatialGrid::build(cs_range.max(1.0), &origins), cs_range)
        });
        let mut in_range: Vec<u32> = Vec::new();
        for i in 1..sched.len() {
            let mut deferred_start = sched[i].start;
            let candidates: &[u32] = match &cs_index {
                Some((grid, cs_range)) => {
                    grid.query_within(sched[i].frame.origin, *cs_range, &mut in_range);
                    &in_range
                }
                None => {
                    in_range.clear();
                    in_range.extend(0..i as u32);
                    &in_range
                }
            };
            for &j in candidates {
                let j = j as usize;
                if j >= i {
                    continue;
                }
                if sched[j].end > deferred_start {
                    // Can sender i hear sender j?
                    let d = distance(sched[i].frame.origin, sched[j].frame.origin);
                    let heard = self.dsrc.median_rx_power_dbm(sched[j].frame.power_dbm, d)
                        >= CARRIER_SENSE_DBM;
                    if heard {
                        deferred_start = deferred_start.max(sched[j].end);
                    }
                }
            }
            let airtime = sched[i].end - sched[i].start;
            sched[i].start = deferred_start;
            sched[i].end = deferred_start + airtime;
        }
        sched
    }

    /// C-V2X semi-persistent scheduling: deterministic slot from the sender
    /// id, no listen-before-talk. Two senders share a slot only on a hash
    /// collision.
    fn schedule_sps(&self, frames: &[&Frame]) -> Vec<ScheduledFrame> {
        let slot_len = self.step_len / self.cv2x_slots.max(1) as f64;
        frames
            .iter()
            .map(|f| {
                let slot = (f.sender.0 as usize) % self.cv2x_slots.max(1);
                let start = slot as f64 * slot_len;
                ScheduledFrame {
                    frame: (*f).clone(),
                    start,
                    end: start + f.airtime(self.dsrc.bitrate).min(slot_len),
                }
            })
            .collect()
    }

    /// Samples reception for every (frame, receiver) pair.
    ///
    /// `rx_grid` is `Some` iff the radio horizon is finite; it yields, in
    /// ascending index order, exactly the receivers within one horizon of
    /// the frame origin. Each receiver sums the frame's [`interferers`]
    /// (found once per frame, in ascending index order) that lie within
    /// one horizon of it, plus the `jammers` already found active on this
    /// channel. Scan mode walks every receiver and every overlapping frame
    /// through the same loop. Because every candidate order is ascending —
    /// never bucket order — the rng draw sequence and the floating-point
    /// interference sums match the all-pairs scan whenever the horizon
    /// covers the geometry.
    #[allow(clippy::too_many_arguments)]
    fn deliver_rf<R: Rng + ?Sized>(
        &self,
        channel: ChannelKind,
        scheduled: &[ScheduledFrame],
        receivers: &[Receiver],
        jammers: &[&Jammer],
        noise: NoiseFloor,
        rx_grid: Option<&SpatialGrid>,
        deliveries: &mut Vec<Delivery>,
        stats: &mut StepStats,
        rng: &mut R,
    ) {
        let horizon = self.radio_horizon_m;
        let overlapping = interferers(scheduled, horizon);
        // Scan mode: a fixed full candidate list, identical to iterating
        // the receiver slice directly.
        let all_rx: Vec<u32> = match rx_grid {
            Some(_) => Vec::new(),
            None => (0..receivers.len() as u32).collect(),
        };
        let mut rx_cand: Vec<u32> = Vec::new();
        for (i, sf) in scheduled.iter().enumerate() {
            let rx_list: &[u32] = match rx_grid {
                Some(grid) => {
                    grid.query_within(sf.frame.origin, horizon, &mut rx_cand);
                    &rx_cand
                }
                None => &all_rx,
            };
            for &r in rx_list {
                let rx = &receivers[r as usize];
                if rx.id == sf.frame.sender {
                    continue;
                }
                stats.pairs_considered += 1;
                let d = distance(sf.frame.origin, rx.position);
                let signal_dbm = self.dsrc.sample_rx_power_dbm(sf.frame.power_dbm, d, rng);

                // Interference: temporally overlapping frames on the same
                // channel (hidden terminals) plus jammers targeting it.
                let mut interference_mw = 0.0;
                for &j in &overlapping[i] {
                    let other = &scheduled[j as usize];
                    let dj = distance(other.frame.origin, rx.position);
                    // Beyond the horizon an interferer is out of range of
                    // the receiver by model definition; NaN distances count
                    // as out of range, like `deliver`.
                    let in_horizon = dj <= horizon;
                    if rx_grid.is_some() && !in_horizon {
                        continue;
                    }
                    interference_mw +=
                        dbm_to_mw(self.dsrc.median_rx_power_dbm(other.frame.power_dbm, dj));
                }
                for jam in jammers {
                    interference_mw += jam.interference_mw(&self.dsrc, rx.position);
                }

                if self.dsrc.decodes_over(noise, signal_dbm, interference_mw) {
                    deliveries.push(Delivery {
                        sender: sf.frame.sender,
                        receiver: rx.id,
                        channel,
                        latency: sf.end,
                        rssi_dbm: signal_dbm,
                        payload: sf.frame.payload.clone(),
                    });
                    stats.delivered += 1;
                } else {
                    stats.lost += 1;
                }
            }
        }
    }
}

/// Per scheduled frame, the other frames on its channel that can interfere
/// with it: those whose airtime overlaps it and, under a finite horizon,
/// whose origin lies within two horizons of its origin (a receiver within
/// one horizon of both is possible only then). Each list is in ascending
/// frame index order, so interference sums add the same terms in the same
/// order as a walk over every frame.
///
/// One sort by start and a forward sweep from each frame, which stops at
/// the first frame starting at or after its end, find every overlapping
/// pair; only frames that overlap in time are ever compared.
fn interferers(scheduled: &[ScheduledFrame], horizon: f64) -> Vec<Vec<u32>> {
    let mut by_start: Vec<u32> = (0..scheduled.len() as u32).collect();
    by_start.sort_unstable_by(|&a, &b| {
        scheduled[a as usize]
            .start
            .total_cmp(&scheduled[b as usize].start)
    });
    let mut lists = vec![Vec::new(); scheduled.len()];
    for (k, &a) in by_start.iter().enumerate() {
        let fa = &scheduled[a as usize];
        for &b in &by_start[k + 1..] {
            let fb = &scheduled[b as usize];
            if fb.start >= fa.end {
                break;
            }
            let overlap = fa.start < fb.end && fb.start < fa.end;
            // `distance` is symmetric bit for bit, so one test decides
            // both lists. A NaN origin fails it; scan mode keeps such
            // frames, as a walk over every frame does.
            let near =
                !horizon.is_finite() || distance(fb.frame.origin, fa.frame.origin) <= 2.0 * horizon;
            if overlap && near {
                lists[a as usize].push(b);
                lists[b as usize].push(a);
            }
        }
    }
    for list in &mut lists {
        list.sort_unstable();
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn frame(sender: u64, x: f64, channel: ChannelKind) -> Frame {
        Frame {
            sender: NodeId(sender),
            origin: (x, 0.0),
            power_dbm: 20.0,
            channel,
            payload: vec![sender as u8; 60].into(),
        }
    }

    fn platoon_receivers(n: usize, spacing: f64) -> Vec<Receiver> {
        (0..n)
            .map(|i| Receiver {
                id: NodeId(i as u64),
                position: (i as f64 * spacing, 0.0),
            })
            .collect()
    }

    #[test]
    fn close_broadcast_reaches_everyone() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(5, 20.0);
        let mut rng = rng();
        let mut total = 0;
        for _ in 0..50 {
            let (deliveries, _) = medium.step(
                0.0,
                &[frame(0, 0.0, ChannelKind::Dsrc)],
                &receivers,
                &[],
                &mut rng,
            );
            total += deliveries.len();
        }
        // 4 receivers × 50 rounds; expect near-perfect delivery.
        assert!(total > 190, "delivered {total}/200");
    }

    #[test]
    fn sender_never_receives_own_frame() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(3, 20.0);
        let mut rng = rng();
        let (deliveries, _) = medium.step(
            0.0,
            &[frame(1, 20.0, ChannelKind::Dsrc)],
            &receivers,
            &[],
            &mut rng,
        );
        assert!(deliveries.iter().all(|d| d.receiver != NodeId(1)));
    }

    #[test]
    fn strong_jammer_kills_dsrc() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(4, 20.0);
        let jammer = Jammer::continuous((30.0, 5.0), 40.0);
        let mut rng = rng();
        let mut delivered = 0;
        for _ in 0..50 {
            let (d, _) = medium.step(
                0.0,
                &[frame(0, 0.0, ChannelKind::Dsrc)],
                &receivers,
                &[jammer],
                &mut rng,
            );
            delivered += d.len();
        }
        assert!(
            delivered < 10,
            "jammer should kill DSRC, delivered {delivered}"
        );
    }

    #[test]
    fn vlc_immune_to_rf_jamming() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(2, 15.0);
        let jammer = Jammer::continuous((10.0, 2.0), 60.0);
        let mut rng = rng();
        let mut delivered = 0;
        for _ in 0..100 {
            // Node 1 (front, x = 15) transmits backward to node 0 (x = 0).
            let (d, _) = medium.step(
                0.0,
                &[frame(1, 15.0, ChannelKind::Vlc)],
                &receivers,
                &[jammer],
                &mut rng,
            );
            delivered += d.len();
        }
        assert!(
            delivered > 90,
            "VLC must survive RF jamming: {delivered}/100"
        );
    }

    #[test]
    fn vlc_limited_to_adjacent_range() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(4, 50.0); // 50 m spacing > VLC range
        let mut rng = rng();
        let (d, _) = medium.step(
            0.0,
            &[frame(3, 150.0, ChannelKind::Vlc)],
            &receivers,
            &[],
            &mut rng,
        );
        assert!(d.is_empty(), "VLC should not reach 50 m");
    }

    #[test]
    fn csma_serialises_in_range_senders() {
        let medium = RadioMedium::default();
        // Two senders 10 m apart can hear each other: their frames must not
        // overlap after the defer pass.
        let frames = [
            frame(0, 0.0, ChannelKind::Dsrc),
            frame(1, 10.0, ChannelKind::Dsrc),
        ];
        let refs: Vec<&Frame> = frames.iter().collect();
        let mut rng = rng();
        for _ in 0..50 {
            let sched = medium.schedule_csma(&refs, &mut rng);
            assert!(
                sched[0].end <= sched[1].start + 1e-12,
                "frames overlap: [{}, {}] vs [{}, {}]",
                sched[0].start,
                sched[0].end,
                sched[1].start,
                sched[1].end
            );
        }
    }

    #[test]
    fn many_contending_senders_lose_some_frames() {
        // Saturate the channel: 60 senders in range beaconing simultaneously.
        let medium = RadioMedium {
            step_len: 0.01, // 10 ms step to force congestion
            ..Default::default()
        };
        let receivers = platoon_receivers(60, 10.0);
        let frames: Vec<Frame> = (0..60)
            .map(|i| frame(i, i as f64 * 10.0, ChannelKind::Dsrc))
            .collect();
        let mut rng = rng();
        let (_, stats) = medium.step(0.0, &frames, &receivers, &[], &mut rng);
        assert!(stats.lost > 0, "saturated channel must drop something");
    }

    #[test]
    fn cv2x_slots_avoid_contention() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(8, 15.0);
        let frames: Vec<Frame> = (0..8)
            .map(|i| frame(i, i as f64 * 15.0, ChannelKind::CV2x))
            .collect();
        let mut rng = rng();
        let (d, _) = medium.step(0.0, &frames, &receivers, &[], &mut rng);
        // 8 senders × 7 receivers = 56 pairs; SPS slots mean essentially all
        // decode (senders have distinct slots).
        assert!(d.len() > 50, "C-V2X delivered only {}", d.len());
    }

    #[test]
    fn dsrc_jammer_does_not_affect_cv2x() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(3, 15.0);
        let jammer = Jammer::continuous((15.0, 2.0), 60.0); // targets DSRC
        let mut rng = rng();
        let (d, _) = medium.step(
            0.0,
            &[frame(0, 0.0, ChannelKind::CV2x)],
            &receivers,
            &[jammer],
            &mut rng,
        );
        assert_eq!(d.len(), 2, "C-V2X should survive a DSRC-band jammer");
    }

    #[test]
    fn covering_horizon_is_byte_identical_to_scan() {
        // A finite horizon that covers the whole geometry must reproduce the
        // all-pairs scan exactly: same deliveries, same stats, and the same
        // number of rng draws (the streams stay in lockstep).
        let scan_medium = RadioMedium::default();
        let indexed_medium = RadioMedium {
            radio_horizon_m: 1.0e5,
            ..RadioMedium::default()
        };
        let receivers = platoon_receivers(12, 35.0);
        let frames: Vec<Frame> = (0..12)
            .flat_map(|i| {
                [
                    frame(i, i as f64 * 35.0, ChannelKind::Dsrc),
                    frame(i, i as f64 * 35.0, ChannelKind::CV2x),
                ]
            })
            .collect();
        let jammers = [Jammer::continuous((150.0, 5.0), 25.0)];
        for seed in 0..20 {
            let mut rng_scan = StdRng::seed_from_u64(seed);
            let mut rng_idx = StdRng::seed_from_u64(seed);
            let (d_scan, s_scan) =
                scan_medium.step(0.0, &frames, &receivers, &jammers, &mut rng_scan);
            let (d_idx, s_idx) =
                indexed_medium.step(0.0, &frames, &receivers, &jammers, &mut rng_idx);
            assert_eq!(d_scan, d_idx, "seed {seed}");
            assert_eq!(s_scan, s_idx, "seed {seed}");
            assert_eq!(
                rand::RngCore::next_u64(&mut rng_scan),
                rand::RngCore::next_u64(&mut rng_idx),
                "rng streams diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn finite_horizon_prunes_far_pairs() {
        // Two clusters far apart: a finite horizon between the intra- and
        // inter-cluster distances must sample far fewer pairs than the scan
        // and never deliver across clusters.
        let medium = RadioMedium {
            radio_horizon_m: 500.0,
            ..RadioMedium::default()
        };
        let scan = RadioMedium::default();
        let mut receivers = platoon_receivers(6, 25.0);
        receivers.extend((0..6).map(|i| Receiver {
            id: NodeId(100 + i as u64),
            position: (50_000.0 + i as f64 * 25.0, 0.0),
        }));
        let frames: Vec<Frame> = (0..6)
            .map(|i| frame(i, i as f64 * 25.0, ChannelKind::Dsrc))
            .collect();
        let (d_idx, s_idx) = medium.step(0.0, &frames, &receivers, &[], &mut rng());
        let (_, s_scan) = scan.step(0.0, &frames, &receivers, &[], &mut rng());
        assert!(d_idx.iter().all(|d| d.receiver.0 < 100));
        assert!(
            s_idx.pairs_considered < s_scan.pairs_considered,
            "indexed {} vs scan {}",
            s_idx.pairs_considered,
            s_scan.pairs_considered
        );
        // The near cluster is fully inside the horizon: 6 frames × 5 peers.
        assert_eq!(s_idx.pairs_considered, 30);
        assert_eq!(s_scan.pairs_considered, 6 * 11);
    }

    /// Reference: every other frame that overlaps frame `i` in time and,
    /// under a finite horizon, starts within two horizons of it.
    fn brute_force_interferers(sched: &[ScheduledFrame], horizon: f64) -> Vec<Vec<u32>> {
        (0..sched.len())
            .map(|i| {
                let a = &sched[i];
                (0..sched.len())
                    .filter(|&j| {
                        let b = &sched[j];
                        j != i
                            && a.start < b.end
                            && b.start < a.end
                            && (!horizon.is_finite()
                                || distance(b.frame.origin, a.frame.origin) <= 2.0 * horizon)
                    })
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        /// The sweep finds exactly the brute-force interferers in
        /// ascending order, on schedules with tied starts, zero airtime,
        /// shared origins and NaN origins.
        #[test]
        fn interferer_lists_equal_brute_force(
            spans in proptest::collection::vec(
                (
                    0u32..12,
                    proptest::prop_oneof![
                        proptest::prelude::Just(0.0),
                        proptest::prelude::Just(1.0),
                        0.0f64..4.0,
                    ],
                    proptest::prop_oneof![
                        proptest::prelude::Just((0.0, 0.0)),
                        proptest::prelude::Just((f64::NAN, 0.0)),
                        (-1500.0f64..1500.0, -10.0f64..10.0),
                    ],
                ),
                0..40,
            ),
            horizon in proptest::prop_oneof![
                proptest::prelude::Just(f64::INFINITY),
                1.0f64..800.0,
            ],
        ) {
            let sched: Vec<ScheduledFrame> = spans
                .iter()
                .enumerate()
                .map(|(k, &(slot, airtime, origin))| ScheduledFrame {
                    frame: Frame {
                        origin,
                        ..frame(k as u64, 0.0, ChannelKind::Dsrc)
                    },
                    start: f64::from(slot) * 0.5,
                    end: f64::from(slot) * 0.5 + airtime,
                })
                .collect();
            proptest::prop_assert_eq!(
                interferers(&sched, horizon),
                brute_force_interferers(&sched, horizon)
            );
        }
    }

    #[test]
    fn deliveries_carry_rssi() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(2, 10.0);
        let mut rng = rng();
        let (d, _) = medium.step(
            0.0,
            &[frame(0, 0.0, ChannelKind::Dsrc)],
            &receivers,
            &[],
            &mut rng,
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].rssi_dbm < 20.0 && d[0].rssi_dbm > -90.0);
        assert!(d[0].latency > 0.0);
    }
}
