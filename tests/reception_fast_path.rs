//! The reception pipeline decodes each distinct frame once per delivery
//! round and dedups by frame content. These tests pin what that must not
//! change: a byte-identical copy under a fresh allocation is still applied
//! once per receiver while every defense sees every copy, and the
//! authenticated, attacked, rejecting path is byte-identical at any engine
//! thread count.

use platoon_core::experiments::common::{brake_profile, make_attack, make_defenses, Effort};
use platoon_crypto::cert::PrincipalId;
use platoon_detect::observation::MessageObservation;
use platoon_detect::pipeline::PipelineConfig;
use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::prelude::*;
use platoon_trace::TraceRecorder;
use platoon_v2x::message::{Delivery, Frame, Payload};
use rand::rngs::StdRng;
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// (receiving vehicle, claimed sender, beacon sequence number).
type BeaconKey = (usize, PrincipalId, u64);

#[derive(Debug, Default)]
struct Seen {
    /// Beacon deliveries to vehicles, as the medium produced them.
    delivered: u64,
    /// Per beacon key: filter_rx calls and the payload allocations seen.
    filtered: HashMap<BeaconKey, (u64, HashSet<usize>)>,
    /// Per beacon key: how often the engine applied it.
    applied: HashMap<BeaconKey, u64>,
}

type Shared = Rc<RefCell<Seen>>;

fn beacon_seq(payload: &[u8]) -> Option<u64> {
    match Envelope::decode(payload).ok()?.open_unverified().ok()? {
        PlatoonMessage::Beacon(b) => Some(b.seq),
        _ => None,
    }
}

/// Re-sends every honest frame, on the same tick and channel, as a
/// byte-identical copy in a freshly allocated payload.
#[derive(Debug)]
struct CopyInjector(Shared);

impl Attack for CopyInjector {
    fn name(&self) -> &'static str {
        "copy-injector"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, _world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let honest = frames.len();
        for i in 0..honest {
            let copy = Frame {
                payload: Payload::from(frames[i].payload.as_slice()),
                ..frames[i].clone()
            };
            assert_ne!(copy.payload.alloc_id(), frames[i].payload.alloc_id());
            frames.push(copy);
        }
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        let to_vehicles = deliveries
            .iter()
            .filter(|d| world.index_of_node(d.receiver).is_some())
            .filter(|d| beacon_seq(&d.payload).is_some())
            .count();
        self.0.borrow_mut().delivered += to_vehicles as u64;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Accepts everything, counting each beacon copy it is shown.
#[derive(Debug)]
struct CopyCounter(Shared);

impl Defense for CopyCounter {
    fn name(&self) -> &'static str {
        "copy-counter"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        _world: &World,
        delivery: &Delivery,
        envelope: &Envelope,
        _now: f64,
    ) -> Result<(), RejectReason> {
        if let Ok(PlatoonMessage::Beacon(b)) = envelope.open_unverified() {
            let mut seen = self.0.borrow_mut();
            let entry = seen
                .filtered
                .entry((receiver_idx, envelope.sender, b.seq))
                .or_default();
            entry.0 += 1;
            entry.1.insert(delivery.payload.alloc_id());
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Counts the beacons the engine applied (one observation per apply).
#[derive(Debug)]
struct AppliedCounter(Shared);

impl ObservationSink for AppliedCounter {
    fn on_messages(&mut self, batch: &[MessageObservation]) {
        let mut seen = self.0.borrow_mut();
        for obs in batch {
            if let MessageObservation::Beacon(b) = obs {
                *seen
                    .applied
                    .entry((b.ctx.observer, b.sender, b.claim.seq))
                    .or_default() += 1;
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn byte_identical_copy_in_a_fresh_allocation_is_applied_once_per_receiver() {
    let scenario = Scenario::builder()
        .label("reception/copy-injection")
        .vehicles(5)
        .auth(AuthMode::Pki)
        .duration(3.0)
        .seed(12)
        .build();
    let seen: Shared = Rc::default();
    let mut engine = Engine::new(scenario);
    engine.add_attack(Box::new(CopyInjector(Rc::clone(&seen))));
    engine.add_defense(Box::new(CopyCounter(Rc::clone(&seen))));
    engine.attach_observation_sink(Box::new(AppliedCounter(Rc::clone(&seen))));
    let summary = engine.run();
    assert_eq!(summary.rejected_messages, 0, "honest copies all verify");

    let seen = seen.borrow();
    // filter_rx saw every beacon copy the medium delivered to a vehicle.
    let filter_calls: u64 = seen.filtered.values().map(|(n, _)| n).sum();
    assert_eq!(filter_calls, seen.delivered);
    // Many beacons reached a receiver both as the original and as the
    // fresh-allocation copy...
    let doubled: Vec<&BeaconKey> = seen
        .filtered
        .iter()
        .filter(|(_, (_, allocs))| allocs.len() >= 2)
        .map(|(key, _)| key)
        .collect();
    assert!(doubled.len() > 50, "only {} doubled beacons", doubled.len());
    // ...yet each was applied exactly once: dedup is by content, not by
    // allocation.
    for key in &doubled {
        assert_eq!(seen.applied.get(key), Some(&1), "{key:?}");
    }
    assert!(seen.applied.values().all(|&n| n == 1));
    assert_eq!(seen.applied.len(), seen.filtered.len());
}

/// Everything a run must reproduce exactly, whatever the thread count.
#[derive(Debug, PartialEq)]
struct RunRecord {
    summary: RunSummary,
    perf: PerfCounters,
    alerts: String,
    trace: TraceDigest,
}

fn secure_platoon_run(threads: usize) -> RunRecord {
    let duration = 10.0;
    let scenario = Scenario::builder()
        .label("reception/secure-platoon")
        .vehicles(8)
        .controller(ControllerKind::Cacc)
        .auth(AuthMode::Pki)
        .comms(CommsMode::HybridVlc)
        .profile(brake_profile())
        .duration(duration)
        .seed(4242)
        .build();
    let mut engine = Engine::new(scenario);
    engine.set_threads(threads);
    engine.add_attack(make_attack(
        "replay",
        Effort {
            duration,
            sweep_points: 1,
        },
    ));
    for defense in make_defenses(&["anti-replay"]) {
        engine.add_defense(defense);
    }
    engine.attach_detector_config(PipelineConfig::default_profile());
    engine.attach_tracer(Box::new(TraceRecorder::new()));
    let summary = engine.run();
    RunRecord {
        perf: *engine.perf(),
        alerts: format!("{:?}", engine.alerts()),
        trace: summary.trace.expect("tracer attached"),
        summary,
    }
}

#[test]
fn authenticated_replay_run_is_byte_identical_at_1_2_and_4_engine_threads() {
    let serial = secure_platoon_run(1);
    // The run exercises the authenticated and the reject paths.
    assert!(
        serial.summary.rejected_messages > 0,
        "replays were rejected"
    );
    assert!(serial.perf.deliveries > 0);
    assert!(serial.trace.records > 0);
    for threads in [2, 4] {
        assert_eq!(
            secure_platoon_run(threads),
            serial,
            "threads = {threads} diverged from the serial run"
        );
    }
}
