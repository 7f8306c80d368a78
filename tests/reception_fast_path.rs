//! The reception pipeline decodes and parses each distinct frame once per
//! delivery round and dedups by frame content. These tests pin what that
//! must not change: a byte-identical copy under a fresh allocation is
//! still applied once per receiver while every defense sees every copy,
//! a frame whose body does not parse is rejected once per delivery under
//! every scheme that shares the per-frame parse, and the authenticated,
//! attacked, rejecting path is byte-identical at any engine thread count.

use platoon_core::experiments::common::{brake_profile, make_attack, make_defenses, Effort};
use platoon_crypto::cert::PrincipalId;
use platoon_crypto::hmac::hmac_sha256;
use platoon_detect::observation::MessageObservation;
use platoon_detect::pipeline::PipelineConfig;
use platoon_proto::envelope::{AuthScheme, Envelope};
use platoon_proto::messages::PlatoonMessage;
use platoon_sim::prelude::*;
use platoon_sim::{fnv1a_extend, FNV1A_OFFSET};
use platoon_trace::TraceRecorder;
use platoon_v2x::message::{ChannelKind, Delivery, Frame, NodeId, Payload};
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

/// Bytes that do not parse as a platoon message (no such message tag).
const UNPARSABLE_BODY: [u8; 3] = [0xFF, 0x00, 0x13];

/// The byte image a group MAC or a signature covers: scheme label, the
/// claimed sender, the body (as `Envelope::mac` and `Envelope::sign` build
/// it; `images_match_the_envelope_constructors` checks the two agree).
fn auth_image(label: &[u8; 4], sender: PrincipalId, body: &[u8]) -> Vec<u8> {
    let mut image = label.to_vec();
    image.extend_from_slice(&sender.0.to_be_bytes());
    image.extend_from_slice(body);
    image
}

/// Seals `body` as `sender` with the vehicle credential `auth`: a valid
/// envelope around bytes that need not parse.
fn seal_raw(sender: PrincipalId, auth: &AuthMaterial, body: &[u8]) -> Envelope {
    let auth = match auth {
        AuthMaterial::None => AuthScheme::Plain,
        AuthMaterial::GroupMac(key) => AuthScheme::GroupMac {
            tag: hmac_sha256(key.as_bytes(), &auth_image(b"pmac", sender, body)).0,
        },
        AuthMaterial::Pki {
            signer,
            certificate,
        } => AuthScheme::Signed {
            signature: signer.sign_deterministic(&auth_image(b"psig", sender, body)),
            certificate: *certificate,
        },
        AuthMaterial::EncryptedGroupMac(_) => unreachable!("its body is ciphertext"),
    };
    Envelope {
        sender,
        auth,
        payload: body.to_vec(),
    }
}

/// An insider with vehicle 1's credential, at the roadside beside it,
/// sends one frame every tick whose envelope decodes and authenticates but
/// whose body does not parse. Counts that frame's deliveries to vehicles.
#[derive(Debug, Default)]
struct UnparsableInjector {
    wire: Vec<u8>,
    delivered: u64,
}

impl Attack for UnparsableInjector {
    fn name(&self) -> &'static str {
        "unparsable-injector"
    }

    fn attribute(&self) -> SecurityAttribute {
        SecurityAttribute::Integrity
    }

    fn on_air(&mut self, world: &mut World, _rng: &mut StdRng, frames: &mut Vec<Frame>) {
        let insider = &world.vehicles[1];
        self.wire = seal_raw(insider.principal, &insider.auth, &UNPARSABLE_BODY).encode();
        let (x, y) = insider.position();
        frames.push(Frame {
            sender: NodeId(9_000),
            origin: (x, y + 4.0),
            power_dbm: world.medium.dsrc.default_tx_power_dbm,
            channel: ChannelKind::Dsrc,
            payload: Payload::from(self.wire.as_slice()),
        });
    }

    fn observe(&mut self, world: &mut World, _rng: &mut StdRng, deliveries: &[Delivery]) {
        self.delivered += deliveries
            .iter()
            .filter(|d| world.index_of_node(d.receiver).is_some())
            .filter(|d| d.payload.as_slice() == self.wire.as_slice())
            .count() as u64;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn images_match_the_envelope_constructors() {
    let engine = Engine::new(Scenario::builder().vehicles(3).auth(AuthMode::Pki).build());
    let vehicle = &engine.world().vehicles[1];
    let msg = PlatoonMessage::LeaveRequest {
        member: vehicle.principal,
        platoon: platoon_proto::messages::PlatoonId(0),
        timestamp: 1.5,
    };
    let key = engine.group_key();
    assert_eq!(
        seal_raw(
            vehicle.principal,
            &AuthMaterial::GroupMac(key),
            &msg.encode()
        ),
        Envelope::mac(vehicle.principal, &msg, &key)
    );
    let AuthMaterial::Pki {
        signer,
        certificate,
    } = &vehicle.auth
    else {
        panic!("a PKI scenario issues certified keys");
    };
    assert_eq!(
        seal_raw(vehicle.principal, &vehicle.auth, &msg.encode()),
        Envelope::sign(vehicle.principal, &msg, signer, *certificate)
    );
}

/// Per scheme: rejected messages and the digest of every `MessageRejected`
/// event (time bits, receiver, sender, reason), recorded with the same
/// scenario before each frame's body was parsed once per round.
const UNPARSABLE_PINS: [(AuthMode, usize, u64); 3] = [
    (AuthMode::None, 150, 0x853b_f282_5992_e921),
    (AuthMode::GroupMac, 150, 0x853b_f282_5992_e921),
    (AuthMode::Pki, 150, 0x853b_f282_5992_e921),
];

#[test]
fn authenticated_frame_with_an_unparsable_body_is_rejected_once_per_delivery() {
    for (auth, rejected, digest) in UNPARSABLE_PINS {
        let scenario = Scenario::builder()
            .label("reception/unparsable-body")
            .vehicles(5)
            .auth(auth)
            .duration(3.0)
            .seed(21)
            .build();
        let mut engine = Engine::new(scenario);
        engine.add_attack(Box::new(UnparsableInjector::default()));
        let summary = engine.run();
        let injector = engine.attacks()[0]
            .as_any()
            .downcast_ref::<UnparsableInjector>()
            .expect("the injector");
        assert!(
            injector.delivered > 50,
            "{auth:?}: {} deliveries",
            injector.delivered
        );
        // Honest traffic all authenticates, so every rejection is one
        // delivery of the injected frame, and each is an AuthFailed.
        assert_eq!(
            summary.rejected_messages as u64, injector.delivered,
            "{auth:?}"
        );
        assert_eq!(engine.events().dropped(), 0);
        let mut h = FNV1A_OFFSET;
        let mut events = 0;
        for logged in engine.events().events() {
            if let Event::MessageRejected {
                receiver,
                sender,
                reason,
            } = logged.event
            {
                assert_eq!(reason, RejectReason::AuthFailed, "{auth:?}");
                assert_eq!(sender, PrincipalId(1), "{auth:?}");
                h = fnv1a_extend(h, &logged.time.to_bits().to_le_bytes());
                h = fnv1a_extend(h, &(receiver as u64).to_le_bytes());
                h = fnv1a_extend(h, &sender.0.to_le_bytes());
                h = fnv1a_extend(h, format!("{reason:?}").as_bytes());
                events += 1;
            }
        }
        assert_eq!(events, summary.rejected_messages, "{auth:?}");
        assert_eq!(summary.rejected_messages, rejected, "{auth:?}");
        assert_eq!(h, digest, "{auth:?}: event digest {h:#018x}");
    }
}
