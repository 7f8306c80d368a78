//! SP-VLC hybrid-communication cross-validation — Table III "Hybrid
//! Communications", after Ucar et al. \[2\].
//!
//! §VI-A.4: "To carry out any action, each member of the platoon must
//! receive both visible light transmission and an 802.11p transmission."
//! An attacker who can inject on the open RF channel cannot inject into a
//! line-of-sight light beam, so requiring *agreement across channels* for
//! safety-critical actions defeats RF-side injection wholesale.
//!
//! Two policies for the F2/F5 ablation:
//!
//! * **AND-validation** ([`HybridPolicy::RequireBoth`]) — a manoeuvre
//!   message is processed only after the same payload has been seen on both
//!   channels within `window` seconds (the SP-VLC rule).
//! * **OR-fallback** ([`HybridPolicy::EitherChannel`]) — any channel
//!   suffices (availability-first: survives jamming, but injectable).

use platoon_crypto::sha256::Sha256;
use platoon_proto::envelope::Envelope;
use platoon_sim::defense::{Defense, RejectReason};
use platoon_sim::world::World;
use platoon_v2x::hash::IntMap;
use platoon_v2x::message::{ChannelKind, Delivery};
use serde::{Deserialize, Serialize};
use std::any::Any;

/// Cross-channel validation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HybridPolicy {
    /// SP-VLC AND-validation: manoeuvres need both channels.
    RequireBoth,
    /// Availability-first: either channel suffices (no cross-check).
    EitherChannel,
}

/// Configuration of the hybrid cross-validation defense.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// The validation policy.
    pub policy: HybridPolicy,
    /// Seconds within which the matching copy must arrive.
    pub window: f64,
    /// Whether periodic beacons also require both channels (strict SP-VLC)
    /// or only manoeuvre messages do (practical variant — beacons are
    /// validated by the control-level plausibility checks instead).
    pub strict_beacons: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            policy: HybridPolicy::RequireBoth,
            window: 0.25,
            strict_beacons: false,
        }
    }
}

/// The hybrid cross-validation defense.
/// # Examples
///
/// ```
/// use platoon_defense::prelude::*;
/// use platoon_sim::prelude::*;
///
/// let mut engine = Engine::new(
///     Scenario::builder()
///         .vehicles(4)
///         .comms(CommsMode::HybridVlc)
///         .duration(5.0)
///         .build(),
/// );
/// engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
/// let summary = engine.run();
/// assert_eq!(summary.collisions, 0);
/// ```
#[derive(Clone, Debug)]
pub struct HybridConfirmDefense {
    config: HybridConfig,
    /// (receiver, payload hash) → (first channel seen, time). An attacker
    /// could grind payloads whose digests share bucket bits, but every
    /// call that reaches the map first prunes it with a full pass, which
    /// already costs what a collision chain would.
    seen: IntMap<(usize, u64), (ChannelKind, f64)>,
    confirmed: u64,
    rejected: u64,
}

impl HybridConfirmDefense {
    /// Creates the defense.
    pub fn new(config: HybridConfig) -> Self {
        HybridConfirmDefense {
            config,
            seen: IntMap::default(),
            confirmed: 0,
            rejected: 0,
        }
    }

    /// Messages accepted after cross-channel confirmation.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Messages rejected for lack of confirmation.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn payload_key(receiver: usize, payload: &[u8]) -> (usize, u64) {
        (receiver, Sha256::digest(payload).to_u64())
    }
}

impl Defense for HybridConfirmDefense {
    fn name(&self) -> &'static str {
        "hybrid-sp-vlc"
    }

    fn filter_rx(
        &mut self,
        receiver_idx: usize,
        _world: &World,
        delivery: &Delivery,
        envelope: &Envelope,
        now: f64,
    ) -> Result<(), RejectReason> {
        if self.config.policy == HybridPolicy::EitherChannel {
            return Ok(());
        }
        // Beacons pass unless strict mode is on.
        let is_maneuver = envelope
            .open_unverified()
            .map(|m| m.is_maneuver())
            .unwrap_or(false);
        if !is_maneuver && !self.config.strict_beacons {
            return Ok(());
        }

        // Garbage-collect stale entries opportunistically.
        let window = self.config.window;
        self.seen.retain(|_, (_, t)| now - *t <= window + 1.0);

        let key = Self::payload_key(receiver_idx, &delivery.payload);
        match self.seen.get(&key) {
            Some(&(first_channel, t)) if first_channel != delivery.channel && now - t <= window => {
                self.confirmed += 1;
                Ok(())
            }
            _ => {
                // First sighting (or same-channel duplicate): remember it
                // and wait for the cross-channel copy.
                self.seen.insert(key, (delivery.channel, now));
                self.rejected += 1;
                Err(RejectReason::Unconfirmed)
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Defense>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_attacks::prelude::*;
    use platoon_sim::prelude::*;

    fn scenario(label: &str, comms: CommsMode) -> Scenario {
        Scenario::builder()
            .label(label)
            .vehicles(6)
            .duration(40.0)
            .comms(comms)
            .seed(11)
            .build()
    }

    #[test]
    fn and_validation_blocks_rf_injected_split() {
        let mut engine = Engine::new(scenario("hybrid-split", CommsMode::HybridVlc));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        let s = engine.run();
        // The forged split arrives on RF only: never confirmed, never obeyed.
        assert_eq!(
            s.fragmented_fraction, 0.0,
            "RF-only forgery must not split the platoon"
        );
        let d = engine.defenses()[0]
            .as_any()
            .downcast_ref::<HybridConfirmDefense>()
            .unwrap();
        assert!(d.rejected() > 0);
    }

    #[test]
    fn or_fallback_still_falls_to_the_forgery() {
        let mut engine = Engine::new(scenario("hybrid-or", CommsMode::HybridVlc));
        engine.add_attack(Box::new(FakeManeuverAttack::new(
            FakeManeuverConfig::default(),
        )));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig {
            policy: HybridPolicy::EitherChannel,
            ..Default::default()
        })));
        let s = engine.run();
        assert!(
            s.fragmented_fraction > 0.5,
            "OR policy provides no injection protection: {}",
            s.fragmented_fraction
        );
    }

    #[test]
    fn legitimate_maneuvers_survive_and_validation() {
        use platoon_crypto::cert::PrincipalId;
        use platoon_proto::messages::PlatoonId;
        use platoon_v2x::message::NodeId;

        let mut engine = Engine::new(scenario("hybrid-join", CommsMode::HybridVlc));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        engine.add_attack(Box::new(JoinerAgent::new(
            PrincipalId(700),
            NodeId(700),
            JoinerCredentials::None,
            PlatoonId(1),
            2.0,
        )));
        engine.run();
        // The joiner transmits on RF only (it is outside the optical chain),
        // so its *requests* reach the leader... on one channel. The leader's
        // own responses go out on both. Under strict SP-VLC, out-of-platoon
        // joins need an RF exception — modelled here by the fact that the
        // join request is processed at the leader only after cross-channel
        // confirmation fails; the paper flags exactly this V2I gap as the
        // mechanism's open challenge ("the use of VLC and wireless radio
        // communications between V2I is lacking").
        let agent = engine.attacks()[0]
            .as_any()
            .downcast_ref::<JoinerAgent>()
            .unwrap();
        assert!(
            !agent.outcome().accepted,
            "strict AND-validation blocks single-channel joiners — the open challenge"
        );
    }

    #[test]
    fn beacons_pass_without_strict_mode() {
        let mut engine = Engine::new(scenario("hybrid-beacons", CommsMode::HybridVlc));
        engine.add_defense(Box::new(HybridConfirmDefense::new(HybridConfig::default())));
        let s = engine.run();
        assert_eq!(s.collisions, 0);
        assert!(
            s.leader_tail_pdr > 0.8,
            "beacons must flow: {}",
            s.leader_tail_pdr
        );
    }
}
