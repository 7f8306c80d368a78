//! The per-round unique-frame table behind [`Engine`](crate::engine::Engine)
//! reception.
//!
//! Broadcast fans one encoded frame out to every receiver in range, and in
//! hybrid comms modes onto a second channel too, so one delivery round
//! holds far fewer distinct payloads than deliveries (a 320-vehicle
//! corridor tick: ~8300 deliveries, ~320 payloads). The table gives each
//! distinct payload one **frame slot** and keeps its decoded envelope and
//! its parsed plaintext message, so decoding and parsing happen once per
//! frame rather than once per receiver, and the protocol's "already
//! applied this copy?" check becomes an integer `(receiver, slot)` compare
//! instead of a digest of the bytes. Authenticators are not memoised: the
//! engine still runs them once per delivery against the slot's envelope.
//!
//! Slots are keyed by *content*: a lookup first tries the payload's
//! allocation identity (the common case — every delivery of a broadcast
//! shares one allocation), then falls back to the bytes themselves. A
//! byte-identical copy under a fresh allocation, such as a replayed frame,
//! therefore lands in the same slot as the original. The allocation map
//! uses the workspace's integer hasher; the byte map keeps SipHash,
//! because an on-air attacker shapes the bytes.

use platoon_proto::envelope::Envelope;
use platoon_proto::messages::PlatoonMessage;
use platoon_v2x::hash::IntMap;
use platoon_v2x::message::Payload;
use std::collections::HashMap;

/// One distinct payload of the round, decoded and parsed once for every
/// delivery that carries it.
#[derive(Debug)]
pub(crate) struct FrameSlot {
    /// The payload bytes (a shared handle, not a copy).
    pub payload: Payload,
    /// The decoded envelope; `None` when the bytes do not decode.
    pub envelope: Option<Envelope>,
    /// The envelope's body parsed as plaintext
    /// ([`Envelope::open_unverified`]); `None` when there is no envelope
    /// or the body does not parse. Authenticators still run per delivery
    /// and decide whether a receiver may use it; an encrypted body is
    /// ciphertext, so that scheme opens it per delivery instead.
    pub message: Option<PlatoonMessage>,
}

/// The round's unique-frame table. Cleared (keeping capacity) after every
/// round, so the steady state allocates nothing for it.
#[derive(Debug, Default)]
pub(crate) struct FrameTable {
    /// Slot per payload allocation address. Only meaningful while every
    /// looked-up payload is alive, i.e. within one round.
    by_alloc: IntMap<usize, u32>,
    /// Slot per payload content, consulted on an allocation miss.
    by_bytes: HashMap<Payload, u32>,
    /// One entry per distinct payload, in first-seen order.
    slots: Vec<FrameSlot>,
}

impl FrameTable {
    /// The slot holding `payload`'s bytes, opening a new (undecoded) one
    /// on first sight. Every payload looked up must stay alive until
    /// [`Self::clear`]: a freed allocation's address could be reused by
    /// different bytes.
    pub fn slot_of(&mut self, payload: &Payload) -> u32 {
        if let Some(&slot) = self.by_alloc.get(&payload.alloc_id()) {
            return slot;
        }
        let slot = match self.by_bytes.get(payload) {
            Some(&slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 frames a round");
                self.slots.push(FrameSlot {
                    payload: payload.clone(),
                    envelope: None,
                    message: None,
                });
                self.by_bytes.insert(payload.clone(), slot);
                slot
            }
        };
        self.by_alloc.insert(payload.alloc_id(), slot);
        slot
    }

    /// Decodes every slot's envelope and parses its plaintext body,
    /// sharded across up to `threads` threads over the slots (rng-free and
    /// order-independent).
    pub fn decode(&mut self, threads: usize) {
        crate::par::for_each_mut(&mut self.slots, threads, |_, slot| {
            slot.envelope = Envelope::decode(&slot.payload).ok();
            slot.message = slot
                .envelope
                .as_ref()
                .and_then(|env| env.open_unverified().ok());
        });
    }

    /// The slots, indexed by the ids [`Self::slot_of`] returned.
    pub fn slots(&self) -> &[FrameSlot] {
        &self.slots
    }

    /// Empties the table for the next round, keeping its capacity.
    pub fn clear(&mut self) {
        self.by_alloc.clear();
        self.by_bytes.clear();
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platoon_crypto::cert::PrincipalId;
    use platoon_proto::envelope::AuthScheme;
    use platoon_proto::messages::{Beacon, PlatoonId, Role};

    fn sealed(seq: u64) -> Payload {
        let beacon = Beacon {
            sender: PrincipalId(1),
            seq,
            timestamp: seq as f64 * 0.1,
            position: 10.0,
            speed: 20.0,
            accel: 0.0,
            platoon: PlatoonId(0),
            role: Role::Member,
            length: 16.5,
        };
        Envelope::plain(PrincipalId(1), &PlatoonMessage::Beacon(beacon))
            .encode()
            .into()
    }

    #[test]
    fn shared_and_byte_identical_payloads_share_a_slot() {
        let mut table = FrameTable::default();
        let a = sealed(1);
        let shared = a.clone();
        let copy = Payload::from(a.as_slice());
        let b = sealed(2);
        assert_ne!(a.alloc_id(), copy.alloc_id());
        assert_eq!(table.slot_of(&a), 0);
        assert_eq!(table.slot_of(&b), 1);
        assert_eq!(table.slot_of(&shared), 0, "same allocation");
        assert_eq!(table.slot_of(&copy), 0, "same bytes, new allocation");
        assert_eq!(table.slot_of(&copy), 0, "now found by allocation");
        assert_eq!(table.slots().len(), 2);
    }

    #[test]
    fn decode_fills_every_decodable_slot_for_any_thread_count() {
        // An envelope that decodes around a body that does not parse.
        let unparsable = Payload::from(
            Envelope {
                sender: PrincipalId(1),
                auth: AuthScheme::Plain,
                payload: vec![0xFF; 3],
            }
            .encode(),
        );
        for threads in [1, 2, 4] {
            let mut table = FrameTable::default();
            for seq in 0..9 {
                table.slot_of(&sealed(seq));
            }
            let garbage = Payload::from(vec![0xFF; 5]);
            let bad = table.slot_of(&garbage) as usize;
            let body = table.slot_of(&unparsable) as usize;
            table.decode(threads);
            for (i, slot) in table.slots().iter().enumerate() {
                assert_eq!(slot.envelope.is_some(), i != bad, "threads = {threads}");
                let parsed = slot
                    .envelope
                    .as_ref()
                    .and_then(|e| e.open_unverified().ok());
                assert_eq!(slot.message, parsed, "threads = {threads}");
                assert_eq!(slot.message.is_some(), i != bad && i != body);
            }
            table.clear();
            assert!(table.slots().is_empty());
            assert_eq!(table.slot_of(&garbage), 0, "a cleared table starts over");
        }
    }
}
