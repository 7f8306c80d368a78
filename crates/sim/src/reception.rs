//! The per-round unique-frame table behind [`Engine`](crate::engine::Engine)
//! reception.
//!
//! Broadcast fans one encoded frame out to every receiver in range, and in
//! hybrid comms modes onto a second channel too, so one delivery round
//! holds far fewer distinct payloads than deliveries (a 320-vehicle
//! corridor tick: ~8300 deliveries, ~320 payloads). The table gives each
//! distinct payload one **frame slot** and keeps its decoded envelope, so
//! decoding happens once per frame rather than once per receiver, and the
//! protocol's "already applied this copy?" check becomes an integer
//! `(receiver, slot)` compare instead of a digest of the bytes.
//!
//! Slots are keyed by *content*: a lookup first tries the payload's
//! allocation identity (the common case — every delivery of a broadcast
//! shares one allocation), then falls back to the bytes themselves. A
//! byte-identical copy under a fresh allocation, such as a replayed frame,
//! therefore lands in the same slot as the original.

use platoon_proto::envelope::Envelope;
use platoon_v2x::message::Payload;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for integer keys (allocation addresses, packed id pairs): one
/// folded 64×64→128-bit multiply per word instead of SipHash. Keys are
/// engine-internal, never attacker-chosen, so hash flooding is moot.
#[derive(Debug, Default)]
pub(crate) struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        let full = u128::from(self.0 ^ word) * u128::from(Self::K);
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
}

/// `HashSet` over integer keys with [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// One distinct payload of the round and its decoded envelope.
#[derive(Debug)]
pub(crate) struct FrameSlot {
    /// The payload bytes (a shared handle, not a copy).
    pub payload: Payload,
    /// The decoded envelope; `None` when the bytes do not decode.
    pub envelope: Option<Envelope>,
}

/// The round's unique-frame table. Cleared (keeping capacity) after every
/// round, so the steady state allocates nothing for it.
#[derive(Debug, Default)]
pub(crate) struct FrameTable {
    /// Slot per payload allocation address. Only meaningful while every
    /// looked-up payload is alive, i.e. within one round.
    by_alloc: HashMap<usize, u32, BuildHasherDefault<IntHasher>>,
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
                });
                self.by_bytes.insert(payload.clone(), slot);
                slot
            }
        };
        self.by_alloc.insert(payload.alloc_id(), slot);
        slot
    }

    /// Decodes every slot's envelope, sharded across up to `threads`
    /// threads over the slots (rng-free and order-independent).
    pub fn decode(&mut self, threads: usize) {
        crate::par::for_each_mut(&mut self.slots, threads, |_, slot| {
            slot.envelope = Envelope::decode(&slot.payload).ok();
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
    use platoon_proto::messages::{Beacon, PlatoonId, PlatoonMessage, Role};

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
        for threads in [1, 2, 4] {
            let mut table = FrameTable::default();
            for seq in 0..9 {
                table.slot_of(&sealed(seq));
            }
            let garbage = Payload::from(vec![0xFF; 5]);
            let bad = table.slot_of(&garbage) as usize;
            table.decode(threads);
            for (i, slot) in table.slots().iter().enumerate() {
                assert_eq!(slot.envelope.is_some(), i != bad, "threads = {threads}");
            }
            table.clear();
            assert!(table.slots().is_empty());
            assert_eq!(table.slot_of(&garbage), 0, "a cleared table starts over");
        }
    }

    #[test]
    fn int_set_behaves_like_a_set() {
        let mut set: IntSet<(usize, u32)> = IntSet::default();
        assert!(set.insert((3, 7)));
        assert!(!set.insert((3, 7)));
        assert!(set.insert((7, 3)));
        assert_eq!(set.len(), 2);
    }
}
