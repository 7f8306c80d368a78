//! Authentication envelopes: the wire wrapper that carries a platoon message
//! together with its credential and authenticator.
//!
//! Table III's "Secret and Public Keys" mechanism comes in the two flavours
//! the paper describes (§VI-A.1):
//!
//! * [`Envelope::sign`] — asymmetric: the message is signed under the
//!   sender's certified (pseudonymous) key and the certificate travels with
//!   it. Defeats impersonation, Sybil and fake-manoeuvre injection.
//! * [`Envelope::mac`] — symmetric: an HMAC under a shared platoon group
//!   key (distributed by an RSU or agreed via channel fading). Cheaper, but
//!   any group member can forge as any other — a distinction the
//!   impersonation experiment (F8) exercises.
//! * [`Envelope::plain`] — no protection: the undefended baseline.

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::messages::PlatoonMessage;
use platoon_crypto::cert::{verify_certificate, CertError, Certificate, PrincipalId};
use platoon_crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use platoon_crypto::keys::{PublicKey, SymmetricKey};
use platoon_crypto::sha256::Digest;
use platoon_crypto::signature::{Signature, Signer};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why envelope verification failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// Signature or MAC did not verify.
    BadAuthenticator,
    /// The attached certificate failed validation.
    BadCertificate(CertError),
    /// The envelope claims a sender that its certificate does not certify.
    SenderMismatch,
    /// Required credential material was absent.
    MissingCredential,
    /// The envelope required a kind of verification it does not carry
    /// (e.g. signature verification of a plain envelope).
    WrongScheme,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::BadAuthenticator => f.write_str("authenticator invalid"),
            AuthError::BadCertificate(e) => write!(f, "certificate invalid: {e}"),
            AuthError::SenderMismatch => f.write_str("sender does not match certificate subject"),
            AuthError::MissingCredential => f.write_str("credential material missing"),
            AuthError::WrongScheme => f.write_str("envelope does not carry the required scheme"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The authentication scheme an envelope uses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AuthScheme {
    /// No authentication.
    Plain,
    /// HMAC-SHA256 under a shared group key.
    GroupMac {
        /// The 32-byte tag.
        tag: [u8; 32],
    },
    /// Encrypt-then-MAC under a shared group key: the payload bytes on the
    /// wire are ciphertext (keystream derived from the key and nonce), so a
    /// passive eavesdropper without the group key reads nothing — the
    /// confidentiality half of Table III's "keys" mechanism.
    EncryptedGroupMac {
        /// The 32-byte tag over (sender ‖ nonce ‖ ciphertext).
        tag: [u8; 32],
        /// Per-message nonce.
        nonce: u64,
    },
    /// Schnorr signature plus the sender's certificate.
    Signed {
        /// Signature over the payload bytes.
        signature: Signature,
        /// Certificate binding the claimed sender to the signing key.
        certificate: Certificate,
    },
}

/// A platoon message with its claimed sender and authenticator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Claimed application-level sender.
    pub sender: PrincipalId,
    /// Authentication scheme and material.
    pub auth: AuthScheme,
    /// Canonical encoded message bytes (the signed/MAC'd image).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Wraps a message with no authentication (the undefended baseline).
    pub fn plain(sender: PrincipalId, msg: &PlatoonMessage) -> Self {
        Envelope {
            sender,
            auth: AuthScheme::Plain,
            payload: msg.encode(),
        }
    }

    /// Wraps and MACs a message under a shared group key.
    pub fn mac(sender: PrincipalId, msg: &PlatoonMessage, key: &SymmetricKey) -> Self {
        let payload = msg.encode();
        let tag = hmac_sha256(key.as_bytes(), &mac_image(sender, &payload));
        Envelope {
            sender,
            auth: AuthScheme::GroupMac { tag: tag.0 },
            payload,
        }
    }

    /// Wraps, encrypts and MACs a message under a shared group key.
    ///
    /// `nonce` must be unique per sender per key epoch (the engine uses the
    /// beacon sequence counter).
    pub fn seal_encrypted(
        sender: PrincipalId,
        msg: &PlatoonMessage,
        key: &SymmetricKey,
        nonce: u64,
    ) -> Self {
        let plaintext = msg.encode();
        let ciphertext = xor_keystream(key, sender, nonce, &plaintext);
        let tag = hmac_sha256(key.as_bytes(), &enc_image(sender, nonce, &ciphertext));
        Envelope {
            sender,
            auth: AuthScheme::EncryptedGroupMac { tag: tag.0, nonce },
            payload: ciphertext,
        }
    }

    /// Decrypts and verifies an encrypted envelope, returning the inner
    /// message.
    pub fn open_encrypted(&self, key: &SymmetricKey) -> Result<PlatoonMessage, AuthError> {
        let AuthScheme::EncryptedGroupMac { tag, nonce } = &self.auth else {
            return Err(AuthError::WrongScheme);
        };
        if !verify_hmac_sha256(
            key.as_bytes(),
            &enc_image(self.sender, *nonce, &self.payload),
            &Digest(*tag),
        ) {
            return Err(AuthError::BadAuthenticator);
        }
        let plaintext = xor_keystream(key, self.sender, *nonce, &self.payload);
        PlatoonMessage::decode(&plaintext).map_err(|_| AuthError::BadAuthenticator)
    }

    /// Wraps and signs a message under a certified key.
    pub fn sign(
        sender: PrincipalId,
        msg: &PlatoonMessage,
        signer: &Signer,
        certificate: Certificate,
    ) -> Self {
        let payload = msg.encode();
        let signature = signer.sign_deterministic(&sign_image(sender, &payload));
        Envelope {
            sender,
            auth: AuthScheme::Signed {
                signature,
                certificate,
            },
            payload,
        }
    }

    /// Decodes the inner message without any verification — what an
    /// *undefended* receiver does, and what an eavesdropper gets for free.
    pub fn open_unverified(&self) -> Result<PlatoonMessage, DecodeError> {
        PlatoonMessage::decode(&self.payload)
    }

    /// Checks a signed envelope's authenticator against the trust anchor
    /// without parsing its body.
    ///
    /// # Errors
    ///
    /// [`AuthError::WrongScheme`] for non-signed envelopes; otherwise the
    /// first failing check among certificate validation, subject match and
    /// signature verification.
    pub fn check_signed(
        &self,
        authority_key: &PublicKey,
        authority_id: PrincipalId,
        now: f64,
    ) -> Result<(), AuthError> {
        let AuthScheme::Signed {
            signature,
            certificate,
        } = &self.auth
        else {
            return Err(AuthError::WrongScheme);
        };
        verify_certificate(certificate, authority_key, authority_id, now)
            .map_err(AuthError::BadCertificate)?;
        if certificate.subject != self.sender {
            return Err(AuthError::SenderMismatch);
        }
        if !signature.verify(
            &certificate.public_key,
            &sign_image(self.sender, &self.payload),
        ) {
            return Err(AuthError::BadAuthenticator);
        }
        Ok(())
    }

    /// Verifies a signed envelope against the trust anchor, returning the
    /// inner message: [`Self::check_signed`], then the body, whose parse
    /// failure is reported as [`AuthError::BadAuthenticator`].
    pub fn verify_signed(
        &self,
        authority_key: &PublicKey,
        authority_id: PrincipalId,
        now: f64,
    ) -> Result<PlatoonMessage, AuthError> {
        self.check_signed(authority_key, authority_id, now)?;
        self.open_unverified()
            .map_err(|_| AuthError::BadAuthenticator)
    }

    /// Checks a group-MAC envelope's tag without parsing its body.
    ///
    /// # Errors
    ///
    /// [`AuthError::WrongScheme`] for envelopes without a group MAC,
    /// [`AuthError::BadAuthenticator`] for a tag that does not verify.
    pub fn check_mac(&self, key: &SymmetricKey) -> Result<(), AuthError> {
        let AuthScheme::GroupMac { tag } = &self.auth else {
            return Err(AuthError::WrongScheme);
        };
        if !verify_hmac_sha256(
            key.as_bytes(),
            &mac_image(self.sender, &self.payload),
            &Digest(*tag),
        ) {
            return Err(AuthError::BadAuthenticator);
        }
        Ok(())
    }

    /// Verifies a group-MAC envelope, returning the inner message:
    /// [`Self::check_mac`], then the body, whose parse failure is reported
    /// as [`AuthError::BadAuthenticator`].
    pub fn verify_mac(&self, key: &SymmetricKey) -> Result<PlatoonMessage, AuthError> {
        self.check_mac(key)?;
        self.open_unverified()
            .map_err(|_| AuthError::BadAuthenticator)
    }

    /// Encodes the envelope for the air.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.sender.0);
        match &self.auth {
            AuthScheme::Plain => {
                e.u8(0);
            }
            AuthScheme::GroupMac { tag } => {
                e.u8(1).bytes(tag);
            }
            AuthScheme::EncryptedGroupMac { tag, nonce } => {
                e.u8(3).bytes(tag).u64(*nonce);
            }
            AuthScheme::Signed {
                signature,
                certificate,
            } => {
                e.u8(2)
                    .bytes(&signature.to_bytes())
                    .u64(certificate.subject.0)
                    .u64(certificate.public_key.element())
                    .f64(certificate.not_before)
                    .f64(certificate.not_after)
                    .u64(certificate.issuer.0)
                    .bytes(&certificate.signature.to_bytes());
            }
        }
        e.bytes(&self.payload);
        e.into_bytes()
    }

    /// Decodes an envelope from air bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let sender = PrincipalId(d.u64()?);
        let auth = match d.u8()? {
            0 => AuthScheme::Plain,
            1 => {
                let tag_bytes = d.bytes()?;
                let tag: [u8; 32] =
                    tag_bytes
                        .as_slice()
                        .try_into()
                        .map_err(|_| DecodeError::BadTag {
                            tag: 1,
                            context: "GroupMac tag length",
                        })?;
                AuthScheme::GroupMac { tag }
            }
            3 => {
                let tag_bytes = d.bytes()?;
                let tag: [u8; 32] =
                    tag_bytes
                        .as_slice()
                        .try_into()
                        .map_err(|_| DecodeError::BadTag {
                            tag: 3,
                            context: "EncryptedGroupMac tag length",
                        })?;
                let nonce = d.u64()?;
                AuthScheme::EncryptedGroupMac { tag, nonce }
            }
            2 => {
                let sig_bytes = d.bytes()?;
                let sig: [u8; 16] =
                    sig_bytes
                        .as_slice()
                        .try_into()
                        .map_err(|_| DecodeError::BadTag {
                            tag: 2,
                            context: "signature length",
                        })?;
                let subject = PrincipalId(d.u64()?);
                let pk_element = d.u64()?;
                let not_before = d.f64()?;
                let not_after = d.f64()?;
                let issuer = PrincipalId(d.u64()?);
                let ca_sig_bytes = d.bytes()?;
                let ca_sig: [u8; 16] =
                    ca_sig_bytes
                        .as_slice()
                        .try_into()
                        .map_err(|_| DecodeError::BadTag {
                            tag: 2,
                            context: "CA signature length",
                        })?;
                AuthScheme::Signed {
                    signature: Signature::from_bytes(&sig),
                    certificate: Certificate {
                        subject,
                        public_key: PublicKey::from_element(pk_element),
                        not_before,
                        not_after,
                        issuer,
                        signature: Signature::from_bytes(&ca_sig),
                    },
                }
            }
            tag => {
                return Err(DecodeError::BadTag {
                    tag,
                    context: "AuthScheme",
                })
            }
        };
        let payload = d.bytes()?;
        d.finish()?;
        Ok(Envelope {
            sender,
            auth,
            payload,
        })
    }
}

/// Keystream XOR for the encrypt-then-MAC scheme: blocks of
/// HMAC(key, "penc" ‖ sender ‖ nonce ‖ counter). Simulation-grade stream
/// cipher with the right structural properties (key- and nonce-dependent,
/// deterministic, self-inverse).
fn xor_keystream(key: &SymmetricKey, sender: PrincipalId, nonce: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut counter: u64 = 0;
    let mut block = [0u8; 32];
    for (i, &b) in data.iter().enumerate() {
        let offset = i % 32;
        if offset == 0 {
            let mut image = Vec::with_capacity(28);
            image.extend_from_slice(b"penc");
            image.extend_from_slice(&sender.0.to_be_bytes());
            image.extend_from_slice(&nonce.to_be_bytes());
            image.extend_from_slice(&counter.to_be_bytes());
            block = hmac_sha256(key.as_bytes(), &image).0;
            counter += 1;
        }
        out.push(b ^ block[offset]);
    }
    out
}

/// The byte image covered by the encrypt-then-MAC tag.
fn enc_image(sender: PrincipalId, nonce: u64, ciphertext: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(ciphertext.len() + 20);
    v.extend_from_slice(b"penc-tag");
    v.extend_from_slice(&sender.0.to_be_bytes());
    v.extend_from_slice(&nonce.to_be_bytes());
    v.extend_from_slice(ciphertext);
    v
}

/// The byte image covered by a MAC (binds the claimed sender).
fn mac_image(sender: PrincipalId, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 12);
    v.extend_from_slice(b"pmac");
    v.extend_from_slice(&sender.0.to_be_bytes());
    v.extend_from_slice(payload);
    v
}

/// The byte image covered by a signature.
fn sign_image(sender: PrincipalId, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 12);
    v.extend_from_slice(b"psig");
    v.extend_from_slice(&sender.0.to_be_bytes());
    v.extend_from_slice(payload);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Beacon, PlatoonId, Role};
    use platoon_crypto::cert::CertificateAuthority;
    use platoon_crypto::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn beacon(sender: u64) -> PlatoonMessage {
        PlatoonMessage::Beacon(Beacon {
            sender: PrincipalId(sender),
            platoon: PlatoonId(1),
            role: Role::Member,
            seq: 1,
            timestamp: 5.0,
            position: 100.0,
            speed: 25.0,
            accel: 0.0,
            length: 16.5,
        })
    }

    fn setup() -> (CertificateAuthority, Signer, Certificate) {
        let mut ca = CertificateAuthority::new(PrincipalId(1000), KeyPair::from_seed(1000));
        let kp = KeyPair::from_seed(7);
        let cert = ca.issue(PrincipalId(7), kp.public(), 0.0, 1000.0);
        (ca, Signer::new(kp), cert)
    }

    #[test]
    fn signed_envelope_verifies() {
        let (ca, signer, cert) = setup();
        let env = Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert);
        let msg = env.verify_signed(&ca.public(), ca.id(), 5.0).unwrap();
        assert_eq!(msg, beacon(7));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (ca, signer, cert) = setup();
        let mut env = Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert);
        let n = env.payload.len();
        env.payload[n - 1] ^= 1;
        assert_eq!(
            env.verify_signed(&ca.public(), ca.id(), 5.0),
            Err(AuthError::BadAuthenticator)
        );
    }

    #[test]
    fn sender_spoof_rejected() {
        // Attacker replays someone's envelope but rewrites the sender field.
        let (ca, signer, cert) = setup();
        let mut env = Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert);
        env.sender = PrincipalId(8);
        let err = env.verify_signed(&ca.public(), ca.id(), 5.0).unwrap_err();
        assert!(matches!(
            err,
            AuthError::SenderMismatch | AuthError::BadAuthenticator
        ));
    }

    #[test]
    fn self_signed_certificate_rejected() {
        // Sybil attacker makes its own key and "certificate" without the CA.
        let (ca, _, _) = setup();
        let fake_kp = KeyPair::from_seed(666);
        let mut fake_ca = CertificateAuthority::new(PrincipalId(666), KeyPair::from_seed(666));
        let fake_cert = fake_ca.issue(PrincipalId(66), fake_kp.public(), 0.0, 1000.0);
        let env = Envelope::sign(
            PrincipalId(66),
            &beacon(66),
            &Signer::new(fake_kp),
            fake_cert,
        );
        assert!(matches!(
            env.verify_signed(&ca.public(), ca.id(), 5.0),
            Err(AuthError::BadCertificate(_))
        ));
    }

    #[test]
    fn expired_certificate_rejected() {
        let (ca, signer, cert) = setup();
        let env = Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert);
        assert!(matches!(
            env.verify_signed(&ca.public(), ca.id(), 2000.0),
            Err(AuthError::BadCertificate(CertError::Expired))
        ));
    }

    #[test]
    fn mac_envelope_verifies_and_rejects_wrong_key() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SymmetricKey::generate(&mut rng);
        let other = SymmetricKey::generate(&mut rng);
        let env = Envelope::mac(PrincipalId(7), &beacon(7), &key);
        assert_eq!(env.verify_mac(&key).unwrap(), beacon(7));
        assert_eq!(env.verify_mac(&other), Err(AuthError::BadAuthenticator));
    }

    #[test]
    fn mac_binds_sender_field() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SymmetricKey::generate(&mut rng);
        let mut env = Envelope::mac(PrincipalId(7), &beacon(7), &key);
        env.sender = PrincipalId(8);
        assert_eq!(env.verify_mac(&key), Err(AuthError::BadAuthenticator));
    }

    #[test]
    fn plain_envelope_opens_but_cannot_verify() {
        let env = Envelope::plain(PrincipalId(7), &beacon(7));
        assert_eq!(env.open_unverified().unwrap(), beacon(7));
        let (ca, ..) = setup();
        assert_eq!(
            env.verify_signed(&ca.public(), ca.id(), 5.0),
            Err(AuthError::WrongScheme)
        );
        let key = SymmetricKey::derive(b"k", "x");
        assert_eq!(env.verify_mac(&key), Err(AuthError::WrongScheme));
    }

    #[test]
    fn encrypted_envelope_roundtrip_and_confidentiality() {
        let key = SymmetricKey::derive(b"group", "enc");
        let msg = beacon(7);
        let env = Envelope::seal_encrypted(PrincipalId(7), &msg, &key, 42);
        // The wire payload is ciphertext: decoding it directly fails, and it
        // differs from the plaintext encoding.
        assert_ne!(env.payload, msg.encode());
        assert!(env.open_unverified().is_err(), "ciphertext must not parse");
        // The key holder recovers the message.
        assert_eq!(env.open_encrypted(&key).unwrap(), msg);
        // The wrong key fails the tag.
        let other = SymmetricKey::derive(b"other", "enc");
        assert_eq!(env.open_encrypted(&other), Err(AuthError::BadAuthenticator));
    }

    #[test]
    fn encrypted_envelope_tamper_rejected() {
        let key = SymmetricKey::derive(b"group", "enc");
        let mut env = Envelope::seal_encrypted(PrincipalId(7), &beacon(7), &key, 1);
        let n = env.payload.len();
        env.payload[n - 1] ^= 1;
        assert_eq!(env.open_encrypted(&key), Err(AuthError::BadAuthenticator));
    }

    #[test]
    fn nonces_randomise_ciphertext() {
        let key = SymmetricKey::derive(b"group", "enc");
        let a = Envelope::seal_encrypted(PrincipalId(7), &beacon(7), &key, 1);
        let b = Envelope::seal_encrypted(PrincipalId(7), &beacon(7), &key, 2);
        assert_ne!(
            a.payload, b.payload,
            "same message, different nonce, different bytes"
        );
    }

    #[test]
    fn encrypted_wire_roundtrip() {
        let key = SymmetricKey::derive(b"group", "enc");
        let env = Envelope::seal_encrypted(PrincipalId(7), &beacon(7), &key, 9);
        let back = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.open_encrypted(&key).unwrap(), beacon(7));
    }

    #[test]
    fn wire_roundtrip_all_schemes() {
        let (_, signer, cert) = setup();
        let key = SymmetricKey::derive(b"group", "mac");
        let envs = vec![
            Envelope::plain(PrincipalId(7), &beacon(7)),
            Envelope::mac(PrincipalId(7), &beacon(7), &key),
            Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert),
        ];
        for env in envs {
            let bytes = env.encode();
            let back = Envelope::decode(&bytes).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn signed_envelope_survives_wire_roundtrip_and_still_verifies() {
        let (ca, signer, cert) = setup();
        let env = Envelope::sign(PrincipalId(7), &beacon(7), &signer, cert);
        let back = Envelope::decode(&env.encode()).unwrap();
        assert!(back.verify_signed(&ca.public(), ca.id(), 5.0).is_ok());
    }

    /// What `verify_*` must equal: the body-free check, then the
    /// unverified parse, whose failure is reported as a bad authenticator.
    fn check_then_open(
        check: Result<(), AuthError>,
        env: &Envelope,
    ) -> Result<PlatoonMessage, AuthError> {
        check.and_then(|()| {
            env.open_unverified()
                .map_err(|_| AuthError::BadAuthenticator)
        })
    }

    /// Seals raw body bytes, which need not parse as a message, with a
    /// valid group MAC and a valid signature.
    fn sealed_bodies(
        sender: PrincipalId,
        body: &[u8],
        key: &SymmetricKey,
        signer: &Signer,
        certificate: Certificate,
    ) -> [Envelope; 2] {
        let tag = hmac_sha256(key.as_bytes(), &mac_image(sender, body)).0;
        let signature = signer.sign_deterministic(&sign_image(sender, body));
        [
            Envelope {
                sender,
                auth: AuthScheme::GroupMac { tag },
                payload: body.to_vec(),
            },
            Envelope {
                sender,
                auth: AuthScheme::Signed {
                    signature,
                    certificate,
                },
                payload: body.to_vec(),
            },
        ]
    }

    #[test]
    fn sealed_unparsable_body_passes_the_check_but_not_verification() {
        let (ca, signer, cert) = setup();
        let key = SymmetricKey::derive(b"group", "mac");
        let [mac, signed] = sealed_bodies(PrincipalId(7), &[0xFF; 3], &key, &signer, cert);
        assert_eq!(mac.check_mac(&key), Ok(()));
        assert_eq!(mac.verify_mac(&key), Err(AuthError::BadAuthenticator));
        assert_eq!(signed.check_signed(&ca.public(), ca.id(), 5.0), Ok(()));
        assert_eq!(
            signed.verify_signed(&ca.public(), ca.id(), 5.0),
            Err(AuthError::BadAuthenticator)
        );
    }

    proptest::proptest! {
        /// `verify_mac`/`verify_signed` equal their split form on valid
        /// envelopes of every scheme, on sealed bodies that do not parse,
        /// and after any single-byte flip of the wire image — which covers
        /// the sender, payload, tag, signature and certificate fields.
        #[test]
        fn verify_equals_check_then_open(
            seq in 0u64..1_000_000,
            position in -1e4f64..1e4,
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            flips in proptest::collection::vec(0usize..4096, 6..7),
            bit in 0u32..8,
            now in 0.0f64..2000.0,
        ) {
            let (ca, signer, cert) = setup();
            let key = SymmetricKey::derive(b"group", "mac");
            let wrong = SymmetricKey::derive(b"other", "mac");
            let PlatoonMessage::Beacon(base) = beacon(7) else {
                unreachable!()
            };
            let msg = PlatoonMessage::Beacon(Beacon { seq, position, ..base });
            let mut envs = vec![
                Envelope::plain(PrincipalId(7), &msg),
                Envelope::mac(PrincipalId(7), &msg, &key),
                Envelope::seal_encrypted(PrincipalId(7), &msg, &key, seq),
                Envelope::sign(PrincipalId(7), &msg, &signer, cert),
            ];
            envs.extend(sealed_bodies(PrincipalId(7), &body, &key, &signer, cert));
            let mut checked = 0;
            for env in &envs {
                let wire = env.encode();
                let mut cases = vec![env.clone()];
                for &at in &flips {
                    let mut flipped = wire.clone();
                    flipped[at % wire.len()] ^= 1 << bit;
                    cases.extend(Envelope::decode(&flipped).ok());
                }
                for case in &cases {
                    for k in [&key, &wrong] {
                        proptest::prop_assert_eq!(
                            case.verify_mac(k),
                            check_then_open(case.check_mac(k), case)
                        );
                    }
                    for at in [now, 5.0] {
                        proptest::prop_assert_eq!(
                            case.verify_signed(&ca.public(), ca.id(), at),
                            check_then_open(case.check_signed(&ca.public(), ca.id(), at), case)
                        );
                    }
                    checked += 1;
                }
            }
            proptest::prop_assert!(checked > envs.len(), "some flipped images decode");
            proptest::prop_assert_eq!(envs[1].verify_mac(&key), Ok(msg.clone()));
            proptest::prop_assert_eq!(envs[3].verify_signed(&ca.public(), ca.id(), 5.0), Ok(msg));
        }
    }

    #[test]
    fn malformed_wire_bytes_rejected() {
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0; 9]).is_err());
        let env = Envelope::plain(PrincipalId(7), &beacon(7));
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
