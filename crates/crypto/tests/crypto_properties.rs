//! Property-based testing of the cryptographic primitives.

use proptest::prelude::*;

use tdb_crypto::cbc::Cbc;
use tdb_crypto::crc32::Crc32;
use tdb_crypto::hmac::Hmac;
use tdb_crypto::{ct_eq, CipherKind, HashKind};

/// On-disk compatibility: `cbc_golden.txt` holds, per cipher kind, the bytes
/// `Cbc::encrypt` produced at commit `0ea14d0` (the last one with the
/// bit-at-a-time kernels) for the key, IV and 1000-byte body below. An image
/// sealed by any earlier commit must open under this one, so those bytes may
/// never change.
#[test]
fn sealed_bytes_match_earlier_commits() {
    let golden = include_str!("cbc_golden.txt");
    let mut kinds = 0;
    for line in golden.lines() {
        let (name, hex) = line.split_once(' ').expect("kind and hex");
        let kind = [
            CipherKind::Null,
            CipherKind::Des,
            CipherKind::TripleDes,
            CipherKind::Aes128,
            CipherKind::Aes256,
        ]
        .into_iter()
        .find(|k| format!("{k:?}") == name)
        .expect("known cipher kind");
        let expected: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect();
        let key: Vec<u8> = (0..kind.key_len()).map(|i| (i * 17 + 3) as u8).collect();
        let iv: Vec<u8> = (0..kind.block_size()).map(|i| 0xA0 + i as u8).collect();
        let body: Vec<u8> = (0..1000usize).map(|i| (i * 31 + 7) as u8).collect();
        let cbc = Cbc::new(kind, &key).unwrap();
        assert_eq!(cbc.encrypt(&iv, &body).unwrap(), expected, "{kind:?}");
        assert_eq!(cbc.decrypt(&iv, &expected).unwrap(), body, "{kind:?}");
        kinds += 1;
    }
    assert_eq!(kinds, 5);
}

/// The golden bytes come out of `Cbc::encrypt_many` too, with the golden
/// body as one lane among 299 others of 0 to 2000 bytes: a bitsliced
/// group of 256 and a second of 44 for DES and 3DES on AVX-512, four-lane
/// groups elsewhere and for AES-NI. The golden lane sits at a different
/// place in each run.
#[test]
fn sealed_bytes_match_earlier_commits_among_other_lanes() {
    let golden = include_str!("cbc_golden.txt");
    for (line, at) in golden.lines().zip([0, 17, 150, 298, 299]) {
        let (name, hex) = line.split_once(' ').expect("kind and hex");
        let kind = [
            CipherKind::Null,
            CipherKind::Des,
            CipherKind::TripleDes,
            CipherKind::Aes128,
            CipherKind::Aes256,
        ]
        .into_iter()
        .find(|k| format!("{k:?}") == name)
        .expect("known cipher kind");
        let expected: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
            .collect();
        let key: Vec<u8> = (0..kind.key_len()).map(|i| (i * 17 + 3) as u8).collect();
        let iv: Vec<u8> = (0..kind.block_size()).map(|i| 0xA0 + i as u8).collect();
        let body: Vec<u8> = (0..1000usize).map(|i| (i * 31 + 7) as u8).collect();
        let cbc = Cbc::new(kind, &key).unwrap();
        let plaintexts: Vec<Vec<u8>> = (0..300usize)
            .map(|i| match i == at {
                true => body.clone(),
                false => vec![i as u8; (i * 677) % 2001],
            })
            .collect();
        let mut bufs: Vec<Vec<u8>> = plaintexts
            .iter()
            .map(|pt| {
                let mut buf = pt.clone();
                buf.resize(cbc.ciphertext_len(pt.len()), 0);
                buf
            })
            .collect();
        let mut jobs: Vec<_> = bufs
            .iter_mut()
            .zip(&plaintexts)
            .map(|(buf, pt)| (iv.as_slice(), buf.as_mut_slice(), pt.len()))
            .collect();
        cbc.encrypt_many(&mut jobs).unwrap();
        assert_eq!(bufs[at], expected, "{kind:?}");
    }
}

fn cipher_strategy() -> impl Strategy<Value = CipherKind> {
    prop_oneof![
        Just(CipherKind::Null),
        Just(CipherKind::Des),
        Just(CipherKind::TripleDes),
        Just(CipherKind::Aes128),
        Just(CipherKind::Aes256),
    ]
}

proptest! {
    /// Encrypt-then-decrypt is the identity for every cipher, key, IV, and
    /// plaintext length.
    #[test]
    fn cbc_roundtrip(
        cipher in cipher_strategy(),
        key_seed in any::<u64>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let key: Vec<u8> = (0..cipher.key_len())
            .map(|i| (key_seed >> (i % 8 * 8)) as u8 ^ i as u8)
            .collect();
        let cbc = Cbc::new(cipher, &key).unwrap();
        let iv = cbc.random_iv();
        let ct = cbc.encrypt(&iv, &plaintext).unwrap();
        prop_assert_eq!(ct.len(), cbc.ciphertext_len(plaintext.len()));
        prop_assert_eq!(cbc.decrypt(&iv, &ct).unwrap(), plaintext);
    }

    /// Ciphertext never contains the plaintext verbatim (for real ciphers
    /// and plaintexts long enough to matter).
    #[test]
    fn cbc_hides_plaintext(
        plaintext in proptest::collection::vec(any::<u8>(), 32..256),
    ) {
        let cbc = Cbc::new(CipherKind::Aes128, &[7u8; 16]).unwrap();
        let iv = cbc.random_iv();
        let ct = cbc.encrypt(&iv, &plaintext).unwrap();
        prop_assert!(!ct.windows(plaintext.len()).any(|w| w == plaintext.as_slice()));
    }

    /// Incremental hashing over arbitrary splits equals one-shot hashing.
    #[test]
    fn hash_split_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        splits in proptest::collection::vec(1usize..200, 0..8),
    ) {
        for kind in [HashKind::Sha1, HashKind::Sha256] {
            let oneshot = kind.hash(&data);
            let mut hasher = kind.hasher();
            let mut rest: &[u8] = &data;
            for s in &splits {
                let take = (*s).min(rest.len());
                hasher.update(&rest[..take]);
                rest = &rest[take..];
            }
            hasher.update(rest);
            prop_assert_eq!(hasher.finalize(), oneshot);
        }
    }

    /// Distinct inputs (as generated) virtually never collide, and equal
    /// inputs always agree — the soundness side of collision resistance.
    #[test]
    fn hash_determinism_and_separation(
        a in proptest::collection::vec(any::<u8>(), 0..500),
        b in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        for kind in [HashKind::Sha1, HashKind::Sha256] {
            prop_assert_eq!(kind.hash(&a), kind.hash(&a));
            if a != b {
                prop_assert_ne!(kind.hash(&a), kind.hash(&b));
            }
        }
    }

    /// HMAC verification accepts exactly the signed message under the
    /// signing key.
    #[test]
    fn hmac_round(
        key in proptest::collection::vec(any::<u8>(), 1..100),
        msg in proptest::collection::vec(any::<u8>(), 0..500),
        tweak in any::<u8>(),
    ) {
        let tag = Hmac::mac(HashKind::Sha256, &key, &msg);
        prop_assert!(Hmac::verify(HashKind::Sha256, &key, &msg, &tag));
        // A flipped message bit must reject.
        if !msg.is_empty() {
            let mut forged = msg.clone();
            forged[0] ^= tweak | 1;
            prop_assert!(!Hmac::verify(HashKind::Sha256, &key, &forged, &tag));
        }
        // A different key must reject.
        let mut other_key = key.clone();
        other_key[0] ^= tweak | 1;
        prop_assert!(!Hmac::verify(HashKind::Sha256, &other_key, &msg, &tag));
    }

    /// CRC-32 is linear-checkable: incremental equals one-shot, and any
    /// single-byte change is detected.
    #[test]
    fn crc_incremental_and_sensitivity(
        data in proptest::collection::vec(any::<u8>(), 1..800),
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let mut inc = Crc32::new();
        for piece in data.chunks(7) {
            inc.update(piece);
        }
        prop_assert_eq!(inc.finalize(), Crc32::checksum(&data));
        let mut corrupted = data.clone();
        let i = at.index(corrupted.len());
        corrupted[i] ^= mask;
        prop_assert_ne!(Crc32::checksum(&corrupted), Crc32::checksum(&data));
    }

    /// Constant-time equality agrees with ordinary equality.
    #[test]
    fn ct_eq_agrees(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
