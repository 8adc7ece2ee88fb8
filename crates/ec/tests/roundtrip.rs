//! Property tests for the Reed-Solomon codec: any-k-of-(k+m)
//! reconstruction round-trips for every k ≤ 10, m ≤ 4, with ragged
//! last stripes and adversarial loss sets.

use mayflower_ec::{Codec, EcError};
use mayflower_simcore::testutil::SeedGuard;
use mayflower_simcore::SimRng;
use proptest::prelude::*;

/// Deterministic payload bytes from a seed (ragged lengths included).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from(seed);
    (0..len).map(|_| (rng.next_u64() >> 24) as u8).collect()
}

/// Drop exactly `losses` shards chosen by the seeded RNG.
fn drop_shards(shards: &[Vec<u8>], losses: usize, rng: &mut SimRng) -> Vec<Option<Vec<u8>>> {
    let mut opts: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    let mut lost = 0;
    while lost < losses {
        let i = (rng.next_u64() % opts.len() as u64) as usize;
        if opts[i].is_some() {
            opts[i] = None;
            lost += 1;
        }
    }
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encode → lose up to m shards → decode is the identity for every
    /// (k, m) the storage tier supports, with ragged
    /// (non-multiple-of-k) payload lengths.
    #[test]
    fn any_k_of_n_round_trips(
        k in 1usize..11,
        m in 1usize..5,
        len in 0usize..4096,
        seed in any::<u64>(),
    ) {
        let _guard = SeedGuard::new("ec::any_k_of_n_round_trips", seed);
        let codec = Codec::new(k, m);
        let data = payload(seed, len);
        let shards = codec.encode_payload(&data);
        prop_assert_eq!(shards.len(), k + m);

        let mut rng = SimRng::seed_from(seed ^ 0xec);
        let losses = (rng.next_u64() % (m as u64 + 1)) as usize;
        let mut opts = drop_shards(&shards, losses, &mut rng);
        let mut lost = opts.clone();
        let back = codec.decode_payload(&mut opts, data.len()).expect("k shards survive");
        prop_assert_eq!(back, data);
        // Reconstruction restores every lost shard verbatim.
        codec.reconstruct(&mut lost).expect("k shards survive");
        for (i, orig) in shards.iter().enumerate() {
            prop_assert_eq!(lost[i].as_deref(), Some(orig.as_slice()));
        }
    }

    /// Losing more than m shards is detected, never mis-decoded.
    #[test]
    fn too_many_losses_error(
        k in 1usize..11,
        m in 1usize..5,
        len in 1usize..1024,
        seed in any::<u64>(),
    ) {
        let _guard = SeedGuard::new("ec::too_many_losses_error", seed);
        let codec = Codec::new(k, m);
        let shards = codec.encode_payload(&payload(seed, len));
        let mut rng = SimRng::seed_from(seed ^ 0xdead);
        let mut opts = drop_shards(&shards, m + 1, &mut rng);
        prop_assert_eq!(
            codec.decode_payload(&mut opts, len),
            Err(EcError::TooFewShards { have: k.saturating_sub(1), need: k })
        );
    }

    /// A silently corrupted shard changes the decoded payload whenever
    /// the corrupt shard participates in reconstruction — which is why
    /// the dataserver layer checksums fragments (corruption must be
    /// detected *before* the codec, since RS itself cannot).
    #[test]
    fn corruption_propagates_without_checksums(
        k in 2usize..11,
        m in 1usize..5,
        len in 64usize..1024,
        seed in any::<u64>(),
    ) {
        let _guard = SeedGuard::new("ec::corruption_propagates", seed);
        let codec = Codec::new(k, m);
        let data = payload(seed, len);
        let shards = codec.encode_payload(&data);
        let shard_len = codec.shard_len(len);
        prop_assume!(shard_len > 0);

        // Corrupt one byte of data shard 0, drop one parity shard so
        // shard 0 must participate, then decode.
        let mut opts: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        let mut rng = SimRng::seed_from(seed ^ 0xbad);
        let byte = (rng.next_u64() % shard_len as u64) as usize;
        opts[0].as_mut().expect("present")[byte] ^= 0x5a;
        opts[k] = None;
        let back = codec.decode_payload(&mut opts, len).expect("enough shards");
        prop_assert!(back != data, "corruption must change the decode");
    }
}
