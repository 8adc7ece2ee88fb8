//! The versioned **ShardMap**: the single piece of routing state the
//! whole metadata plane agrees on.
//!
//! A map is `(epoch, vnodes, member shards)`. Routers cache a map (plus
//! its materialized [`HashRing`]) under a lease and stamp every request
//! with the cached epoch; the plane rejects requests carrying a stale
//! epoch, which forces the router to refresh and retry. That handshake
//! is what keeps lookups correct across rebalancing without putting a
//! coordinator on the hot path: the *data* (which shard owns which
//! range) travels lazily, and the *fencing* (you may not act on an old
//! map) is enforced where the authoritative state lives.

use mayflower_fs::FsError;
use serde::{Deserialize, Serialize};

use crate::ring::{HashRing, ShardId};

/// The most virtual nodes a decoded map may give each shard. A ring
/// holds shards × vnodes points, so without a bound one number in a
/// damaged `shardmap.json` sizes the allocation that builds it. Balance
/// gains little past the 64 the plane defaults to (the arc-share
/// deviation shrinks only as `1/sqrt(vnodes)`: ~12.5% at 64, ~1.6% at
/// 4096), so this is far above any useful setting and still keeps a
/// ring to 4096 points, 64 KiB, per listed shard.
const MAX_VNODES: u32 = 4096;

/// A versioned description of the shard ring. Serializable so `mayfs
/// shards` can persist and render it; cheap to clone and compare.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Monotonic version. Bumped by exactly one on every installed ring
    /// change; a response carrying a different epoch than the caller
    /// sent proves the caller's cached routing state is stale.
    pub epoch: u64,
    /// Virtual nodes per shard.
    pub vnodes: u32,
    /// Member shards in id order.
    pub shards: Vec<ShardId>,
}

impl ShardMap {
    /// The initial map: shards `0..count` at epoch 1.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `vnodes` is zero.
    #[must_use]
    pub fn initial(count: u32, vnodes: u32) -> ShardMap {
        assert!(count > 0, "a plane needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        ShardMap {
            epoch: 1,
            vnodes,
            shards: (0..count).map(ShardId).collect(),
        }
    }

    /// Decodes a persisted map (`shardmap.json`), refusing one no ring
    /// can be built from: no shards, ids not strictly ascending, or
    /// `vnodes` outside `1..=MAX_VNODES`.
    ///
    /// # Errors
    ///
    /// [`FsError::CorruptMetadata`] for text that is not a map or a
    /// map that breaks one of those rules.
    pub(crate) fn decode(body: &[u8]) -> Result<ShardMap, FsError> {
        let corrupt = |why: String| FsError::CorruptMetadata(format!("shardmap.json: {why}"));
        let map: ShardMap = serde_json::from_slice(body).map_err(|e| corrupt(e.to_string()))?;
        if map.shards.is_empty() {
            return Err(corrupt("no shards".into()));
        }
        if map.shards.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("shard ids are not strictly ascending".into()));
        }
        if !(1..=MAX_VNODES).contains(&map.vnodes) {
            return Err(corrupt(format!(
                "{} vnodes per shard, not 1..={MAX_VNODES}",
                map.vnodes
            )));
        }
        Ok(map)
    }

    /// Materializes the consistent-hash ring this map describes.
    #[must_use]
    pub fn ring(&self) -> HashRing {
        HashRing::new(&self.shards, self.vnodes)
    }

    /// The next unused shard id (ids are never reused).
    #[must_use]
    pub fn next_shard_id(&self) -> ShardId {
        ShardId(self.shards.iter().map(|s| s.0 + 1).max().unwrap_or(0))
    }

    /// The successor map with one more shard and a bumped epoch — the
    /// rebalancer's minimal-disruption ring change.
    #[must_use]
    pub fn with_shard_added(&self, id: ShardId) -> ShardMap {
        debug_assert!(!self.shards.contains(&id), "shard ids are never reused");
        let mut shards = self.shards.clone();
        shards.push(id);
        shards.sort_unstable();
        ShardMap {
            epoch: self.epoch + 1,
            vnodes: self.vnodes,
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_map_numbers_shards_densely() {
        let map = ShardMap::initial(4, 64);
        assert_eq!(map.epoch, 1);
        assert_eq!(map.shards, (0..4).map(ShardId).collect::<Vec<_>>());
        assert_eq!(map.next_shard_id(), ShardId(4));
    }

    #[test]
    fn adding_a_shard_bumps_the_epoch() {
        let map = ShardMap::initial(2, 16);
        let grown = map.with_shard_added(map.next_shard_id());
        assert_eq!(grown.epoch, 2);
        assert_eq!(grown.shards.len(), 3);
        assert_eq!(grown.ring().shards().len(), 3);
    }

    #[test]
    fn map_serializes_round_trip() {
        let map = ShardMap::initial(3, 32);
        let json = serde_json::to_string(&map).unwrap();
        let back: ShardMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
        assert_eq!(ShardMap::decode(json.as_bytes()).unwrap(), map);
    }

    #[test]
    fn maps_no_ring_can_be_built_from_are_refused() {
        let refused = [
            r#"{"epoch": 1, "vnodes": 0, "shards": [0]}"#,
            r#"{"epoch": 1, "vnodes": 4097, "shards": [0]}"#,
            r#"{"epoch": 1, "vnodes": 4294967295, "shards": [0, 1]}"#,
            r#"{"epoch": 1, "vnodes": 8, "shards": []}"#,
            r#"{"epoch": 1, "vnodes": 8, "shards": [0, 0]}"#,
            r#"{"epoch": 1, "vnodes": 8, "shards": [2, 1]}"#,
        ];
        for body in refused {
            assert!(
                matches!(
                    ShardMap::decode(body.as_bytes()),
                    Err(FsError::CorruptMetadata(_))
                ),
                "{body}"
            );
        }
        let edge = r#"{"epoch": 9, "vnodes": 4096, "shards": [0, 5]}"#;
        assert_eq!(
            ShardMap::decode(edge.as_bytes()).unwrap().ring().len(),
            8192
        );
    }

    /// Every truncation and every single-bit flip of a map as the plane
    /// persists it: `decode` never panics, and what it accepts is a map
    /// a ring builds from.
    #[test]
    fn truncations_and_bit_flips_are_errors_or_valid_maps() {
        let persisted = ShardMap {
            epoch: 12,
            vnodes: 64,
            shards: vec![ShardId(0), ShardId(2), ShardId(3)],
        };
        let good = serde_json::to_vec_pretty(&persisted).unwrap();
        let check = |bytes: &[u8], what: &str| match ShardMap::decode(bytes) {
            Ok(map) => {
                assert!(map.shards.windows(2).all(|w| w[0] < w[1]), "{what}");
                assert!((1..=MAX_VNODES).contains(&map.vnodes), "{what}");
                assert_eq!(map.ring().shards(), map.shards, "{what}");
            }
            Err(FsError::CorruptMetadata(_)) => {}
            Err(other) => panic!("{what}: {other}"),
        };
        for len in 0..good.len() {
            check(&good[..len], &format!("cut to {len} bytes"));
        }
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit {bit} flipped"));
        }
        assert_eq!(ShardMap::decode(&good).unwrap(), persisted);
    }
}
