//! Robustness of the on-disk fragment frame (`MFEC` | payload length |
//! crc32 | shard, DESIGN.md §14) and byte identity of every read shape
//! the sealed-read planner produces: a damaged frame is an error value
//! from the dataserver and a healed erasure to the client, never a
//! panic and never silently short or wrong bytes.

use std::path::PathBuf;
use std::sync::Arc;

use mayflower_fs::{
    Cluster, ClusterConfig, Consistency, FileMeta, FsError, NameserverConfig, Redundancy,
};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::testutil::TempDir;
use proptest::prelude::*;

const CHUNK: u64 = 64;
/// Three sealed chunks and a 21-byte replicated tail.
const FILE_BYTES: usize = 3 * CHUNK as usize + 21;
/// 4+2 splits a 64-byte chunk into exact 16-byte shards; 6+3 into
/// 11-byte shards whose last carries 9 payload bytes and 2 of padding.
const SCHEMES: [(usize, usize); 2] = [(4, 2), (6, 3)];

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(151).wrapping_add(23))
        .collect()
}

/// A cluster holding one `k+m` file of [`FILE_BYTES`] bytes.
struct Fixture {
    cluster: Cluster,
    meta: FileMeta,
    data: Vec<u8>,
    k: usize,
    /// Last, so the cluster closes before its directory goes.
    _dir: TempDir,
}

impl Fixture {
    fn new(tag: &str, (k, m): (usize, usize)) -> Fixture {
        let dir = TempDir::new(tag);
        // 18 hosts: three replicas plus nine fragment hosts for 6+3.
        let topo = Arc::new(Topology::three_tier(&TreeParams {
            pods: 3,
            racks_per_pod: 3,
            hosts_per_rack: 2,
            ..TreeParams::paper_testbed()
        }));
        let cluster = Cluster::create(
            dir.path(),
            topo,
            ClusterConfig {
                nameserver: NameserverConfig {
                    chunk_size: CHUNK,
                    ..NameserverConfig::default()
                },
                consistency: Consistency::Sequential,
            },
        )
        .unwrap();
        let data = payload(FILE_BYTES);
        let mut client = cluster.client(HostId(0));
        client.create_with("f", Redundancy::Coded { k, m }).unwrap();
        client.append("f", &data).unwrap();
        let meta = cluster.nameserver().lookup("f").unwrap();
        assert_eq!(meta.sealed_chunks, 3);
        Fixture {
            cluster,
            meta,
            data,
            k,
            _dir: dir,
        }
    }

    fn shard_len(&self) -> usize {
        (CHUNK as usize).div_ceil(self.k)
    }

    fn fragment_file(&self, chunk: u64, index: usize) -> PathBuf {
        self.cluster
            .dataserver(self.meta.fragments[index])
            .unwrap()
            .fragment_path(self.meta.id, chunk, index)
    }

    /// What `read_fragment_into` makes of fragment `index` of `chunk`.
    fn fetch(&self, chunk: u64, index: usize) -> Result<u64, FsError> {
        let mut dst = vec![0u8; self.shard_len()];
        self.cluster
            .dataserver(self.meta.fragments[index])
            .unwrap()
            .read_fragment_into(self.meta.id, chunk, index, &mut dst)
    }

    /// Whether the fetch ended in what every caller treats as an
    /// erasure: an error, or — the header's length field is outside
    /// the checksum — a payload length that contradicts the metadata.
    fn is_erasure(&self, chunk: u64, index: usize) -> bool {
        self.fetch(chunk, index).map_or(true, |len| len != CHUNK)
    }

    fn degraded_reads(&self) -> u64 {
        self.cluster
            .registry()
            .snapshot()
            .counter("ec_degraded_reads_total")
            .unwrap_or(0)
    }
}

/// One way to ruin a fragment file.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut the file at `at % len` bytes.
    Truncate(usize),
    /// Flip one bit of byte `at % len`.
    Flip(usize, u8),
    Delete,
}

impl Damage {
    fn apply(&self, path: &std::path::Path) {
        let mut frame = std::fs::read(path).unwrap();
        match *self {
            Damage::Truncate(at) => frame.truncate(at % frame.len()),
            Damage::Flip(at, bit) => {
                let at = at % frame.len();
                frame[at] ^= 1 << (bit % 8);
            }
            Damage::Delete => return std::fs::remove_file(path).unwrap(),
        }
        std::fs::write(path, frame).unwrap();
    }
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        3 => (0usize..4096).prop_map(Damage::Truncate),
        // Header bytes (magic 0..4, length 4..12, crc 12..16) and shard
        // bytes get equal weight.
        3 => (0usize..16, any::<u8>()).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        3 => (16usize..4096, any::<u8>()).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        1 => Just(Damage::Delete),
    ]
}

#[test]
fn a_frame_cut_anywhere_in_its_header_is_an_error() {
    for scheme in SCHEMES {
        let fx = Fixture::new("cut", scheme);
        assert_eq!(fx.fetch(1, 0).unwrap(), CHUNK, "healthy fragment reads");
        let path = fx.fragment_file(1, 0);
        let frame = std::fs::read(&path).unwrap();
        assert_eq!(frame.len(), 16 + fx.shard_len());
        for cut in 0..16 {
            std::fs::write(&path, &frame[..cut]).unwrap();
            assert!(
                matches!(fx.fetch(1, 0), Err(FsError::CorruptMetadata(_))),
                "{scheme:?} header cut at {cut}"
            );
        }
        // A destination of the wrong size is refused, not half filled.
        std::fs::write(&path, &frame).unwrap();
        let server = fx.cluster.dataserver(fx.meta.fragments[0]).unwrap();
        for wrong in [0, fx.shard_len() - 1, fx.shard_len() + 1] {
            let mut dst = vec![0u8; wrong];
            assert!(matches!(
                server.read_fragment_into(fx.meta.id, 1, 0, &mut dst),
                Err(FsError::CorruptMetadata(_))
            ));
        }
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(fx.fetch(1, 0), Err(FsError::NotFound(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Up to `m` damaged fragments per chunk: each is an erasure at
    /// the dataserver, and the client still returns the exact bytes —
    /// whole file and an arbitrary sub-range — at every pool width.
    #[test]
    fn up_to_m_damaged_fragments_never_change_the_bytes(
        six_three in any::<bool>(),
        // (chunk, fragment pick, damage); picks collapse onto distinct
        // fragments, capped at m per chunk, below.
        hits in proptest::collection::vec((0u64..3, 0usize..9, damage_strategy()), 1..7),
        offset in 0usize..FILE_BYTES,
        len in 1usize..FILE_BYTES,
    ) {
        let (k, m) = SCHEMES[usize::from(six_three)];
        let fx = Fixture::new("prop", (k, m));
        let mut damaged: Vec<(u64, usize)> = Vec::new();
        for (chunk, pick, damage) in &hits {
            let index = pick % (k + m);
            let in_chunk = damaged.iter().filter(|(c, _)| c == chunk).count();
            if in_chunk == m || damaged.contains(&(*chunk, index)) {
                continue;
            }
            damage.apply(&fx.fragment_file(*chunk, index));
            damaged.push((*chunk, index));
        }
        for &(chunk, index) in &damaged {
            prop_assert!(fx.is_erasure(chunk, index), "chunk {} fragment {}", chunk, index);
        }
        let mut client = fx.cluster.client(HostId(1));
        let end = (offset + len).min(FILE_BYTES);
        for width in [1, 2, 4] {
            client.set_parallelism(width);
            prop_assert_eq!(client.read("f").unwrap(), fx.data.clone(), "width {}", width);
            prop_assert_eq!(
                client.read_range("f", offset as u64, len as u64).unwrap(),
                fx.data[offset..end].to_vec(),
                "width {} range {}+{}", width, offset, len
            );
        }
    }
}

/// Every start offset against a spread of lengths: ranges that start
/// or end mid-shard and mid-chunk, touch the ragged last shard of a
/// 6+3 chunk, cross the sealed/unsealed boundary, are empty, or reach
/// past end-of-file.
#[test]
fn every_read_shape_returns_the_exact_bytes() {
    let lens = [
        0, 1, 5, 10, 11, 12, 16, 17, 55, 63, 64, 65, 128, 150, 192, 213, 220,
    ];
    for scheme in SCHEMES {
        let fx = Fixture::new("shapes", scheme);
        let mut client = fx.cluster.client(HostId(2));
        for offset in 0..FILE_BYTES + 3 {
            client.set_parallelism([1, 2, 4][offset % 3]);
            for len in lens {
                let got = client.read_range("f", offset as u64, len as u64).unwrap();
                let from = offset.min(FILE_BYTES);
                let to = (offset + len).min(FILE_BYTES);
                assert_eq!(got, &fx.data[from..to], "{scheme:?} {offset}+{len}");
            }
        }
        assert_eq!(fx.degraded_reads(), 0, "healthy reads never decode");
    }
}

/// A read decodes once per chunk it cannot serve from data fragments,
/// and a sub-range read only looks at the fragments it overlaps.
#[test]
fn degraded_reads_count_once_per_affected_chunk() {
    for scheme in SCHEMES {
        let fx = Fixture::new("count", scheme);
        let shard = fx.shard_len() as u64;
        // Corrupt data fragment 1 of chunk 1 (file bytes 64+shard..).
        Damage::Flip(20, 3).apply(&fx.fragment_file(1, 1));
        let mut client = fx.cluster.client(HostId(0));
        for width in [1, 2, 4] {
            client.set_parallelism(width);
            let before = fx.degraded_reads();
            assert_eq!(client.read("f").unwrap(), fx.data);
            assert_eq!(fx.degraded_reads() - before, 1, "{scheme:?} width {width}");
            // Chunk 1's first shard and chunk 2 are healthy.
            assert_eq!(
                client.read_range("f", CHUNK, shard).unwrap(),
                &fx.data[CHUNK as usize..(CHUNK + shard) as usize]
            );
            assert_eq!(
                client.read_range("f", 2 * CHUNK + 3, 40).unwrap(),
                &fx.data[2 * CHUNK as usize + 3..2 * CHUNK as usize + 43]
            );
            assert_eq!(
                fx.degraded_reads() - before,
                1,
                "untouched damage costs nothing"
            );
            // One byte into the damaged shard does.
            assert_eq!(
                client.read_range("f", CHUNK + shard - 1, 2).unwrap(),
                &fx.data[(CHUNK + shard - 1) as usize..(CHUNK + shard + 1) as usize]
            );
            assert_eq!(fx.degraded_reads() - before, 2);
        }
    }
}
