//! Differential conformance of the metadata planes: one op script,
//! replayed against a plain [`Nameserver`] and [`ShardRouter`]s over 1
//! and 4 shards, must produce the same result op by op — the refusal's
//! kind, or the returned metadata up to `FileId` and placement — and
//! the same final listing.
//!
//! The namespace's rules are written once, in `Nameserver::apply`; this
//! test is what notices a plane that answers an op any other way.

use std::path::PathBuf;
use std::sync::Arc;

use mayflower_fs::nameserver::NameserverConfig;
use mayflower_fs::{FileMeta, FsError, MetadataService, Nameserver, NsOp, Redundancy};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_shard::{ShardError, ShardPlaneConfig, ShardRouter, ShardedNameserver};
use mayflower_simcore::SimRng;
use mayflower_telemetry::Registry;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mayflower-conformance-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn small_topo() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    }))
}

/// The host `SetFragment` steps re-home fragments onto — one no
/// placement picks — so a listing can show which slots moved without
/// comparing placements.
const MARK: HostId = HostId(9999);
const CODED: Redundancy = Redundancy::Coded { k: 4, m: 2 };

/// One step of the script.
#[derive(Debug, Clone)]
enum Step {
    Create(&'static str, Redundancy),
    Op(NsOp),
}

/// What a plane answered, reduced to what every plane must agree on.
type Outcome = Result<Option<Shape>, &'static str>;

/// A file's metadata up to `FileId` and placement.
#[derive(Debug, PartialEq)]
struct Shape {
    name: String,
    size: u64,
    redundancy: Redundancy,
    sealed_chunks: u64,
    replicas: usize,
    /// Per fragment slot: re-homed onto [`MARK`] by the script?
    fragments: Vec<bool>,
}

fn shape(meta: FileMeta) -> Shape {
    Shape {
        name: meta.name,
        size: meta.size,
        redundancy: meta.redundancy,
        sealed_chunks: meta.sealed_chunks,
        replicas: meta.replicas.len(),
        fragments: meta.fragments.iter().map(|h| *h == MARK).collect(),
    }
}

fn outcome(result: Result<Option<FileMeta>, FsError>) -> Outcome {
    match result {
        Ok(meta) => Ok(meta.map(shape)),
        Err(FsError::NotFound(_)) => Err("NotFound"),
        Err(FsError::AlreadyExists(_)) => Err("AlreadyExists"),
        Err(FsError::InvalidArgument(_)) => Err("InvalidArgument"),
        Err(other) => panic!("not a verdict of the namespace's rules: {other}"),
    }
}

/// A metadata plane under test.
trait Plane {
    fn step(&mut self, step: &Step) -> Result<Option<FileMeta>, FsError>;
    fn list(&self) -> Vec<FileMeta>;
}

/// The reference: the paper's one nameserver, through its named API.
impl Plane for Nameserver {
    fn step(&mut self, step: &Step) -> Result<Option<FileMeta>, FsError> {
        match step.clone() {
            Step::Create(name, r) => self.create_with(name, r).map(Some),
            Step::Op(NsOp::Create(meta)) => self.create_exact(&meta).map(|()| None),
            Step::Op(op @ NsOp::Replace(_)) => self.apply(&op),
            Step::Op(NsOp::Delete(name)) => self.delete(&name).map(Some),
            Step::Op(NsOp::RecordSize { name, size }) => {
                self.record_size(&name, size).map(|()| None)
            }
            Step::Op(NsOp::Rename {
                from,
                to,
                overwrite,
            }) => self.rename(&from, &to, overwrite),
            Step::Op(NsOp::RecordSeal {
                name,
                sealed_chunks,
            }) => self.record_seal(&name, sealed_chunks).map(|()| None),
            Step::Op(NsOp::SetFragment { name, index, host }) => {
                self.set_fragment(&name, index, host).map(|()| None)
            }
        }
    }

    fn list(&self) -> Vec<FileMeta> {
        Nameserver::list(self)
    }
}

/// A router and the plane behind it: the six client operations go
/// through the router like a `Client`'s do, the rest straight to the
/// owning shard.
struct Routed {
    router: ShardRouter,
    plane: Arc<ShardedNameserver>,
}

impl Plane for Routed {
    fn step(&mut self, step: &Step) -> Result<Option<FileMeta>, FsError> {
        let r = &self.router;
        match step.clone() {
            Step::Create(name, redundancy) => r.create_with(name, redundancy).map(Some),
            Step::Op(NsOp::Delete(name)) => r.delete(&name).map(Some),
            Step::Op(NsOp::RecordSize { name, size }) => r.record_size(&name, size).map(|()| None),
            Step::Op(NsOp::Rename {
                from,
                to,
                overwrite,
            }) => r.rename(&from, &to, overwrite),
            Step::Op(NsOp::RecordSeal {
                name,
                sealed_chunks,
            }) => r.record_seal(&name, sealed_chunks).map(|()| None),
            Step::Op(op) => {
                let map = self.plane.shard_map();
                let owner = map.ring().owner(op.names().0);
                match self.plane.submit_at(owner, map.epoch, &op) {
                    Ok(out) => Ok(out),
                    Err(ShardError::Fs(e)) => Err(e),
                    Err(fence) => panic!("fresh map fenced off: {fence}"),
                }
            }
        }
    }

    fn list(&self) -> Vec<FileMeta> {
        self.plane.list()
    }
}

fn routed(dir: &TempDir, shards: u32) -> Routed {
    let registry = Registry::new();
    let plane = Arc::new(
        ShardedNameserver::open(
            &dir.0.join(format!("plane-{shards}")),
            small_topo(),
            ShardPlaneConfig {
                shards,
                vnodes: 32,
                ..ShardPlaneConfig::default()
            },
            &registry,
        )
        .unwrap(),
    );
    Routed {
        router: ShardRouter::new(plane.clone(), &registry.scope("shard_router")),
        plane,
    }
}

fn rename(from: &str, to: &str, overwrite: bool) -> Step {
    Step::Op(NsOp::Rename {
        from: from.into(),
        to: to.into(),
        overwrite,
    })
}

fn size(name: &str, size: u64) -> Step {
    let name = name.into();
    Step::Op(NsOp::RecordSize { name, size })
}

fn seal(name: &str, sealed_chunks: u64) -> Step {
    Step::Op(NsOp::RecordSeal {
        name: name.into(),
        sealed_chunks,
    })
}

fn fragment(name: &str, index: usize) -> Step {
    Step::Op(NsOp::SetFragment {
        name: name.into(),
        index,
        host: MARK,
    })
}

fn delete(name: &str) -> Step {
    Step::Op(NsOp::Delete(name.into()))
}

/// A step's verdict under the rule book: `Ok`, or the refusal's kind.
type Verdict = Result<(), &'static str>;
const OK: Verdict = Ok(());

/// Every rule once, each refusal followed by ops that must succeed,
/// with the verdict the rule book gives each step: the planes are
/// compared with each other, and the reference with these.
fn fixed_script() -> Vec<(Step, Verdict)> {
    let replicated = Redundancy::default();
    vec![
        (Step::Create("a", replicated), OK),
        (Step::Create("a", replicated), Err("AlreadyExists")),
        (Step::Create("", replicated), Err("InvalidArgument")),
        (Step::Create("coded", CODED), OK),
        (size("a", 40), OK),
        (size("missing", 1), Err("NotFound")),
        (seal("coded", 2), OK),
        (seal("coded", 1), Err("InvalidArgument")), // regressing
        (seal("coded", 2), OK),                     // to where it is
        (seal("a", 1), Err("InvalidArgument")),     // a replicated file
        (seal("missing", 1), Err("NotFound")),
        (fragment("coded", 3), OK),
        (fragment("coded", 6), Err("InvalidArgument")), // out of range
        (fragment("a", 0), Err("InvalidArgument")),     // no fragments at all
        (rename("a", "fresh", false), OK),
        (Step::Create("b", replicated), OK),
        (rename("fresh", "b", false), Err("AlreadyExists")),
        (rename("fresh", "b", true), OK), // displaces b
        (rename("b", "b", true), OK),     // self
        (rename("b", "b", false), OK),
        (rename("b", "", true), Err("InvalidArgument")),
        (rename("missing", "c", true), Err("NotFound")),
        // Wrong twice, across shards of the 4-shard ring: the empty
        // target is refused before the missing source is looked up.
        (rename("ghost", "", true), Err("InvalidArgument")),
        (size("b", 41), OK),
        (delete("b"), OK),
        (delete("b"), Err("NotFound")),
        (Step::Create("b", replicated), OK),
    ]
}

const NAMES: [&str; 6] = ["a", "b", "c", "dir/d", "dir/e", "coded"];
/// Rename targets: the pool and the empty name the rule book refuses.
const TARGETS: [&str; 7] = ["a", "b", "c", "dir/d", "dir/e", "coded", ""];

/// A seeded walk over a small name pool, so that renames cross and
/// stay within shards, overwrite live and dead names, aim at the empty
/// name, and hit files in every state the fixed script leaves behind.
fn random_script(seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = SimRng::seed_from(seed);
    (0..steps)
        .map(|_| {
            let name = *rng.choose(&NAMES);
            match rng.index(8) {
                0 => Step::Create(name, Redundancy::default()),
                1 => Step::Create(name, CODED),
                2 => size(name, rng.next_u64() % 1000),
                3 => seal(name, rng.next_u64() % 4),
                4 => fragment(name, rng.index(8)),
                5 | 6 => {
                    let to = *rng.choose(&TARGETS);
                    rename(name, to, rng.chance(0.5))
                }
                _ => delete(name),
            }
        })
        .collect()
}

#[test]
fn every_plane_answers_the_script_like_the_one_nameserver() {
    let dir = TempDir::new("script");
    let mut reference = Nameserver::open(
        small_topo(),
        &dir.0.join("plain"),
        NameserverConfig::default(),
    )
    .unwrap();
    let mut planes = [
        ("router, 1 shard", routed(&dir, 1)),
        ("router, 4 shards", routed(&dir, 4)),
    ];

    let fixed = fixed_script();
    let mut script: Vec<Step> = fixed.iter().map(|(step, _)| step.clone()).collect();
    script.extend(random_script(0x4E53, 400));
    script.push(Step::Create("coded", CODED)); // there for the `Replace` below
    let mut refused = 0;
    for (i, step) in script.iter().enumerate() {
        let want = outcome(reference.step(step));
        if let Some((_, verdict)) = fixed.get(i) {
            let got: Verdict = want.as_ref().map(drop).map_err(|kind| *kind);
            assert_eq!(got, *verdict, "step {i} {step:?} on the reference");
        }
        refused += usize::from(want.is_err());
        for (label, plane) in &mut planes {
            assert_eq!(
                outcome(plane.step(step)),
                want,
                "step {i} {step:?} on {label}"
            );
        }
    }
    assert!(
        refused > 100,
        "the script must keep refusing ops: {refused}"
    );

    // A `Replace` carries whole metadata, so each plane's is built from
    // what that plane holds: re-home the file's first replica.
    let replace = |plane: &mut dyn Plane, name: &str| {
        let stored = plane.list().into_iter().find(|m| m.name == name);
        let mut meta = stored.unwrap_or_else(|| reference_meta(name));
        meta.replicas[0] = MARK;
        meta.size = 77;
        outcome(plane.step(&Step::Op(NsOp::Replace(meta))))
    };
    for name in ["coded", "nowhere"] {
        let want = replace(&mut reference, name);
        assert_eq!(want.is_ok(), name == "coded");
        for (label, plane) in &mut planes {
            assert_eq!(replace(plane, name), want, "replace {name} on {label}");
        }
    }

    // After every refusal above, each plane still takes a create, and
    // all of them hold the same namespace.
    let last = Step::Create("after-everything", Redundancy::default());
    let want = outcome(reference.step(&last));
    assert!(want.is_ok());
    let listing: Vec<Shape> = reference.list().into_iter().map(shape).collect();
    assert!(listing.iter().any(|s| s.size == 77));
    for (label, plane) in &mut planes {
        assert_eq!(outcome(plane.step(&last)), want, "final create on {label}");
        let got: Vec<Shape> = plane.list().into_iter().map(shape).collect();
        assert_eq!(got, listing, "final listing of {label}");
    }
}

/// Metadata for a name no plane holds (the refused `Replace`).
fn reference_meta(name: &str) -> FileMeta {
    FileMeta {
        id: mayflower_fs::FileId(1),
        name: name.to_string(),
        chunk_size: NameserverConfig::default().chunk_size,
        size: 0,
        replicas: vec![HostId(0)],
        redundancy: Redundancy::default(),
        fragments: Vec::new(),
        sealed_chunks: 0,
    }
}
