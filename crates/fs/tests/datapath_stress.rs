//! Stress tests for the parallel data-plane pipeline (DESIGN.md §16):
//! split reads and the append relay under replica kill/restart cycles,
//! coded reads losing a fragment host they already chose, and
//! width-independence — parallel and serial reads must return
//! identical bytes.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use mayflower_fs::{
    Cluster, ClusterConfig, Consistency, Dataserver, NameserverConfig, NearestSelector,
    ReadAssignment, Redundancy, ReplicaSelector, SplitSelector,
};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::testutil::TempDir;

fn cluster(dir: &TempDir, consistency: Consistency) -> Cluster {
    let topo = Arc::new(Topology::three_tier(&TreeParams {
        pods: 2,
        racks_per_pod: 2,
        hosts_per_rack: 2,
        ..TreeParams::paper_testbed()
    }));
    Cluster::create(
        dir.path(),
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size: 64,
                ..NameserverConfig::default()
            },
            consistency,
        },
    )
    .unwrap()
}

/// The dataserver to crash the next time a read selects it. Shared
/// between the test, which arms it, and a [`CrashOnSelect`] inside the
/// client, which fires it.
#[derive(Clone, Default)]
struct Kill(Arc<Mutex<Option<Arc<Dataserver>>>>);

impl Kill {
    fn arm(&self, victim: &Arc<Dataserver>) {
        *self.0.lock().unwrap() = Some(victim.clone());
    }

    /// Whether the armed kill has fired.
    fn landed(&self) -> bool {
        self.0.lock().unwrap().is_none()
    }

    fn fire_if(&self, picked: impl Fn(HostId) -> bool) {
        let mut armed = self.0.lock().unwrap();
        if armed.as_ref().is_some_and(|ds| picked(ds.host())) {
            armed.take().unwrap().crash();
        }
    }
}

/// Wraps a selector and crashes the armed victim right after the inner
/// selector has chosen it and before any fetch starts: the read always
/// runs into a dead host it planned on, so every run fails over.
struct CrashOnSelect<S> {
    inner: S,
    kill: Kill,
}

impl<S: ReplicaSelector> ReplicaSelector for CrashOnSelect<S> {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let picks = self.inner.select_read(client, replicas, size_bytes);
        self.kill
            .fire_if(|host| picks.iter().any(|a| a.replica == host && a.bytes > 0));
        picks
    }

    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        let picks = self.inner.select_fragments(client, available, k);
        self.kill.fire_if(|host| {
            available
                .iter()
                .any(|(i, h)| *h == host && picks.contains(i))
        });
        picks
    }
}

/// Deterministic payload bytes.
fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(131).wrapping_add(7))
        .collect()
}

#[test]
fn parallel_split_read_fails_over_when_a_replica_dies_mid_fetch() {
    let dir = TempDir::new("read-kill");
    let c = cluster(&dir, Consistency::Sequential);
    let kill = Kill::default();
    let mut client = c.client_with_selector(
        HostId(0),
        Box::new(CrashOnSelect {
            inner: SplitSelector::new(3),
            kill: kill.clone(),
        }),
    );
    client.set_parallelism(4);
    let data = payload(64 * 5);
    client.create("victim").unwrap();
    client.append("victim", &data).unwrap();
    let meta = client.meta("victim").unwrap();
    let secondary = meta.replicas[1];

    // The replica dies after the split has assigned it a piece and
    // before that piece is fetched: the piece must fail over inside the
    // pool.
    for round in 0..4 {
        kill.arm(c.dataserver(secondary));
        let got = client.read("victim").unwrap();
        assert!(
            kill.landed(),
            "round {round}: the split never chose the victim"
        );
        assert_eq!(got, data, "round {round}: bytes diverged after kill");
        c.dataserver(secondary).restart();
        let got = client.read("victim").unwrap();
        assert_eq!(got, data, "round {round}: bytes diverged after restart");
    }
}

#[test]
fn parallel_strong_read_survives_secondary_kill_cycles() {
    let dir = TempDir::new("strong-kill");
    let c = cluster(&dir, Consistency::Strong);
    let kill = Kill::default();
    let mut client = c.client_with_selector(
        HostId(0),
        Box::new(CrashOnSelect {
            inner: SplitSelector::new(3),
            kill: kill.clone(),
        }),
    );
    client.set_parallelism(8);
    let data = payload(64 * 4 + 17);
    client.create("strong").unwrap();
    client.append("strong", &data).unwrap();
    let meta = client.meta("strong").unwrap();

    // Kill and restart each secondary in turn between the split and
    // its fetches; the primary-pinned tail piece is untouched and the
    // rest fail over, so every read sees the full append.
    for &victim in &meta.replicas[1..] {
        kill.arm(c.dataserver(victim));
        assert_eq!(client.read("strong").unwrap(), data);
        assert!(kill.landed(), "the split never chose replica {victim}");
        c.dataserver(victim).restart();
        assert_eq!(client.read("strong").unwrap(), data);
    }
}

#[test]
fn fan_out_append_rides_out_a_replica_blip() {
    let dir = TempDir::new("append-blip");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    client.set_parallelism(4);
    client.set_retry_policy(8, Duration::from_millis(2));
    client.create("blippy").unwrap();
    client.append("blippy", b"stable ").unwrap();
    let meta = client.meta("blippy").unwrap();
    let secondary = *meta.replicas.last().unwrap();

    // The replica is down when the relay first reaches it and comes
    // back inside the retry budget: the relay to that replica retries
    // until the restart lands, and the append still acks all replicas
    // before returning.
    c.dataserver(secondary).crash();
    let ds = c.dataserver(secondary).clone();
    let reviver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(15));
        ds.restart();
    });
    let new_size = client.append("blippy", b"and recovered").unwrap();
    reviver.join().unwrap();
    assert_eq!(new_size, "stable and recovered".len() as u64);
    // Ack-all durability: every replica holds every byte.
    for host in &meta.replicas {
        let (bytes, size) = c
            .dataserver(*host)
            .read_local(meta.id, 0, new_size)
            .unwrap();
        assert_eq!(size, new_size, "replica {host} lagging");
        assert_eq!(bytes, b"stable and recovered", "replica {host} diverged");
    }
}

#[test]
fn fan_out_append_fails_whole_when_a_replica_stays_down() {
    let dir = TempDir::new("append-down");
    let c = cluster(&dir, Consistency::Sequential);
    let mut client = c.client(HostId(0));
    client.set_parallelism(4);
    client.set_retry_policy(2, Duration::from_micros(200));
    client.create("halted").unwrap();
    client.append("halted", b"before").unwrap();
    let meta = client.meta("halted").unwrap();
    let secondary = *meta.replicas.last().unwrap();

    // All-or-fail: a replica that stays down past the retry budget
    // fails the append as a whole — its error surfaces once every
    // relay has been tried — and the recorded size never moves,
    // so no reader is ever pointed at bytes that missed a replica.
    c.dataserver(secondary).crash();
    assert!(client.append("halted", b" lost").is_err());
    assert_eq!(c.nameserver().lookup("halted").unwrap().size, 6);

    // The recorded range stays fully readable at every width after the
    // replica comes back; recovering the failed append itself is the
    // out-of-band re-election/repair path, not the relay's job.
    c.dataserver(secondary).restart();
    for width in [1, 4] {
        client.set_parallelism(width);
        assert_eq!(client.read_range("halted", 0, 6).unwrap(), b"before");
    }
}

#[test]
fn coded_read_survives_fragment_host_dying_after_selection() {
    let dir = TempDir::new("coded-kill");
    let c = cluster(&dir, Consistency::Sequential);
    let kill = Kill::default();
    let mut client = c.client_with_selector(
        HostId(0),
        Box::new(CrashOnSelect {
            inner: NearestSelector::new(c.topology().clone()),
            kill: kill.clone(),
        }),
    );
    client.set_parallelism(4);
    client
        .create_with("coded", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    let data = payload(64 * 3); // three sealed chunks
    client.append("coded", &data).unwrap();
    let meta = c.nameserver().lookup("coded").unwrap();
    assert_eq!(meta.sealed_chunks, 3);

    // Crash a *data* fragment host mid-read, after the selector has
    // already picked it as a preferred source: its fetch fails and the
    // round-based sweep promotes a parity fragment, so the read
    // decodes instead of erroring.
    let victim = meta.fragments[1];
    kill.arm(c.dataserver(victim));
    let got = client.read("coded").unwrap();
    assert!(kill.landed(), "the selector never chose fragment 1");
    assert_eq!(got, data, "degraded coded read diverged");

    // Still down: every subsequent read promotes deterministically.
    assert_eq!(client.read("coded").unwrap(), data);
    c.dataserver(victim).restart();
    assert_eq!(client.read("coded").unwrap(), data);
}

#[test]
fn parallel_and_serial_reads_return_identical_bytes() {
    let dir = TempDir::new("determinism");
    let c = cluster(&dir, Consistency::Strong);
    let mut client = c.client_with_selector(HostId(0), Box::new(SplitSelector::new(3)));
    let data = payload(64 * 6 + 29);
    client.create("mirror").unwrap();
    client.append("mirror", &data).unwrap();
    client
        .create_with("mirror-coded", Redundancy::Coded { k: 4, m: 2 })
        .unwrap();
    client.append("mirror-coded", &data).unwrap();

    // Width 1 runs the identical code path inline; wider pools only
    // overlap the fetches. Bytes must match bit for bit at every
    // width, for replicated split reads and coded fragment reads.
    client.set_parallelism(1);
    let serial = client.read("mirror").unwrap();
    let serial_coded = client.read("mirror-coded").unwrap();
    assert_eq!(serial, data);
    assert_eq!(serial_coded, data);
    for width in [2, 4, 8] {
        client.set_parallelism(width);
        assert_eq!(client.read("mirror").unwrap(), serial, "width {width}");
        assert_eq!(
            client.read("mirror-coded").unwrap(),
            serial_coded,
            "width {width} coded"
        );
        let mid = client.read_range("mirror", 37, 200).unwrap();
        assert_eq!(mid, &data[37..237], "width {width} range");
    }
}
