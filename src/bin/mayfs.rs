//! `mayfs` — command-line interface to a Mayflower cluster rooted in a
//! local directory.
//!
//! ```text
//! mayfs init <dir> [--pods N] [--racks N] [--hosts N] [--chunk BYTES] [--replication N]
//! mayfs create <dir> <name> [--client H] [--redundancy N|K+M]
//! mayfs append <dir> <name> (--data STR | --file PATH) [--client H]
//! mayfs read   <dir> <name> [--offset N] [--len N] [--client H]
//! mayfs stat   <dir> <name>
//! mayfs ls     <dir>
//! mayfs rm     <dir> <name> [--client H]
//! mayfs serve  <dir> --listen ADDR       # nameserver RPC over TCP
//! mayfs metrics <dir> [--json] [--client H]
//! mayfs status <dir> [--json]            # dataserver health + under-replicated files
//! mayfs shards <dir> [--json] [--shards N] [--vnodes V]  # metadata-shard layout
//! mayfs trace  <dir> <read|append> <name> [--client H] [--data STR] [--json|--chrome]
//! ```
//!
//! The cluster persists across invocations: `init` writes the topology
//! parameters to `<dir>/topology.json`; every other command re-opens
//! the same nameserver database and dataserver directories.

use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use mayflower_fs::nameserver::NameserverConfig;
use mayflower_fs::remote::NameserverService;
use mayflower_fs::{Cluster, ClusterConfig, Redundancy};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_rpc::TcpServer;

fn usage() -> ! {
    eprintln!(
        "usage: mayfs <init|create|append|read|stat|ls|rm|serve|metrics|status|shards|trace> <dir> [args]\n\
         run `mayfs help` for details"
    );
    std::process::exit(2);
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = raw.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
        } else {
            positional.push(a.clone());
        }
    }
    Args { positional, flags }
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flags
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn topology_path(dir: &Path) -> PathBuf {
    dir.join("topology.json")
}

fn load_cluster(dir: &Path) -> Result<Cluster, String> {
    let params_raw = std::fs::read(topology_path(dir))
        .map_err(|e| format!("not a mayfs cluster ({}): {e}", dir.display()))?;
    let params: TreeParams =
        serde_json::from_slice(&params_raw).map_err(|e| format!("corrupt topology.json: {e}"))?;
    let chunk_raw =
        std::fs::read(dir.join("chunk_size")).map_err(|e| format!("missing chunk_size: {e}"))?;
    let chunk_size: u64 = String::from_utf8_lossy(&chunk_raw)
        .trim()
        .parse()
        .map_err(|e| format!("corrupt chunk_size: {e}"))?;
    let replication: u64 = std::fs::read(dir.join("replication"))
        .ok()
        .and_then(|b| String::from_utf8_lossy(&b).trim().parse().ok())
        .unwrap_or(3);
    let topo = Arc::new(Topology::three_tier(&params));
    Cluster::create(
        dir,
        topo,
        ClusterConfig {
            nameserver: NameserverConfig {
                chunk_size,
                replication: replication as usize,
                ..NameserverConfig::default()
            },
            ..ClusterConfig::default()
        },
    )
    .map_err(|e| e.to_string())
}

fn cmd_init(dir: &Path, args: &Args) -> Result<(), String> {
    let params = TreeParams {
        pods: args.flag("pods", 4),
        racks_per_pod: args.flag("racks", 4),
        hosts_per_rack: args.flag("hosts", 4),
        ..TreeParams::paper_testbed()
    };
    params.validate()?;
    let chunk: u64 = args.flag("chunk", 64 << 20);
    let replication: usize = args.flag("replication", 3);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(
        topology_path(dir),
        serde_json::to_vec_pretty(&params).expect("TreeParams serializes"),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(dir.join("chunk_size"), chunk.to_string()).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("replication"), replication.to_string()).map_err(|e| e.to_string())?;
    let cluster = load_cluster(dir)?;
    println!(
        "initialized cluster at {}: {} hosts, {} racks, {} pods, chunk {} bytes, {}x replication",
        dir.display(),
        cluster.topology().host_count(),
        cluster.topology().rack_count(),
        cluster.topology().pod_count(),
        chunk,
        replication,
    );
    Ok(())
}

/// One dataserver's health as `mayfs status` sees it.
#[derive(serde::Serialize)]
struct HostStatus {
    host: u32,
    state: &'static str,
    replicas_held: usize,
    replicas_assigned: usize,
}

/// One file with fewer on-disk replicas than its metadata demands.
#[derive(serde::Serialize)]
struct UnderReplicatedStatus {
    name: String,
    live: usize,
    target: usize,
    missing_hosts: Vec<u32>,
}

/// File count under one redundancy policy (`"3"`, `"4+2"`, ...).
#[derive(serde::Serialize)]
struct PolicyStatus {
    policy: String,
    files: usize,
}

/// Fragment health of one coded file with sealed chunks. A fragment
/// index is healthy when its host answers for the fragment file of
/// every sealed chunk.
#[derive(serde::Serialize)]
struct FragmentStatus {
    name: String,
    policy: String,
    sealed_chunks: u64,
    fragments_healthy: usize,
    fragments_total: usize,
    lost_fragments: Vec<usize>,
}

#[derive(serde::Serialize)]
struct StatusReport {
    hosts: Vec<HostStatus>,
    under_replicated: Vec<UnderReplicatedStatus>,
    policies: Vec<PolicyStatus>,
    coded_files: Vec<FragmentStatus>,
}

/// Offline health probe. A fresh process has no heartbeat stream, so
/// liveness is judged from durable evidence only: a host that holds
/// every replica assigned to it is **live**, one that lost some of
/// them is **suspect**, and one whose dataserver answers for none of
/// its assignments is **dead**. Under-replication is the same comparison from
/// the file's side, ordered most urgent first like the recovery
/// tracker's backlog.
fn cmd_status(dir: &Path, args: &Args) -> Result<(), String> {
    let cluster = load_cluster(dir)?;
    let files = cluster.nameserver().list();

    let mut hosts = Vec::new();
    for host in cluster.topology().hosts() {
        let ds = cluster.dataserver(host).map_err(|e| e.to_string())?;
        let mut assigned = 0;
        let mut held = 0;
        for meta in &files {
            if meta.replicas.contains(&host) {
                assigned += 1;
                if ds.has_file(meta.id) {
                    held += 1;
                }
            }
        }
        let state = if assigned > 0 && held == 0 {
            "dead"
        } else if held < assigned {
            "suspect"
        } else {
            "live"
        };
        hosts.push(HostStatus {
            host: host.0,
            state,
            replicas_held: held,
            replicas_assigned: assigned,
        });
    }

    let mut under: Vec<UnderReplicatedStatus> = files
        .iter()
        .filter_map(|meta| {
            let missing: Vec<u32> = meta
                .replicas
                .iter()
                .filter(|r| !cluster.dataserver(**r).is_ok_and(|ds| ds.has_file(meta.id)))
                .map(|r| r.0)
                .collect();
            if missing.is_empty() {
                return None;
            }
            Some(UnderReplicatedStatus {
                name: meta.name.clone(),
                live: meta.replicas.len() - missing.len(),
                target: meta.replicas.len(),
                missing_hosts: missing,
            })
        })
        .collect();
    under.sort_by(|a, b| (a.live, &a.name).cmp(&(b.live, &b.name)));

    let mut policy_counts: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for meta in &files {
        *policy_counts
            .entry(meta.redundancy.to_string())
            .or_insert(0) += 1;
    }
    let policies: Vec<PolicyStatus> = policy_counts
        .into_iter()
        .map(|(policy, count)| PolicyStatus {
            policy,
            files: count,
        })
        .collect();

    let mut coded_files = Vec::new();
    for meta in &files {
        if !meta.is_coded() {
            continue;
        }
        let lost: Vec<usize> = meta
            .fragments
            .iter()
            .enumerate()
            .filter(|(j, h)| {
                !cluster.dataserver(**h).is_ok_and(|ds| {
                    (0..meta.sealed_chunks).all(|c| ds.has_fragment(meta.id, c, *j))
                })
            })
            .map(|(j, _)| j)
            .collect();
        coded_files.push(FragmentStatus {
            name: meta.name.clone(),
            policy: meta.redundancy.to_string(),
            sealed_chunks: meta.sealed_chunks,
            fragments_healthy: meta.fragments.len() - lost.len(),
            fragments_total: meta.fragments.len(),
            lost_fragments: lost,
        });
    }
    coded_files.sort_by(|a, b| (a.fragments_healthy, &a.name).cmp(&(b.fragments_healthy, &b.name)));

    let report = StatusReport {
        hosts,
        under_replicated: under,
        policies,
        coded_files,
    };
    if args.flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    let count = |s: &str| report.hosts.iter().filter(|h| h.state == s).count();
    println!(
        "dataservers: {} live, {} suspect, {} dead",
        count("live"),
        count("suspect"),
        count("dead")
    );
    for h in &report.hosts {
        if h.state != "live" {
            println!(
                "  h{:<4} {:7} holds {}/{} assigned replicas",
                h.host, h.state, h.replicas_held, h.replicas_assigned
            );
        }
    }
    println!("under-replicated files: {}", report.under_replicated.len());
    for u in &report.under_replicated {
        println!(
            "  {}  {}/{} live  missing: {}",
            u.name,
            u.live,
            u.target,
            u.missing_hosts
                .iter()
                .map(|h| format!("h{h}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "files by redundancy: {}",
        report
            .policies
            .iter()
            .map(|p| format!("{} × {}", p.files, p.policy))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for c in &report.coded_files {
        println!(
            "  {}  {}  {}/{} fragments healthy ({} sealed chunks){}",
            c.name,
            c.policy,
            c.fragments_healthy,
            c.fragments_total,
            c.sealed_chunks,
            if c.lost_fragments.is_empty() {
                String::new()
            } else {
                format!(
                    "  lost: {}",
                    c.lost_fragments
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        );
    }
    Ok(())
}

/// One metadata shard's slice of the namespace.
#[derive(serde::Serialize)]
struct ShardRow {
    shard: u32,
    files: usize,
    ops_served: u64,
    host: Option<u32>,
}

#[derive(serde::Serialize)]
struct ShardReport {
    /// `"live"` when read from a persisted plane under `<dir>/shards`,
    /// `"preview"` when synthesized over the flat namespace.
    mode: &'static str,
    epoch: u64,
    vnodes: u32,
    shards: Vec<ShardRow>,
    /// Hottest shard's file count over the mean (1.0 = perfectly flat).
    balance: f64,
}

/// Shard layout inspection. With a sharded plane persisted under
/// `<dir>/shards` this reports the live layout (per-shard file and op
/// counts, map epoch); otherwise it previews how the flat namespace
/// would partition across `--shards` shards — what a migration to a
/// sharded plane would do.
fn cmd_shards(dir: &Path, args: &Args) -> Result<(), String> {
    use mayflower_shard::{ShardMap, ShardPlaneConfig, ShardedNameserver};

    let shards_dir = dir.join("shards");
    let report = if shards_dir.join("shardmap.json").exists() {
        let cluster = load_cluster(dir)?;
        let plane = ShardedNameserver::open(
            &shards_dir,
            cluster.topology().clone(),
            ShardPlaneConfig::default(),
            cluster.registry(),
        )
        .map_err(|e| e.to_string())?;
        let map = plane.shard_map();
        let rows: Vec<ShardRow> = plane
            .shard_stats()
            .into_iter()
            .map(|(id, files, ops)| ShardRow {
                shard: id.0,
                files,
                ops_served: ops,
                host: plane.shard_host(id).map(|h| h.0),
            })
            .collect();
        ShardReport {
            mode: "live",
            epoch: map.epoch,
            vnodes: map.vnodes,
            balance: balance_of(&rows),
            shards: rows,
        }
    } else {
        let cluster = load_cluster(dir)?;
        let map = ShardMap::initial(args.flag("shards", 4u32), args.flag("vnodes", 64u32));
        let ring = map.ring();
        let mut counts: std::collections::BTreeMap<u32, usize> =
            map.shards.iter().map(|s| (s.0, 0)).collect();
        for meta in cluster.nameserver().list() {
            *counts.entry(ring.owner(&meta.name).0).or_insert(0) += 1;
        }
        let rows: Vec<ShardRow> = counts
            .into_iter()
            .map(|(shard, files)| ShardRow {
                shard,
                files,
                ops_served: 0,
                host: None,
            })
            .collect();
        ShardReport {
            mode: "preview",
            epoch: 0,
            vnodes: map.vnodes,
            balance: balance_of(&rows),
            shards: rows,
        }
    };

    if args.flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{} shard layout: {} shards, {} vnodes/shard, epoch {}",
        report.mode,
        report.shards.len(),
        report.vnodes,
        report.epoch
    );
    for row in &report.shards {
        println!(
            "  shard-{:<3} {:>8} files  {:>10} ops{}",
            row.shard,
            row.files,
            row.ops_served,
            row.host.map(|h| format!("  host h{h}")).unwrap_or_default()
        );
    }
    println!("balance (hottest/mean files): {:.2}", report.balance);
    Ok(())
}

/// Runs one traced operation against the cluster and prints its causal
/// span tree (DESIGN.md §17). On success the capture renders as a
/// critical path (default), byte-deterministic JSON (`--json`), or a
/// Chrome trace-event file (`--chrome`); on failure the same capture's
/// critical paths go to stderr, the failed root marked `[error]`, and
/// the error is returned.
fn cmd_trace(dir: &Path, args: &Args) -> Result<(), String> {
    use mayflower_telemetry::trace::TraceTree;

    let op = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing <read|append>")?;
    let name = args.positional.get(2).cloned().ok_or("missing <name>")?;
    let cluster = load_cluster(dir)?;
    let tracer = cluster.tracer().clone();
    tracer.begin_capture();

    let mut client = cluster.client(HostId(args.flag("client", 0u32)));
    let outcome: Result<String, String> = match op {
        "read" => client
            .read(&name)
            .map(|data| format!("read {} bytes from {name}", data.len()))
            .map_err(|e| e.to_string()),
        "append" => {
            let data = args
                .flags
                .get("data")
                .cloned()
                .unwrap_or_else(|| "mayfs trace payload".to_string())
                .into_bytes();
            client
                .append(&name, &data)
                .map(|size| format!("appended {} bytes; {name} is now {size} bytes", data.len()))
                .map_err(|e| e.to_string())
        }
        other => return Err(format!("bad operation {other:?}: want read or append")),
    };

    let tree = TraceTree::build(tracer.take_capture());
    let critical_paths = || {
        let mut out = format!("{} spans captured; critical path:\n", tree.events().len());
        for &root in tree.roots() {
            out.push_str(&tree.render_critical_path(tree.events()[root].trace));
        }
        out
    };
    let summary = match outcome {
        Ok(summary) => summary,
        Err(e) => {
            eprint!("{}", critical_paths());
            return Err(format!("traced {op} failed: {e}"));
        }
    };
    tree.validate()
        .map_err(|e| format!("malformed trace: {e}"))?;
    if args.flags.contains_key("json") {
        print!("{}", tree.render_json());
    } else if args.flags.contains_key("chrome") {
        print!("{}", tree.render_chrome());
    } else {
        eprintln!("{summary}");
        print!("{}", critical_paths());
    }
    Ok(())
}

/// Hottest shard's file count over the mean.
fn balance_of(rows: &[ShardRow]) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let total: usize = rows.iter().map(|r| r.files).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / rows.len() as f64;
    let max = rows.iter().map(|r| r.files).max().unwrap_or(0);
    max as f64 / mean
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw[0].as_str();
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        println!(
            "mayfs — Mayflower distributed filesystem CLI\n\n\
             init <dir> [--pods N] [--racks N] [--hosts N] [--chunk BYTES] [--replication N]\n\
             create <dir> <name> [--client H] [--redundancy N|K+M]\n\
             append <dir> <name> (--data STR | --file PATH) [--client H]\n\
             read   <dir> <name> [--offset N] [--len N] [--client H]\n\
             stat   <dir> <name>\n\
             ls     <dir>\n\
             rm     <dir> <name> [--client H]\n\
             serve  <dir> --listen ADDR\n\
             metrics <dir> [--json] [--client H]   # probe files, dump telemetry\n\
             status <dir> [--json]                 # host health, under-replicated files, fragment health\n\
             shards <dir> [--json] [--shards N] [--vnodes V]  # metadata-shard layout (live or previewed)\n\
             trace  <dir> <read|append> <name> [--client H] [--data STR] [--json|--chrome]  # traced op, critical path"
        );
        return Ok(());
    }
    let args = parse_args(&raw[1..]);
    let Some(dir) = args.positional.first().map(PathBuf::from) else {
        usage();
    };

    match cmd {
        "init" => cmd_init(&dir, &args),
        "create" => {
            let name = args.positional.get(1).cloned().ok_or("missing <name>")?;
            let cluster = load_cluster(&dir)?;
            let mut client = cluster.client(HostId(args.flag("client", 0u32)));
            let meta = match args.flags.get("redundancy") {
                Some(spec) => {
                    let policy = Redundancy::parse(spec)
                        .ok_or_else(|| format!("bad --redundancy {spec:?}: want N or K+M"))?;
                    client
                        .create_with(&name, policy)
                        .map_err(|e| e.to_string())?
                }
                None => client.create(&name).map_err(|e| e.to_string())?,
            };
            println!(
                "created {name} (uuid {}, redundancy {})",
                meta.id, meta.redundancy
            );
            for (i, r) in meta.replicas.iter().enumerate() {
                println!(
                    "  replica {i}: host {r}{}",
                    if i == 0 { " (primary)" } else { "" }
                );
            }
            for (i, h) in meta.fragments.iter().enumerate() {
                println!("  fragment {i}: host {h}");
            }
            Ok(())
        }
        "append" => {
            let name = args.positional.get(1).cloned().ok_or("missing <name>")?;
            let data = if let Some(s) = args.flags.get("data") {
                s.clone().into_bytes()
            } else if let Some(path) = args.flags.get("file") {
                std::fs::read(path).map_err(|e| e.to_string())?
            } else if !std::io::stdin().is_terminal() {
                let mut buf = Vec::new();
                std::io::stdin()
                    .read_to_end(&mut buf)
                    .map_err(|e| e.to_string())?;
                buf
            } else {
                return Err("provide --data, --file, or pipe stdin".into());
            };
            let cluster = load_cluster(&dir)?;
            let mut client = cluster.client(HostId(args.flag("client", 0u32)));
            let size = client.append(&name, &data).map_err(|e| e.to_string())?;
            println!("appended {} bytes; {name} is now {size} bytes", data.len());
            Ok(())
        }
        "read" => {
            let name = args.positional.get(1).cloned().ok_or("missing <name>")?;
            let cluster = load_cluster(&dir)?;
            let mut client = cluster.client(HostId(args.flag("client", 0u32)));
            let data = if args.flags.contains_key("offset") || args.flags.contains_key("len") {
                client
                    .read_range(
                        &name,
                        args.flag("offset", 0u64),
                        args.flag("len", u64::MAX / 2),
                    )
                    .map_err(|e| e.to_string())?
            } else {
                client.read(&name).map_err(|e| e.to_string())?
            };
            std::io::stdout()
                .write_all(&data)
                .map_err(|e| e.to_string())?;
            Ok(())
        }
        "stat" => {
            let name = args.positional.get(1).cloned().ok_or("missing <name>")?;
            let cluster = load_cluster(&dir)?;
            let meta = cluster
                .nameserver()
                .lookup(&name)
                .map_err(|e| e.to_string())?;
            println!("name:       {}", meta.name);
            println!("uuid:       {}", meta.id);
            println!("size:       {} bytes", meta.size);
            println!(
                "chunk size: {} bytes ({} chunks)",
                meta.chunk_size,
                meta.chunk_count()
            );
            println!(
                "replicas:   {}",
                meta.replicas
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!("redundancy: {}", meta.redundancy);
            if meta.is_coded() {
                println!(
                    "sealed:     {}/{} chunks",
                    meta.sealed_chunks,
                    meta.chunk_count()
                );
                println!(
                    "fragments:  {}",
                    meta.fragments
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
            Ok(())
        }
        "ls" => {
            let cluster = load_cluster(&dir)?;
            for meta in cluster.nameserver().list() {
                println!("{:>12}  {}", meta.size, meta.name);
            }
            Ok(())
        }
        "rm" => {
            let name = args.positional.get(1).cloned().ok_or("missing <name>")?;
            let cluster = load_cluster(&dir)?;
            let mut client = cluster.client(HostId(args.flag("client", 0u32)));
            client.delete(&name).map_err(|e| e.to_string())?;
            println!("deleted {name}");
            Ok(())
        }
        "metrics" => {
            let cluster = load_cluster(&dir)?;
            let mut client = cluster.client(HostId(args.flag("client", 0u32)));
            // Probe every file (metadata lookup + first byte) so the
            // snapshot reflects live client/dataserver counters rather
            // than an empty just-opened registry.
            for meta in cluster.nameserver().list() {
                if meta.size > 0 {
                    client
                        .read_range(&meta.name, 0, 1)
                        .map_err(|e| e.to_string())?;
                } else {
                    cluster
                        .nameserver()
                        .lookup(&meta.name)
                        .map_err(|e| e.to_string())?;
                }
            }
            let snapshot = cluster.registry().snapshot();
            if args.flags.contains_key("json") {
                println!("{}", snapshot.render_json());
            } else {
                print!("{}", snapshot.render_prometheus());
            }
            Ok(())
        }
        "status" => cmd_status(&dir, &args),
        "shards" => cmd_shards(&dir, &args),
        "trace" => cmd_trace(&dir, &args),
        "serve" => {
            let listen = args
                .flags
                .get("listen")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7847".to_string());
            let cluster = load_cluster(&dir)?;
            let service = Arc::new(NameserverService::new(cluster.nameserver().clone()));
            let server = TcpServer::bind(listen.as_str(), service).map_err(|e| e.to_string())?;
            println!("nameserver RPC listening on {}", server.local_addr());
            println!("press ctrl-c to stop");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        _ => usage(),
    }
}

use std::io::IsTerminal as _;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mayfs: {msg}");
            ExitCode::FAILURE
        }
    }
}
