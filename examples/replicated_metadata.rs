//! The fault-tolerant nameserver (§3.3.1's future work): metadata
//! operations replicated across three nameserver nodes through a Paxos
//! log, surviving the crash of the node clients were talking to.
//!
//! ```text
//! cargo run --example replicated_metadata
//! ```

use std::sync::Arc;

use mayflower::fs::nameserver::NameserverConfig;
use mayflower::fs::replicated::ReplicatedNameserver;
use mayflower::fs::{FsError, NsOp};
use mayflower::net::{Topology, TreeParams};

fn main() -> Result<(), FsError> {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let dir = std::env::temp_dir().join(format!("mayflower-repl-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)?;

    let mut ns = ReplicatedNameserver::open(topo, &dir, 3, NameserverConfig::default(), 42)?;
    println!(
        "replicated nameserver with {} nodes (Paxos, quorum 2)\n",
        ns.replicas()
    );

    // Normal operation: any node takes mutations; all nodes converge.
    let meta = ns.create(0, "warehouse/events.log")?;
    println!(
        "created {} via node 0; primary replica on {}",
        meta.name,
        meta.primary()
    );
    for node in 0..3 {
        let seen = ns.lookup_at(node, "warehouse/events.log")?;
        println!("  node {node} sees uuid {}", seen.id);
    }

    // Every other mutation is an `NsOp` submitted at a node; what comes
    // back is what that node's nameserver answered when it applied it.
    let grow = NsOp::RecordSize {
        name: "warehouse/events.log".into(),
        size: 1 << 28,
    };
    ns.submit(1, &grow)?;
    println!("\nsize recorded via node 1:");
    for node in 0..3 {
        println!(
            "  node {node} sees size {} bytes",
            ns.lookup_at(node, "warehouse/events.log")?.size
        );
    }

    // An op the namespace's rules refuse is refused the same way on
    // every node, changes none of them, and the log moves on.
    let nowhere = NsOp::Rename {
        from: "warehouse/events.log".into(),
        to: String::new(),
        overwrite: true,
    };
    match ns.submit(2, &nowhere) {
        Err(e @ FsError::InvalidArgument(_)) => println!("\nrename to \"\" refused: {e}"),
        other => panic!("expected a refusal, got {other:?}"),
    }

    // Node 0 (the node clients created through) crashes.
    println!("\n*** crash node 0 ***");
    ns.crash(0);
    let meta2 = ns.create(1, "warehouse/retries.log")?;
    println!(
        "created {} via node 1 while node 0 is down (quorum of 2 suffices)",
        meta2.name
    );

    // Losing a majority blocks writes but never corrupts state.
    println!("\n*** crash node 1 too (majority gone) ***");
    ns.crash(1);
    match ns.create(2, "warehouse/blocked.log") {
        Err(FsError::Consistency(msg)) => println!("write correctly refused: {msg}"),
        other => panic!("expected a consistency refusal, got {other:?}"),
    }

    // Recovery: node 0 returns and catches up from the log.
    println!("\n*** restart node 0 ***");
    ns.restart(0);
    let grow = NsOp::RecordSize {
        name: "warehouse/retries.log".into(),
        size: 4096,
    };
    ns.submit(2, &grow)?;
    let caught_up = ns.lookup_at(0, "warehouse/retries.log")?;
    println!(
        "node 0 caught up: {} is {} bytes (learned the ops it missed)",
        caught_up.name, caught_up.size
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
