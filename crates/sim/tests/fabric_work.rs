//! The fabric's counted work on the benchmark-shaped 1024-host replay,
//! pinned exactly: a change to the rate refresh states its gain as these
//! counts moving, and a change that must not move the rounds shows it
//! here before any wall clock does.

use std::sync::Arc;

use mayflower_net::{Topology, TreeParams};
use mayflower_sim::engine::NoHooks;
use mayflower_sim::{replay_full, ReplayOptions, Strategy};
use mayflower_simcore::SimRng;
use mayflower_simnet::Work;
use mayflower_workload::{TrafficMatrix, WorkloadParams};

#[test]
fn fabric_work_at_seed_311_is_pinned() {
    // The 8×8×16 tree and the matrix of `sim::scale` at 1024 hosts, at
    // the benchmark's 384 jobs.
    let topo = Arc::new(Topology::three_tier(&TreeParams {
        pods: 8,
        racks_per_pod: 8,
        hosts_per_rack: 16,
        ..TreeParams::paper_testbed()
    }));
    let params = WorkloadParams {
        job_count: 384,
        file_count: 3072,
        zipf_exponent: 0.5,
        ..WorkloadParams::default()
    };
    let mut rng = SimRng::seed_from(311);
    let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
    let out = replay_full(
        &topo,
        &matrix,
        Strategy::Mayflower,
        &ReplayOptions::default(),
        &mut rng,
        &mut NoHooks,
    );
    assert_eq!(out.jobs.len(), 384);
    assert_eq!(
        out.fabric_work,
        Work {
            refreshes: 763,
            flows_solved: 33_203,
            links_indexed: 106_060,
            // The setup sorts the distinct links, not the 153 380 route
            // entries the solver sorted before it read the index.
            sorted: 106_060,
            rounds: 27_126,
            links_scanned: 4_268_039,
        }
    );
}
