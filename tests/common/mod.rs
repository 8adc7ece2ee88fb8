//! Support shared by the root integration tests.

use mayflower::flowserver::{Flowserver, Selection};
use mayflower::fs::{ReadAssignment, ReplicaSelector};
use mayflower::net::HostId;
use mayflower::simcore::SimTime;

/// A [`ReplicaSelector`] that queries the Flowserver for every read —
/// the paper's client/Flowserver interaction (Figure 1): the client
/// asks the SDN control plane which replica(s) to read from, then
/// fetches the data from the chosen dataserver(s). The chosen flows
/// are retired at once, since no fluid network drives their
/// completion here.
pub struct FlowserverSelector {
    pub fs: Flowserver,
}

impl ReplicaSelector for FlowserverSelector {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let sel =
            self.fs
                .select_replica_path(client, replicas, (size_bytes * 8) as f64, SimTime::ZERO);
        let out = match &sel {
            // No reachable replica (only possible with down links):
            // answer empty so a wrapping `FallbackSelector` or the
            // client's own failover takes over.
            Selection::Unavailable => Vec::new(),
            Selection::Local => vec![ReadAssignment {
                replica: client,
                bytes: size_bytes,
            }],
            Selection::Single(a) => vec![ReadAssignment {
                replica: a.replica,
                bytes: size_bytes,
            }],
            Selection::Split(parts) => {
                // Proportional byte split, remainder to the first part.
                let total_bits: f64 = parts.iter().map(|p| p.size_bits).sum();
                let mut out: Vec<ReadAssignment> = parts
                    .iter()
                    .map(|p| ReadAssignment {
                        replica: p.replica,
                        bytes: ((p.size_bits / total_bits) * size_bytes as f64) as u64,
                    })
                    .collect();
                let assigned: u64 = out.iter().map(|a| a.bytes).sum();
                out[0].bytes += size_bytes - assigned;
                out
            }
        };
        for a in sel.assignments() {
            self.fs.flow_completed(a.cookie);
        }
        out
    }
}
