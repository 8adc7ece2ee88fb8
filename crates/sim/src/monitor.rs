//! Sinbad's end-host link-load monitor.
//!
//! Sinbad does not use SDN: it runs monitoring agents on the end hosts
//! and aggregates their observed bandwidth (§2.3, §6.2). The
//! reproduction gives it the equivalent: periodically-sampled byte
//! counters on host uplinks and rack core-facing uplinks, differenced
//! into rates. Like the Flowserver, Sinbad sees **measurements with
//! polling delay**, never simulator ground truth.

use std::sync::Arc;

use mayflower_baselines::LinkLoadView;
use mayflower_net::{LinkId, NodeKind, Topology};
use mayflower_simcore::SimTime;
use mayflower_simnet::FluidNet;
use mayflower_telemetry::{Counter, Scope};

/// Periodically samples link byte counters and exposes measured rates
/// as a [`LinkLoadView`] for Sinbad-R.
#[derive(Debug, Clone)]
pub struct LinkLoadMonitor {
    watched: Vec<LinkId>,
    /// Per link, by index: the counter at the last sample, and the rate
    /// measured over the last interval. Links never sampled read 0.
    prev_bits: Vec<f64>,
    rates: Vec<f64>,
    last_sample: SimTime,
    /// Poll cycles taken.
    samples: Arc<Counter>,
}

impl LinkLoadMonitor {
    /// Creates a monitor over every link adjacent to a host or edge
    /// switch (both directions) — what end-host agents can observe —
    /// that counts its poll cycles in `scope`'s `samples_total`.
    #[must_use]
    pub fn new(topo: &Topology, scope: &Scope) -> LinkLoadMonitor {
        let mut watched = Vec::new();
        for node in topo.nodes() {
            if matches!(node.kind(), NodeKind::Host | NodeKind::EdgeSwitch) {
                for &l in topo.out_links(node.id()) {
                    watched.push(l);
                }
            }
        }
        watched.sort_unstable();
        watched.dedup();
        LinkLoadMonitor {
            watched,
            prev_bits: vec![0.0; topo.links().len()],
            rates: vec![0.0; topo.links().len()],
            last_sample: SimTime::ZERO,
            samples: scope.counter("samples_total"),
        }
    }

    /// Takes one sample: reads cumulative counters from the network and
    /// updates measured rates over the elapsed interval.
    pub fn sample(&mut self, net: &FluidNet, now: SimTime) {
        let dt = now.secs_since(self.last_sample);
        for &l in &self.watched {
            let total = net.link_bits(l);
            let prev = std::mem::replace(&mut self.prev_bits[l.index()], total);
            if dt > 0.0 {
                self.rates[l.index()] = (total - prev).max(0.0) / dt;
            }
        }
        self.samples.inc();
        self.last_sample = now;
    }

    /// When the last sample was taken.
    #[must_use]
    pub fn last_sample(&self) -> SimTime {
        self.last_sample
    }
}

impl LinkLoadView for LinkLoadMonitor {
    fn load_bps(&self, link: LinkId) -> f64 {
        self.rates[link.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::{HostId, TreeParams};
    use std::sync::Arc;

    /// A scope in a registry no test reads.
    fn scope() -> Scope {
        mayflower_telemetry::Registry::new().scope("monitor")
    }

    #[test]
    fn measures_rate_of_an_active_flow() {
        let topo = Arc::new(mayflower_net::Topology::three_tier(
            &TreeParams::paper_testbed(),
        ));
        let mut net = FluidNet::new(topo.clone());
        let mut mon = LinkLoadMonitor::new(&topo, &scope());
        let p = topo.shortest_paths(HostId(0), HostId(1))[0].clone();
        let uplink = p.links()[0];
        net.add_flow(p, 10e9, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(1.0));
        mon.sample(&net, SimTime::from_secs(1.0));
        assert!((mon.load_bps(uplink) - 1e9).abs() < 1.0);
    }

    #[test]
    fn idle_links_read_zero() {
        let topo = Arc::new(mayflower_net::Topology::three_tier(
            &TreeParams::paper_testbed(),
        ));
        let net = FluidNet::new(topo.clone());
        let mut mon = LinkLoadMonitor::new(&topo, &scope());
        mon.sample(&net, SimTime::from_secs(1.0));
        assert_eq!(mon.load_bps(topo.host_uplink(HostId(5))), 0.0);
    }

    #[test]
    fn rate_decays_after_flow_ends() {
        let topo = Arc::new(mayflower_net::Topology::three_tier(
            &TreeParams::paper_testbed(),
        ));
        let mut net = FluidNet::new(topo.clone());
        let mut mon = LinkLoadMonitor::new(&topo, &scope());
        let p = topo.shortest_paths(HostId(0), HostId(1))[0].clone();
        let uplink = p.links()[0];
        net.add_flow(p, 1e9, SimTime::ZERO); // finishes at t=1
        net.advance_to(SimTime::from_secs(1.0));
        mon.sample(&net, SimTime::from_secs(1.0));
        assert!(mon.load_bps(uplink) > 0.9e9);
        net.advance_to(SimTime::from_secs(2.0));
        mon.sample(&net, SimTime::from_secs(2.0));
        assert_eq!(mon.load_bps(uplink), 0.0);
    }

    #[test]
    fn metrics_count_samples() {
        let topo = Arc::new(mayflower_net::Topology::three_tier(
            &TreeParams::paper_testbed(),
        ));
        let mut net = FluidNet::new(topo.clone());
        let registry = mayflower_telemetry::Registry::new();
        let mut mon = LinkLoadMonitor::new(&topo, &registry.scope("sim").scope("monitor"));
        let p = topo.shortest_paths(HostId(0), HostId(1))[0].clone();
        net.add_flow(p, 10e9, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(1.0));
        mon.sample(&net, SimTime::from_secs(1.0));
        mon.sample(&net, SimTime::from_secs(2.0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_monitor_samples_total"), Some(2));
    }
}
