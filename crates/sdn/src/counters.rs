//! The counter interface between the data plane and the control plane.

use mayflower_net::LinkId;

use crate::FlowCookie;

/// A source of cumulative byte/bit counters — the data plane as seen by
/// the control plane.
///
/// Real OpenFlow switches expose cumulative byte counters per port and
/// per flow-table entry. The simulator's driver implements this trait
/// over the fluid network, the benchmark implements it with fixed
/// readings, and [`StaticCounters`] scripts arbitrary trajectories for
/// tests.
///
/// **Information hiding is the point**: the Flowserver's bandwidth
/// model is built exclusively from these counters plus its own
/// bookkeeping, so estimation error relative to ground truth (stale
/// polls, in-between-poll drift) is faithfully reproduced.
pub trait CounterSource {
    /// Cumulative bits carried by a directed link (switch port) since
    /// boot.
    ///
    /// Nothing in this repository calls it: the Flowserver polls flow
    /// counters only. It stays because the benchmark implements the
    /// trait; the benchmark's next revision may drop it.
    fn port_bits(&self, link: LinkId) -> f64;

    /// Cumulative bits forwarded so far for the given flow, or `None`
    /// if the flow's rules have expired (flow finished).
    fn flow_bits(&self, cookie: FlowCookie) -> Option<f64>;
}

/// A scriptable counter source for tests.
#[derive(Debug, Clone, Default)]
pub struct StaticCounters {
    /// Per-link cumulative bits.
    pub ports: std::collections::HashMap<LinkId, f64>,
    /// Per-flow cumulative bits.
    pub flows: std::collections::HashMap<FlowCookie, f64>,
}

impl CounterSource for StaticCounters {
    fn port_bits(&self, link: LinkId) -> f64 {
        self.ports.get(&link).copied().unwrap_or(0.0)
    }

    fn flow_bits(&self, cookie: FlowCookie) -> Option<f64> {
        self.flows.get(&cookie).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_counters_default_to_zero_ports() {
        let c = StaticCounters::default();
        assert_eq!(c.port_bits(LinkId(3)), 0.0);
        assert!(c.flow_bits(FlowCookie(1)).is_none());
    }

    #[test]
    fn static_counters_store_values() {
        let mut c = StaticCounters::default();
        c.ports.insert(LinkId(0), 100.0);
        c.flows.insert(FlowCookie(9), 50.0);
        assert_eq!(c.port_bits(LinkId(0)), 100.0);
        assert_eq!(c.flow_bits(FlowCookie(9)), Some(50.0));
    }
}
