#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! The interface between the data plane's counters and the Flowserver.
//!
//! The paper's Flowserver runs inside a Floodlight SDN controller: it
//! installs per-flow rules along a chosen path and periodically fetches
//! byte counters from the **edge** switches to estimate flow bandwidth
//! (§3.3.3). The reproduction keeps only what the Flowserver's model
//! reads of that exchange; the Flowserver's own flow tracker is its one
//! record of which flows are installed.
//!
//! * [`FlowCookie`] — the controller's name for one flow.
//! * [`CounterSource`] — where cumulative counters come from. The
//!   simulator's driver implements it over the fluid network; keeping it
//!   a trait guarantees the control plane only ever sees counters, never
//!   ground-truth rates.
//! * [`StatsReport`] — one poll's per-flow readings, as
//!   `Flowserver::poll_stats` produces and `Flowserver::on_stats`
//!   ingests them.
//!
//! # Example
//!
//! ```
//! use mayflower_sdn::counters::StaticCounters;
//! use mayflower_sdn::{CounterSource, FlowCookie};
//!
//! let mut counters = StaticCounters::default();
//! counters.flows.insert(FlowCookie(1), 8e9);
//! assert_eq!(counters.flow_bits(FlowCookie(1)), Some(8e9));
//! // A flow whose counter is gone has finished.
//! assert_eq!(counters.flow_bits(FlowCookie(2)), None);
//! ```

pub mod counters;

pub use counters::CounterSource;

use mayflower_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies a flow across the fabric — the OpenFlow *cookie* the
/// controller stamps on every rule belonging to one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowCookie(pub u64);

impl std::fmt::Display for FlowCookie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A per-flow measurement from one poll cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStat {
    /// The flow.
    pub cookie: FlowCookie,
    /// Cumulative bits forwarded, as read from the ingress edge switch.
    pub total_bits: f64,
    /// Measured bandwidth over the last poll interval, bits/sec.
    pub rate_bps: f64,
}

/// Everything one poll cycle produced.
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    /// When the poll ran.
    pub measured_at: SimTime,
    /// Per-flow measurements, one per polled flow.
    pub flows: Vec<FlowStat>,
}

impl StatsReport {
    /// Looks up the stat for a flow.
    #[must_use]
    pub fn flow(&self, cookie: FlowCookie) -> Option<&FlowStat> {
        self.flows.iter().find(|f| f.cookie == cookie)
    }
}
