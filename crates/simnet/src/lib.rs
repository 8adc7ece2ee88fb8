#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! Fluid (flow-level) network simulator.
//!
//! This crate is the reproduction's substitute for the paper's Mininet
//! testbed (see DESIGN.md §2). It models TCP-like bandwidth sharing at
//! the *flow* level: at any instant, every active flow transmits at its
//! **global max-min fair share** of the network. A flow starting,
//! finishing or moving, or a link failing or healing, re-solves the
//! flows that share links with the change, directly or through other
//! flows; no other rate can move. Read completion time — the paper's
//! target metric — is then the integral of each flow's fair-share rate
//! over its lifetime.
//!
//! Two pieces:
//!
//! * [`maxmin`] — progressive-filling computation of the global
//!   max-min rate allocation for a set of routed flows.
//! * [`FluidNet`] — the stateful simulator: add/remove flows, advance
//!   simulated time, collect completions, and expose the per-link and
//!   per-flow byte counters an SDN controller would read from switch
//!   hardware.
//!
//! # Example
//!
//! ```
//! use mayflower_net::{HostId, Topology, TreeParams};
//! use mayflower_simcore::SimTime;
//! use mayflower_simnet::FluidNet;
//!
//! let topo = Topology::three_tier(&TreeParams::paper_testbed());
//! let path = topo.shortest_paths(HostId(0), HostId(1))[0].clone();
//! let mut net = FluidNet::new(std::sync::Arc::new(topo));
//! // 1 Gbit transfer over an uncontended 1 Gbps path: 1 second.
//! let f = net.add_flow(path, 1e9, SimTime::ZERO);
//! let done = net.advance_to(SimTime::from_secs(2.0));
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].flow, f);
//! assert!((done[0].at.as_secs() - 1.0).abs() < 1e-9);
//! ```

pub mod fluid;
pub mod maxmin;

pub use fluid::{FlowCompletion, FlowId, FlowState, FluidNet};
pub use maxmin::{RoutedFlow, Work};
