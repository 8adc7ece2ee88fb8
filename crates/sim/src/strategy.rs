//! The replica/path selection schemes under evaluation (§6.2).

use serde::{Deserialize, Serialize};

/// A complete selection scheme: how the replica is chosen × how the
/// network path is chosen. These are the five bars of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Full Mayflower: joint replica + path selection by the
    /// Flowserver (single-flow reads).
    Mayflower,
    /// Mayflower with §4.3 multi-replica split reads enabled.
    MayflowerMultipath,
    /// Sinbad-R replica selection + Mayflower's path scheduler.
    SinbadRMayflower,
    /// Sinbad-R replica selection + ECMP hashing.
    SinbadREcmp,
    /// Nearest (HDFS-style static) replica selection + Mayflower's
    /// path scheduler.
    NearestMayflower,
    /// Nearest replica selection + ECMP hashing — the conventional
    /// HDFS deployment.
    NearestEcmp,
    /// Nearest replica selection + a Hedera-style reactive flow
    /// rescheduler: the "datacenter-wide dynamic network flow
    /// scheduler" deployment the paper's introduction argues is
    /// "limited to finding the least congested path between the
    /// requester and the pre-selected replica".
    NearestHedera,
    /// Sinbad-R replica selection + Hedera rescheduling — the
    /// strongest fully-independent (non-co-designed) combination.
    SinbadRHedera,
}

impl Strategy {
    /// All five schemes of Figure 4, in the paper's bar order.
    pub const FIGURE4: [Strategy; 5] = [
        Strategy::Mayflower,
        Strategy::SinbadRMayflower,
        Strategy::SinbadREcmp,
        Strategy::NearestMayflower,
        Strategy::NearestEcmp,
    ];

    /// Whether this scheme schedules paths through the Flowserver
    /// (and therefore needs stats polling).
    #[must_use]
    pub fn uses_flowserver(self) -> bool {
        matches!(
            self,
            Strategy::Mayflower
                | Strategy::MayflowerMultipath
                | Strategy::SinbadRMayflower
                | Strategy::NearestMayflower
        )
    }

    /// Whether this scheme needs Sinbad's end-host link-load monitor.
    #[must_use]
    pub fn uses_sinbad(self) -> bool {
        matches!(
            self,
            Strategy::SinbadRMayflower | Strategy::SinbadREcmp | Strategy::SinbadRHedera
        )
    }

    /// Whether this scheme reroutes in-flight flows with the Hedera
    /// scheduler on each stats poll.
    #[must_use]
    pub fn uses_hedera(self) -> bool {
        matches!(self, Strategy::NearestHedera | Strategy::SinbadRHedera)
    }

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Mayflower => "Mayflower",
            Strategy::MayflowerMultipath => "Mayflower (multipath)",
            Strategy::SinbadRMayflower => "Sinbad-R Mayflower",
            Strategy::SinbadREcmp => "Sinbad-R ECMP",
            Strategy::NearestMayflower => "Nearest Mayflower",
            Strategy::NearestEcmp => "Nearest ECMP",
            Strategy::NearestHedera => "Nearest Hedera",
            Strategy::SinbadRHedera => "Sinbad-R Hedera",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_order_matches_paper() {
        let labels: Vec<&str> = Strategy::FIGURE4.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Mayflower",
                "Sinbad-R Mayflower",
                "Sinbad-R ECMP",
                "Nearest Mayflower",
                "Nearest ECMP"
            ]
        );
    }

    #[test]
    fn flowserver_usage() {
        assert!(Strategy::Mayflower.uses_flowserver());
        assert!(Strategy::NearestMayflower.uses_flowserver());
        assert!(!Strategy::NearestEcmp.uses_flowserver());
        assert!(!Strategy::SinbadREcmp.uses_flowserver());
    }

    #[test]
    fn sinbad_usage() {
        assert!(Strategy::SinbadREcmp.uses_sinbad());
        assert!(Strategy::SinbadRMayflower.uses_sinbad());
        assert!(!Strategy::Mayflower.uses_sinbad());
    }
}
