//! Single-link max-min fair-share arithmetic.
//!
//! Both the ground-truth fluid simulator (globally, via progressive
//! filling) and the Flowserver's estimator (per link, §4.2) divide link
//! capacity across flows "equally up to the flow's demand while
//! remaining within the link's capacity". This module implements that
//! single-link water-filling step.

/// Reusable buffers for the allocation-free waterfill entry points.
///
/// One scratch lives for the whole lifetime of a scheduler; every call
/// reuses its vectors, so the steady-state cost of a waterfill is pure
/// arithmetic plus one sort — no heap traffic.
#[derive(Debug, Clone, Default)]
pub struct FairshareScratch {
    all: Vec<f64>,
    alloc: Vec<f64>,
    order: Vec<u32>,
}

impl FairshareScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> FairshareScratch {
        FairshareScratch::default()
    }
}

/// Divides `capacity` across flows with the given `demands` using
/// max-min fairness: capacity is split equally, but no flow receives
/// more than its demand; leftover from capped flows is redistributed
/// among the rest. An unbounded demand is expressed as
/// `f64::INFINITY`.
///
/// `alloc` receives the per-flow allocation in input order (cleared
/// first; empty for an empty demand slice); `order` is an index
/// scratch buffer. Runs in O(n log n): each round fixes the equal
/// share from the remaining capacity and caps the demand-sorted prefix
/// of remaining flows. The result is **bit-identical** to the
/// quadratic round scan kept as this module's test oracle: because f64
/// subtraction is not associative, the capped demands are subtracted
/// in original input order, exactly like the reference loop.
///
/// # Panics
///
/// Panics if `capacity` is negative/NaN or any demand is negative/NaN.
///
/// # Example
///
/// ```
/// use mayflower_net::fairshare::waterfill_into;
///
/// // Paper Figure 2(b): 10 Mbps link, three existing flows demanding
/// // 2, 2 and 6, plus a new flow with unbounded demand. Equal share is
/// // 2.5; the 2-demand flows cap at 2, freeing capacity: the 6-demand
/// // flow and the new flow each get 3.
/// let (mut alloc, mut order) = (Vec::new(), Vec::new());
/// waterfill_into(10.0, &[2.0, 2.0, 6.0, f64::INFINITY], &mut alloc, &mut order);
/// assert_eq!(alloc, vec![2.0, 2.0, 3.0, 3.0]);
/// ```
pub fn waterfill_into(capacity: f64, demands: &[f64], alloc: &mut Vec<f64>, order: &mut Vec<u32>) {
    assert!(
        capacity >= 0.0 && !capacity.is_nan(),
        "capacity must be non-negative"
    );
    assert!(
        demands.iter().all(|d| *d >= 0.0 && !d.is_nan()),
        "demands must be non-negative"
    );
    let n = demands.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    if n == 0 {
        return;
    }
    order.clear();
    order.extend(0..u32::try_from(n).expect("demand count fits u32"));
    order.sort_by(|&a, &b| demands[a as usize].total_cmp(&demands[b as usize]));
    let mut start = 0usize;
    let mut remaining_cap = capacity;
    loop {
        if start == n || remaining_cap <= 0.0 {
            break;
        }
        let share = remaining_cap / (n - start) as f64;
        // Flows whose demand is below the current equal share cap out;
        // they are exactly a prefix of the demand-sorted remainder.
        let cut = start + order[start..].partition_point(|&i| demands[i as usize] <= share);
        if cut == start {
            // Everyone left wants at least the equal share: done.
            for &i in &order[start..] {
                alloc[i as usize] = share;
            }
            break;
        }
        // Restore input order within the capped set so the capacity
        // subtractions replay the reference loop's exact f64 sequence.
        order[start..cut].sort_unstable();
        for &i in &order[start..cut] {
            let d = demands[i as usize];
            alloc[i as usize] = d;
            remaining_cap -= d;
        }
        start = cut;
    }
}

/// Waterfills `demands + [extra]` using scratch buffers and returns the
/// allocation slice (length `demands.len() + 1`, the extra flow last).
///
/// This is the allocation-free core behind both the new-flow share and
/// the existing-flow impact computation: the Flowserver stages a link's
/// demand list plus the newcomer's demand, waterfills once, and reads
/// both answers from the same slice.
pub fn waterfill_with_extra<'a>(
    capacity: f64,
    demands: &[f64],
    extra: f64,
    scratch: &'a mut FairshareScratch,
) -> &'a [f64] {
    scratch.all.clear();
    scratch.all.extend_from_slice(demands);
    scratch.all.push(extra);
    waterfill_into(
        capacity,
        &scratch.all,
        &mut scratch.alloc,
        &mut scratch.order,
    );
    &scratch.alloc
}

/// The max-min share a **new flow with unbounded demand** would receive
/// on a link of the given `capacity` already carrying flows with the
/// given `demands` (§4.2: "the demand of the new flow is set to
/// infinity"): the last entry of `waterfill(capacity, demands + [∞])`.
pub fn new_flow_share_into(capacity: f64, demands: &[f64], scratch: &mut FairshareScratch) -> f64 {
    *waterfill_with_extra(capacity, demands, f64::INFINITY, scratch)
        .last()
        .expect("waterfill of non-empty input is non-empty")
}

/// The reference the fast path is proven against: the quadratic round
/// scan, one fresh vector per call. Test-only — non-test code has one
/// waterfill, [`waterfill_into`].
#[cfg(test)]
mod oracle {
    pub fn waterfill(capacity: f64, demands: &[f64]) -> Vec<f64> {
        assert!(
            capacity >= 0.0 && !capacity.is_nan(),
            "capacity must be non-negative"
        );
        assert!(
            demands.iter().all(|d| *d >= 0.0 && !d.is_nan()),
            "demands must be non-negative"
        );
        let n = demands.len();
        if n == 0 {
            return Vec::new();
        }
        let mut alloc = vec![0.0f64; n];
        let mut satisfied = vec![false; n];
        let mut remaining_cap = capacity;
        let mut remaining_flows = n;
        loop {
            if remaining_flows == 0 || remaining_cap <= 0.0 {
                break;
            }
            let share = remaining_cap / remaining_flows as f64;
            // Flows whose demand is below the current equal share cap out.
            let mut any_capped = false;
            for i in 0..n {
                if !satisfied[i] && demands[i] <= share {
                    alloc[i] = demands[i];
                    remaining_cap -= demands[i];
                    satisfied[i] = true;
                    remaining_flows -= 1;
                    any_capped = true;
                }
            }
            if !any_capped {
                // Everyone left wants at least the equal share: done.
                for i in 0..n {
                    if !satisfied[i] {
                        alloc[i] = share;
                    }
                }
                break;
            }
        }
        alloc
    }

    pub fn new_flow_share(capacity: f64, demands: &[f64]) -> f64 {
        let mut all: Vec<f64> = demands.to_vec();
        all.push(f64::INFINITY);
        *waterfill(capacity, &all)
            .last()
            .expect("waterfill of non-empty input is non-empty")
    }
}

#[cfg(test)]
fn fill_into(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let mut alloc = Vec::new();
    let mut order = Vec::new();
    waterfill_into(capacity, demands, &mut alloc, &mut order);
    alloc
}

#[cfg(test)]
mod tests {
    use super::oracle::{new_flow_share, waterfill};
    use super::*;

    fn share_into(capacity: f64, demands: &[f64]) -> f64 {
        new_flow_share_into(capacity, demands, &mut FairshareScratch::new())
    }

    #[test]
    fn equal_split_when_demands_exceed() {
        assert_eq!(fill_into(12.0, &[10.0, 10.0, 10.0]), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn small_demands_fully_met() {
        assert_eq!(fill_into(12.0, &[1.0, 2.0, 100.0]), vec![1.0, 2.0, 9.0]);
    }

    #[test]
    fn paper_fig2b_second_link() {
        // Second link of first path: flows 2, 2, 6 plus new flow → new
        // flow gets 3 (the paper's bottleneck share for path 1).
        let share = share_into(10.0, &[2.0, 2.0, 6.0]);
        assert!((share - 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_fig2b_third_link() {
        // Third link: one flow at 10 plus new flow → each gets 5.
        let share = share_into(10.0, &[10.0]);
        assert!((share - 5.0).abs() < 1e-12);
    }

    #[test]
    fn paper_fig2c_second_path() {
        // Figure 2(c): second path, edge→agg link flows 2, 2, 4 → new
        // flow share 3; agg→edge link flow 8 → share 5. Bottleneck 3.
        let s1 = share_into(10.0, &[2.0, 2.0, 4.0]);
        assert!((s1 - 3.0).abs() < 1e-12, "{s1}");
        let s2 = share_into(10.0, &[8.0]);
        assert!((s2 - 5.0).abs() < 1e-12, "{s2}");
    }

    #[test]
    fn empty_demands() {
        assert!(fill_into(5.0, &[]).is_empty());
        assert_eq!(share_into(5.0, &[]), 5.0);
    }

    #[test]
    fn zero_capacity_gives_zero() {
        assert_eq!(fill_into(0.0, &[1.0, 2.0, f64::INFINITY]), vec![0.0; 3]);
    }

    #[test]
    fn zero_demand_flows_get_zero() {
        assert_eq!(fill_into(10.0, &[0.0, f64::INFINITY]), vec![0.0, 10.0]);
    }

    #[test]
    fn all_infinite_demands_split_equally() {
        assert_eq!(fill_into(12.0, &[f64::INFINITY; 4]), vec![3.0; 4]);
    }

    #[test]
    fn single_flow_capped_and_uncapped() {
        // Demand below capacity: capped at the demand.
        assert_eq!(fill_into(10.0, &[4.0]), vec![4.0]);
        // Demand above capacity: gets the whole link.
        assert_eq!(fill_into(10.0, &[40.0]), vec![10.0]);
        assert_eq!(fill_into(10.0, &[f64::INFINITY]), vec![10.0]);
    }

    #[test]
    fn matches_oracle_on_paper_examples() {
        for (cap, demands) in [
            (10.0, vec![2.0, 2.0, 6.0, f64::INFINITY]),
            (10.0, vec![2.0, 2.0, 4.0, f64::INFINITY]),
            (12.0, vec![1.0, 2.0, 100.0]),
            (10.0, vec![0.0, f64::INFINITY]),
        ] {
            assert_eq!(fill_into(cap, &demands), waterfill(cap, &demands));
        }
    }

    #[test]
    fn buffers_are_reusable() {
        let mut scratch = FairshareScratch::new();
        let s1 = new_flow_share_into(10.0, &[2.0, 2.0, 6.0], &mut scratch);
        assert_eq!(
            s1.to_bits(),
            new_flow_share(10.0, &[2.0, 2.0, 6.0]).to_bits()
        );
        // A second, smaller call must not see stale state.
        let s2 = new_flow_share_into(10.0, &[10.0], &mut scratch);
        assert_eq!(s2.to_bits(), new_flow_share(10.0, &[10.0]).to_bits());
        let alloc = waterfill_with_extra(10.0, &[2.0, 2.0, 6.0], 3.0, &mut scratch);
        assert_eq!(alloc.len(), 4);
        assert_eq!(alloc, waterfill(10.0, &[2.0, 2.0, 6.0, 3.0]).as_slice());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_panics() {
        let _ = fill_into(-1.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_demand_panics() {
        let _ = fill_into(1.0, &[-1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::{new_flow_share, waterfill};
    use super::*;
    use proptest::prelude::*;

    fn demand_vec() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![3 => 0.0f64..100.0, 1 => Just(f64::INFINITY)],
            1..20,
        )
    }

    proptest! {
        /// The allocation never exceeds capacity, never exceeds any
        /// demand, and is Pareto-efficient (either capacity exhausted
        /// or all demands met).
        #[test]
        fn waterfill_invariants(cap in 0.0f64..1000.0, demands in demand_vec()) {
            let alloc = fill_into(cap, &demands);
            let total: f64 = alloc.iter().sum();
            prop_assert!(total <= cap * (1.0 + 1e-9) + 1e-9);
            for (a, d) in alloc.iter().zip(&demands) {
                prop_assert!(*a <= d * (1.0 + 1e-9) + 1e-9);
                prop_assert!(*a >= 0.0);
            }
            let all_met = alloc.iter().zip(&demands).all(|(a, d)| (a - d).abs() < 1e-6 || d.is_infinite() && *a > 0.0);
            let cap_used = (total - cap).abs() < 1e-6 * cap.max(1.0);
            prop_assert!(all_met || cap_used || cap == 0.0,
                "not Pareto efficient: total={total} cap={cap} alloc={alloc:?} demands={demands:?}");
        }

        /// Fairness: if flow i gets strictly less than flow j, then
        /// flow i must be demand-capped.
        #[test]
        fn waterfill_fairness(cap in 0.1f64..1000.0, demands in demand_vec()) {
            let alloc = fill_into(cap, &demands);
            for i in 0..alloc.len() {
                for j in 0..alloc.len() {
                    if alloc[i] + 1e-9 < alloc[j] {
                        prop_assert!((alloc[i] - demands[i]).abs() < 1e-9,
                            "flow {i} got {} < {} but is not capped at its demand {}",
                            alloc[i], alloc[j], demands[i]);
                    }
                }
            }
        }

        /// A new unbounded flow always gets at least an equal share.
        #[test]
        fn new_flow_gets_at_least_equal_share(cap in 0.1f64..1000.0, demands in demand_vec()) {
            let share = new_flow_share_into(cap, &demands, &mut FairshareScratch::new());
            let equal = cap / (demands.len() + 1) as f64;
            prop_assert!(share >= equal - 1e-9);
            prop_assert!(share <= cap + 1e-9);
        }

        /// The sort-based fast path is **bit-identical** to the
        /// reference quadratic loop — not merely close: it replaced
        /// that loop everywhere and must keep every selection and
        /// every serialized report byte-equal.
        #[test]
        fn waterfill_into_is_bit_identical(cap in 0.0f64..1000.0, demands in demand_vec()) {
            let reference = waterfill(cap, &demands);
            let alloc = fill_into(cap, &demands);
            prop_assert_eq!(alloc.len(), reference.len());
            for (fast, slow) in alloc.iter().zip(&reference) {
                prop_assert_eq!(fast.to_bits(), slow.to_bits(),
                    "fast={} slow={} cap={} demands={:?}", fast, slow, cap, &demands);
            }
        }

        /// Same bit-identity for the new-flow share entry point.
        #[test]
        fn new_flow_share_into_is_bit_identical(cap in 0.0f64..1000.0, demands in demand_vec()) {
            let mut scratch = FairshareScratch::new();
            let fast = new_flow_share_into(cap, &demands, &mut scratch);
            let slow = new_flow_share(cap, &demands);
            prop_assert_eq!(fast.to_bits(), slow.to_bits(), "fast={} slow={}", fast, slow);
        }
    }
}
