//! The mpiGraph experiment (Fig. 6): per-NIC receive bandwidth histograms.
//!
//! mpiGraph measures pairwise transfer bandwidth with every NIC sending to
//! one partner concurrently. On Summit's non-blocking fat-tree every pair
//! lands in a tight distribution at ~8.5 GB/s (68 % of EDR line rate). On
//! Frontier's dragonfly the distribution is wide — 3 to 17.5 GB/s — shaped
//! by three effects the model reproduces structurally: full connectivity
//! inside a group (the small ~1.4 % population at 17.5 GB/s), the 57 %
//! global taper, and non-minimal routing doubling load on global pipes.

use crate::des::{simulate, Delivery, DesConfig, MessageBatch};
use crate::dragonfly::Dragonfly;
use crate::fattree::FatTree;
use crate::maxmin::solve_maxmin;
use crate::patterns::mpigraph_pairs;
use crate::routing::{RoutePolicy, Router};
use crate::topology::{Flow, Topology};
use frontier_sim_core::prelude::*;

/// calibrated: run-to-run measurement noise of an mpiGraph sample
/// (multiplicative, log-normal sigma). Gives Summit its "tight distribution"
/// width rather than a single spike.
const MEASUREMENT_SIGMA: f64 = 0.025;

/// Result of one mpiGraph run.
#[derive(Debug, Clone)]
pub struct MpiGraphResult {
    /// Receive bandwidth per NIC pair, GB/s.
    pub rates_gb_s: Vec<f64>,
    pub summary: Summary,
}

impl MpiGraphResult {
    /// Package already-solved per-pair rates (GB/s) into a result,
    /// applying the same deterministic measurement noise as
    /// [`run_with_flows`]. This is the campaign engine's warm-start exit:
    /// a `Solver::resolve_with` re-solve hands its rates here and gets a
    /// result bit-identical to a cold [`run_with_flows`] at the same
    /// capacities and seed.
    pub fn from_solved_rates(rates: Vec<f64>, seed: u64) -> Self {
        Self::from_rates(rates, seed)
    }

    fn from_rates(mut rates: Vec<f64>, seed: u64) -> Self {
        // Apply measurement noise deterministically.
        let mut rng = StreamRng::for_component(seed, "mpigraph-noise", 0);
        for r in &mut rates {
            *r *= rng.log_normal(1.0, MEASUREMENT_SIGMA);
        }
        let summary = Summary::of(&rates);
        MpiGraphResult {
            rates_gb_s: rates,
            summary,
        }
    }

    /// Histogram over `[0, hi)` GB/s with `bins` bins.
    pub fn histogram(&self, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, hi, bins);
        h.record_all(&self.rates_gb_s);
        h
    }

    /// Fraction of pairs with receive bandwidth in `[a, b)` GB/s.
    pub fn fraction_in(&self, a: f64, b: f64) -> f64 {
        let n = self.rates_gb_s.len() as f64;
        self.rates_gb_s.iter().filter(|&&r| r >= a && r < b).count() as f64 / n
    }
}

/// Solve a pre-routed mpiGraph flow set: one max-min solve plus the
/// measurement-noise packaging. Callers that already hold routed flows
/// (ablation sweeps, benches) reuse them here instead of re-routing.
pub fn run_with_flows(topo: &Topology, flows: &[Flow], seed: u64) -> MpiGraphResult {
    let alloc = solve_maxmin(topo, flows);
    let rates: Vec<f64> = alloc.rates.iter().map(|&r| r / 1e9).collect();
    MpiGraphResult::from_rates(rates, seed)
}

/// Run mpiGraph over a dragonfly with the given routing policy. Routing
/// goes through the batch API: each of the ~9k flows draws from its own
/// `(seed, index)`-keyed stream, so the routing pass parallelizes without
/// changing the result.
pub fn run_dragonfly(df: &Dragonfly, policy: RoutePolicy, seed: u64) -> MpiGraphResult {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, policy);
    let flows = router.route_all(&pairs, 0, seed);
    run_with_flows(df.topology(), &flows, seed)
}

/// Messages per pair in the per-message (DES) variant: a short
/// back-to-back window, enough to amortize the per-message overheads the
/// way mpiGraph's repeated sends do.
pub const DES_WINDOW: usize = 4;

/// Message size of the per-message variant (mpiGraph's large-message
/// regime, where the measurement is bandwidth-dominated).
pub const DES_MESSAGE: Bytes = Bytes::new(1 << 20);

/// The per-message counterpart of [`run_with_flows`]: instead of one
/// steady-state max-min solve, every pair injects a window of
/// [`DES_WINDOW`] × [`DES_MESSAGE`] back-to-back messages and the whole
/// machine is simulated message-by-message on the DES core. The per-pair
/// receive bandwidth is bytes sent over the delivery time of the pair's
/// last message.
///
/// One flat [`MessageBatch`] carries the full machine (9,472 nodes →
/// ~150k messages at Frontier scale), which is exactly the workload the
/// SoA arena + radix-heap scheduler are built for.
pub fn run_des_with_flows(topo: &Topology, flows: &[Flow], seed: u64) -> MpiGraphResult {
    let batch = des_batch(flows);
    let deliveries = simulate(topo, &DesConfig::default(), &batch);
    des_result(flows.len(), &deliveries, seed)
}

/// The mpiGraph DES workload: every flow injects [`DES_WINDOW`] ×
/// [`DES_MESSAGE`] back-to-back messages tagged by flow index.
fn des_batch(flows: &[Flow]) -> MessageBatch {
    let pool: usize = flows.iter().map(|f| f.path.len()).sum();
    let mut batch = MessageBatch::with_capacity(flows.len() * DES_WINDOW, pool);
    for (i, f) in flows.iter().enumerate() {
        let span = batch.intern(&f.path);
        for _ in 0..DES_WINDOW {
            batch.push(span, DES_MESSAGE, SimTime::ZERO, i as u64);
        }
    }
    batch
}

/// Per-pair receive bandwidth from the delivery times of each flow's
/// window: bytes sent over the arrival of the flow's last message.
fn des_result(n_flows: usize, deliveries: &[Delivery], seed: u64) -> MpiGraphResult {
    let mut last = vec![SimTime::ZERO; n_flows];
    for d in deliveries {
        let i = d.tag as usize;
        last[i] = last[i].max(d.arrival);
    }
    let sent = DES_WINDOW as f64 * DES_MESSAGE.as_f64();
    let rates: Vec<f64> = last.iter().map(|&t| sent / t.as_secs_f64() / 1e9).collect();
    MpiGraphResult::from_rates(rates, seed)
}

/// Per-message mpiGraph over a dragonfly: same pair generation and
/// routing as [`run_dragonfly`], simulated on the DES core instead of the
/// steady-state solver.
pub fn run_dragonfly_des(df: &Dragonfly, policy: RoutePolicy, seed: u64) -> MpiGraphResult {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, policy);
    let flows = router.route_all(&pairs, 0, seed);
    run_des_with_flows(df.topology(), &flows, seed)
}

/// Run mpiGraph over a fat-tree.
pub fn run_fattree(ft: &FatTree, seed: u64) -> MpiGraphResult {
    let n = ft.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 1);
    let pairs = mpigraph_pairs(n, &mut rng);
    let flows = ft.flows_for_pairs(&pairs, 0);
    run_with_flows(ft.topology(), &flows, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyParams;
    use crate::fattree::FatTreeParams;

    /// A mid-size dragonfly with Frontier's ratios for fast tests:
    /// 16 groups x 8 switches x 8 endpoints = 1024 endpoints.
    fn test_df() -> Dragonfly {
        Dragonfly::build(DragonflyParams::scaled(16, 8, 8))
    }

    #[test]
    fn dragonfly_distribution_is_wide_fattree_tight() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 7);
        let ft = FatTree::build(FatTreeParams::scaled(32, 32));
        let f = run_fattree(&ft, 7);
        let d_cv = d.summary.std_dev / d.summary.mean;
        let f_cv = f.summary.std_dev / f.summary.mean;
        assert!(
            d_cv > 3.0 * f_cv,
            "dragonfly CV {d_cv} should dwarf fat-tree CV {f_cv}"
        );
    }

    #[test]
    fn fattree_pairs_land_near_8_5() {
        let ft = FatTree::build(FatTreeParams::scaled(32, 32));
        let f = run_fattree(&ft, 3);
        assert!(
            (f.summary.mean - 8.5).abs() < 0.3,
            "mean {}",
            f.summary.mean
        );
        // "Nearly all of Summit's traffic achieves this level".
        assert!(f.fraction_in(7.5, 9.5) > 0.95);
    }

    #[test]
    fn dragonfly_intra_group_pairs_reach_nic_rate() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 11);
        let max = d.summary.max;
        assert!((16.0..19.0).contains(&max), "max {max}");
        // Intra-group pairs exist but are rare (~ eps_per_group/total).
        let frac_fast = d.fraction_in(16.0, 20.0);
        assert!(
            frac_fast > 0.0 && frac_fast < 0.2,
            "fast fraction {frac_fast}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let df = test_df();
        let a = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        assert_eq!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn different_seeds_differ() {
        let df = test_df();
        let a = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly(&df, RoutePolicy::adaptive_default(), 6);
        assert_ne!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn minimal_routing_raises_floor_on_benign_traffic() {
        // With random pairs (benign), minimal routing loads each pipe less
        // than Valiant detours do.
        let df = test_df();
        let min = run_dragonfly(&df, RoutePolicy::Minimal, 9);
        let val = run_dragonfly(&df, RoutePolicy::Valiant, 9);
        assert!(min.summary.mean > val.summary.mean);
    }

    #[test]
    fn des_run_is_deterministic() {
        let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
        let a = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 5);
        assert_eq!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn des_rates_are_physical() {
        // Per-message rates stay positive and below NIC line rate (plus
        // measurement noise): serialization and overheads cap each pair.
        let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
        let d = run_dragonfly_des(&df, RoutePolicy::Minimal, 5);
        assert_eq!(d.rates_gb_s.len(), df.params().total_endpoints());
        let line = df
            .topology()
            .link(df.topology().injection_link(crate::topology::EndpointId(0)))
            .capacity
            .as_bytes_per_sec()
            / 1e9;
        for &r in &d.rates_gb_s {
            assert!(r > 0.0 && r < line * 1.2, "rate {r} vs line {line}");
        }
    }

    #[test]
    fn des_contention_spreads_the_distribution() {
        // Shared links serialize windows, so the per-message distribution
        // is wider than a single spike: min visibly below max.
        let df = test_df();
        let d = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 7);
        assert!(
            d.summary.min < 0.8 * d.summary.max,
            "min {} max {}",
            d.summary.min,
            d.summary.max
        );
    }

    #[test]
    fn histogram_mass_conserved() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 13);
        let h = d.histogram(20.0, 40);
        assert_eq!(h.count() as usize, d.rates_gb_s.len());
    }
}
