//! Bit-exactness pin for the event-driven max-min engine.
//!
//! The parity proptests hold the engine to the reference solver at 1e-9,
//! which a reordered float operation slips under. This test pins the exact
//! bits instead: an FNV-1a digest over every `rate.to_bits()` of a cold
//! solve and two warm re-solves, plus their freeze-event and component
//! counts. The workload has many interference components of different
//! sizes and weights, and the warm re-solves reuse some and re-solve others,
//! so the pin covers the per-component set-up as well as the freeze loop.
//!
//! The expected values predate the engine's dense global→local maps and did
//! not move with them; an intended change to the engine's arithmetic must
//! update them and say why.

use frontier_fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_fabric::maxmin::{Allocation, VniWeights};
use frontier_fabric::patterns::{incast_pairs, mpigraph_pairs};
use frontier_fabric::routing::{RoutePolicy, Router};
use frontier_fabric::solver::{ResolveDelta, Solver};
use frontier_fabric::topology::{EndpointId, Flow, LinkId};
use frontier_sim_core::prelude::*;

const SEED: u64 = 0x5eed_b175;

fn fnv1a(rates: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rates {
        for b in r.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Per-group mpiGraph pairings under minimal routing (one or more
/// components per group), every third flow demand-limited, plus three
/// cross-group incast fans that merge a few groups into larger components.
fn workload(df: &Dragonfly) -> Vec<Flow> {
    let n = df.params().total_endpoints();
    let groups = df.params().groups;
    let mut by_group: Vec<Vec<EndpointId>> = vec![Vec::new(); groups];
    for e in 0..n as u32 {
        by_group[df.group_of(EndpointId(e))].push(EndpointId(e));
    }
    let mut rng = StreamRng::from_seed(SEED);
    let mut pairs = Vec::new();
    for members in &by_group {
        for (s, d) in mpigraph_pairs(members.len(), &mut rng) {
            pairs.push((members[s.0 as usize], members[d.0 as usize]));
        }
    }
    let minimal = Router::new(df, RoutePolicy::Minimal);
    let mut flows = minimal.route_all(&pairs, 1, SEED);
    for (i, f) in flows.iter_mut().enumerate() {
        if i % 3 == 0 {
            f.demand = Bandwidth::gb_s(2.0 + (i % 7) as f64);
        }
    }
    let adaptive = Router::new(df, RoutePolicy::adaptive_default());
    for (k, g) in [(0usize, 3usize), (1, 7), (2, 11)] {
        let dst = by_group[g][k];
        let fan = incast_pairs(&by_group[g + 1], dst, 6, &mut rng);
        flows.extend(adaptive.route_all(&fan, 2 + k as u32, SEED + k as u64));
    }
    flows
}

fn pin(a: &Allocation) -> (u64, usize, usize) {
    (fnv1a(&a.rates), a.rounds, a.components)
}

#[test]
fn solver_rates_are_bit_identical_cold_and_warm() {
    let df = Dragonfly::build(DragonflyParams::scaled(16, 4, 4));
    let flows = workload(&df);
    let nf = flows.len();
    let weights = VniWeights::from_flows(&flows);
    let mut solver = Solver::with_weights(df.topology(), flows, |f| weights.weight(f));

    let cold = solver.solve();
    assert!(cold.components > 16, "{} components", cold.components);
    let removed = solver.resolve_with(&ResolveDelta::removed_flows((nf - 6..nf).collect()));
    // Re-provision the switch-to-switch link of a few intra-group flows.
    let local: Vec<(LinkId, Bandwidth)> = [5usize, 40, 77, 150]
        .iter()
        .map(|&fi| &solver.flows()[fi].path)
        .filter(|p| p.len() == 3)
        .map(|p| (p[1], Bandwidth::gb_s(3.5)))
        .collect();
    assert!(local.len() >= 3);
    let changed = solver.resolve_with(&ResolveDelta::changed_capacities(local));

    let got = [pin(&cold), pin(&removed), pin(&changed)];
    // (rate digest, freeze events, components) per solve.
    let want = [
        (0x0c57_420e_7eba_de51, 210, 170),
        (0xb9f2_d0b2_65db_5096, 22, 179),
        (0xac92_4df6_0acd_0782, 10, 179),
    ];
    assert_eq!(got, want);
}
