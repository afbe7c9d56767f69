//! Property-based tests for the message-level DES and the collectives.
//!
//! The SoA core on the radix-heap `Simulator` is pinned against the
//! pre-rewrite per-`Message` oracle on the binary-heap `EventQueue`
//! ([`simulate_reference`]): they must agree delivery-for-delivery,
//! bit-identically, on small random batches and on a 1,024-endpoint
//! mpiGraph batch.

use frontier_fabric::collectives::{AllreduceAlgo, Collectives};
use frontier_fabric::des::{
    makespan, simulate, simulate_reference, DesConfig, Message, MessageBatch,
};
use frontier_fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_fabric::mpigraph::{DES_MESSAGE, DES_WINDOW};
use frontier_fabric::patterns::mpigraph_pairs;
use frontier_fabric::routing::{RoutePolicy, Router};
use frontier_fabric::topology::EndpointId;
use frontier_sim_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn df() -> Dragonfly {
    Dragonfly::build(DragonflyParams::scaled(4, 4, 4))
}

/// Route `n_msgs` random same-size messages over the dragonfly, returning
/// both the boxed-message and SoA-batch representations of the same batch.
fn random_batch(
    df: &Dragonfly,
    n_msgs: usize,
    size_kib: u64,
    max_skew_ns: u64,
    seed: u64,
) -> (Vec<Message>, MessageBatch) {
    let router = Router::new(df, RoutePolicy::Minimal);
    let mut rng = StreamRng::from_seed(seed);
    let ne = df.params().total_endpoints();
    let msgs: Vec<Message> = (0..n_msgs)
        .map(|i| {
            let s = rng.index(ne);
            let mut d = rng.index(ne);
            if d == s {
                d = (d + 1) % ne;
            }
            let inject = if max_skew_ns == 0 {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(rng.int_range(0, max_skew_ns + 1))
            };
            Message {
                path: router
                    .route(EndpointId(s as u32), EndpointId(d as u32), &mut rng)
                    .into(),
                size: Bytes::kib(size_kib),
                inject_at: inject,
                tag: i as u64,
            }
        })
        .collect();
    let batch = MessageBatch::from_messages(&msgs);
    (msgs, batch)
}

/// The SoA core matches the oracle on the 1,024-endpoint mpiGraph batch
/// (`bench_des`'s subset scale): every endpoint sends a window of
/// `DES_WINDOW` x `DES_MESSAGE` messages to one partner over an adaptive
/// route, all injected at t = 0. Large enough that the radix heap spreads
/// events over many buckets, and the injection burst is one big tie.
#[test]
fn soa_core_matches_reference_on_mpigraph_subset() {
    let df = Dragonfly::build(DragonflyParams::scaled(16, 8, 8));
    let n = df.params().total_endpoints();
    assert_eq!(n, 1_024);
    let mut rng = StreamRng::for_component(7, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let flows = Router::new(&df, RoutePolicy::adaptive_default()).route_all(&pairs, 0, 7);
    let mut msgs = Vec::with_capacity(flows.len() * DES_WINDOW);
    let mut batch = MessageBatch::new();
    for (i, f) in flows.iter().enumerate() {
        let path: Arc<[_]> = Arc::from(&f.path[..]);
        let span = batch.intern(&path);
        for _ in 0..DES_WINDOW {
            msgs.push(Message::on(
                path.clone(),
                DES_MESSAGE,
                SimTime::ZERO,
                i as u64,
            ));
            batch.push(span, DES_MESSAGE, SimTime::ZERO, i as u64);
        }
    }
    assert_eq!(batch.total_hops(), 22_668);
    let cfg = DesConfig::default();
    assert_eq!(
        simulate(df.topology(), &cfg, &batch),
        simulate_reference(df.topology(), &cfg, &msgs)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every message arrives no earlier than its contention-free lower
    /// bound: overheads + serialization on each hop + hop latencies.
    #[test]
    fn delivery_respects_lower_bound(
        n_msgs in 1usize..20,
        size_kib in 1u64..10_000,
        seed in 0u64..500,
    ) {
        let df = df();
        let cfg = DesConfig::default();
        let (msgs, batch) = random_batch(&df, n_msgs, size_kib, 0, seed);
        let deliveries = simulate(df.topology(), &cfg, &batch);
        for (m, d) in msgs.iter().zip(&deliveries) {
            let mut bound = cfg.send_overhead + cfg.recv_overhead;
            for l in m.path.iter() {
                bound += df.topology().link(*l).capacity.time_for(m.size);
            }
            bound += SimTime::from_picos(
                (m.path.len() as u64 - 1) * cfg.hop_latency.as_picos(),
            );
            prop_assert!(
                d.arrival >= bound,
                "msg {} arrived {} before bound {}",
                m.tag,
                d.arrival,
                bound
            );
        }
    }

    /// The SoA arena core reproduces the pre-rewrite per-`Message`
    /// implementation exactly: same deliveries, same order, same
    /// picosecond arrivals — including injection-time skew, which
    /// exercises same-instant event ties.
    #[test]
    fn soa_core_matches_reference_oracle(
        n_msgs in 1usize..40,
        size_kib in 1u64..4_096,
        skew_ns in 0u64..2_000,
        seed in 0u64..1_000,
    ) {
        let df = df();
        let cfg = DesConfig::default();
        let (msgs, batch) = random_batch(&df, n_msgs, size_kib, skew_ns, seed);
        let oracle = simulate_reference(df.topology(), &cfg, &msgs);
        let soa = simulate(df.topology(), &cfg, &batch);
        prop_assert_eq!(soa, oracle);
    }

    /// Adding a message never speeds up the rest of the batch (FIFO work
    /// conservation).
    #[test]
    fn extra_message_never_helps(size_kib in 1u64..1_000, seed in 0u64..200) {
        let df = df();
        let cfg = DesConfig::default();
        let router = Router::new(&df, RoutePolicy::Minimal);
        let mut rng = StreamRng::from_seed(seed);
        let mut base = MessageBatch::new();
        let mut with_extra = MessageBatch::new();
        let add = |s: u32, d: u32, rng: &mut StreamRng, batches: &mut [&mut MessageBatch]| {
            let path = router.route(EndpointId(s), EndpointId(d), rng);
            for b in batches {
                b.push_path(&path, Bytes::kib(size_kib), SimTime::ZERO, 0);
            }
        };
        add(0, 20, &mut rng, &mut [&mut base, &mut with_extra]);
        add(1, 21, &mut rng, &mut [&mut base, &mut with_extra]);
        add(2, 20, &mut rng, &mut [&mut with_extra]); // contends at the destination switch
        let t_base = makespan(df.topology(), &cfg, &base);
        let t_extra = makespan(df.topology(), &cfg, &with_extra);
        prop_assert!(t_extra >= t_base);
    }

    /// Allreduce time is monotone in message size for both algorithms.
    #[test]
    fn allreduce_monotone_in_size(log_size in 3u32..22, ranks in 4usize..24) {
        let df = df();
        let eps: Vec<EndpointId> = (0..ranks as u32).map(EndpointId).collect();
        let c = Collectives::new(&df, eps, RoutePolicy::Minimal, 7);
        for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Ring] {
            let small = c.allreduce(Bytes::new(1 << log_size), algo);
            let large = c.allreduce(Bytes::new(1 << (log_size + 1)), algo);
            prop_assert!(large >= small, "{algo:?}");
        }
    }

    /// Broadcast reaches everyone in ceil(log2(p)) rounds of positive time.
    #[test]
    fn broadcast_time_grows_with_ranks(ranks in 2usize..30) {
        let df = df();
        let eps: Vec<EndpointId> = (0..ranks as u32).map(EndpointId).collect();
        let c = Collectives::new(&df, eps, RoutePolicy::Minimal, 3);
        let t = c.broadcast(Bytes::kib(4));
        prop_assert!(t > SimTime::ZERO);
        if ranks >= 4 {
            let eps2: Vec<EndpointId> = (0..(ranks / 2) as u32).map(EndpointId).collect();
            let c2 = Collectives::new(&df, eps2, RoutePolicy::Minimal, 3);
            prop_assert!(t >= c2.broadcast(Bytes::kib(4)));
        }
    }
}
