//! Property-based tests for the sim-core substrate.

use frontier_sim_core::prelude::*;
use frontier_sim_core::stats::{geometric_mean, harmonic_mean};
use proptest::prelude::*;

proptest! {
    /// Events always come out of the queue in non-decreasing time order,
    /// regardless of insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_picos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Same-time events preserve insertion order (stability).
    #[test]
    fn event_queue_stable_for_ties(n in 1usize..100, t in 0u64..1000) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_picos(t), i);
        }
        let mut prev = None;
        while let Some((_, i)) = q.pop() {
            if let Some(p) = prev {
                prop_assert!(i > p);
            }
            prev = Some(i);
        }
    }

    /// Scheduler parity: the radix-heap `Simulator` delivers a random
    /// causal interleaving of pushes and pops exactly like the binary-heap
    /// `EventQueue` oracle — same `(time, payload)` at every pop. Each
    /// push lands at `now + delta`, with `delta` drawn below `2^e` for an
    /// exponent `e` in 0..=62 (so every radix bucket sees traffic) and
    /// rounded down to a multiple of `2^tie_shift`; all times then sit on
    /// one coarse grid and same-instant ties are common.
    #[test]
    fn simulator_matches_heap_interleaved(
        ops in proptest::collection::vec((0u64..1 << 62, 0u32..96), 1..400),
        tie_shift in 0u32..12,
    ) {
        let mut sim: Simulator<u64> = Simulator::new();
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut payload = 0u64;
        for &(r, k) in &ops {
            if k < 32 {
                let got = sim.pop();
                prop_assert_eq!(got, heap.pop(), "pop diverged");
                if let Some((t, _)) = got {
                    prop_assert_eq!(sim.now(), t);
                }
            } else {
                let e = (k - 32).min(62);
                let delta = ((r >> (62 - e)) >> tie_shift) << tie_shift;
                // Near the top of the time axis, skip pushes that overflow.
                let Some(t) = sim.now().as_picos().checked_add(delta) else {
                    continue;
                };
                let t = SimTime::from_picos(t);
                sim.schedule_at(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
        }
        loop {
            let (a, b) = (sim.pop(), heap.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Same-instant bursts — the t = 0 injection burst of a message-level
    /// simulation — drain in exact insertion order, also when a second
    /// burst at the same instant is pushed after some of the first popped.
    #[test]
    fn simulator_matches_heap_same_instant_burst(
        n in 1usize..300,
        refill in 0usize..300,
        pops_between in 0usize..300,
        t in 0u64..1 << 62,
    ) {
        let mut sim: Simulator<usize> = Simulator::new();
        let mut heap: EventQueue<usize> = EventQueue::new();
        let t = SimTime::from_picos(t);
        for i in 0..n {
            sim.schedule_at(t, i);
            heap.push(t, i);
        }
        for _ in 0..pops_between.min(n) {
            prop_assert_eq!(sim.pop(), heap.pop());
        }
        for i in n..n + refill {
            sim.schedule_at(t, i);
            heap.push(t, i);
        }
        for _ in 0..n + refill - pops_between.min(n) {
            prop_assert_eq!(sim.pop(), heap.pop());
        }
        prop_assert_eq!(sim.pop(), None);
        prop_assert!(heap.is_empty());
    }

    /// After every pop, events scheduled at exactly `now` queue behind the
    /// events already pending at that instant and ahead of later ones.
    #[test]
    fn simulator_matches_heap_push_at_now_after_pop(
        times in proptest::collection::vec(0u64..64, 1..100),
        at_now in proptest::collection::vec(0u32..4, 1..100),
    ) {
        let mut sim: Simulator<u64> = Simulator::new();
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut payload = 0u64;
        for &t in &times {
            let t = SimTime::from_nanos(t);
            sim.schedule_at(t, payload);
            heap.push(t, payload);
            payload += 1;
        }
        let mut step = 0;
        while let Some(got) = sim.pop() {
            prop_assert_eq!(Some(got), heap.pop());
            // Bounded: stop feeding once 500 events have been scheduled.
            if payload < 500 {
                for _ in 0..at_now[step % at_now.len()] {
                    sim.schedule_in(SimTime::ZERO, payload);
                    heap.push(got.0, payload);
                    payload += 1;
                }
            }
            step += 1;
        }
        prop_assert!(heap.is_empty());
    }

    /// OnlineStats::merge is associative with sequential pushes.
    #[test]
    fn online_stats_merge_matches_sequential(
        data in proptest::collection::vec(-1e6f64..1e6, 2..300),
        split in 0usize..300,
    ) {
        let split = split.min(data.len());
        let mut whole = OnlineStats::new();
        for &x in &data { whole.push(x); }
        let (l, r) = data.split_at(split);
        let mut a = OnlineStats::new();
        for &x in l { a.push(x); }
        let mut b = OnlineStats::new();
        for &x in r { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    /// Percentiles are monotone in q and bounded by min/max.
    #[test]
    fn percentile_monotone(data in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let p0 = percentile(&data, 0.0);
        let p50 = percentile(&data, 50.0);
        let p99 = percentile(&data, 99.0);
        let p100 = percentile(&data, 100.0);
        prop_assert!(p0 <= p50 && p50 <= p99 && p99 <= p100);
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(p0, min);
        prop_assert_eq!(p100, max);
    }

    /// Histogram conserves observations: bins + underflow + overflow = count.
    #[test]
    fn histogram_conserves_mass(data in proptest::collection::vec(-10.0f64..20.0, 0..500)) {
        let mut h = Histogram::new(0.0, 10.0, 13);
        h.record_all(&data);
        let binned: u64 = h.bins().map(|(_, c)| c).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), h.count());
        prop_assert_eq!(h.count(), data.len() as u64);
    }

    /// Pairings are fixed-point-free permutations for any n >= 2.
    #[test]
    fn pairing_is_valid(seed in 0u64..1000, n in 2usize..64) {
        let mut rng = StreamRng::from_seed(seed);
        let p = rng.pairing(n);
        let mut seen = vec![false; n];
        for (i, &t) in p.iter().enumerate() {
            prop_assert_ne!(i, t);
            prop_assert!(!seen[t]);
            seen[t] = true;
        }
    }

    /// AM >= GM >= HM for positive data.
    #[test]
    fn mean_inequality(data in proptest::collection::vec(1e-3f64..1e6, 1..50)) {
        let am = data.iter().sum::<f64>() / data.len() as f64;
        let gm = geometric_mean(&data);
        let hm = harmonic_mean(&data);
        prop_assert!(am >= gm * (1.0 - 1e-9));
        prop_assert!(gm >= hm * (1.0 - 1e-9));
    }

    /// Bandwidth::time_for is exact: moving B bytes at R B/s takes B/R secs.
    #[test]
    fn bandwidth_time_roundtrip(bytes in 1u64..1_000_000_000, gbps in 1.0f64..1000.0) {
        let bw = Bandwidth::gb_s(gbps);
        let t = bw.time_for(Bytes::new(bytes));
        let expect = bytes as f64 / (gbps * 1e9);
        prop_assert!((t.as_secs_f64() - expect).abs() <= 2e-12 + expect * 1e-9);
    }

    /// StreamRng is reproducible: same derivation triple, same stream.
    #[test]
    fn rng_streams_reproducible(seed in 0u64..u64::MAX, idx in 0u64..1000) {
        let a: Vec<u64> = {
            let mut r = StreamRng::for_component(seed, "t", idx);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StreamRng::for_component(seed, "t", idx);
            (0..8).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
    }
}
