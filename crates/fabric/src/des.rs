//! Message-level discrete-event network simulation.
//!
//! The max-min solver ([`crate::maxmin`]) answers *steady-state* bandwidth
//! questions; this module answers *timing* questions: when does each
//! message of a communication round arrive, given store-and-forward
//! serialization on every link, per-link FIFO queueing, and per-hop switch
//! latency. It drives the collective-algorithm models
//! ([`crate::collectives`]) and any experiment that needs message
//! completion times rather than sustained rates.
//!
//! The model is store-and-forward at message granularity: a message
//! occupies a link for `size / capacity`, then pays the hop latency to
//! reach the next link's queue. (Real Slingshot is cut-through at packet
//! granularity; for the ≤ MiB messages of the collectives studied here the
//! difference is a constant factor absorbed in the calibrated hop latency.)
//!
//! ## Data-oriented hot path
//!
//! The simulation core is laid out struct-of-arrays. Message paths live in
//! one flat [`LinkId`] pool addressed by `(offset, len)` spans
//! ([`PathSpan`]), message state (size, injection time, tag) in parallel
//! flat arrays ([`MessageBatch`]), and per-link FIFO state in a flat
//! `free_at` array indexed by the dense link id. An in-flight message is a
//! single 8-byte `(msg, cursor)` event; processing a hop touches four
//! arrays and performs one float divide — no pointer chasing, no hashing,
//! and no allocation. Events go through the workspace's one production
//! scheduler, the radix-heap [`Simulator`], which delivers same-instant
//! events in scheduling order.
//!
//! The pre-rewrite per-`Message` implementation is kept as
//! [`simulate_reference`], scheduling through the binary-heap
//! [`EventQueue`] so it shares no scheduler code with [`simulate`];
//! property tests pin the SoA core to it delivery-for-delivery.

use crate::topology::{Flow, LinkId, Topology};
use frontier_sim_core::metrics;
use frontier_sim_core::prelude::*;
use std::sync::Arc;

/// Timing parameters of the message simulation.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// Per-hop propagation + switch pipeline latency.
    pub hop_latency: SimTime,
    /// Sender-side software/NIC overhead per message.
    pub send_overhead: SimTime,
    /// Receiver-side overhead per message.
    pub recv_overhead: SimTime,
}

impl Default for DesConfig {
    fn default() -> Self {
        // Consistent with the LatencyModel calibration: 2 x 0.95 us NIC
        // overhead and 0.175 us per switch.
        DesConfig {
            hop_latency: SimTime::from_nanos(175),
            send_overhead: SimTime::from_nanos(950),
            recv_overhead: SimTime::from_nanos(950),
        }
    }
}

/// A message to inject: a routed path plus a size and an injection time.
///
/// This is the boxed, per-message representation used by the reference
/// simulation ([`simulate_reference`]) and as a convenience input to
/// [`MessageBatch::from_messages`]. The hot path does not allocate these:
/// batch call sites intern paths into a [`MessageBatch`] directly.
#[derive(Debug, Clone)]
pub struct Message {
    /// Routed path (directed links, in order), shared between messages.
    pub path: Arc<[LinkId]>,
    pub size: Bytes,
    pub inject_at: SimTime,
    /// Caller-defined tag returned with the delivery.
    pub tag: u64,
}

impl Message {
    /// Build a message over an already-routed flow (copies the path once;
    /// reuse the returned message's `path` — or [`Message::on`] — to share
    /// it across a batch).
    pub fn over(flow: &Flow, size: Bytes, inject_at: SimTime, tag: u64) -> Self {
        Message {
            path: Arc::from(&flow.path[..]),
            size,
            inject_at,
            tag,
        }
    }

    /// Build a message over an already-shared path without copying it.
    pub fn on(path: Arc<[LinkId]>, size: Bytes, inject_at: SimTime, tag: u64) -> Self {
        Message {
            path,
            size,
            inject_at,
            tag,
        }
    }
}

/// A handle to a path interned in a [`MessageBatch`]'s flat link pool:
/// `(offset, len)` into the pool, 8 bytes, freely copyable. Spans stay
/// valid across [`MessageBatch::clear`], which makes them ideal cache
/// values for call sites that route once and inject many times (see
/// [`crate::collectives`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSpan {
    off: u32,
    len: u32,
}

impl PathSpan {
    /// Number of links in the path.
    pub fn len(self) -> u32 {
        self.len
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A struct-of-arrays batch of messages: one flat [`LinkId`] pool holding
/// every distinct routed path once, plus parallel per-message arrays for
/// the path span, size, injection time, and tag.
///
/// Compared to a `Vec<Message>`, a batch of *n* messages over *p* distinct
/// paths costs *p* pool writes plus 4 flat-array pushes per message —
/// no per-message `Arc` allocation or refcounting — and the simulation
/// core reads it with dense indexed loads only.
///
/// [`MessageBatch::clear`] drops the messages but keeps the interned pool,
/// so a call site that repeatedly injects rounds over the same routes
/// (collectives, mpiGraph windows) reuses both the path memory and the
/// [`PathSpan`] handles across rounds.
#[derive(Debug, Clone, Default)]
pub struct MessageBatch {
    /// Flat pool of directed links; each message's path is one contiguous
    /// slice of this pool.
    path_pool: Vec<LinkId>,
    /// Per-message span start in `path_pool`.
    span_off: Vec<u32>,
    /// Per-message span end (exclusive) in `path_pool`.
    span_end: Vec<u32>,
    sizes: Vec<Bytes>,
    inject_at: Vec<SimTime>,
    tags: Vec<u64>,
}

impl MessageBatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch pre-sized for `messages` messages over `pool_links` total
    /// pooled path links.
    pub fn with_capacity(messages: usize, pool_links: usize) -> Self {
        MessageBatch {
            path_pool: Vec::with_capacity(pool_links),
            span_off: Vec::with_capacity(messages),
            span_end: Vec::with_capacity(messages),
            sizes: Vec::with_capacity(messages),
            inject_at: Vec::with_capacity(messages),
            tags: Vec::with_capacity(messages),
        }
    }

    /// Copy `path` into the pool and return its span. Each call appends —
    /// callers that reuse a route should intern once and reuse the span.
    ///
    /// # Panics
    /// Panics on an empty path: a message must traverse at least one link.
    pub fn intern(&mut self, path: &[LinkId]) -> PathSpan {
        assert!(!path.is_empty(), "message with empty path");
        let off = u32::try_from(self.path_pool.len())
            // simlint::allow(panic-in-lib): a >4-billion-link path pool is unrepresentable workload, not a recoverable error
            .expect("path pool exceeds u32 index space");
        self.path_pool.extend_from_slice(path);
        PathSpan {
            off,
            len: path.len() as u32,
        }
    }

    /// Append a message over an already-interned span.
    pub fn push(&mut self, span: PathSpan, size: Bytes, inject_at: SimTime, tag: u64) {
        debug_assert!((span.off + span.len) as usize <= self.path_pool.len());
        self.span_off.push(span.off);
        self.span_end.push(span.off + span.len);
        self.sizes.push(size);
        self.inject_at.push(inject_at);
        self.tags.push(tag);
    }

    /// Intern `path` and append one message over it.
    pub fn push_path(&mut self, path: &[LinkId], size: Bytes, inject_at: SimTime, tag: u64) {
        let span = self.intern(path);
        self.push(span, size, inject_at, tag);
    }

    /// Build a batch from boxed messages (compatibility shim; paths are
    /// interned per message, without deduplication).
    pub fn from_messages(messages: &[Message]) -> Self {
        let pool: usize = messages.iter().map(|m| m.path.len()).sum();
        let mut b = MessageBatch::with_capacity(messages.len(), pool);
        for m in messages {
            b.push_path(&m.path, m.size, m.inject_at, m.tag);
        }
        b
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Total links held in the path pool (across all interned paths).
    pub fn pool_len(&self) -> usize {
        self.path_pool.len()
    }

    /// Drop all messages but keep the interned path pool, so previously
    /// returned [`PathSpan`]s remain valid for the next round.
    pub fn clear(&mut self) {
        self.span_off.clear();
        self.span_end.clear();
        self.sizes.clear();
        self.inject_at.clear();
        self.tags.clear();
    }

    /// Total hop events this batch will generate (sum of path lengths).
    pub fn total_hops(&self) -> u64 {
        self.span_off
            .iter()
            .zip(&self.span_end)
            .map(|(&o, &e)| u64::from(e - o))
            .sum()
    }
}

/// Delivery record for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    pub tag: u64,
    pub arrival: SimTime,
}

/// DES event: message `msg` has reached the link at absolute pool index
/// `cursor` of its path. 8 bytes; the whole in-flight state of a message.
#[derive(Debug, Clone, Copy)]
struct Hop {
    msg: u32,
    cursor: u32,
}

/// Simulate the delivery of a batch of messages over the topology.
///
/// Links are FIFO servers: a message begins serialization when both it has
/// fully arrived at the link's input and the link is free. Returns one
/// [`Delivery`] per message, in input order.
pub fn simulate(topo: &Topology, cfg: &DesConfig, batch: &MessageBatch) -> Vec<Delivery> {
    // The injection burst: every message is queued up front, and each
    // delivery schedules at most one follow-up hop.
    let mut sim = Simulator::new();
    for i in 0..batch.len() {
        assert!(
            batch.span_end[i] > batch.span_off[i],
            "message with empty path"
        );
        sim.schedule_at(
            batch.inject_at[i] + cfg.send_overhead,
            Hop {
                msg: i as u32,
                cursor: batch.span_off[i],
            },
        );
    }

    // Flat per-link state, indexed by the dense LinkId. The bytes-per-sec
    // capacities are pre-converted so serialization time is one divide
    // (bit-identical to `Bandwidth::time_for`).
    let mut free_at = vec![SimTime::ZERO; topo.num_links() as usize];
    let cap_bps: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| l.capacity.as_bytes_per_sec())
        .collect();
    let size_f64: Vec<f64> = batch.sizes.iter().map(|s| s.as_f64()).collect();
    let mut arrivals = vec![SimTime::MAX; batch.len()];

    // The hot loop: serialize each message across each link of its span
    // in FIFO order. Per event: four dense array accesses and one float
    // divide.
    let pool = &batch.path_pool[..];
    let span_end = &batch.span_end[..];
    sim.run(|sim, t, Hop { msg, cursor }| {
        let m = msg as usize;
        let link = pool[cursor as usize].0 as usize;
        let start = t.max(free_at[link]);
        let done = start + SimTime::from_secs_f64(size_f64[m] / cap_bps[link]);
        free_at[link] = done;
        let next = cursor + 1;
        if next < span_end[m] {
            sim.schedule_at(done + cfg.hop_latency, Hop { msg, cursor: next });
        } else {
            arrivals[m] = done + cfg.recv_overhead;
        }
        true
    });

    if let Some(m) = metrics::active() {
        m.counter("fabric.des.messages").add(batch.len() as u64);
        m.counter("fabric.des.events").add(batch.total_hops());
        let makespan = arrivals.iter().fold(SimTime::ZERO, |a, &t| a.max(t));
        m.max_gauge("fabric.des.makespan_ns_max")
            .observe(makespan.as_nanos_f64());
    }

    arrivals
        .into_iter()
        .zip(&batch.tags)
        .map(|(arrival, &tag)| Delivery { tag, arrival })
        .collect()
}

/// The pre-rewrite per-`Message` simulation, kept as the oracle the SoA
/// core is property-tested against (same pattern as
/// `solve_maxmin_reference`). It drives the binary-heap [`EventQueue`]
/// directly, so it shares no scheduler code with [`simulate`]. Pure —
/// records no metrics.
pub fn simulate_reference(topo: &Topology, cfg: &DesConfig, messages: &[Message]) -> Vec<Delivery> {
    /// Reference DES event: message `msg` arriving at hop `hop` of its path.
    #[derive(Debug, Clone, Copy)]
    struct RefHop {
        msg: usize,
        hop: usize,
    }

    let mut link_free = vec![SimTime::ZERO; topo.num_links() as usize];
    let mut arrivals = vec![SimTime::MAX; messages.len()];
    let mut queue = EventQueue::with_capacity(messages.len());

    for (i, m) in messages.iter().enumerate() {
        assert!(!m.path.is_empty(), "message with empty path");
        queue.push(m.inject_at + cfg.send_overhead, RefHop { msg: i, hop: 0 });
    }

    while let Some((t, RefHop { msg, hop })) = queue.pop() {
        let m = &messages[msg];
        let link = m.path[hop];
        let cap = topo.link(link).capacity;
        let start = t.max(link_free[link.0 as usize]);
        let done = start + cap.time_for(m.size);
        link_free[link.0 as usize] = done;
        if hop + 1 < m.path.len() {
            queue.push(done + cfg.hop_latency, RefHop { msg, hop: hop + 1 });
        } else {
            arrivals[msg] = done + cfg.recv_overhead;
        }
    }

    messages
        .iter()
        .enumerate()
        .map(|(i, m)| Delivery {
            tag: m.tag,
            arrival: arrivals[i],
        })
        .collect()
}

/// Convenience: the completion time of the whole batch.
pub fn makespan(topo: &Topology, cfg: &DesConfig, batch: &MessageBatch) -> SimTime {
    simulate(topo, cfg, batch)
        .iter()
        .map(|d| d.arrival)
        .fold(SimTime::ZERO, SimTime::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SwitchId;

    /// Two endpoints on one switch, 10 GB/s links.
    fn pair() -> (Topology, Vec<LinkId>) {
        let mut t = Topology::new();
        t.add_switches(1);
        let a = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        let b = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
        let path = vec![t.injection_link(a), t.ejection_link(b)];
        (t, path)
    }

    #[test]
    fn single_message_time_decomposes() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let size = Bytes::mib(1);
        let mut batch = MessageBatch::new();
        batch.push_path(&path, size, SimTime::ZERO, 0);
        let d = simulate(&t, &cfg, &batch);
        // send + 2 serializations + 1 hop + recv.
        let ser = Bandwidth::gb_s(10.0).time_for(size);
        let expect = cfg.send_overhead + ser + cfg.hop_latency + ser + cfg.recv_overhead;
        assert_eq!(d[0].arrival, expect);
    }

    #[test]
    fn fifo_queueing_serializes_same_link() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let size = Bytes::mib(8);
        let mut batch = MessageBatch::new();
        let span = batch.intern(&path);
        for i in 0..3 {
            batch.push(span, size, SimTime::ZERO, i);
        }
        let d = simulate(&t, &cfg, &batch);
        let ser = Bandwidth::gb_s(10.0).time_for(size).as_secs_f64();
        // Arrivals spaced ~one serialization apart on the shared link.
        let a: Vec<f64> = d.iter().map(|x| x.arrival.as_secs_f64()).collect();
        assert!((a[1] - a[0] - ser).abs() < ser * 0.01, "{a:?}");
        assert!((a[2] - a[1] - ser).abs() < ser * 0.01, "{a:?}");
    }

    #[test]
    fn disjoint_paths_run_in_parallel() {
        let mut t = Topology::new();
        t.add_switches(1);
        let mut batch = MessageBatch::new();
        let mut first = MessageBatch::new();
        for i in 0..4 {
            let a = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
            let b = t.add_endpoint(SwitchId(0), Bandwidth::gb_s(10.0));
            let path = [t.injection_link(a), t.ejection_link(b)];
            batch.push_path(&path, Bytes::mib(4), SimTime::ZERO, 0);
            if i == 0 {
                first.push_path(&path, Bytes::mib(4), SimTime::ZERO, 0);
            }
        }
        let cfg = DesConfig::default();
        let all = makespan(&t, &cfg, &batch);
        let single = makespan(&t, &cfg, &first);
        assert_eq!(all, single, "disjoint transfers should not interfere");
    }

    #[test]
    fn later_injection_delays_delivery() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let run = |at| {
            let mut b = MessageBatch::new();
            b.push_path(&path, Bytes::kib(64), at, 0);
            simulate(&t, &cfg, &b)
        };
        let d0 = run(SimTime::ZERO);
        let d1 = run(SimTime::from_micros(100));
        let gap = d1[0].arrival.as_micros_f64() - d0[0].arrival.as_micros_f64();
        assert!((gap - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_message_takes_longer() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let run = |size| {
            let mut b = MessageBatch::new();
            b.push_path(&path, size, SimTime::ZERO, 0);
            simulate(&t, &cfg, &b)
        };
        let small = run(Bytes::kib(8));
        let large = run(Bytes::mib(8));
        assert!(large[0].arrival > small[0].arrival);
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn empty_path_rejected() {
        let mut b = MessageBatch::new();
        b.push_path(&[], Bytes::kib(1), SimTime::ZERO, 0);
    }

    #[test]
    fn soa_matches_reference_oracle() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let shared: Arc<[LinkId]> = path.clone().into();
        let msgs: Vec<Message> = (0..32u64)
            .map(|i| {
                Message::on(
                    shared.clone(),
                    Bytes::kib(1 + (i * 91) % 300),
                    SimTime::from_nanos(i % 3),
                    i,
                )
            })
            .collect();
        let oracle = simulate_reference(&t, &cfg, &msgs);
        let soa = simulate(&t, &cfg, &MessageBatch::from_messages(&msgs));
        assert_eq!(soa, oracle);
    }

    #[test]
    fn clear_keeps_interned_spans_valid() {
        let (t, path) = pair();
        let cfg = DesConfig::default();
        let mut batch = MessageBatch::new();
        let span = batch.intern(&path);
        batch.push(span, Bytes::kib(64), SimTime::ZERO, 1);
        let first = simulate(&t, &cfg, &batch);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.pool_len(), path.len(), "pool survives clear");
        batch.push(span, Bytes::kib(64), SimTime::ZERO, 2);
        let second = simulate(&t, &cfg, &batch);
        assert_eq!(first[0].arrival, second[0].arrival);
        assert_eq!(second[0].tag, 2);
    }
}
