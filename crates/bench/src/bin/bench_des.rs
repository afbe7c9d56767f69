//! Per-message DES throughput harness and regression gate.
//!
//! Drives the data-oriented DES core (`fabric::des`) with mpiGraph-shaped
//! per-message workloads at three scales — small (64 endpoints), subset
//! (1,024 endpoints), and the full machine (9,472 nodes / 37,888
//! endpoints) — plus the full-scale GPCNeT victim multiple-allreduce, and
//! times the production core (`simulate`: SoA arena on the radix-heap
//! `Simulator`) against the oracle (`simulate_reference`: per-`Message`
//! on the binary-heap `EventQueue`).
//!
//! Two gates, mirroring `solver_regression`:
//!
//! 1. **Parity**: `simulate` and `simulate_reference` must produce
//!    bit-identical deliveries at every measured scale. Both delivery
//!    dumps are also written to `target/des_parity_{reference,simulate}.txt`
//!    so CI can `cmp` them as an artifact-level gate.
//! 2. **Performance**: `simulate` must run at least
//!    [`MIN_SPEEDUP_VS_REFERENCE`] times faster than the oracle at the
//!    largest measured scale, and a full (non `--quick`) run must sustain
//!    at least [`MIN_HOP_EVENTS_PER_SEC`] hop-events/sec single-threaded.
//!
//! `--quick` (the CI mode) runs the small and subset scales only and
//! skips the JSON artifact; a full run also rewrites `BENCH_des.json` at
//! the workspace root with the measured throughput trajectory.

use frontier_core::fabric::des::{simulate, simulate_reference, DesConfig, Message, MessageBatch};
use frontier_core::fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_core::fabric::gpcnet::{victim_allreduce_des, GpcnetConfig};
use frontier_core::fabric::mpigraph::{DES_MESSAGE, DES_WINDOW};
use frontier_core::fabric::patterns::mpigraph_pairs;
use frontier_core::fabric::routing::{RoutePolicy, Router};
use frontier_core::sim_core::metrics;
use frontier_core::sim_core::rng::StreamRng;
use frontier_core::sim_core::time::SimTime;
use frontier_core::sim_core::units::Bytes;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
// simlint::allow(wallclock): this binary *is* a wall-clock benchmark (hop-events/sec throughput gate); its timings feed a JSON artifact, never byte-compared simulation state
use std::time::Instant;

/// Minimum speedup of `simulate` over `simulate_reference` at the largest
/// measured scale.
const MIN_SPEEDUP_VS_REFERENCE: f64 = 1.5;

/// Throughput floor for a full run (hop events per second, one thread).
const MIN_HOP_EVENTS_PER_SEC: f64 = 10.0e6;

const SEED: u64 = 7;

/// One measured scale point.
struct ScalePoint {
    name: &'static str,
    endpoints: usize,
    messages: usize,
    hop_events: u64,
    reference_ns: f64,
    simulate_ns: f64,
}

impl ScalePoint {
    fn reference_heps(&self) -> f64 {
        self.hop_events as f64 / (self.reference_ns / 1e9)
    }
    fn simulate_heps(&self) -> f64 {
        self.hop_events as f64 / (self.simulate_ns / 1e9)
    }
}

/// The mpiGraph per-message workload on `df`: every endpoint sends a
/// window of `DES_WINDOW` × `DES_MESSAGE` messages to one random partner
/// (same pair generation as `mpigraph::run_dragonfly_des`), as the oracle's
/// boxed messages and as the production batch.
fn mpigraph_workload(df: &Dragonfly) -> (Vec<Message>, MessageBatch) {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(SEED, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, RoutePolicy::adaptive_default());
    let flows = router.route_all(&pairs, 0, SEED);
    let pool: usize = flows.iter().map(|f| f.path.len()).sum();
    let mut msgs = Vec::with_capacity(flows.len() * DES_WINDOW);
    let mut batch = MessageBatch::with_capacity(flows.len() * DES_WINDOW, pool);
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
    (msgs, batch)
}

fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            // simlint::allow(wallclock): the measurement this benchmark exists to take
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Time the production core and the oracle on one scale, check delivery
/// parity, and append both delivery dumps to the parity artifacts.
fn measure(
    name: &'static str,
    df: &Dragonfly,
    reps: usize,
    reference_dump: &mut String,
    simulate_dump: &mut String,
) -> Result<ScalePoint, String> {
    let cfg = DesConfig::default();
    let (msgs, batch) = mpigraph_workload(df);
    let topo = df.topology();

    let fast = simulate(topo, &cfg, &batch);
    let oracle = simulate_reference(topo, &cfg, &msgs);
    if fast != oracle {
        return Err(format!(
            "{name}: simulate and simulate_reference deliveries diverge"
        ));
    }
    for (dump, rows) in [
        (&mut *reference_dump, &oracle),
        (&mut *simulate_dump, &fast),
    ] {
        let _ = writeln!(dump, "# scale {name}");
        for d in rows.iter() {
            let _ = writeln!(dump, "{} {}", d.tag, d.arrival.as_picos());
        }
    }

    let simulate_ns = median_ns(reps, || {
        black_box(simulate(topo, &cfg, &batch));
    });
    let reference_ns = median_ns(reps, || {
        black_box(simulate_reference(topo, &cfg, &msgs));
    });

    let p = ScalePoint {
        name,
        endpoints: df.params().total_endpoints(),
        messages: batch.len(),
        hop_events: batch.total_hops(),
        reference_ns,
        simulate_ns,
    };
    println!(
        "bench-des: {:<12} {:>6} endpoints {:>7} msgs {:>8} hop-events | reference {:>8.2} ms ({:>5.1} M hops/s) | simulate {:>8.2} ms ({:>5.1} M hops/s)",
        p.name,
        p.endpoints,
        p.messages,
        p.hop_events,
        p.reference_ns / 1e6,
        p.reference_heps() / 1e6,
        p.simulate_ns / 1e6,
        p.simulate_heps() / 1e6,
    );
    Ok(p)
}

/// The GPCNeT victim multiple-allreduce at full Table-5 scale, on the DES
/// core: wall time plus the simulated completion and hop-event count
/// (read back from the telemetry counters).
struct AllreduceResult {
    ranks: u64,
    hop_events: u64,
    sim_completion_us: f64,
    wall_ms: f64,
}

fn gpcnet_allreduce(quick: bool) -> AllreduceResult {
    let cfg = if quick {
        GpcnetConfig::scaled_for_tests()
    } else {
        GpcnetConfig::frontier_table5()
    };
    let df = Dragonfly::build(cfg.params.clone());
    metrics::set_enabled(true);
    metrics::global().reset();
    // simlint::allow(wallclock): benchmark timing
    let t0 = Instant::now();
    let done = victim_allreduce_des(&df, &cfg, Bytes::new(8));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = metrics::global().snapshot();
    metrics::set_enabled(false);
    let hop_events = snap.counters.get("fabric.des.events").copied().unwrap_or(0);
    let ranks = snap
        .counters
        .get("fabric.des.messages")
        .copied()
        .unwrap_or(0);
    println!(
        "bench-des: gpcnet-allreduce {ranks} messages {hop_events} hop-events, sim {:.1} us, wall {:.1} ms",
        done.as_micros_f64(),
        wall_ms
    );
    AllreduceResult {
        ranks,
        hop_events,
        sim_completion_us: done.as_micros_f64(),
        wall_ms,
    }
}

fn write_json(points: &[ScalePoint], ar: &AllreduceResult) {
    let best_heps = points
        .iter()
        .map(ScalePoint::simulate_heps)
        .fold(0.0f64, f64::max);
    let scales: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"scale\": \"{}\",\n",
                    "      \"endpoints\": {},\n",
                    "      \"messages\": {},\n",
                    "      \"hop_events\": {},\n",
                    "      \"reference_ns\": {:.0},\n",
                    "      \"simulate_ns\": {:.0},\n",
                    "      \"reference_hop_events_per_sec\": {:.0},\n",
                    "      \"simulate_hop_events_per_sec\": {:.0}\n",
                    "    }}"
                ),
                p.name,
                p.endpoints,
                p.messages,
                p.hop_events,
                p.reference_ns,
                p.simulate_ns,
                p.reference_heps(),
                p.simulate_heps(),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"des\",\n",
            "  \"workload\": \"mpigraph per-message, window {} x {} B\",\n",
            "  \"threads\": 1,\n",
            "  \"scales\": [\n{}\n  ],\n",
            "  \"gpcnet_victim_allreduce\": {{\n",
            "    \"config\": \"frontier_table5\",\n",
            "    \"messages\": {},\n",
            "    \"hop_events\": {},\n",
            "    \"sim_completion_us\": {:.1},\n",
            "    \"wall_ms\": {:.1}\n",
            "  }},\n",
            "  \"simulate_hop_events_per_sec_best\": {:.0}\n",
            "}}\n"
        ),
        DES_WINDOW,
        DES_MESSAGE.as_u64(),
        scales.join(",\n"),
        ar.ranks,
        ar.hop_events,
        ar.sim_completion_us,
        ar.wall_ms,
        best_heps,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_des.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("bench-des: wrote {}", path.display()),
        Err(e) => eprintln!("bench-des: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");

    let mut points = Vec::new();
    let mut reference_dump = String::new();
    let mut simulate_dump = String::new();
    let scales: Vec<(&'static str, DragonflyParams, usize)> = if quick {
        vec![
            ("small", DragonflyParams::scaled(4, 4, 4), 5),
            ("subset", DragonflyParams::scaled(16, 8, 8), 5),
        ]
    } else {
        vec![
            ("small", DragonflyParams::scaled(4, 4, 4), 5),
            ("subset", DragonflyParams::scaled(16, 8, 8), 5),
            ("full-machine", DragonflyParams::frontier(), 3),
        ]
    };
    for (name, params, reps) in scales {
        let df = Dragonfly::build(params);
        match measure(name, &df, reps, &mut reference_dump, &mut simulate_dump) {
            Ok(p) => points.push(p),
            Err(e) => {
                eprintln!("bench-des: parity FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("bench-des: parity OK");

    // Artifact-level parity gate: CI `cmp`s these two dumps byte-for-byte.
    let target = PathBuf::from("target");
    for (file, dump) in [
        ("des_parity_reference.txt", &reference_dump),
        ("des_parity_simulate.txt", &simulate_dump),
    ] {
        let path = target.join(file);
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("bench-des: could not write {}: {e}", path.display());
        }
    }

    // Largest scale governs the perf gate: that is where the core's data
    // layout and scheduler matter and where noise is smallest relative to
    // runtime.
    let last = points.last().expect("at least one scale measured");
    let speedup = last.reference_ns / last.simulate_ns;
    if speedup < MIN_SPEEDUP_VS_REFERENCE {
        eprintln!(
            "bench-des: perf FAILED: simulate is only {speedup:.2}x faster than the reference at {} scale (gate: {MIN_SPEEDUP_VS_REFERENCE:.2}x)",
            last.name
        );
        return ExitCode::FAILURE;
    }
    let heps = last.simulate_heps();
    if !quick && heps < MIN_HOP_EVENTS_PER_SEC {
        eprintln!(
            "bench-des: perf FAILED: {:.1} M hop-events/s at {} scale (floor: {:.0} M)",
            heps / 1e6,
            last.name,
            MIN_HOP_EVENTS_PER_SEC / 1e6
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench-des: perf OK ({speedup:.2}x the reference, {:.1} M hop-events/s)",
        heps / 1e6
    );

    let ar = gpcnet_allreduce(quick);

    // Publish the wall-clock throughput as telemetry so metric dumps from
    // bench runs carry it; library `simulate` never records wall time, so
    // deterministic snapshots stay wall-clock-free.
    metrics::set_enabled(true);
    metrics::global()
        .max_gauge("fabric.des.hop_events_per_sec")
        .observe(heps);
    metrics::set_enabled(false);

    if !quick {
        write_json(&points, &ar);
    }
    ExitCode::SUCCESS
}
