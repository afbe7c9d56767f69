//! # frontier-sim-core
//!
//! Substrate crate for the Frontier full-system simulator: a deterministic
//! discrete-event simulation (DES) engine, reproducible per-component random
//! number streams, a statistics toolkit (online moments, percentiles, linear
//! histograms), and unit-safe quantity types for bytes, bandwidth, time,
//! and floating-point throughput.
//!
//! Everything in the higher-level crates (`frontier-node`, `frontier-fabric`,
//! `frontier-storage`, ...) is built on these primitives, and every simulation
//! in the workspace is *deterministic*: the same seed and configuration always
//! produce bit-identical results, regardless of host parallelism.
//!
//! ## Quick tour
//!
//! ```
//! use frontier_sim_core::prelude::*;
//!
//! // A tiny discrete-event simulation: two "pings" racing.
//! let mut sim = Simulator::new();
//! sim.schedule_at(SimTime::from_micros(3), 7u32);
//! sim.schedule_at(SimTime::from_micros(1), 42u32);
//! let (t, v) = sim.pop().unwrap();
//! assert_eq!((t, v), (SimTime::from_micros(1), 42));
//!
//! // Reproducible random streams, keyed by component.
//! let mut rng = StreamRng::for_component(0xF30, "nic", 3);
//! let a: f64 = rng.uniform();
//! let b: f64 = StreamRng::for_component(0xF30, "nic", 3).uniform();
//! assert_eq!(a, b);
//! ```

pub mod engine;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;
pub mod units;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::engine::{EventQueue, Simulator};
    pub use crate::hist::Histogram;
    pub use crate::metrics::{self, MetricsRegistry, MetricsSnapshot, TimerScope};
    pub use crate::rng::StreamRng;
    pub use crate::stats::{percentile, OnlineStats, Summary};
    pub use crate::table::Table;
    pub use crate::time::SimTime;
    pub use crate::trace::Trace;
    pub use crate::units::{Bandwidth, Bytes, Flops};
}

pub use prelude::*;
