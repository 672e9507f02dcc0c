//! `taskdrop_serve` — the online serving layer over the simulation core.
//!
//! The paper's task-dropping mechanism is ultimately a *serving-time*
//! policy: it exists so a live heterogeneous cluster can shed doomed work
//! under oversubscription. This crate turns the batch reproduction into
//! that production shape. It wraps the resumable
//! [`SimCore`](taskdrop_sim::SimCore) in three layers:
//!
//! * **Admission control** ([`AdmissionController`]) — a bounded ingress
//!   queue in front of [`inject`](taskdrop_sim::SimCore::inject) with
//!   pluggable [`BackpressurePolicy`]s: plain rejection, shed-oldest, and
//!   a probabilistic pre-drop that reuses the paper's completion-PMF
//!   chance-of-success threshold (Eq 1 + Eq 2) at the front door. Every
//!   refusal is counted ([`AdmissionStats`]) and streamed to observers as
//!   [`SimEvent::AdmissionDropped`](taskdrop_sim::SimEvent::AdmissionDropped).
//! * **Shards** ([`FleetShard`]) — one independent tenant/cluster each: a
//!   streaming [`TrafficSource`](taskdrop_workload::TrafficSource) feeding
//!   the admission controller feeding an open-world core, with an optional
//!   flight recorder and wholesale [`ShardCheckpoint`]s (core snapshot +
//!   source cursor + admission state + recorder) that serialize through
//!   serde.
//! * **The driver** ([`FleetDriver`]) — an epoch-based event loop
//!   multiplexing many shards against one virtual clock: shards advance
//!   in parallel, then merge at a deterministic single-threaded barrier
//!   (optional cross-shard work stealing, event drain, periodic
//!   checkpoints). It can [`kill_and_restore`] a shard mid-flight: the
//!   revived shard replays the recorded epoch boundaries and — because
//!   every layer is deterministic — rejoins the fleet byte-identical to
//!   the state that was destroyed, at any worker count.
//!
//! ```
//! use taskdrop_core::ProactiveDropper;
//! use taskdrop_sched::Pam;
//! use taskdrop_serve::{AdmissionController, BackpressurePolicy, FleetDriver, FleetShard};
//! use taskdrop_sim::SimConfig;
//! use taskdrop_workload::{BurstySource, Scenario, TrafficSource};
//!
//! let scenario = Scenario::specint(1);
//! let dropper = ProactiveDropper::paper_default();
//! let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };
//! let source = TrafficSource::Bursty(BurstySource::new(9, 0.4, 0.0, 300, 700, 400, 12, 60));
//! let admission = AdmissionController::new(16, BackpressurePolicy::PreDrop { threshold: 0.2 });
//!
//! let mut driver = FleetDriver::new().with_workers(1).with_checkpoint_every(1_000);
//! driver.add_shard(
//!     FleetShard::new("tenant-a", &scenario, &Pam, &dropper, config, 7, source, admission)
//!         .unwrap(),
//! );
//! driver.run_until_idle(500, 100).unwrap();
//! assert!(driver.is_idle());
//! let result = driver.shards()[0].result().unwrap();
//! assert!(result.is_conserved());
//! ```
//!
//! [`kill_and_restore`]: FleetDriver::kill_and_restore

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod admission;
mod fleet;
mod shard;
mod steal;

pub use admission::{AdmissionController, AdmissionOutcome, AdmissionStats, BackpressurePolicy};
pub use fleet::{FleetDriver, Transfer};
pub use shard::{FleetShard, ShardCheckpoint};
pub use steal::{plan_steals, ShardLoad, StealDecision, StealPolicy};

use taskdrop_sim::SimError;

/// Serving-layer failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// An underlying simulation error (construction, injection, restore).
    Sim(SimError),
    /// A shard index out of range.
    UnknownShard {
        /// The requested index.
        index: usize,
        /// How many shards the driver holds.
        shards: usize,
    },
    /// A restore was requested before any checkpoint was taken.
    NoCheckpoint {
        /// Name of the shard.
        shard: String,
    },
    /// An epoch advance that would not move the clock (`delta == 0`).
    InvalidEpoch {
        /// The rejected delta.
        delta: taskdrop_pmf::Tick,
    },
    /// A serving plan breaks a condition that a constructor of one of its
    /// parts checks; nothing was built from it.
    InvalidPlan {
        /// The shard whose settings break the condition, or `None` for a
        /// fleet-wide setting.
        shard: Option<String>,
        /// The broken condition, in words.
        problem: &'static str,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Sim(e) => write!(f, "simulation error: {e}"),
            ServeError::UnknownShard { index, shards } => {
                write!(f, "shard {index} out of range (driver holds {shards})")
            }
            ServeError::NoCheckpoint { shard } => {
                write!(f, "shard `{shard}` has no checkpoint to restore from")
            }
            ServeError::InvalidEpoch { delta } => {
                write!(f, "epoch delta {delta} must be positive to advance the clock")
            }
            ServeError::InvalidPlan { shard: Some(shard), problem } => {
                write!(f, "invalid plan for shard `{shard}`: {problem}")
            }
            ServeError::InvalidPlan { shard: None, problem } => {
                write!(f, "invalid plan: {problem}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}
