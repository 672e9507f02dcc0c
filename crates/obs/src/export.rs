//! Structured JSONL record types.
//!
//! Every line [`Telemetry`](crate::Telemetry) emits is one of these
//! structs serialized with `serde_json`; the `record` field tags the
//! variant so consumers can route lines without a schema. All timestamps
//! are virtual ticks, all collections are emitted in deterministic order,
//! so a given seed produces a byte-identical stream.

use crate::registry::MetricLine;
use crate::trace::TaskSpan;
use serde::{Deserialize, Serialize};
use taskdrop_pmf::Tick;
use taskdrop_sim::TrialResult;

/// `record: "sample"` — the registry flattened at a virtual-clock
/// boundary (one time-series window).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Always `"sample"`.
    pub record: String,
    /// Sample instant (virtual).
    pub t: Tick,
    /// Flattened metric values in registry key order.
    pub metrics: Vec<MetricLine>,
}

/// `record: "span"` — one finished task lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Always `"span"`.
    pub record: String,
    /// The scope (core) the task lived in.
    pub scope: String,
    /// The lifecycle.
    pub span: TaskSpan,
}

/// Per-shard numbers inside an [`EpochRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEpoch {
    /// The shard's name.
    pub shard: String,
    /// Offers waiting in the ingress queue at epoch end.
    pub backlog: u64,
    /// Cumulative offers seen by admission.
    pub offered: u64,
    /// Cumulative offers admitted into the core.
    pub admitted: u64,
    /// Cumulative offers turned away (all refusal kinds).
    pub turned_away: u64,
    /// Tasks ever admitted to the core (its fate-table size).
    pub total_tasks: u64,
    /// Tasks with a terminal fate.
    pub resolved_tasks: u64,
    /// Cumulative queued offers received from sibling shards at epoch
    /// barriers (fleet work stealing; absent in records from older
    /// builds — `default` keeps them loading).
    #[serde(default)]
    pub stolen_in: u64,
    /// Cumulative queued offers donated to sibling shards at epoch
    /// barriers.
    #[serde(default)]
    pub stolen_out: u64,
}

/// `record: "epoch"` — one `FleetDriver` epoch across every shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Always `"epoch"`.
    pub record: String,
    /// Clock at epoch start.
    pub from: Tick,
    /// Clock at epoch end.
    pub to: Tick,
    /// Per-shard state at epoch end, in shard order.
    pub shards: Vec<ShardEpoch>,
}

/// `record: "checkpoint"` — one shard snapshot and its serialized cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Always `"checkpoint"`.
    pub record: String,
    /// The shard's name.
    pub shard: String,
    /// Clock the checkpoint was taken at.
    pub t: Tick,
    /// Serialized (JSON) checkpoint size in bytes.
    pub bytes: u64,
}

/// `record: "kill_restore"` — a shard was killed and revived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillRestoreRecord {
    /// Always `"kill_restore"`.
    pub record: String,
    /// The shard's name.
    pub shard: String,
    /// Checkpoint tick the shard was revived from.
    pub revived_at: Tick,
    /// Fleet clock it was caught back up to.
    pub clock: Tick,
    /// Events in the pre-kill flight recorder (the post-mortem), if one
    /// was attached.
    pub post_mortem_events: u64,
}

/// `record: "dag"` — cumulative graph-layer rates at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagRecord {
    /// Always `"dag"`.
    pub record: String,
    /// The scope (core) the coordinator drives.
    pub scope: String,
    /// Instant of the reading (virtual).
    pub t: Tick,
    /// Engine injections performed (released nodes).
    pub released: u64,
    /// Nodes satisfied by riding an existing injection.
    pub merged: u64,
    /// Nodes forfeited by predecessor failure.
    pub forfeited_cascade: u64,
    /// Nodes shed by subtree pruning.
    pub forfeited_pruned: u64,
    /// Nodes turned away by chain-aware admission.
    pub forfeited_shed: u64,
}

/// `record: "rollup"` — the terminal [`TrialResult`] a scope's
/// stream-reconstructed rollup arrived at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollupRecord {
    /// Always `"rollup"`.
    pub record: String,
    /// The scope the rollup covers.
    pub scope: String,
    /// The reconstructed result (byte-equal to the engine's own).
    pub result: TrialResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_through_json() {
        let rec = CheckpointRecord {
            record: "checkpoint".to_string(),
            shard: "bursty".to_string(),
            t: 2_000,
            bytes: 4_096,
        };
        let line = serde_json::to_string(&rec).expect("serializable");
        assert!(line.contains("\"record\":\"checkpoint\""));
        let back: CheckpointRecord = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, rec);
    }
}
