//! Multi-server sharding: the deterministic shard map, work-stealing
//! leases, and the cross-shard artifact merge.
//!
//! One campaign's workunit catalog is split across N `hcmd-server`
//! instances. The split is a pure function of data both ends already
//! share — the FNV-1a hash of the workunit's protein couple, modulo the
//! shard count — so every server, agent, and the merge step compute the
//! identical map with no coordination ([`shard_of`]). Each shard runs
//! the ordinary scheduler over the *full* catalog but owns only its
//! slice (`SchedulerCore::with_ownership`), which keeps workunit
//! indices, replica ids, and the launch order globally consistent.
//!
//! Ownership is not static: the steering channel (see
//! [`crate::server`] — a timer on the event loop and one kept-open
//! link per peer) leases never-issued
//! workunits from a loaded shard to a drained one. Leases are
//! journaled on both sides ([`crate::journal`]) and identified by
//! [`lease_id`] so replay after a `kill -9` reconstructs a consistent
//! ownership picture and duplicate gossip frames re-apply as no-ops.
//!
//! The merge invariant: each shard's partial artifact is a
//! catalog-length `Vec<Option<DockingOutput>>` (Some exactly at the
//! workunits it validated), and [`merge_artifacts`] stitches them into
//! the single `Vec<DockingOutput>` a lone server would have produced —
//! byte-identical, because the docking compute is a deterministic
//! function of the spec alone.

use crate::campaign::NetCampaign;
use maxdo::DockingOutput;
use serde::{Deserialize, Serialize};
use workunit::WorkunitSpec;

/// This server's place in the campaign's shard topology. Part of the
/// journal header identity: shard 0's WAL refuses to replay into a
/// server configured as shard 1 (or into a different shard count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This server's shard id, `0..shards`.
    pub shard_id: u16,
    /// Total shards the catalog is split across.
    pub shards: u16,
}

impl ShardSpec {
    /// The single-server degenerate case (shard 0 of 1).
    pub fn solo() -> Self {
        Self {
            shard_id: 0,
            shards: 1,
        }
    }
}

/// How often a shard gossips its load picture to each peer, ms.
pub const STEER_INTERVAL_MS: u64 = 100;
/// How long a steering link may make no progress, ms: a link whose
/// oldest unanswered `ShardStatus` is this old is hung up and dialed
/// afresh on the next steering tick, and a dial gets this long to
/// connect. The link is one connection on the server's event loop, so a
/// slow peer holds up nothing but its own link.
pub const STEER_TIMEOUT_MS: u64 = 250;
/// Most workunits one lease moves. Small chunks keep steering smooth:
/// a drained shard asks again next tick if it drains again.
pub const LEASE_CHUNK: usize = 8;

/// The home shard of a workunit: FNV-1a of its protein couple, modulo
/// the shard count. Deterministic from data every party already has.
pub fn shard_of(spec: &WorkunitSpec, shards: u16) -> u16 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&spec.receptor.0.to_le_bytes());
    bytes[4..].copy_from_slice(&spec.ligand.0.to_le_bytes());
    (crate::protocol::fnv1a64(&bytes) % u64::from(shards.max(1))) as u16
}

/// The ownership bitmap [`gridsim::SchedulerCore::with_ownership`]
/// takes: true where the catalog entry's home is `spec.shard_id`.
pub fn ownership_map(campaign: &NetCampaign, spec: ShardSpec) -> Vec<bool> {
    campaign
        .specs()
        .iter()
        .map(|wu| shard_of(wu, spec.shards) == spec.shard_id)
        .collect()
}

/// Builds a lease id from the granting shard and its grant sequence
/// number. The sequence is the count of grants the shard has journaled,
/// so replay regenerates the same ids in the same order.
pub fn lease_id(from_shard: u16, seq: u64) -> u64 {
    (u64::from(from_shard) << 48) | (seq & 0x0000_FFFF_FFFF_FFFF)
}

/// The granting shard encoded in a lease id.
pub fn lease_grantor(lease: u64) -> u16 {
    (lease >> 48) as u16
}

/// Stitches per-shard partial artifacts into the campaign result.
/// Every part must be catalog-length; every workunit must be present in
/// at least one part. A workunit present in several parts (possible
/// only when a crash landed between a lease's two journal writes and
/// both sides recomputed it) is taken from the first — the compute is
/// deterministic, so the copies are identical.
pub fn merge_artifacts(parts: &[Vec<Option<DockingOutput>>]) -> Result<Vec<DockingOutput>, String> {
    let Some(first) = parts.first() else {
        return Err("no partial artifacts to merge".into());
    };
    let n = first.len();
    if let Some((i, p)) = parts.iter().enumerate().find(|(_, p)| p.len() != n) {
        return Err(format!(
            "partial artifact {i} covers {} workunits, expected {n}",
            p.len()
        ));
    }
    let mut merged = Vec::with_capacity(n);
    for wu in 0..n {
        match parts.iter().find_map(|p| p[wu].as_ref()) {
            Some(out) => merged.push(out.clone()),
            None => {
                return Err(format!(
                    "workunit {wu} is missing from every shard artifact"
                ))
            }
        }
    }
    Ok(merged)
}

/// [`merge_artifacts`] over serialized artifacts: each input is the
/// JSON a sharded `hcmd-server --out` writes
/// (`Vec<Option<DockingOutput>>`), the output is the JSON a
/// single-server run writes (`Vec<DockingOutput>`) — byte-identical to
/// it when the shards covered the campaign.
pub fn merge_artifact_json(parts: &[String]) -> Result<String, String> {
    let parsed: Vec<Vec<Option<DockingOutput>>> = parts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            serde_json::from_str(text).map_err(|e| format!("partial artifact {i}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let merged = merge_artifacts(&parsed)?;
    serde_json::to_string(&merged).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CampaignParams;

    #[test]
    fn shard_map_is_deterministic_and_in_range() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        for shards in [1u16, 2, 4] {
            for wu in campaign.specs() {
                let s = shard_of(wu, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(wu, shards), "pure function");
            }
        }
    }

    #[test]
    fn ownership_maps_partition_the_catalog() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        for shards in [2u16, 4] {
            let maps: Vec<Vec<bool>> = (0..shards)
                .map(|shard_id| ownership_map(&campaign, ShardSpec { shard_id, shards }))
                .collect();
            for wu in 0..campaign.len() {
                let owners = maps.iter().filter(|m| m[wu]).count();
                assert_eq!(owners, 1, "workunit {wu} must have exactly one home");
            }
        }
    }

    #[test]
    fn solo_spec_owns_everything() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        assert!(ownership_map(&campaign, ShardSpec::solo())
            .iter()
            .all(|&o| o));
    }

    #[test]
    fn lease_id_round_trips_the_grantor() {
        assert_eq!(lease_grantor(lease_id(3, 41)), 3);
        assert_eq!(lease_id(0, 1), 1);
        assert_ne!(lease_id(1, 1), lease_id(2, 1));
    }

    #[test]
    fn merged_partials_equal_the_baseline() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let baseline = campaign.baseline_outputs();
        let spec_a = ShardSpec {
            shard_id: 0,
            shards: 2,
        };
        let owned_a = ownership_map(&campaign, spec_a);
        let parts: Vec<Vec<Option<DockingOutput>>> = (0..2)
            .map(|shard| {
                baseline
                    .iter()
                    .enumerate()
                    .map(|(wu, out)| (owned_a[wu] == (shard == 0)).then(|| out.clone()))
                    .collect()
            })
            .collect();
        let merged = merge_artifacts(&parts).expect("partition merges");
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "merge must be byte-identical to the single-server artifact"
        );
        // The JSON-level merge agrees.
        let part_texts: Vec<String> = parts
            .iter()
            .map(|p| serde_json::to_string(p).unwrap())
            .collect();
        assert_eq!(
            merge_artifact_json(&part_texts).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
    }

    #[test]
    fn merge_refuses_holes_and_mismatched_lengths() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let n = campaign.len();
        let hole: Vec<Option<DockingOutput>> = vec![None; n];
        assert!(merge_artifacts(&[hole]).is_err(), "all-None part has holes");
        let short: Vec<Option<DockingOutput>> = vec![None; n - 1];
        let full: Vec<Option<DockingOutput>> =
            campaign.baseline_outputs().into_iter().map(Some).collect();
        assert!(merge_artifacts(&[full, short]).is_err(), "length mismatch");
        assert!(merge_artifacts(&[]).is_err(), "empty merge");
    }
}
