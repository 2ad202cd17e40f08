//! What is left of multi-server sharding: the names the benchmark in
//! `benchmarks/gridbench` still calls, kept for it until its next change
//! drops them (as [`crate::protocol::Codec`] is kept).
//!
//! One server carries the paper's load (DESIGN.md §6, "One server"), so
//! the grid runs unsharded: [`ShardSpec`] has one value a server accepts,
//! [`ShardSpec::solo`], and [`merge_artifacts`] stitches partial
//! artifacts — catalog-length `Vec<Option<DockingOutput>>`, `Some`
//! exactly at the workunits a part holds — into the `Vec<DockingOutput>`
//! a whole run produces, which the benchmark times as a count-style row.

use maxdo::DockingOutput;
use serde::{Deserialize, Serialize};

/// A server's place in a shard topology: always shard 0 of 1. Kept for
/// `benchmarks/gridbench`, which passes [`ShardSpec::solo`] to
/// [`crate::MultiGrid::open`]; any other value is refused there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This server's shard id, `0..shards`.
    pub shard_id: u16,
    /// Total shards the catalog is split across.
    pub shards: u16,
}

impl ShardSpec {
    /// The one topology: shard 0 of 1.
    pub fn solo() -> Self {
        Self {
            shard_id: 0,
            shards: 1,
        }
    }
}

/// Stitches partial artifacts into the campaign result. Every part must
/// be catalog-length; every workunit must be present in at least one
/// part, and is taken from the first that holds it. Kept for
/// `benchmarks/gridbench`.
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
                    "workunit {wu} is missing from every partial artifact"
                ))
            }
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NetCampaign;
    use crate::protocol::CampaignParams;

    /// The one topology a server opens under owns every workunit: all
    /// of the catalog is fresh work for it, and any other is refused.
    #[test]
    fn solo_spec_owns_everything() {
        let open = |spec| {
            let defs = vec![crate::CampaignDef::default_solo(CampaignParams::tiny())];
            crate::MultiGrid::open(defs, Default::default(), Default::default(), spec, None)
        };
        let (grid, _) = open(ShardSpec::solo()).expect("the solo spec opens");
        let slot = &grid.slots()[0];
        assert_eq!(slot.state.core().fresh_backlog(), slot.campaign.len());
        let two = ShardSpec {
            shard_id: 0,
            shards: 2,
        };
        assert!(open(two).is_err(), "a shard of two is refused");
    }

    #[test]
    fn merged_partials_equal_the_baseline() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let baseline = campaign.baseline_outputs();
        // A two-way split, even and odd workunits.
        let parts: Vec<Vec<Option<DockingOutput>>> = (0..2)
            .map(|part| {
                baseline
                    .iter()
                    .enumerate()
                    .map(|(wu, out)| (wu % 2 == part).then(|| out.clone()))
                    .collect()
            })
            .collect();
        let merged = merge_artifacts(&parts).expect("partition merges");
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "merge must be byte-identical to the single-server artifact"
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
