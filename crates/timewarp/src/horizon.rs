//! Channel-min commit horizon — the local GVT computation.
//!
//! Time Warp's Global Virtual Time is the minimum, over every process and
//! in-flight message, of the unprocessed timestamps; everything older is
//! committed and fossil-collectable. A single LP can compute a *local*
//! under-approximation from its input channels alone: with per-link FIFO
//! delivery and monotone per-sender timestamps, once every commit channel
//! has delivered an event with timestamp ≥ `t`, no straggler older than `t`
//! can ever arrive, so guards below the channel minimum are safe to affirm.
//!
//! This module extracts that low-water-mark rule from [`run_lp`]
//! (crate::run_lp) so the same computation backs both the Time Warp guard
//! life-cycle here and, in generalized form, the engine-global commit
//! horizon of [`hope_core::Engine::collect_fossils`] — which replaces
//! "timestamp per channel" with "finalized frontier per process history".

use std::collections::BTreeMap;

use hope_core::AidId;
use hope_runtime::ProcessId;

/// Low-water-mark tracker over a fixed set of commit channels.
///
/// Feed every received event's `(sender, timestamp)` to
/// [`observe`](ChannelHorizon::observe); [`safe`](ChannelHorizon::safe)
/// yields the timestamp below which no straggler can arrive, once every
/// declared sender has been heard from at least once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelHorizon {
    senders: Vec<ProcessId>,
    last_seen: BTreeMap<ProcessId, u64>,
}

impl ChannelHorizon {
    /// Track the given commit channels. An empty sender set means the
    /// horizon never advances (the perpetually-speculative symmetric PHOLD
    /// configuration; see `LpConfig::phold`).
    pub fn new(senders: Vec<ProcessId>) -> Self {
        ChannelHorizon {
            senders,
            last_seen: BTreeMap::new(),
        }
    }

    /// A tracker of `senders` that has seen `last_seen`: a snapshot's way back in.
    pub fn resume(senders: Vec<ProcessId>, last_seen: BTreeMap<ProcessId, u64>) -> Self {
        ChannelHorizon { senders, last_seen }
    }

    /// The latest timestamp seen from each sender heard so far.
    pub fn last_seen(&self) -> &BTreeMap<ProcessId, u64> {
        &self.last_seen
    }

    /// Record an arrival. All senders are recorded, commit channel or not:
    /// per-link FIFO plus monotone per-sender timestamps make the latest
    /// arrival the channel's high-water mark.
    pub fn observe(&mut self, from: ProcessId, ts: u64) {
        self.last_seen.insert(from, ts);
    }

    /// The commit horizon: `Some(min over commit channels of last seen)`
    /// once every declared sender has delivered, `None` before that (or if
    /// no senders are declared). Every guard with timestamp strictly below
    /// the returned value can never be straggled.
    pub fn safe(&self) -> Option<u64> {
        if self.senders.is_empty() || !self.senders.iter().all(|s| self.last_seen.contains_key(s)) {
            return None;
        }
        self.senders.iter().map(|s| self.last_seen[s]).min()
    }

    /// Pop the committed prefix of `guards` (sorted ascending by
    /// timestamp): every guard strictly below the current horizon is
    /// removed and returned, oldest first, ready to be affirmed.
    pub fn drain_safe(&self, guards: &mut Vec<(u64, AidId)>) -> Vec<AidId> {
        let Some(safe) = self.safe() else {
            return Vec::new();
        };
        let n = guards.partition_point(|&(ts, _)| ts < safe);
        guards.drain(..n).map(|(_, g)| g).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_requires_all_senders() {
        let mut h = ChannelHorizon::new(vec![ProcessId(1), ProcessId(2)]);
        assert_eq!(h.safe(), None);
        h.observe(ProcessId(1), 10);
        assert_eq!(h.safe(), None, "one channel silent: no horizon");
        h.observe(ProcessId(2), 4);
        assert_eq!(h.safe(), Some(4), "horizon is the channel minimum");
        h.observe(ProcessId(2), 25);
        assert_eq!(h.safe(), Some(10));
    }

    #[test]
    fn empty_sender_set_never_commits() {
        let mut h = ChannelHorizon::new(Vec::new());
        h.observe(ProcessId(0), 100);
        assert_eq!(h.safe(), None);
        let mut guards = vec![(1, AidId::from_index(0))];
        assert!(h.drain_safe(&mut guards).is_empty());
        assert_eq!(guards.len(), 1);
    }

    #[test]
    fn drain_pops_strictly_older_guards() {
        let mut h = ChannelHorizon::new(vec![ProcessId(1)]);
        h.observe(ProcessId(1), 10);
        let mut guards = vec![
            (3, AidId::from_index(0)),
            (9, AidId::from_index(1)),
            (10, AidId::from_index(2)),
            (12, AidId::from_index(3)),
        ];
        let safe = h.drain_safe(&mut guards);
        assert_eq!(safe, vec![AidId::from_index(0), AidId::from_index(1)]);
        assert_eq!(
            guards,
            vec![(10, AidId::from_index(2)), (12, AidId::from_index(3))]
        );
        // Idempotent until the horizon moves.
        assert!(h.drain_safe(&mut guards).is_empty());
        h.observe(ProcessId(1), 13);
        assert_eq!(
            h.drain_safe(&mut guards),
            vec![AidId::from_index(2), AidId::from_index(3)]
        );
    }

    #[test]
    fn non_commit_senders_are_observed_but_ignored() {
        let mut h = ChannelHorizon::new(vec![ProcessId(1)]);
        h.observe(ProcessId(9), 1); // not a commit channel
        assert_eq!(h.safe(), None);
        h.observe(ProcessId(1), 5);
        assert_eq!(h.safe(), Some(5), "only declared channels bound the min");
    }
}
