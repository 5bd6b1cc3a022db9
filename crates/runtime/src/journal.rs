//! Per-process journals: the checkpoint/rollback mechanism.
//!
//! The paper's prototype used a "simple and fairly portable" checkpoint
//! mechanism (§7). Ours is **record/replay**: every interaction a process
//! body has with the outside world (receives, guesses, AID creation, time
//! and randomness reads, sends, computes, outputs) flows through
//! [`Ctx`](crate::Ctx) and is journaled. A checkpoint (`A.PS`, Equation 1)
//! is just a journal position. Rollback truncates the journal at the failed
//! guess and restarts the body; journaled entries are *replayed* — returned
//! without side effects — so the deterministic body reaches the guess point
//! in the same state, where the re-issued guess now returns `false`
//! (Equation 24).
//!
//! This places one obligation on process bodies: **determinism given `Ctx`
//! results**. All time, randomness and communication must go through `Ctx`.
//!
//! # Where replay starts
//!
//! Every restart — rollback, a deeper rollback during the restoration
//! hold, crash-restart, the revival of a finished body — replays from the
//! newest [`Entry::Snapshot`] the truncation left in the journal, as in
//! Mezzina–Tiezzi–Yoshida's checkpoint/rollback calculus, where a rollback
//! returns to the *last* checkpoint and re-runs nothing earlier. The
//! snapshot's [`Value`] is what lets the body re-enter mid-way (the frame
//! state of a deoptimization point): [`Ctx::restore`](crate::Ctx::restore)
//! hands it over and only the entries after it are replayed. A body that
//! never calls [`Ctx::checkpoint`](crate::Ctx::checkpoint), or whose
//! snapshots were all in the truncated suffix, replays from `base()`.
//! [`Journal::resume_point`] answers from the journal's own index.
//!
//! # Prefix truncation (fossil collection)
//!
//! Journal positions are **absolute** — they never shift. When the engine's
//! commit horizon guarantees no rollback can ever reach back past a
//! journaled [`Entry::Snapshot`], the prefix before it can be reclaimed
//! with [`Journal::reclaim_prefix`]: live storage shrinks and `base()`
//! rises to that snapshot, which stays the oldest resume point. A body that
//! never checkpoints simply keeps its whole journal.

use hope_core::{AidId, DecideKind};
use hope_sim::VirtualDuration;

use crate::message::Message;
use crate::value::Value;

/// One journaled interaction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Entry {
    /// `aid_init` returned this AID.
    AidInit(AidId),
    /// `guess(aid)` returned `value`.
    Guess { aid: AidId, value: bool },
    /// `affirm`/`deny`/`free_of(aid)` was issued; `applied` is `false`
    /// when the AID was already decided and the call was a recorded no-op
    /// (replay returns `applied` so `try_affirm` branches identically).
    Decide {
        /// The decided AID.
        aid: AidId,
        /// Which decider was issued.
        kind: DecideKind,
        /// Whether the decider took effect (vs. a recorded no-op).
        applied: bool,
    },
    /// `compute(d)` advanced virtual time (replay: skip — the time already
    /// passed and was not rolled back).
    Compute(VirtualDuration),
    /// A message was sent (replay: skip — it is already in flight or
    /// ghost-filtered).
    Send { msg_id: u64 },
    /// A message was received; replay returns it verbatim.
    Recv(Box<Message>),
    /// `now()` read this timestamp.
    Now(hope_sim::VirtualTime),
    /// `random_u64()` drew this value.
    Rand(u64),
    /// A (possibly buffered) output line was produced (replay: skip).
    Output,
    /// A boolean engine query (e.g. `is_speculative`) observed this value.
    /// Journaled because the engine's answer at replay time may differ from
    /// the answer the body originally branched on.
    Flag(bool),
    /// `send_reliable` allocated this logical sequence number. Journaled
    /// *before* the retry loop so every retransmission — including
    /// re-executions after a rollback into the loop — reuses the same
    /// number, which is what makes receiver-side deduplication sound.
    ReliableSeq(u64),
    /// `restore()` found no snapshot to resume from. Always the first
    /// entry of a restorable body's journal, and where replay starts while
    /// no [`Entry::Snapshot`] survives; fossil collection may later reclaim
    /// it with the prefix below some snapshot.
    Restore,
    /// `checkpoint(state)` recorded the body's resumable state. The newest
    /// one in the journal is where a restart's replay begins, via
    /// [`Ctx::restore`](crate::Ctx::restore); a journal prefix may be
    /// truncated exactly at one.
    Snapshot(Value),
}

impl Entry {
    /// Short name for mismatch diagnostics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Entry::AidInit(_) => "aid_init",
            Entry::Guess { .. } => "guess",
            Entry::Decide { kind, .. } => kind.name(),
            Entry::Compute(_) => "compute",
            Entry::Send { .. } => "send",
            Entry::Recv(_) => "recv",
            Entry::Now(_) => "now",
            Entry::Rand(_) => "rand",
            Entry::Output => "output",
            Entry::Flag(_) => "flag",
            Entry::ReliableSeq(_) => "reliable_seq",
            Entry::Restore => "restore",
            Entry::Snapshot(_) => "snapshot",
        }
    }
}

/// A process's interaction journal.
///
/// Positions are **absolute**: entry `i` keeps the index it was pushed at
/// for the journal's whole lifetime, so `Checkpoint` tokens stay valid
/// across [prefix reclamation](Journal::reclaim_prefix). Only
/// `base() ..= len()` is live storage.
///
/// It indexes itself: [`push`](Journal::push) notes where the `AidInit`,
/// `Snapshot` and `Restore` entries are, `truncate` and `reclaim_prefix`
/// cut that index with the entries, and nothing outside mirrors or scans.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    entries: Vec<Entry>,
    /// Absolute position of `entries[0]`: everything below was reclaimed by
    /// fossil collection.
    base: usize,
    /// Total prefix entries reclaimed by fossil collection.
    pub(crate) reclaimed_entries: u64,
    /// `(position, aid)` of the `AidInit` entries, ascending, minus those
    /// `forget_decided_aids` dropped. Outlives prefix reclamation: a kill
    /// must still find an open AID whose entry is gone.
    aids: Vec<(usize, AidId)>,
    /// Positions of the live `Snapshot` entries, ascending.
    snapshots: Vec<usize>,
    /// Position of the `Restore` entry, while rollback has not cut it.
    restore_at: Option<usize>,
}

impl Journal {
    /// Absolute end position (total entries ever pushed and not rolled
    /// back), *including* the reclaimed prefix.
    pub(crate) fn len(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Entries currently held live (post-truncation) — what
    /// [`SimConfig::max_journal_entries`](crate::SimConfig) bounds.
    pub(crate) fn live_len(&self) -> usize {
        self.entries.len()
    }

    /// Absolute position of the oldest live entry.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Where every restart's replay begins: the newest snapshot, else `base()`.
    pub(crate) fn resume_point(&self) -> usize {
        self.snapshots.last().copied().unwrap_or(self.base)
    }

    /// The body called `Ctx::restore`, so it has a resume entry point.
    pub(crate) fn is_restorable(&self) -> bool {
        self.restore_at.is_some()
    }

    /// The AIDs this body created, in journal order, open ones at least.
    pub(crate) fn created_aids(&self) -> impl Iterator<Item = AidId> + '_ {
        self.aids.iter().map(|&(_, a)| a)
    }

    /// Keep in the AID index only what `undecided` accepts. A kill only
    /// denies undecided AIDs, so this bounds the index on long runs.
    pub(crate) fn forget_decided_aids(&mut self, mut undecided: impl FnMut(AidId) -> bool) {
        self.aids.retain(|&(_, a)| undecided(a));
    }

    /// Append `e`: entry first, then its index slot (allocation order
    /// shows in `pipeline_lossy`'s peak RSS, see EXPERIMENTS.md E22 "PR 15").
    pub(crate) fn push(&mut self, e: Entry) {
        let pos = self.len();
        self.entries.push(e);
        match self.entries.last() {
            Some(&Entry::AidInit(aid)) => self.aids.push((pos, aid)),
            Some(Entry::Snapshot(_)) => self.snapshots.push(pos),
            Some(Entry::Restore) => self.restore_at = Some(pos),
            _ => {}
        }
    }

    /// The entry at absolute position `i` (`None` below `base()` or past
    /// the end).
    pub(crate) fn get(&self, i: usize) -> Option<&Entry> {
        i.checked_sub(self.base).and_then(|k| self.entries.get(k))
    }

    /// Truncate to absolute position `pos`, returning the discarded suffix
    /// (oldest first) so the caller can re-enqueue its received messages.
    ///
    /// # Panics
    ///
    /// If `pos < base()`: rollback never reaches below the commit horizon,
    /// and cutting there would empty the live journal while `len()` still
    /// counted the reclaimed prefix.
    pub(crate) fn truncate(&mut self, pos: usize) -> Vec<Entry> {
        assert!(
            pos >= self.base,
            "journal truncated to {pos}, below its base {}: rollback never reaches below the commit horizon",
            self.base
        );
        let k = pos - self.base;
        if k >= self.entries.len() {
            return Vec::new();
        }
        // Both indexes ascend by position, so the cut is a suffix.
        self.aids
            .truncate(self.aids.partition_point(|&(p, _)| p < pos));
        self.snapshots
            .truncate(self.snapshots.partition_point(|&p| p < pos));
        self.restore_at = self.restore_at.filter(|&p| p < pos);
        self.entries.split_off(k)
    }

    /// Fossil collection: no rollback can rewind this process below
    /// `safe`, so reclaim everything below the newest snapshot at or below
    /// it — which becomes `base()`, the oldest resume point — and return
    /// how many entries went. Without such a snapshot nothing does.
    pub(crate) fn reclaim_prefix(&mut self, safe: usize) -> usize {
        let kept = self.snapshots.partition_point(|&s| s <= safe);
        let Some(&new_base) = self.snapshots[..kept].last() else {
            return 0;
        };
        let n = new_base.saturating_sub(self.base).min(self.entries.len());
        if n > 0 {
            self.entries.drain(..n);
            self.base += n;
            self.reclaimed_entries += n as u64;
            self.snapshots.drain(..kept - 1);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_truncate() {
        let mut j = Journal::default();
        j.push(Entry::Rand(1));
        j.push(Entry::Rand(2));
        j.push(Entry::Rand(3));
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(1), Some(&Entry::Rand(2)));
        let cut = j.truncate(1);
        assert_eq!(cut, vec![Entry::Rand(2), Entry::Rand(3)]);
        assert_eq!(j.len(), 1);
        // Truncating beyond the end is a no-op.
        assert!(j.truncate(5).is_empty());
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn prefix_truncation_keeps_positions_absolute() {
        let mut j = Journal::default();
        j.push(Entry::Restore);
        j.push(Entry::Rand(1));
        j.push(Entry::Snapshot(Value::Int(7)));
        j.push(Entry::Rand(2));
        assert_eq!(j.reclaim_prefix(2), 2);
        assert_eq!(j.base(), 2);
        assert_eq!(j.len(), 4, "absolute end does not move");
        assert_eq!(j.live_len(), 2);
        // Absolute addressing survives: the snapshot is still entry 2.
        assert_eq!(j.get(1), None, "reclaimed prefix is gone");
        assert_eq!(j.get(2), Some(&Entry::Snapshot(Value::Int(7))));
        assert_eq!(j.get(3), Some(&Entry::Rand(2)));
        assert_eq!(j.reclaimed_entries, 2);
        // Idempotent at the same base; rollback still truncates the suffix
        // at absolute positions.
        assert_eq!(j.reclaim_prefix(3), 0);
        let cut = j.truncate(3);
        assert_eq!(cut, vec![Entry::Rand(2)]);
        assert_eq!(j.len(), 3);
    }

    #[test]
    #[should_panic(expected = "below its base 2")]
    fn truncation_below_the_base_is_refused() {
        let mut j = Journal::default();
        j.push(Entry::Restore);
        j.push(Entry::Rand(1));
        j.push(Entry::Snapshot(Value::Int(7)));
        assert_eq!(j.reclaim_prefix(2), 2);
        // A release build would otherwise cut the whole live journal here.
        j.truncate(1);
    }

    #[test]
    fn index_follows_truncate_and_reclaim_prefix() {
        let aid = AidId::from_index;
        let mut j = Journal::default();
        assert_eq!((j.resume_point(), j.is_restorable()), (0, false));
        // Restore, then AIDs 4..8 at odd positions, snapshots at 2, 4, 6.
        j.push(Entry::Restore);
        for i in 0..3 {
            j.push(Entry::AidInit(aid(4 + i)));
            j.push(Entry::Snapshot(Value::Int(i as i64)));
        }
        j.push(Entry::AidInit(aid(7)));
        assert_eq!((j.resume_point(), j.is_restorable()), (6, true));
        // Rollback to position 5 cuts entries 5.. and their index slots.
        assert_eq!(j.truncate(5).len(), 3);
        assert_eq!(j.resume_point(), 4);
        assert_eq!(j.created_aids().collect::<Vec<_>>(), [aid(4), aid(5)]);
        // A frontier at 3 reclaims up to the snapshot at 2, no further; the
        // AID created below it is still on record, its entry is not.
        assert_eq!((j.reclaim_prefix(3), j.base(), j.resume_point()), (2, 2, 4));
        assert_eq!(j.reclaim_prefix(1), 0, "no snapshot at or below 1 is left");
        assert_eq!(j.created_aids().collect::<Vec<_>>(), [aid(4), aid(5)]);
        // Losing every snapshot above the base leaves the base itself.
        j.truncate(3);
        assert_eq!((j.resume_point(), j.len(), j.is_restorable()), (2, 3, true));
        assert_eq!(j.created_aids().collect::<Vec<_>>(), [aid(4)]);
        // Without snapshots replay starts at `base()`, and a rollback that
        // takes the `Restore` entry takes the resume protocol with it.
        let mut j = Journal::default();
        j.push(Entry::Rand(1));
        j.push(Entry::Restore);
        assert_eq!((j.resume_point(), j.is_restorable()), (0, true));
        j.truncate(1);
        assert_eq!((j.resume_point(), j.is_restorable()), (0, false));
        assert_eq!(j.reclaim_prefix(1), 0);
    }

    #[test]
    fn forget_decided_aids_keeps_order() {
        let mut j = Journal::default();
        for i in 0..6 {
            j.push(Entry::AidInit(AidId::from_index(i)));
        }
        j.forget_decided_aids(|a| a.index() % 3 != 1);
        let left: Vec<u64> = j.created_aids().map(|a| a.index()).collect();
        assert_eq!(left, [0, 2, 3, 5]);
        assert_eq!(j.len(), 6, "only the index shrinks");
    }

    #[test]
    fn kinds() {
        assert_eq!(Entry::Rand(0).kind(), "rand");
        assert_eq!(Entry::Output.kind(), "output");
        assert_eq!(Entry::Compute(VirtualDuration::ZERO).kind(), "compute");
        assert_eq!(Entry::Send { msg_id: 0 }.kind(), "send");
        assert_eq!(Entry::ReliableSeq(1).kind(), "reliable_seq");
        assert_eq!(Entry::Restore.kind(), "restore");
        assert_eq!(Entry::Snapshot(Value::Unit).kind(), "snapshot");
    }
}
