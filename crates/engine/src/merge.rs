//! Deterministic merge of per-shard event batches.

use adsim_types::{SimTime, UserId};

use crate::event::ShardEvent;

/// A violation of the merge key's uniqueness invariant.
///
/// `(at, user, user_seq)` is unique per event by construction — each
/// user's `seq` counter advances once per event — so a duplicate key can
/// only mean a replay bug: the same batch folded twice, a shard tick
/// re-executed without restoring its cursor snapshot, or a corrupted
/// checkpoint. Surfacing it as a typed error (instead of silently
/// accepting, or a debug-only assert) is what lets the resilience
/// supervisor prove its recovery paths really are idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeError {
    /// The duplicated key's timestamp.
    pub at: SimTime,
    /// The duplicated key's user.
    pub user: UserId,
    /// The duplicated key's per-user sequence number.
    pub user_seq: u64,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "duplicate event key (at={}, user={}, seq={}): a batch was applied twice \
             or a shard re-ran without snapshot restore",
            self.at.0, self.user, self.user_seq
        )
    }
}

impl std::error::Error for MergeError {}

/// Merges per-shard event batches into the canonical global order.
///
/// The result is sorted by [`ShardEvent::key`] — `(at, user, user_seq)` —
/// which is unique per event and independent of which batch an event
/// arrived in. Consequently the merge is **permutation-invariant**: any
/// partition of the same events into any number of batches, in any order,
/// merges to the identical sequence. This is the property that makes
/// 1-shard and 8-shard runs byte-identical, and it is checked by a
/// property test in the workspace integration suite.
///
/// Shards hand in their batches already sorted by key (see
/// [`crate::ShardBatch::events`]), so the merge is one linear k-way pass
/// over sorted runs. A batch that arrives unsorted is stably sorted
/// first, so any input order is accepted.
///
/// A duplicate key fails with [`MergeError`] — see its docs for why that
/// can only be a replay bug. The error names the smallest duplicated key.
pub fn merge_batches(batches: Vec<Vec<ShardEvent>>) -> Result<Vec<ShardEvent>, MergeError> {
    let mut first = None;
    let merged = merge_runs(batches, |dup| {
        first.get_or_insert(dup);
    });
    match first {
        Some(dup) => Err(dup),
        None => Ok(merged),
    }
}

/// [`merge_batches`], but **lossy**: instead of failing on a duplicate
/// key, keeps the copy from the lowest-indexed batch (within a batch, the
/// earliest) — exactly the copy a stable sort of the concatenated batches
/// would keep first — and returns one [`MergeError`] per dropped event, in
/// merged order. The serving applier uses this — a duplicate key from a
/// buggy fault replay must degrade and be counted, not take the front end
/// down. The batch engine keeps the strict form: there a duplicate means
/// corrupted recovery state and must abort the run.
pub fn merge_batches_lossy(batches: Vec<Vec<ShardEvent>>) -> (Vec<ShardEvent>, Vec<MergeError>) {
    let mut conflicts = Vec::new();
    let merged = merge_runs(batches, |dup| conflicts.push(dup));
    (merged, conflicts)
}

/// The one merge behind both public forms: stably sorts any run that is
/// not already sorted by key, then merges the runs in `O(n·k)` for `n`
/// events in `k` runs (`k` is the shard count). Ties go to the lower run
/// index, so the output equals a stable sort of the concatenated runs.
/// Each event whose key repeats the last kept one is dropped and reported
/// to `duplicate`.
fn merge_runs(
    mut runs: Vec<Vec<ShardEvent>>,
    mut duplicate: impl FnMut(MergeError),
) -> Vec<ShardEvent> {
    for run in &mut runs {
        // The check skips the stable sort's up-front scratch allocation
        // for the sorted runs every shard hands in.
        if !run.is_sorted_by_key(ShardEvent::key) {
            run.sort_by_key(ShardEvent::key);
        }
    }
    let mut merged: Vec<ShardEvent> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    // Each run's unconsumed tail, in batch order; exhausted tails leave.
    let mut tails: Vec<&[ShardEvent]> = runs
        .iter()
        .map(Vec::as_slice)
        .filter(|tail| !tail.is_empty())
        .collect();
    while !tails.is_empty() {
        // The smallest head; a strict `<` keeps the lowest batch on ties.
        let mut r = 0;
        for i in 1..tails.len() {
            if tails[i][0].key() < tails[r][0].key() {
                r = i;
            }
        }
        let event = tails[r][0];
        tails[r] = &tails[r][1..];
        if tails[r].is_empty() {
            tails.remove(r);
        }
        match merged.last() {
            Some(kept) if kept.key() == event.key() => {
                let (at, user, user_seq) = event.key();
                duplicate(MergeError { at, user, user_seq });
            }
            _ => merged.push(event),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsim_types::PixelId;

    fn fire(at: u64, user: u64, seq: u64) -> ShardEvent {
        ShardEvent::PixelFire {
            at: SimTime(at),
            user: UserId(user),
            user_seq: seq,
            pixel: PixelId(1),
        }
    }

    #[test]
    fn merge_is_partition_invariant() {
        let events = vec![fire(3, 1, 0), fire(1, 2, 0), fire(1, 2, 1), fire(2, 1, 1)];
        let one = merge_batches(vec![events.clone()]).expect("unique keys");
        let two =
            merge_batches(vec![events[..2].to_vec(), events[2..].to_vec()]).expect("unique keys");
        let four = merge_batches(events.iter().map(|&e| vec![e]).collect()).expect("unique keys");
        assert_eq!(one, two);
        assert_eq!(one, four);
        // And the order is the canonical one.
        assert_eq!(
            one,
            vec![fire(1, 2, 0), fire(1, 2, 1), fire(2, 1, 1), fire(3, 1, 0)]
        );
    }

    #[test]
    fn empty_batches_are_fine() {
        assert!(merge_batches(vec![]).expect("empty").is_empty());
        assert!(merge_batches(vec![vec![], vec![]])
            .expect("empty")
            .is_empty());
    }

    #[test]
    fn lossy_merge_keeps_first_and_reports_conflicts() {
        let batch = vec![fire(1, 2, 0), fire(2, 2, 1)];
        let (merged, conflicts) = merge_batches_lossy(vec![batch.clone(), batch.clone()]);
        assert_eq!(merged, vec![fire(1, 2, 0), fire(2, 2, 1)]);
        assert_eq!(conflicts.len(), 2);
        assert_eq!(
            conflicts[0],
            MergeError {
                at: SimTime(1),
                user: UserId(2),
                user_seq: 0,
            }
        );
        // Conflict-free input matches the strict merge exactly.
        let strict = merge_batches(vec![batch.clone()]).expect("unique");
        let (lossy, none) = merge_batches_lossy(vec![batch]);
        assert_eq!(strict, lossy);
        assert!(none.is_empty());
    }

    #[test]
    fn lossy_merge_keeps_the_lower_batch_copy() {
        // Two copies of key (2, 1, 1), told apart by their pixel.
        let copy = |pixel| ShardEvent::PixelFire {
            at: SimTime(2),
            user: UserId(1),
            user_seq: 1,
            pixel: PixelId(pixel),
        };
        // Batch 1 arrives unsorted; its copy of the shared key loses to
        // batch 0's, as it would under a stable sort of the concatenation.
        let low = vec![fire(1, 1, 0), copy(7)];
        let high = vec![fire(3, 1, 2), copy(9), fire(0, 2, 0)];
        let (merged, conflicts) = merge_batches_lossy(vec![low, high]);
        assert_eq!(
            merged,
            vec![fire(0, 2, 0), fire(1, 1, 0), copy(7), fire(3, 1, 2)]
        );
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].user_seq, 1);
    }

    #[test]
    fn duplicate_keys_surface_as_typed_errors() {
        // The same batch delivered twice — the at-least-once failure mode.
        let batch = vec![fire(1, 2, 0), fire(2, 2, 1)];
        let err = merge_batches(vec![batch.clone(), batch]).unwrap_err();
        assert_eq!(
            err,
            MergeError {
                at: SimTime(1),
                user: UserId(2),
                user_seq: 0,
            }
        );
        assert!(err.to_string().contains("duplicate event key"));
        // Duplicates across *different* variants with one key also fail:
        // key equality is what matters, not payload equality.
        let err = merge_batches(vec![vec![fire(5, 1, 3)], vec![fire(5, 1, 3)]]).unwrap_err();
        assert_eq!(err.user_seq, 3);
    }
}
