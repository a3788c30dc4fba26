//! The pending list: consensus-scheduled future tasks.
//!
//! Paper Fig. 1: `pendingList: {time → [task, task, ...]}` — *"When a new
//! time point t is reached, the tasks in the pending list whose timestamp is
//! t will be automatically executed by the network"*. Tasks are generated
//! only through network consensus and must have a prepaid gas bound
//! (§III-B.4); the gas side lives in [`crate::gas`], the scheduling side
//! here.
//!
//! [`PendingList`] is that map literally: a `BTreeMap<Time, Vec<T>>`
//! popping in `(time, insertion)` order with inclusive deadlines. Its
//! memory is O(scheduled tasks) however far ahead a task is scheduled, so
//! a proof cycle of 10^9 ticks costs no more than one of 10.
//!
//! Generic over the task type so `fi-core` can schedule its `Auto_*`
//! variants and tests can schedule plain markers.

use std::collections::BTreeMap;

/// Discrete consensus time (block timestamp units).
pub type Time = u64;

/// A time-ordered task queue with stable FIFO order within a timestamp.
///
/// # Example
///
/// ```
/// use fi_chain::PendingList;
/// let mut pl = PendingList::new();
/// pl.schedule(10, "check-proof");
/// pl.schedule(5, "check-alloc");
/// pl.schedule(10, "refresh");
/// assert_eq!(pl.pop_due(9), vec![(5, "check-alloc")]);
/// assert_eq!(pl.pop_due(10), vec![(10, "check-proof"), (10, "refresh")]);
/// assert!(pl.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PendingList<T> {
    queue: BTreeMap<Time, Vec<T>>,
    len: usize,
}

impl<T> Default for PendingList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingList<T> {
    /// Creates an empty pending list.
    pub fn new() -> Self {
        PendingList {
            queue: BTreeMap::new(),
            len: 0,
        }
    }

    /// Schedules `task` for execution at `time`.
    pub fn schedule(&mut self, time: Time, task: T) {
        self.queue.entry(time).or_default().push(task);
        self.len += 1;
    }

    /// Removes and returns every task due at or before `now`, in
    /// `(time, insertion)` order.
    pub fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
        // split_off keeps keys > now in the original map. The drain walks
        // keys in ascending time order, so the output is `(time,
        // insertion)`-ordered by construction.
        let mut later = self.queue.split_off(&(now + 1));
        std::mem::swap(&mut self.queue, &mut later);
        let due: Vec<(Time, T)> = later
            .into_iter()
            .flat_map(|(time, tasks)| tasks.into_iter().map(move |task| (time, task)))
            .collect();
        self.len -= due.len();
        due
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.queue.keys().next().copied()
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(time, task)` without removing.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        self.queue
            .iter()
            .flat_map(|(t, tasks)| tasks.iter().map(move |task| (*t, task)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_timestamp() {
        let mut pl = PendingList::new();
        for i in 0..5 {
            pl.schedule(7, i);
        }
        let due: Vec<i32> = pl.pop_due(7).into_iter().map(|(_, t)| t).collect();
        assert_eq!(due, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_due_is_inclusive_and_ordered() {
        let mut pl = PendingList::new();
        pl.schedule(30, "c");
        pl.schedule(10, "a");
        pl.schedule(20, "b");
        let due = pl.pop_due(20);
        assert_eq!(due, vec![(10, "a"), (20, "b")]);
        assert_eq!(pl.len(), 1);
        assert_eq!(pl.next_time(), Some(30));
    }

    #[test]
    fn pop_before_everything_returns_empty() {
        let mut pl = PendingList::new();
        pl.schedule(10, ());
        assert!(pl.pop_due(9).is_empty());
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn time_zero_tasks() {
        let mut pl = PendingList::new();
        pl.schedule(0, "genesis");
        assert_eq!(pl.pop_due(0), vec![(0, "genesis")]);
    }

    #[test]
    fn iter_does_not_consume() {
        let mut pl = PendingList::new();
        pl.schedule(1, "x");
        pl.schedule(2, "y");
        let seen: Vec<_> = pl.iter().map(|(t, s)| (t, *s)).collect();
        assert_eq!(seen, vec![(1, "x"), (2, "y")]);
        assert_eq!(pl.len(), 2);
    }

    #[test]
    fn property_pop_due_ordered_and_conserving() {
        // Seeded randomized cases (DetRng — no registry deps available).
        for seed in 0..128u64 {
            let mut rng = fi_crypto::DetRng::from_seed_label(seed, "tasks-prop");
            let schedule: Vec<(u64, u32)> = (0..rng.below(80))
                .map(|_| (rng.below(100), rng.below(1000) as u32))
                .collect();
            let mut checkpoints: Vec<u64> = (0..1 + rng.below(9)).map(|_| rng.below(120)).collect();
            let mut pl = PendingList::new();
            for &(t, task) in &schedule {
                pl.schedule(t, task);
            }
            checkpoints.sort_unstable();
            let mut popped = Vec::new();
            for &cp in &checkpoints {
                for (t, task) in pl.pop_due(cp) {
                    assert!(t <= cp, "seed {seed}: late pop");
                    popped.push((t, task));
                }
            }
            // Time-ordered overall.
            for pair in popped.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "seed {seed}");
            }
            // Conservation: popped + remaining = scheduled.
            assert_eq!(popped.len() + pl.len(), schedule.len(), "seed {seed}");
            // Everything still queued is after the last checkpoint.
            let last = *checkpoints.last().unwrap();
            for (t, _) in pl.iter() {
                assert!(t > last, "seed {seed}");
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut pl = PendingList::new();
        pl.schedule(10, 1);
        assert_eq!(pl.pop_due(10), vec![(10, 1)]);
        // Re-arming at a later time after popping (the CheckProof cycle).
        pl.schedule(20, 2);
        pl.schedule(15, 3);
        assert_eq!(pl.pop_due(25), vec![(15, 3), (20, 2)]);
        assert!(pl.is_empty());
    }

    /// A task scheduled before the last pop (a stale deadline) still pops
    /// at its own past timestamp, so the engine's advance loop —
    /// `pop_due(next_time())` — never spins on it.
    #[test]
    fn stale_tasks_pop_at_their_own_past_time() {
        let mut pl = PendingList::new();
        pl.schedule(55, "future");
        assert!(pl.pop_due(30).is_empty());
        pl.schedule(5, "stale");
        assert_eq!(pl.next_time(), Some(5));
        assert_eq!(pl.pop_due(5), vec![(5, "stale")]);
        assert_eq!(pl.next_time(), Some(55));
        assert_eq!(pl.pop_due(55), vec![(55, "future")]);
        assert!(pl.is_empty());
    }

    /// Tasks spread round-robin over per-shard lists and tagged with a
    /// global sequence number must, after a per-shard drain + merge on
    /// `(time, seq)`, reproduce exactly what one list holding the whole
    /// population pops — the invariant the engine's sharded commit phase
    /// relies on.
    #[test]
    fn sharded_drain_merged_by_seq_matches_single_scheduler() {
        for seed in 0..32u64 {
            let mut rng = fi_crypto::DetRng::from_seed_label(seed, "shard-drain");
            let nshards = 1 + rng.below(7) as usize;
            let mut shards: Vec<PendingList<(u64, u64)>> =
                (0..nshards).map(|_| PendingList::new()).collect();
            let mut single = PendingList::new();
            let mut clock = 0u64;
            let mut seq = 0u64;
            for _ in 0..150 {
                if rng.below(3) < 2 {
                    let t = clock + rng.below(90);
                    let task = rng.below(1000);
                    shards[(task % nshards as u64) as usize].schedule(t, (seq, task));
                    single.schedule(t, (seq, task));
                    seq += 1;
                } else {
                    clock += rng.below(35);
                    let next = shards.iter().filter_map(PendingList::next_time).min();
                    assert_eq!(next, single.next_time(), "seed {seed}");
                    let mut merged: Vec<(Time, (u64, u64))> =
                        shards.iter_mut().flat_map(|s| s.pop_due(clock)).collect();
                    merged.sort_by_key(|&(t, (s, _))| (t, s));
                    assert_eq!(merged, single.pop_due(clock), "seed {seed}");
                }
            }
        }
    }
}
