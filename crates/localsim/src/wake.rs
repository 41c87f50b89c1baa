//! The round loop's wake queue: sleeping nodes keyed by their wake-up round.
//!
//! A node that sleeps through [`crate::Action::Idle`] in round `r` is pushed with a wake-up
//! round of at least `r + 2`, and the loop pops every node due in round `r` before stepping
//! anyone. Keys therefore never fall below the last round popped, which is what a *radix
//! queue* needs: a node with wake-up round `k` sits in bucket `⌊log2(k ⊕ last)⌋`, where
//! `last` is the round of the latest pop. When the smallest key comes due it lies in the
//! lowest non-empty bucket, and only that bucket is redistributed against the new `last`:
//! each of its keys moves to a strictly lower bucket, while the keys of higher buckets keep
//! their index. So a node is moved at most 64 times however long it sleeps.
//!
//! Buckets are FIFO lists threaded through per-node links, so the queue is three arrays of
//! `n` entries plus a head, tail and minimum per bucket, reset in O(1) and never reallocated
//! once warm. Nodes
//! due in the same round leave in the order they were pushed, so a batch pushed in one
//! round (in ascending node order, as the loop steps nodes) arrives ascending.

/// End-of-list link.
const NIL: u32 = u32::MAX;

/// Sleeping nodes with the arcs their standing broadcasts cover, in a monotone radix queue
/// keyed by wake-up round.
pub(crate) struct WakeQueue {
    /// Per node: the node after it in its bucket's list.
    link: Vec<u32>,
    /// Per node: its wake-up round while it is queued.
    due: Vec<u64>,
    /// Per node: the arcs its standing broadcast covers while it is queued.
    arcs: Vec<u32>,
    /// First and last node of each bucket's list; only buckets marked in `occupied` are valid.
    head: [u32; 64],
    tail: [u32; 64],
    /// The smallest wake-up round in each occupied bucket.
    min: [u64; 64],
    /// Bit `b` set: bucket `b` is non-empty.
    occupied: u64,
    /// The round of the latest pop; every queued key is above it.
    last: u64,
    /// The smallest queued key (`u64::MAX` when empty), so an idle round costs one compare.
    next_due: u64,
}

impl Default for WakeQueue {
    fn default() -> Self {
        WakeQueue {
            link: Vec::new(),
            due: Vec::new(),
            arcs: Vec::new(),
            head: [NIL; 64],
            tail: [NIL; 64],
            min: [u64::MAX; 64],
            occupied: 0,
            last: 0,
            next_due: u64::MAX,
        }
    }
}

impl WakeQueue {
    /// Empties the queue for a run over nodes `0..n` starting at round 0. The per-node arrays
    /// only grow, so a warm queue allocates nothing.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.link.len() < n {
            self.link.resize(n, NIL);
            self.due.resize(n, 0);
            self.arcs.resize(n, 0);
        }
        self.occupied = 0;
        self.last = 0;
        self.next_due = u64::MAX;
    }

    /// Queues node `v` (not already queued) to wake in round `at`, standing on `arcs` arcs.
    /// `at` must lie above the round of the latest pop.
    pub(crate) fn push(&mut self, v: usize, at: u64, arcs: u32) {
        debug_assert!(at > self.last, "wake-up round {at} not after round {}", self.last);
        self.due[v] = at;
        self.arcs[v] = arcs;
        self.next_due = self.next_due.min(at);
        self.append(v as u32, at);
    }

    /// Moves every node due in `round` to the end of `out`, in the order they were queued,
    /// and returns the arcs their standing broadcasts covered. Rounds must be asked in
    /// ascending order, and none may pass a queued key without popping it.
    #[inline]
    pub(crate) fn pop_due(&mut self, round: u64, out: &mut Vec<usize>) -> u64 {
        if self.next_due > round {
            return 0;
        }
        self.pop(round, out)
    }

    /// [`WakeQueue::pop_due`] for a round that has nodes due.
    fn pop(&mut self, round: u64, out: &mut Vec<usize>) -> u64 {
        debug_assert_eq!(self.next_due, round, "a wake-up round was skipped");
        // The lowest occupied bucket holds `round`; redistribute it against `round`.
        self.last = round;
        let bucket = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << bucket);
        let mut released = 0;
        let mut v = self.head[bucket];
        while v != NIL {
            let next = self.link[v as usize];
            let at = self.due[v as usize];
            if at == round {
                out.push(v as usize);
                released += u64::from(self.arcs[v as usize]);
            } else {
                self.append(v, at);
            }
            v = next;
        }
        self.next_due = match self.occupied {
            0 => u64::MAX,
            mask => self.min[mask.trailing_zeros() as usize],
        };
        released
    }

    /// Appends `v` (wake-up round `at > last`) to the tail of its bucket.
    fn append(&mut self, v: u32, at: u64) {
        let bucket = 63 - (at ^ self.last).leading_zeros() as usize;
        self.link[v as usize] = NIL;
        if self.occupied & (1 << bucket) == 0 {
            self.occupied |= 1 << bucket;
            self.head[bucket] = v;
            self.min[bucket] = at;
        } else {
            self.link[self.tail[bucket] as usize] = v;
            self.min[bucket] = self.min[bucket].min(at);
        }
        self.tail[bucket] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One run against a `BinaryHeap<(round, push order, node)>` oracle: each round pops the
    /// due nodes, then pushes the nodes the script names, each `ahead >= 2` rounds on.
    fn check(n: usize, pushes: &[(usize, u64, u32)], rounds: u64, queue: &mut WakeQueue) {
        queue.reset(n);
        let mut oracle: BinaryHeap<Reverse<(u64, usize, usize, u32)>> = BinaryHeap::new();
        let mut queued = vec![false; n];
        let mut script = pushes.iter().copied();
        let mut order = 0;
        let mut round = 0;
        let mut got = Vec::new();
        while round < rounds {
            got.clear();
            let released = queue.pop_due(round, &mut got);
            let mut want = Vec::new();
            let mut want_released = 0;
            while let Some(&Reverse((at, _, v, arcs))) = oracle.peek() {
                if at > round {
                    break;
                }
                assert_eq!(at, round, "the oracle skipped a round");
                oracle.pop();
                want.push(v);
                want_released += u64::from(arcs);
                queued[v] = false;
            }
            assert_eq!(got, want, "round {round}: due nodes in push order");
            assert_eq!(released, want_released, "round {round}: released arcs");
            // A few pushes this round; a node already queued is skipped.
            for _ in 0..3 {
                let Some((v, ahead, arcs)) = script.next() else { break };
                let v = v % n;
                if queued[v] {
                    continue;
                }
                queued[v] = true;
                queue.push(v, round + ahead, arcs);
                oracle.push(Reverse((round + ahead, order, v, arcs)));
                order += 1;
            }
            // Jump straight to the next due round once the script is spent.
            round = match (script.len(), oracle.peek()) {
                (0, Some(&Reverse((at, ..)))) => at,
                (0, None) => rounds,
                _ => round + 1,
            };
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_binary_heap_oracle(
            n in 1usize..48,
            pushes in prop::collection::vec(
                (
                    0usize..48,
                    // Mostly near, many sharing a round, some up to 2^40 rounds ahead.
                    prop_oneof![2u64..6, 2u64..6, 2u64..70, 2u64..(1 << 17), 2u64..(1 << 40)],
                    any::<u32>(),
                ),
                0..160,
            ),
            smaller in 1usize..48,
        ) {
            let mut queue = WakeQueue::default();
            check(n, &pushes, u64::MAX, &mut queue);
            // Reuse after a reset to a smaller n, with a run cut off mid-sleep in between.
            check(n.max(smaller), &pushes, 40, &mut queue);
            check(smaller.min(n), &pushes, u64::MAX, &mut queue);
        }
    }

    #[test]
    fn shared_due_round_from_different_push_rounds() {
        // Nodes 5, 3 pushed in round 0 and 4, 1 in round 2, all due in round 9: they leave
        // in push order, which is not ascending.
        let mut queue = WakeQueue::default();
        queue.reset(8);
        let mut out = Vec::new();
        queue.push(5, 9, 1);
        queue.push(3, 9, 2);
        assert_eq!(queue.pop_due(1, &mut out), 0);
        queue.push(4, 9, 4);
        queue.push(1, 9, 8);
        queue.push(0, 1 << 40, 16);
        for round in 2..9 {
            assert_eq!(queue.pop_due(round, &mut out), 0);
        }
        assert_eq!(queue.pop_due(9, &mut out), 15);
        assert_eq!(out, [5, 3, 4, 1]);
        assert_eq!(queue.next_due, 1 << 40);
    }
}
