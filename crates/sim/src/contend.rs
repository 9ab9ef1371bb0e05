//! The one-packet-per-link rule, written once.
//!
//! Every engine — the online shards (`sharded::step_shard`) and the
//! offline [`crate::Simulation`] — offers each waiting packet's link and
//! scheduling key here, then takes back one winner per link: the minimum
//! key (see [`crate::online::policy_key`]), with the size of the group it
//! beat.

/// Dense per-link contention state for one step, reused across steps.
/// Links are a caller-chosen dense slot index (a shard's slots, or raw
/// `EdgeId`s); only the slots offered this step are visited when draining.
pub(crate) struct Contention {
    /// Per-slot minimum key `(policy priority, packet id)` this step.
    best: Vec<(u64, u64)>,
    /// Caller tag of each slot's current best offer.
    at: Vec<u32>,
    /// Per-slot contender count this step (0 = untouched).
    count: Vec<u32>,
    /// Slots offered this step, in first-offer order.
    touched: Vec<u32>,
}

/// One link's winner for the step.
pub(crate) struct Winner {
    /// The contended slot.
    pub(crate) slot: usize,
    /// The tag the winner was offered with.
    pub(crate) at: usize,
    /// How many packets contended for the slot.
    pub(crate) group: u32,
}

impl Contention {
    /// Empty state for `slots` links.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            best: vec![(0, 0); slots],
            at: vec![0; slots],
            count: vec![0; slots],
            touched: Vec::new(),
        }
    }

    /// Enters a packet with scheduling `key` into the contest for `slot`;
    /// `at` is handed back if it wins. Keys are unique (they end in the
    /// packet id), so the winner does not depend on offer order.
    pub(crate) fn offer(&mut self, slot: usize, key: (u64, u64), at: usize) {
        let c = self.count[slot];
        if c == 0 {
            self.touched.push(slot as u32);
        }
        if c == 0 || key < self.best[slot] {
            self.best[slot] = key;
            self.at[slot] = at as u32;
        }
        self.count[slot] = c + 1;
    }

    /// Links with at least one contender this step.
    pub(crate) fn busy(&self) -> usize {
        self.touched.len()
    }

    /// Yields each contended link's winner and resets the state for the
    /// next step. Must be consumed to the end.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = Winner> + '_ {
        let Self {
            at, count, touched, ..
        } = self;
        touched.drain(..).map(move |slot| {
            let slot = slot as usize;
            Winner {
                slot,
                at: at[slot] as usize,
                group: std::mem::take(&mut count[slot]),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_key_wins_and_state_resets() {
        let mut c = Contention::new(4);
        c.offer(2, (5, 1), 10);
        c.offer(0, (9, 2), 11);
        c.offer(2, (3, 3), 12);
        c.offer(2, (4, 4), 13);
        assert_eq!(c.busy(), 2);
        let won: Vec<_> = c.drain().map(|w| (w.slot, w.at, w.group)).collect();
        assert_eq!(won, vec![(2, 12, 3), (0, 11, 1)]);
        assert_eq!(c.busy(), 0);
        c.offer(2, (7, 5), 14);
        let won: Vec<_> = c.drain().map(|w| (w.at, w.group)).collect();
        assert_eq!(won, vec![(14, 1)]);
    }
}
