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
    /// Per-slot state this step; `count == 0` marks an untouched slot.
    slots: Vec<Slot>,
    /// The first `busy` entries: the slots offered this step, in
    /// first-offer order; a spare entry takes the write of a full step.
    touched: Vec<u32>,
    busy: usize,
}

/// One link's contest this step, in one record so that an offer touches
/// one cache line: the minimum key `(policy priority, packet id)` offered
/// so far, its caller tag, and the contender count.
#[derive(Clone, Copy, Default)]
struct Slot {
    best: (u64, u64),
    at: u32,
    count: u32,
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
            slots: vec![Slot::default(); slots],
            touched: vec![0; slots + 1],
            busy: 0,
        }
    }

    /// Enters a packet with scheduling `key` into the contest for `slot`;
    /// `at` is handed back if it wins. Keys are unique (they end in the
    /// packet id), so the winner does not depend on offer order.
    ///
    /// Branch-free, so contended links cost no mispredicts: a first offer
    /// wins whatever its key (no key is a sentinel), later ones by a select,
    /// and the touched list is written always but grown only on a first
    /// offer.
    #[inline]
    pub(crate) fn offer(&mut self, slot: usize, key: (u64, u64), at: usize) {
        let s = &mut self.slots[slot];
        let first = s.count == 0;
        let take = first | (wide(key) < wide(s.best));
        s.best = std::hint::select_unpredictable(take, key, s.best);
        s.at = std::hint::select_unpredictable(take, at as u32, s.at);
        s.count += 1;
        self.touched[self.busy] = slot as u32;
        self.busy += usize::from(first);
    }

    /// Links with at least one contender this step.
    pub(crate) fn busy(&self) -> usize {
        self.busy
    }

    /// Yields each contended link's winner and resets the state for the
    /// next step. Must be consumed to the end.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = Winner> + '_ {
        let busy = std::mem::take(&mut self.busy);
        let Self { slots, touched, .. } = self;
        touched[..busy].iter().map(move |&slot| {
            let s = &mut slots[slot as usize];
            Winner {
                slot: slot as usize,
                at: s.at as usize,
                group: std::mem::take(&mut s.count),
            }
        })
    }
}

/// A key as one integer with the same order, compared without branches.
fn wide((hi, lo): (u64, u64)) -> u128 {
    (u128::from(hi) << 64) | u128::from(lo)
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

    /// Key halves drawn from a few shared values, so that offers often
    /// share their high word and hit both ends of the key range.
    const HI: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];

    /// An offer: slot, high-word pick, low-word pick (`0`, `u64::MAX`, or
    /// the random word itself).
    type Offer = (usize, usize, u64);

    /// A slot's naive state: best key, its tag, contenders.
    type Best = ((u64, u64), usize, u32);

    fn key(&(_, hi, lo): &Offer) -> (u64, u64) {
        let lo = match lo % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => lo,
        };
        (HI[hi], lo)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Every round on one reused instance matches a naive per-slot
        /// minimum: each winner, its group, `busy()` and the first-offer
        /// drain order. Keys are unique per round, as packet ids make them.
        #[test]
        fn matches_naive_per_slot_minimum(
            rounds in proptest::prop::collection::vec(
                proptest::prop::collection::vec(
                    (0usize..8, 0usize..4, proptest::prelude::any::<u64>()),
                    0..24,
                ),
                3..=6,
            ),
        ) {
            let mut c = Contention::new(8);
            for round in &rounds {
                let mut keys = Vec::new();
                let mut order: Vec<usize> = Vec::new();
                let mut naive: [Option<Best>; 8] = [None; 8];
                for (at, offer) in round.iter().enumerate() {
                    let k = key(offer);
                    if keys.contains(&k) {
                        continue;
                    }
                    keys.push(k);
                    let slot = offer.0;
                    c.offer(slot, k, at);
                    naive[slot] = Some(match naive[slot] {
                        None => {
                            order.push(slot);
                            (k, at, 1)
                        }
                        Some((b, _, g)) if k < b => (k, at, g + 1),
                        Some((b, t, g)) => (b, t, g + 1),
                    });
                }
                proptest::prop_assert_eq!(c.busy(), order.len());
                let want: Vec<_> = order
                    .iter()
                    .map(|&slot| {
                        let (_, at, group) = naive[slot].expect("touched slot");
                        (slot, at, group)
                    })
                    .collect();
                let got: Vec<_> = c.drain().map(|w| (w.slot, w.at, w.group)).collect();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(c.busy(), 0);
            }
        }
    }
}
