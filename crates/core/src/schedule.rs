//! The round clock's visit order (DESIGN.md §13.4, "The schedule").
//!
//! §2.1.1's construction clock lets every online peer act once per
//! round, in a uniformly random order. A settled peer's action changes
//! nothing, so a round need only visit the *active* peers — online and
//! not settled — provided each one acts at the position the full order
//! would give it. The order is therefore *derived*, not drawn: peer `p`
//! holds the slot `key(p, r)` in round `r`, a keyed 64-bit mix of
//! `(schedule_key, r, p)`, and the round visits in slot order. Sorting
//! by a hash gives a uniform permutation, so the process is the
//! paper's; and because a slot does not depend on who else is active,
//! visiting only the active set is byte-for-byte visiting everybody and
//! letting the settled skip do the rest.
//!
//! The one subtlety is a peer that an action un-settles mid-round: it
//! acts later this round if and only if its slot is still ahead of the
//! cursor, exactly as it would in the full order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lagover_sim::{Round, SimRng};

use crate::node::PeerId;

/// Salt of the stream the schedule key is taken from: neither the
/// engine's own stream, whose draws it leaves alone, nor the
/// virtual-time clock's.
const SCHEDULE_SALT: u64 = 0x5EED_0DE2;

/// Rounds with fewer active peers sort by comparison; larger ones by
/// [`radix_sort`], which overtakes `sort_unstable` at about 450 keys.
/// Both give the same order.
const RADIX_MIN: usize = 512;

/// An odd multiplier that spreads consecutive integers over the word.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// The schedule key of an engine whose stream is in state `rng`: the
/// first word of a stream split off it, so taking it draws nothing.
/// Engines take it from their seed's fresh stream, and a snapshot
/// carries it.
pub(crate) fn schedule_key(rng: &SimRng) -> u64 {
    rng.split(SCHEDULE_SALT).state()[0]
}

/// The SplitMix64 finalizer: a bijective mix of every input bit into
/// every output bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peer `p`'s slot in the round keyed `round_key`: the high half of a
/// keyed mix, then the id, so that equal mixes order by id and a slot
/// names its peer.
fn slot(round_key: u64, p: PeerId) -> u64 {
    let id = u64::from(p.get());
    mix(round_key ^ id.wrapping_mul(SPREAD)) & !u64::from(u32::MAX) | id
}

fn peer(slot: u64) -> PeerId {
    PeerId::new(slot as u32)
}

/// One round's visit order over the active set, reusable across rounds
/// (its buffers keep their capacity).
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    key: u64,
    /// The open round's key, `mix` of the schedule key and the round.
    round_key: u64,
    /// Slots of the peers active when the round opened, ascending;
    /// `order[next..]` are still to act.
    order: Vec<u64>,
    next: usize,
    /// Slots of peers woken ahead of the cursor since.
    late: BinaryHeap<Reverse<u64>>,
    /// The slot of the peer acting now.
    cursor: u64,
    /// The radix sort's second buffer.
    spare: Vec<u64>,
}

impl Schedule {
    pub(crate) fn new(key: u64) -> Self {
        Schedule {
            key,
            ..Schedule::default()
        }
    }

    /// The schedule key (what a snapshot carries).
    pub(crate) fn key(&self) -> u64 {
        self.key
    }

    /// Opens `round` over the `active` peers, in ascending id order.
    pub(crate) fn open(&mut self, round: Round, active: impl Iterator<Item = PeerId>) {
        let round_key = mix(self.key ^ round.get().wrapping_mul(SPREAD));
        self.round_key = round_key;
        self.cursor = 0;
        self.order.clear();
        self.order.extend(active.map(|p| slot(round_key, p)));
        if self.order.len() < RADIX_MIN {
            self.order.sort_unstable();
        } else {
            radix_sort(&mut self.order, &mut self.spare);
        }
        self.next = 0;
        self.late.clear();
    }

    /// The next peer to act, in slot order; its slot becomes the
    /// cursor.
    pub(crate) fn pop(&mut self) -> Option<PeerId> {
        let ahead = self.order.get(self.next).copied();
        let slot = match (ahead, self.late.peek()) {
            (ahead, Some(&Reverse(late))) if ahead.is_none_or(|a| late < a) => {
                self.late.pop();
                late
            }
            (Some(ahead), _) => {
                self.next += 1;
                ahead
            }
            (None, _) => return None,
        };
        self.cursor = slot;
        Some(peer(slot))
    }

    /// The action at the cursor un-settled `p`: it acts later this
    /// round if and only if its slot is still ahead. Called only after
    /// [`Schedule::pop`].
    pub(crate) fn wake(&mut self, p: PeerId) {
        let slot = slot(self.round_key, p);
        if slot > self.cursor {
            self.late.push(Reverse(slot));
        }
    }
}

/// Sorts slots by their high 32 bits, stably — so, given them in id
/// order, by the whole slot: three LSD passes of 11-bit digits through
/// `spare`, one histogram pass for all three.
fn radix_sort(keys: &mut Vec<u64>, spare: &mut Vec<u64>) {
    const BITS: u32 = 11;
    const DIGITS: usize = 1 << BITS;
    let digit = |key: u64, pass: u32| (key >> (32 + pass * BITS)) as usize & (DIGITS - 1);
    let mut counts = [[0usize; DIGITS]; 3];
    for &key in keys.iter() {
        for (pass, count) in (0..).zip(counts.iter_mut()) {
            count[digit(key, pass)] += 1;
        }
    }
    spare.clear();
    spare.resize(keys.len(), 0);
    for (pass, count) in (0..).zip(counts.iter_mut()) {
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for &key in keys.iter() {
            let d = digit(key, pass);
            spare[count[d]] = key;
            count[d] += 1;
        }
        std::mem::swap(keys, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(n: u32) -> impl Iterator<Item = PeerId> {
        (0..n).map(PeerId::new)
    }

    fn drain(schedule: &mut Schedule) -> Vec<PeerId> {
        std::iter::from_fn(|| schedule.pop()).collect()
    }

    #[test]
    fn radix_sort_orders_like_a_comparison_sort() {
        let mut schedule = Schedule::new(7);
        for n in [RADIX_MIN - 1, RADIX_MIN, 5_000] {
            for round in 0..3 {
                schedule.open(Round::new(round), peers(n as u32));
                let mut expected: Vec<u64> = peers(n as u32)
                    .map(|p| slot(schedule.round_key, p))
                    .collect();
                expected.sort_unstable();
                assert_eq!(schedule.order, expected, "n = {n}");
            }
        }
    }

    #[test]
    fn a_slot_does_not_depend_on_who_else_is_active() {
        let mut all = Schedule::new(3);
        all.open(Round::new(9), peers(40));
        let full = drain(&mut all);
        let mut some = Schedule::new(3);
        some.open(Round::new(9), peers(40).filter(|p| p.get() % 3 == 0));
        let thinned: Vec<PeerId> = full.into_iter().filter(|p| p.get() % 3 == 0).collect();
        assert_eq!(drain(&mut some), thinned);
    }

    #[test]
    fn a_woken_peer_acts_iff_its_slot_is_ahead() {
        let mut schedule = Schedule::new(11);
        schedule.open(Round::new(4), peers(8));
        let full = drain(&mut schedule);
        // Only the middle peer is active; everybody else is woken by
        // its action.
        let middle = full[4];
        schedule.open(Round::new(4), std::iter::once(middle));
        assert_eq!(schedule.pop(), Some(middle));
        for p in peers(8).filter(|&p| p != middle) {
            schedule.wake(p);
        }
        assert_eq!(drain(&mut schedule), full[5..]);
    }

    /// Over 24 000 rounds of four always-active peers every one of the
    /// 24 visit orders turns up, and the counts pass a chi-square test
    /// against the uniform distribution: with 23 degrees of freedom the
    /// bound of 60 is exceeded with probability below 10^-4. The
    /// schedule is a pure function of its key, so this is a fixed fact
    /// about one key, not a random trial.
    #[test]
    fn visit_orders_of_four_peers_are_uniform() {
        const ROUNDS: u64 = 24_000;
        let mut schedule = Schedule::new(schedule_key(&SimRng::seed_from(42)));
        let mut counts = [0u64; 24];
        for round in 0..ROUNDS {
            schedule.open(Round::new(round), peers(4));
            let order: Vec<u32> = drain(&mut schedule).iter().map(|p| p.get()).collect();
            // Lehmer code: the order's rank among the 24 permutations.
            let rank = (0..4).fold(0, |rank, i| {
                let smaller_after = order[i + 1..].iter().filter(|&&q| q < order[i]).count();
                rank * (4 - i) + smaller_after
            });
            counts[rank] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let expected = ROUNDS as f64 / 24.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 60.0, "chi-square {chi2:.1} over {counts:?}");
    }
}
