//! Property-based tests for the simulation kernel.

use proptest::prelude::*;

use lagover_sim::rng::SimRng;
use lagover_sim::stats::{quantile_sorted, Summary};
use lagover_sim::time::{Round, VirtualTime};
use lagover_sim::EventQueue;

proptest! {
    /// Summary statistics are ordered: min <= q1 <= median <= q3 <= max,
    /// and the mean lies within [min, max].
    #[test]
    fn summary_is_ordered(samples in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let s = Summary::from_samples(&samples).expect("finite, non-empty");
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert_eq!(s.count, samples.len());
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantiles_are_monotone(
        mut samples in prop::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile_sorted(&samples, lo);
        let b = quantile_sorted(&samples, hi);
        prop_assert!(a <= b + 1e-12);
        prop_assert!(a >= samples[0] - 1e-12);
        prop_assert!(b <= samples[samples.len() - 1] + 1e-12);
    }

    /// The event queue is a stable priority queue: events come out in
    /// non-decreasing time order, FIFO among ties, nothing lost.
    #[test]
    fn event_queue_is_a_stable_min_heap(times in prop::collection::vec(0.0f64..1e6, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(VirtualTime::new(t).unwrap(), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(VirtualTime, usize)> = None;
        while let Some((at, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(at >= lt, "time went backwards");
                if at == lt {
                    prop_assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((at, id));
            popped.push(id);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// index() is always within bounds and covers the whole range for
    /// small bounds.
    #[test]
    fn rng_index_in_bounds(seed in any::<u64>(), bound in 1usize..1000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..64 {
            prop_assert!(rng.index(bound) < bound);
        }
    }

    /// Splitting produces streams that differ from the parent and from
    /// sibling streams.
    #[test]
    fn rng_split_streams_differ(seed in any::<u64>(), a in 0u64..1_000, b in 1_000u64..2_000) {
        let parent = SimRng::seed_from(seed);
        let mut sa = parent.split(a);
        let mut sb = parent.split(b);
        let va: Vec<u64> = (0..8).map(|_| rand::RngCore::next_u64(&mut sa)).collect();
        let vb: Vec<u64> = (0..8).map(|_| rand::RngCore::next_u64(&mut sb)).collect();
        prop_assert_ne!(va, vb);
    }

    /// Round arithmetic round-trips.
    #[test]
    fn round_arithmetic_round_trips(base in 0u64..1_000_000, delta in 0u64..1_000_000) {
        let r = Round::new(base);
        prop_assert_eq!((r + delta) - r, delta);
        prop_assert_eq!(r.next() - r, 1);
    }

    /// Exponential samples are non-negative; Pareto samples respect the
    /// scale.
    #[test]
    fn distribution_supports(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(rng.exponential(mean) >= 0.0);
            prop_assert!(rng.pareto(mean, 1.5) >= mean);
        }
    }

    /// chance(p) over many draws stays within a crude Chernoff band.
    #[test]
    fn chance_rate_is_sane(seed in any::<u64>(), p in 0.05f64..0.95) {
        let mut rng = SimRng::seed_from(seed);
        let n = 4_000;
        let hits = (0..n).filter(|_| rng.chance(p)).count() as f64 / n as f64;
        prop_assert!((hits - p).abs() < 0.08, "rate {hits} vs p {p}");
    }
}
