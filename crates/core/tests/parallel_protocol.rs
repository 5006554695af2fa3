//! Concurrency model tests for the `parallel_runs` scope-and-chunk
//! protocol (`cargo xtask loom` runs exactly this suite).
//!
//! The protocol under test: indices `0..count` are split into contiguous
//! chunks ([`lagover_core::chunk_plan`]), one scoped worker thread owns
//! each chunk and writes each of its slots exactly once, and the scope
//! join is the only synchronization before the results are read.
//!
//! Offline constraint: the `loom` crate cannot be vendored into this
//! workspace, so the interleaving exploration is a small in-repo model
//! checker — every worker is a straight-line sequence of "write slot"
//! operations, and [`explore`] enumerates *all* interleavings of those
//! sequences, checking the data-race and write-once invariants loom
//! would check. The protocol has no internal synchronization (disjoint
//! slots, join-at-scope-end), so straight-line write sequences model it
//! exactly; there is no hidden state for a DPOR-style checker to miss.
//! The `with_loom` module at the bottom carries the equivalent real-loom
//! model for environments where the dependency is available.

use lagover_core::{chunk_plan, parallel_runs_with};

/// One shared-memory write by a worker: (owning chunk, slot index).
#[derive(Clone, Copy, Debug)]
struct WriteOp {
    chunk: usize,
    slot: usize,
}

/// Per-slot model state.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Empty,
    Written { by_chunk: usize },
}

/// Enumerates every interleaving of the workers' write sequences and
/// checks, at each step, that no slot is ever written twice (the model
/// equivalent of a data race on a `&mut` slot) and that the writer owns
/// the slot it writes. Returns the number of complete interleavings.
fn explore(programs: &[Vec<WriteOp>], count: usize) -> u64 {
    fn step(programs: &[Vec<WriteOp>], pc: &mut [usize], slots: &mut [Slot], explored: &mut u64) {
        let mut any_runnable = false;
        for t in 0..programs.len() {
            if pc[t] >= programs[t].len() {
                continue;
            }
            any_runnable = true;
            let op = programs[t][pc[t]];
            assert_eq!(op.chunk, t, "worker {t} executing another chunk's op");
            assert!(
                slots[op.slot] == Slot::Empty,
                "slot {} written twice (second writer: chunk {t})",
                op.slot
            );
            slots[op.slot] = Slot::Written { by_chunk: t };
            pc[t] += 1;
            step(programs, pc, slots, explored);
            pc[t] -= 1;
            slots[op.slot] = Slot::Empty;
        }
        if !any_runnable {
            // Scope join: every slot must now hold its owner's write.
            for (i, s) in slots.iter().enumerate() {
                match s {
                    Slot::Written { .. } => {}
                    Slot::Empty => panic!("slot {i} unwritten at join"),
                }
            }
            *explored += 1;
        }
    }
    let mut pc = vec![0usize; programs.len()];
    let mut slots = vec![Slot::Empty; count];
    let mut explored = 0;
    step(programs, &mut pc, &mut slots, &mut explored);
    explored
}

/// Builds the worker programs exactly as `parallel_runs_with` does: one
/// worker per chunk, slots written in offset order.
fn programs_for(count: usize, threads: usize) -> Vec<Vec<WriteOp>> {
    chunk_plan(count, threads)
        .into_iter()
        .enumerate()
        .map(|(chunk, (start, len))| {
            (0..len)
                .map(|offset| WriteOp {
                    chunk,
                    slot: start + offset,
                })
                .collect()
        })
        .collect()
}

#[test]
fn chunk_plan_partitions_every_index_range() {
    for count in 0..=40 {
        for threads in 1..=10 {
            let plan = chunk_plan(count, threads);
            let mut covered = vec![false; count];
            let mut previous_end = 0;
            for &(start, len) in &plan {
                assert!(len >= 1, "empty chunk in plan for {count}/{threads}");
                assert_eq!(start, previous_end, "chunks not contiguous/ordered");
                for (slot, seen) in covered.iter_mut().enumerate().skip(start).take(len) {
                    assert!(!*seen, "slot {slot} assigned twice");
                    *seen = true;
                }
                previous_end = start + len;
            }
            assert_eq!(previous_end, count, "plan does not cover 0..{count}");
            assert!(covered.iter().all(|&c| c), "uncovered slot");
        }
    }
}

#[test]
fn every_interleaving_writes_each_slot_exactly_once() {
    // Small enough for exhaustive exploration, large enough to cover
    // uneven final chunks (5/2 -> 3+2, 7/3 -> 3+3+1) and the
    // single-chunk degenerate case.
    for (count, threads) in [(4, 2), (5, 2), (6, 3), (7, 3), (3, 1), (2, 2)] {
        let programs = programs_for(count, threads);
        let explored = explore(&programs, count);
        assert!(
            explored > 0,
            "no interleavings explored for {count}/{threads}"
        );
    }
}

#[test]
fn parallel_results_match_sequential_for_all_worker_counts() {
    let job = |i: usize| {
        // A job whose value depends only on its index, like the
        // seed-derived experiment runs.
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
    };
    let expected: Vec<u64> = (0..23).map(job).collect();
    for threads in 1..=9 {
        assert_eq!(
            parallel_runs_with(23, threads, job),
            expected,
            "results diverge at {threads} threads"
        );
    }
}

/// Real-loom model of the same protocol, for environments where the
/// `loom` crate is available: build with
/// `RUSTFLAGS="--cfg loom"` after adding `loom` as a dev-dependency.
/// Not compiled in this offline workspace.
#[cfg(loom)]
mod with_loom {
    use loom::sync::atomic::{AtomicU64, Ordering};
    use loom::sync::Arc;

    #[test]
    fn chunked_slot_writes_are_race_free_under_loom() {
        loom::model(|| {
            let slots: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
            let plan = [(0usize, 2usize), (2, 2)];
            let handles: Vec<_> = plan
                .iter()
                .map(|&(start, len)| {
                    let slots = Arc::clone(&slots);
                    loom::thread::spawn(move || {
                        for offset in 0..len {
                            slots[start + offset].store(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for s in slots.iter() {
                assert_eq!(s.load(Ordering::Relaxed), 1);
            }
        });
    }
}
