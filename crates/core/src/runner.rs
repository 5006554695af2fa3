//! Deterministic fan-out helper: run independent jobs across scoped
//! worker threads without changing a single output byte. (The run
//! drivers themselves live in [`crate::run`].)

/// Runs `job(i)` for every index in `0..count` across worker threads,
/// returning results in index order.
///
/// Determinism: each job must derive all of its randomness from its own
/// index (the drivers map the index to an independent `SimRng` seed), so
/// the result vector is **bit-identical** to the sequential
/// `(0..count).map(job)` loop — only the wall-clock changes. This is
/// what lets the median-of-k experiment drivers parallelize without
/// perturbing any published figure.
///
/// Indices are split into contiguous chunks, one scoped thread per
/// chunk, capped at the machine's available parallelism (overridable
/// via the `LAGOVER_THREADS` environment variable). Falls back to the
/// plain sequential loop when only one worker would run.
pub fn parallel_runs<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_runs_with(count, default_threads(), job)
}

/// Worker count for [`parallel_runs`]: `LAGOVER_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
fn default_threads() -> usize {
    std::env::var("LAGOVER_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The contiguous `(start, len)` chunk assignment [`parallel_runs_with`]
/// hands to its worker threads: `ceil(count / threads)` wide, the last
/// chunk ragged.
fn chunk_plan(count: usize, threads: usize) -> Vec<(usize, usize)> {
    if count == 0 {
        return Vec::new();
    }
    let chunk = count.div_ceil(threads.max(1));
    (0..count)
        .step_by(chunk)
        .map(|start| (start, chunk.min(count - start)))
        .collect()
}

/// [`parallel_runs`] with an explicit worker count. The result is
/// bit-identical for every `threads` value; the count only controls how
/// the index range is chunked across scoped threads.
fn parallel_runs_with<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(count);
    if threads <= 1 {
        return (0..count).map(job).collect();
    }
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(count, || None);
    let job = &job;
    std::thread::scope(|scope| {
        let mut rest = results.as_mut_slice();
        for (start, len) in chunk_plan(count, threads) {
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(job(start + offset));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index filled by its chunk thread"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_runs_matches_sequential_order() {
        let sequential: Vec<u64> = (0..37).map(|i| (i as u64) * 3 + 1).collect();
        let parallel = parallel_runs(37, |i| (i as u64) * 3 + 1);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel_runs(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_runs(1, |i| i), vec![0]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        // Forces the scoped-thread path even on single-CPU machines,
        // including ragged final chunks (37 is not divisible by 4).
        let sequential: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0x9E37) ^ 7)
            .collect();
        for threads in [2, 4, 16, 64] {
            let parallel = parallel_runs_with(37, threads, |i| (i as u64).wrapping_mul(0x9E37) ^ 7);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_results_match_sequential_for_all_worker_counts() {
        // A job whose value depends only on its index, like the
        // seed-derived experiment runs; 23 is prime, so every count
        // from 2 to 9 leaves a ragged final chunk.
        let job = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5;
        let expected: Vec<u64> = (0..23).map(job).collect();
        for threads in 1..=9 {
            assert_eq!(
                parallel_runs_with(23, threads, job),
                expected,
                "results diverge at {threads} threads"
            );
        }
    }

    #[test]
    fn chunk_plan_partitions_every_index_range() {
        for count in 0..=40 {
            for threads in 1..=10 {
                let plan = chunk_plan(count, threads);
                assert!(plan.len() <= threads, "more chunks than workers");
                let mut next = 0;
                for &(start, len) in &plan {
                    assert!(len >= 1, "empty chunk in plan for {count}/{threads}");
                    assert_eq!(start, next, "chunks not contiguous and ordered");
                    next = start + len;
                }
                assert_eq!(next, count, "plan does not cover 0..{count}");
            }
        }
    }
}
