//! Deterministic fan-out helpers: run independent jobs, or fold one
//! large index space, across scoped worker threads without changing a
//! single output byte. (The run drivers themselves live in
//! [`crate::run`].)

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

/// Chunk width for splitting `count` indices across `threads` workers:
/// `ceil(count / threads)` by default, overridable via the
/// `LAGOVER_CHUNK` environment variable (clamped to `[1, count]`).
///
/// The override exists for `cargo xtask replay-diff`, which re-runs the
/// figure drivers under several chunkings to prove the results do not
/// depend on how work is split.
fn chunk_size(count: usize, threads: usize) -> usize {
    let default = count.div_ceil(threads.max(1)).max(1);
    std::env::var("LAGOVER_CHUNK")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c: &usize| c >= 1)
        .map_or(default, |c| c.min(count.max(1)))
}

/// The contiguous `(start, len)` chunk assignment [`parallel_runs_with`]
/// hands to its worker threads. Pure and public so the concurrency model
/// tests exercise the *actual* work-splitting logic, not a copy of it.
pub fn chunk_plan(count: usize, threads: usize) -> Vec<(usize, usize)> {
    if count == 0 {
        return Vec::new();
    }
    let chunk = chunk_size(count, threads);
    (0..count)
        .step_by(chunk)
        .map(|start| (start, chunk.min(count - start)))
        .collect()
}

/// [`parallel_runs`] with an explicit worker count. The result is
/// bit-identical for every `threads` value; the knob only controls how
/// the index range is chunked across scoped threads.
pub fn parallel_runs_with<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(count);
    if threads <= 1 {
        return (0..count).map(job).collect();
    }
    let chunk = chunk_size(count, threads);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(count, || None);
    let job = &job;
    std::thread::scope(|scope| {
        for (start, slots) in (0..count).step_by(chunk).zip(results.chunks_mut(chunk)) {
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

/// Minimum index-space size for which [`parallel_fold`] goes wide.
/// Below it, spawning scoped threads costs more than the scan itself.
const PAR_FOLD_MIN: usize = 1 << 15;

/// Deterministic fold over the index space `[0, count)`, split by the
/// same [`chunk_plan`] that [`parallel_runs_with`] uses: each chunk is
/// folded sequentially by `map`, and chunk results are combined
/// left-to-right in chunk order. The output is therefore byte-identical
/// for every `LAGOVER_THREADS` / `LAGOVER_CHUNK` setting — including
/// order-sensitive accumulators — which is what lets the engine's O(N)
/// probes go wide inside a *single* large run without perturbing it.
///
/// Small index spaces (below an internal threshold) and single-thread
/// configurations fold inline with no thread setup at all.
pub fn parallel_fold<T, M, C>(count: usize, map: M, combine: C) -> T
where
    T: Send,
    M: Fn(std::ops::Range<usize>) -> T + Sync,
    C: Fn(T, T) -> T,
{
    // Size first: the thread count costs an env lookup and a syscall,
    // and the engine's per-round probes land here on every round.
    if count < PAR_FOLD_MIN {
        return map(0..count);
    }
    let threads = default_threads().min(count);
    if threads <= 1 {
        return map(0..count);
    }
    let plan = chunk_plan(count, threads);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(plan.len(), || None);
    let map = &map;
    std::thread::scope(|scope| {
        for ((start, len), slot) in plan.iter().copied().zip(results.iter_mut()) {
            scope.spawn(move || {
                *slot = Some(map(start..start + len));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk folded by its thread"))
        .reduce(combine)
        .expect("count >= PAR_FOLD_MIN implies at least one chunk")
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
}
