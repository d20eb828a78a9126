//! Persistent-worker grid launcher.
//!
//! The paper dynamically assigns chunks to thread blocks for load balance
//! (§III-E). The simulation runs its blocks on the same **persistent
//! worker pool** that backs the host-side parallel paths, through the same
//! claim loop ([`rayon::map_claimed`], one block per claim): each
//! participating thread repeatedly claims the next block index from an
//! atomic counter, so a launch costs an epoch broadcast instead of a
//! spawn/join of fresh OS threads per call.
//! Because indices are claimed **in ascending order** and workers never
//! block on *later* indices, any block a worker waits on during decoupled
//! look-back is either finished or currently running — the same
//! forward-progress argument real single-pass scans rely on (resident
//! blocks make progress). That argument also survives the pool's inline
//! nested-launch path (a single sequential claimant finishes every
//! earlier block before looking back at it).

/// Launch `num_blocks` instances of `kernel` on `workers` persistent
/// worker threads. `kernel(b)` is called exactly once for every
/// `b in 0..num_blocks`.
///
/// # Panics
/// Propagates panics from kernels (the pool joins all participants before
/// unwinding).
pub fn launch<F>(num_blocks: usize, workers: usize, kernel: F)
where
    F: Fn(usize) + Sync,
{
    launch_init(num_blocks, workers, || (), |(), b| kernel(b));
}

/// [`launch`] with per-worker state and per-block results: each
/// participating thread calls `init` at most once (lazily, on its first
/// claimed block) and passes the state to every kernel invocation it
/// claims. This models per-SM shared memory — kernels reuse
/// worker-resident scratch buffers instead of allocating per block.
/// Returns every block's result in block order.
///
/// # Panics
/// Propagates panics from kernels (the pool joins all participants before
/// unwinding).
pub fn launch_init<S, R, I, F>(num_blocks: usize, workers: usize, init: I, kernel: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    rayon::map_claimed(num_blocks, workers, 1, init, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_block_runs_once() {
        let n = 1000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        launch(n, 8, |b| {
            flags[b].fetch_add(1, Ordering::SeqCst);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_blocks_is_noop() {
        launch(0, 4, |_| panic!("must not run"));
    }

    #[test]
    fn single_worker_is_sequential() {
        let order = parking_lot::Mutex::new(Vec::new());
        launch(10, 1, |b| order.lock().push(b));
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_state_covers_all_blocks() {
        let n = 500;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let inits = AtomicU64::new(0);
        launch_init(
            n,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |seen, b| {
                seen.push(b);
                flags[b].fetch_add(1, Ordering::SeqCst);
            },
        );
        assert!(flags.iter().all(|f| f.load(Ordering::SeqCst) == 1));
        assert!(inits.load(Ordering::SeqCst) <= 4, "one init per worker");
    }
}
