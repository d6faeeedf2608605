//! Scoped fork-join worker pool for the execution pipeline.
//!
//! The offline toolchain has no rayon, so this is the minimal primitive
//! the parallel Aria phases need: split a batch into contiguous chunks,
//! run each chunk on its own thread, and join in task order. Workers are
//! `std::thread::scope` threads, which lets tasks borrow the batch and
//! the store snapshot without `Arc` or `'static` bounds — and without
//! `unsafe`, which this crate forbids.
//!
//! Spawning per batch costs a few tens of microseconds; the executor only
//! routes work here when the batch is large enough to amortize it (see
//! [`WorkerPool::effective_workers`]). Task 0 always runs on the calling
//! thread, so a pool of `n` workers spawns `n - 1` threads.

use std::time::Instant;

/// Minimum items each worker should own before fanning out; below this the
/// fork-join overhead dominates and the caller runs serially.
pub const MIN_CHUNK: usize = 16;

/// A fixed-width fork-join pool. Cheap to clone (it is only a width); the
/// threads themselves live only for the duration of each call.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new(1)
    }
}

impl WorkerPool {
    /// A pool of `workers` lanes (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Configured width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether every call runs inline on the caller thread.
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Width actually worth using for `items` work items: never more lanes
    /// than leave [`MIN_CHUNK`] items each.
    pub fn effective_workers(&self, items: usize) -> usize {
        self.workers.min(items / MIN_CHUNK).max(1)
    }

    /// Runs the tasks across the pool, returning results in task order.
    /// Task 0 executes on the calling thread; the rest are spawned as
    /// scoped threads. Per-task busy time feeds the utilization counters
    /// in [`crate::stats`].
    pub fn run_tasks<'env, R: Send>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Vec<R> {
        if tasks.len() <= 1 {
            return tasks
                .into_iter()
                .map(|task| {
                    let t0 = Instant::now();
                    let r = task();
                    crate::stats::record_busy_ns(t0.elapsed().as_nanos() as u64);
                    r
                })
                .collect();
        }
        std::thread::scope(|scope| {
            let mut iter = tasks.into_iter();
            let first = iter.next().expect("tasks nonempty");
            let handles: Vec<_> = iter
                .map(|task| {
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let r = task();
                        (r, t0.elapsed().as_nanos() as u64)
                    })
                })
                .collect();
            let t0 = Instant::now();
            let mut out = Vec::with_capacity(handles.len() + 1);
            out.push(first());
            crate::stats::record_busy_ns(t0.elapsed().as_nanos() as u64);
            for h in handles {
                let (r, busy_ns) = h.join().expect("worker task panicked");
                crate::stats::record_busy_ns(busy_ns);
                out.push(r);
            }
            out
        })
    }

    /// Maps `f` over `items` in parallel contiguous chunks, preserving
    /// item order. `f` receives the item's global index. Falls back to a
    /// plain serial map when the batch is too small to fan out.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: &F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let lanes = self.effective_workers(items.len());
        if lanes <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = items.len().div_ceil(lanes);
        let tasks: Vec<Box<dyn FnOnce() -> Vec<R> + Send + '_>> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let base = ci * chunk;
                Box::new(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(base + off, t))
                        .collect()
                }) as Box<dyn FnOnce() -> Vec<R> + Send + '_>
            })
            .collect();
        self.run_tasks(tasks).into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.is_serial());
        let out = pool.map_chunks(&[1, 2, 3], &|i, x: &i32| (i, *x * 10));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn map_chunks_preserves_order_and_indices() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map_chunks(&items, &|i, x: &u64| {
            assert_eq!(i as u64, *x);
            *x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let pool = WorkerPool::new(3);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..7usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(pool.run_tasks(tasks), vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn tasks_can_borrow_locals() {
        let pool = WorkerPool::new(2);
        let data = vec![5u64; 64];
        let sums = pool.map_chunks(&data, &|_, x: &u64| *x);
        assert_eq!(sums.iter().sum::<u64>(), 320);
    }

    #[test]
    fn effective_workers_caps_small_batches() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.effective_workers(1), 1);
        assert_eq!(pool.effective_workers(MIN_CHUNK - 1), 1);
        assert_eq!(pool.effective_workers(MIN_CHUNK * 2), 2);
        assert_eq!(pool.effective_workers(10_000), 8);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }
}
