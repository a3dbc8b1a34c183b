//! Executor abstraction for in-round data parallelism.
//!
//! The hierarchical far-field engine splits a round's listeners into
//! fixed-size chunks and hands them to a [`ChunkExecutor`]. The trait lives
//! here, in the channel crate, so the engine can be parallelized by a pool
//! owned higher up the stack (`fading-sim`'s work-stealing pool) without a
//! dependency cycle; [`SerialExecutor`] is the inline single-threaded
//! implementation used by default and in tests.
//!
//! # Determinism contract
//!
//! An executor must run `task(i)` exactly once for every `i in
//! 0..num_tasks` and return only after all of them completed. It may run
//! them in any order, on any threads — the engine's chunking is fixed
//! (independent of thread count), every task writes only its own output
//! slot, and outputs are merged in task-index order afterwards, so
//! scheduling can never leak into results.

/// Runs a batch of independent tasks, possibly in parallel.
///
/// See the module docs for the determinism contract.
pub trait ChunkExecutor: Sync {
    /// Runs `task(i)` for every `i in 0..num_tasks`, returning after all
    /// completed. `task` must be safe to call concurrently from multiple
    /// threads (it is `Sync`).
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// The inline executor: runs every task on the calling thread, in index
/// order. The degenerate (and always-correct) scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl ChunkExecutor for SerialExecutor {
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..num_tasks {
            task(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_executor_runs_every_task_once() {
        let hits = AtomicU64::new(0);
        SerialExecutor.run(17, &|i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), (1 << 17) - 1);
        // Zero tasks is a no-op.
        SerialExecutor.run(0, &|_| panic!("no task to run"));
    }

    #[test]
    fn chunk_executor_is_object_safe() {
        fn _takes_dyn(_e: &dyn ChunkExecutor) {}
    }
}
