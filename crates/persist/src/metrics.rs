//! Cached handles to the storage counters in the global [`dbpl_obs`]
//! registry: VFS operation counts (via [`crate::vfs::CountingVfs`]),
//! transient-retry counts (via [`crate::vfs::RetryPolicy`]) and
//! commit-log checkpoints (via [`crate::txn::checkpoint`]).

use dbpl_obs::Counter;
use std::sync::{Arc, OnceLock};

macro_rules! counter_fn {
    ($fn_name:ident, $metric:expr) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| dbpl_obs::global().counter($metric))
        }
    };
}

counter_fn!(vfs_reads, "vfs.reads");
counter_fn!(vfs_writes, "vfs.writes");
counter_fn!(vfs_fsyncs, "vfs.fsyncs");
counter_fn!(vfs_renames, "vfs.renames");
counter_fn!(io_retries, "io.retries");
counter_fn!(faults_injected, "faults.injected");
counter_fn!(scrub_verified, "scrub.verified");
counter_fn!(scrub_corrupt, "scrub.corrupt");
counter_fn!(scrub_repaired, "scrub.repaired");
counter_fn!(checkpoints, "persist.checkpoints");
counter_fn!(checkpoint_fsyncs, "persist.checkpoint_fsyncs");
