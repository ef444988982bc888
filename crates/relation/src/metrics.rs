//! Cached handles to the join counters in the global [`dbpl_obs`]
//! registry. Resolved once per process; one relaxed atomic add per use,
//! aggregated per join call (never per row pair).

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

counter_fn!(strategy_nested, "join.strategy.nested");
counter_fn!(strategy_partitioned, "join.strategy.partitioned");
counter_fn!(partition_buckets, "join.partitioned.buckets");
counter_fn!(fallback_rows, "join.partitioned.fallback_rows");
counter_fn!(products_serial, "join.products.serial");
counter_fn!(products_parallel, "join.products.parallel");
counter_fn!(reduce_pairs_compared, "join.reduce.pairs_compared");
