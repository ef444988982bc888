//! Cached handles to the query-engine counters in the global
//! [`dbpl_obs`] registry. Each handle is resolved once per process and
//! then costs one relaxed atomic add per use — cheap enough for the
//! `Get` hot paths the E1 smoke gate protects.

use crate::database::GetStrategy;
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

counter_fn!(strategy_scan, "get.strategy.scan");
counter_fn!(strategy_cached_scan, "get.strategy.cached_scan");
counter_fn!(strategy_typed_lists, "get.strategy.typed_lists");
counter_fn!(strategy_par_scan, "get.strategy.par_scan");
counter_fn!(rows_scanned, "get.rows_scanned");
counter_fn!(rows_sealed, "get.rows_sealed");
counter_fn!(stats_observed_puts, "stats.observed_puts");
counter_fn!(stats_observed_removes, "stats.observed_removes");
counter_fn!(stats_rebuilds, "stats.rebuilds");
counter_fn!(store_rows_copied, "store.rows_copied");

/// The selection counter for one `Get` strategy.
pub(crate) fn strategy_counter(strategy: GetStrategy) -> &'static Counter {
    match strategy {
        GetStrategy::Scan => strategy_scan(),
        GetStrategy::CachedScan => strategy_cached_scan(),
        GetStrategy::TypedLists => strategy_typed_lists(),
        GetStrategy::ParScan => strategy_par_scan(),
    }
}
