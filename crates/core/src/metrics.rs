//! Cached handles to the query-engine counters in the global
//! [`dbpl_obs`] registry. Each handle is resolved once per process and
//! then costs one relaxed atomic add per use — cheap enough for the
//! `Get` hot paths the E1 smoke gate protects.

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
counter_fn!(strategy_typed_lists, "get.strategy.typed_lists");
counter_fn!(rows_scanned, "get.rows_scanned");
counter_fn!(rows_sealed, "get.rows_sealed");
counter_fn!(store_rows_copied, "store.rows_copied");
