//! Workload introspection: extent statistics and the query log, both
//! derived when asked for rather than maintained.
//!
//! * **Extent statistics** ([`Tally`], [`ExtentStats`], [`StatsCatalog`])
//!   — per carried type or per extent: row counts, ground-key density,
//!   and per-definite-path presence and exact distinct-value counts.
//!   `Database::extent_stats` and `Database::stats_catalog` count them
//!   in one pass over the rows, the way the paper derives an extent from
//!   the type lattice instead of maintaining a class. No write pays for
//!   them.
//! * **The query log** ([`queries`], [`top_k`]) — per-query
//!   [`QueryRecord`]s (plan fingerprint, rows in/out, measured duration)
//!   read from the `get` and `join` spans of the trace ring, with top-K
//!   heavy-hitter aggregation by fingerprint. No query pays for it
//!   beyond its span.

mod catalog;
mod hash;
mod log;

pub use catalog::{
    extent_json, is_ground_leaf, render_catalog, ExtentStats, PathStats, StatsCatalog, Tally,
    MAX_PATH_DEPTH,
};
pub use hash::{value_hash, Fnv1a};
pub use log::{queries, query_json, top_json, top_k, FingerprintAgg, QueryRecord};
