//! The [`Database`] facade: type, extent and persistence, separated but
//! composed.
//!
//! A database here is what the paper's uniform design implies:
//!
//! * a [`TypeEnv`] — the schema-as-types, whose subtype hierarchy *is* the
//!   class hierarchy;
//! * a heterogeneous store of dynamic values (the "list of dynamic
//!   values" the paper builds in Amber) plus an object [`Heap`] for
//!   identity;
//! * the generic [`Database::get`] — `Get : ∀t. Database → List[∃t' ≤ t]`
//!   — answered from the typed-list index, with the paper's whole-store
//!   scan kept as its oracle ([`Database::get_by_scan`], compared in E1);
//! * optional maintained extents and key constraints, available but never
//!   *required*: type, extent and persistence stay separate;
//! * bridges to every persistence model (snapshot image capture,
//!   replicating extern/intern, attachment to an intrinsic store).

use crate::error::CoreError;
use crate::extent::{ExtentManager, TypedListIndex};
use crate::get::{conformance_sweep, scan_get, ExistsPkg, GetView};
use crate::hierarchy::ClassHierarchy;
use crate::store::Store;
use dbpl_persist::{Image, QuarantineEntry, QuarantineReason, QuarantineReport};
use dbpl_stats::{ExtentStats, StatsCatalog, Tally};
use dbpl_types::{Type, TypeEnv};
use dbpl_values::{conforms, DynValue, Heap, Mode, Oid, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A database: types + heterogeneous values + optional extents + keys.
///
/// The bulky components (heap, dynamic store, typed-list index, extents,
/// bindings) live behind [`Arc`]s with copy-on-write mutation
/// (`Arc::make_mut`), so [`Database::clone`] is O(1): it shares every
/// component with the original. This is what makes epoch-stamped MVCC
/// snapshots cheap — the engine clones the published database per reader
/// and per writer frame, and only a component a writer actually touches
/// is copied (once per exclusive lineage, not per clone). The dynamic
/// store is chunked, so a `put` on a shared snapshot copies the chunk
/// pointers and at most one chunk of rows, not the store. The public API
/// is unchanged: `&mut self` methods transparently un-share first.
#[derive(Debug, Clone, Default)]
pub struct Database {
    env: TypeEnv,
    heap: Arc<Heap>,
    dynamics: Store,
    index: Arc<TypedListIndex>,
    extents: Arc<ExtentManager>,
    bindings: Arc<BTreeMap<String, DynValue>>,
    /// Damaged units and elements skipped instead of failing queries —
    /// the per-database quarantine report.
    quarantined: Vec<QuarantineEntry>,
    /// Positions in `dynamics` excluded from every `Get`. Positions, not
    /// removals: the typed-list index stores positions, so removing an
    /// element would shift everything after it. Shared, like the other
    /// components, so a [`GetView`] can hold it.
    quarantined_positions: Arc<BTreeSet<usize>>,
}

impl Database {
    /// An empty database with a structural type environment.
    pub fn new() -> Database {
        Database::default()
    }

    /// An empty database over a prepared environment.
    pub fn with_env(env: TypeEnv) -> Database {
        Database {
            env,
            ..Default::default()
        }
    }

    /// The type environment.
    pub fn env(&self) -> &TypeEnv {
        &self.env
    }

    /// Mutable access to the type environment.
    pub fn env_mut(&mut self) -> &mut TypeEnv {
        &mut self.env
    }

    /// Declare a named type.
    pub fn declare_type(&mut self, name: impl Into<String>, ty: Type) -> Result<(), CoreError> {
        self.env.declare(name, ty)?;
        Ok(())
    }

    /// The object heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the heap (copy-on-write: un-shares first).
    pub fn heap_mut(&mut self) -> &mut Heap {
        Arc::make_mut(&mut self.heap)
    }

    /// Allocate an object with identity.
    pub fn alloc(&mut self, ty: Type, value: Value) -> Result<Oid, CoreError> {
        conforms(&value, &ty, &self.env, &self.heap, Mode::Strict)?;
        Ok(Arc::make_mut(&mut self.heap).alloc(ty, value))
    }

    /// The extent manager.
    pub fn extents(&self) -> &ExtentManager {
        &self.extents
    }

    /// Mutable access to the extent manager (copy-on-write).
    pub fn extents_mut(&mut self) -> &mut ExtentManager {
        Arc::make_mut(&mut self.extents)
    }

    /// Switch extent insertion to the cascading (Taxis/Adaplex) semantics.
    pub fn enable_extent_cascade(&mut self) {
        let old = std::mem::take(&mut self.extents);
        let mut fresh = ExtentManager::with_cascade();
        // Two passes: every extent must exist before members are
        // re-inserted, or the cascade would miss late-created targets.
        for e in old.iter() {
            fresh
                .create(
                    e.name().to_string(),
                    e.elem_type().clone(),
                    e.is_transient(),
                )
                .expect("names were unique");
        }
        for e in old.iter() {
            for m in e.members() {
                // Re-inserting under cascade re-establishes inclusions.
                let _ = fresh.insert(e.name(), m, &self.heap, &self.env);
            }
        }
        self.extents = Arc::new(fresh);
    }

    /// Insert a value into the heterogeneous dynamic store, checked
    /// against its declared type. "This 'database' is completely
    /// unconstrained: we can put any dynamic value in it." The row
    /// carries the typed-list index's copy of its type, so every row of
    /// one record type shares one field map.
    pub fn put(&mut self, ty: Type, value: Value) -> Result<usize, CoreError> {
        conforms(&value, &ty, &self.env, &self.heap, Mode::Strict)?;
        let pos = self.dynamics.len();
        let ty = Arc::make_mut(&mut self.index).add(ty, pos);
        let copied = self.dynamics.push(DynValue::new(ty, value));
        if copied > 0 {
            crate::metrics::store_rows_copied().add(copied as u64);
        }
        Ok(pos)
    }

    /// Insert an already-dynamic value.
    pub fn put_dyn(&mut self, d: DynValue) -> Result<usize, CoreError> {
        self.put(d.ty, d.value)
    }

    /// The raw dynamic store as one contiguous slice. The store is kept
    /// in chunks, so the first call after a write builds (and caches) a
    /// copy of every row: a compatibility view for oracles and tests. The
    /// copy is shallow where it matters: a row's record fields and its
    /// record type are shared maps, so copying a record row bumps
    /// refcounts instead of copying its fields. Iterate with
    /// [`Database::rows_from`] instead where a slice is not needed.
    pub fn dynamics(&self) -> &[DynValue] {
        self.dynamics.as_slice()
    }

    /// The stored dynamic values from position `start` on, in order,
    /// without copying (`rows_from(0)` is the whole store).
    pub fn rows_from(&self, start: usize) -> impl Iterator<Item = &DynValue> {
        self.dynamics.iter_from(start)
    }

    /// Number of stored dynamic values.
    pub fn len(&self) -> usize {
        self.dynamics.len()
    }

    /// Is the dynamic store empty?
    pub fn is_empty(&self) -> bool {
        self.dynamics.len() == 0
    }

    /// `Get[t](db)`: every stored value whose type is a subtype of
    /// `bound`, as existential packages: the [`Database::get_view`]
    /// collected, in store order. Quarantined elements are skipped — a
    /// damaged element degrades the result, never the query.
    pub fn get(&self, bound: &Type) -> Vec<ExistsPkg> {
        let view = self.get_view(bound);
        let mut out = Vec::with_capacity(view.len());
        out.extend(view.iter());
        out
    }

    /// `Get[t](db)` unsealed: a [`GetView`] of the typed lists ("a set of
    /// (statically) typed lists") whose carried type is a (cached)
    /// subtype of the bound, over this snapshot. Its length is known
    /// without touching a row; packages are sealed as it is iterated.
    pub fn get_view(&self, bound: &Type) -> GetView {
        self.traced_get(
            "typed_lists",
            crate::metrics::strategy_typed_lists(),
            || {
                let types = {
                    let mut index = dbpl_obs::span!("get.index");
                    let types = self.index.matching(bound, &self.env);
                    index.set_attr(
                        "candidates",
                        types
                            .iter()
                            .map(|ty| self.index.positions(ty).len())
                            .sum::<usize>(),
                    );
                    types
                };
                let mut seal = dbpl_obs::span!("get.seal");
                // Index membership *is* the `witness ≤ bound` judgement,
                // so rows are never re-verified; the view shares the
                // store, the index and the quarantine set.
                let view = GetView::new(
                    self.dynamics.clone(),
                    Arc::clone(&self.index),
                    types,
                    Arc::clone(&self.quarantined_positions),
                    bound.clone(),
                );
                let len = view.len();
                seal.set_attr("rows_out", len);
                (view, len)
            },
        )
    }

    /// The paper's `Get` by traversal — "not a very efficient solution":
    /// [`scan_get`] over every healthy row, structurally checking each
    /// carried type. The oracle [`Database::get`] is differentially
    /// tested and benchmarked (E1) against; it returns the same packages
    /// and is traced and logged as strategy `scan`.
    pub fn get_by_scan(&self, bound: &Type) -> Vec<ExistsPkg> {
        self.traced_get("scan", crate::metrics::strategy_scan(), || {
            // No quarantine: scan the store's chunks as-is; otherwise
            // scan a copy of the healthy rows.
            let healthy: Vec<DynValue>;
            let parts: Vec<&[DynValue]> = if self.quarantined_positions.is_empty() {
                self.dynamics.parts().collect()
            } else {
                healthy = self.healthy_rows().cloned().collect();
                vec![&healthy]
            };
            let mut scan = dbpl_obs::span!("get.scan");
            scan.set_attr("rows_in", parts.iter().map(|p| p.len()).sum::<usize>());
            let out: Vec<ExistsPkg> = parts
                .iter()
                .flat_map(|p| scan_get(p, bound, &self.env))
                .collect();
            scan.set_attr("rows_out", out.len());
            crate::metrics::rows_sealed().add(out.len() as u64);
            let len = out.len();
            (out, len)
        })
    }

    /// What both `Get`s record: a `get` span (attributes `strategy` and
    /// `rows_out`, from which the query log derives its `get:<name>`
    /// record) over a `get.plan` stage and the strategy's own stages,
    /// and the `get.strategy.<name>` counter. `run` returns the result
    /// and its row count.
    fn traced_get<T>(
        &self,
        strategy: &'static str,
        counter: &dbpl_obs::Counter,
        run: impl FnOnce() -> (T, usize),
    ) -> T {
        let mut root = dbpl_obs::span!("get");
        root.set_attr("strategy", strategy);
        counter.inc();
        {
            let mut plan = dbpl_obs::span!("get.plan");
            plan.set_attr("store_rows", self.dynamics.len());
            plan.set_attr("quarantined", self.quarantined_positions.len());
        }
        let (out, rows_out) = run();
        root.set_attr("rows_out", rows_out);
        out
    }

    /// Record a damaged unit skipped at a persistence boundary (e.g. an
    /// undecodable `.dyn` package) in this database's quarantine report.
    pub fn record_quarantine(&mut self, handle: impl Into<String>, cause: impl Into<String>) {
        let entry = QuarantineEntry {
            handle: handle.into(),
            cause: cause.into(),
            reason: QuarantineReason::Undecodable,
        };
        dbpl_obs::emit(dbpl_obs::Event::Quarantine {
            handle: entry.handle.clone(),
            reason: entry.cause.clone(),
        });
        self.quarantined.push(entry);
    }

    /// Quarantine a position in the dynamic store: every `Get` skips it
    /// from now on, and the report gains an entry naming it.
    pub fn quarantine_position(&mut self, pos: usize, cause: impl Into<String>) {
        if pos < self.dynamics.len() && Arc::make_mut(&mut self.quarantined_positions).insert(pos) {
            let entry = QuarantineEntry {
                handle: format!("dynamics[{pos}]"),
                cause: cause.into(),
                reason: QuarantineReason::Undecodable,
            };
            dbpl_obs::emit(dbpl_obs::Event::Quarantine {
                handle: entry.handle.clone(),
                reason: entry.cause.clone(),
            });
            self.quarantined.push(entry);
        }
    }

    /// The quarantine report: everything this database skipped instead of
    /// failing on (count, handles, causes).
    pub fn quarantine_report(&self) -> QuarantineReport {
        QuarantineReport {
            entries: self.quarantined.clone(),
        }
    }

    /// Re-verify every stored dynamic against its carried type and
    /// quarantine the ones that no longer conform (dangling references,
    /// structural damage). Returns how many new positions were
    /// quarantined. Queries keep working on the healthy remainder.
    pub fn verify_dynamics(&mut self) -> usize {
        let mut bad = Vec::new();
        let mut base = 0;
        for part in self.dynamics.parts() {
            bad.extend(
                conformance_sweep(part, &self.env, &self.heap)
                    .into_iter()
                    .map(|(pos, cause)| (base + pos, cause)),
            );
            base += part.len();
        }
        let mut added = 0;
        for (pos, cause) in bad {
            if !self.quarantined_positions.contains(&pos) {
                self.quarantine_position(pos, cause);
                added += 1;
            }
        }
        added
    }

    /// The class hierarchy — derived from the type hierarchy, on demand.
    pub fn class_hierarchy(&self) -> ClassHierarchy {
        ClassHierarchy::derive(&self.env)
    }

    /// The healthy rows: the dynamic store minus quarantined positions —
    /// exactly what queries see.
    fn healthy_rows(&self) -> impl Iterator<Item = &DynValue> {
        self.dynamics
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantined_positions.contains(i))
            .map(|(_, d)| d)
    }

    /// The healthy rows carrying exactly `ty`, from its typed list.
    fn typed_rows<'a>(&'a self, ty: &Type) -> impl Iterator<Item = &'a DynValue> {
        self.index
            .positions(ty)
            .iter()
            .filter(|pos| !self.quarantined_positions.contains(pos))
            .map(|&pos| {
                let (chunk, at) = self.dynamics.locate(pos);
                &chunk[at]
            })
    }

    /// Per carried type with healthy rows, its statistics, counted now
    /// in one pass over each typed list.
    pub fn stats_catalog(&self) -> StatsCatalog {
        self.index
            .types()
            .filter_map(|ty| {
                let mut tally = Tally::default();
                self.typed_rows(ty).for_each(|d| tally.add(&d.value));
                (tally.rows() > 0).then(|| (ty.clone(), tally.finish(1)))
            })
            .collect()
    }

    /// The statistics of the extent at `bound` under this database's
    /// subtype judgement, counted now in one pass over the typed lists
    /// `Get` would read: total rows, fully-ground rows, subtype fan-out
    /// (the carried types with healthy rows) and per-path counts.
    pub fn extent_stats(&self, bound: &Type) -> ExtentStats {
        let mut tally = Tally::default();
        let mut fanout = 0;
        for ty in self.index.matching(bound, &self.env) {
            let before = tally.rows();
            self.typed_rows(&ty).for_each(|d| tally.add(&d.value));
            fanout += u64::from(tally.rows() > before);
        }
        tally.finish(fanout)
    }

    /// Does nothing: statistics are computed when asked for, so there is
    /// no upkeep to switch. It stays only because the benchmark's write
    /// probe (`perfbench`) still calls it, and goes with that call.
    pub fn set_stats_enabled(&mut self, _on: bool) {}

    /// Bind a top-level name to a dynamic value (session variables; these
    /// are what an all-or-nothing image captures).
    pub fn bind(&mut self, name: impl Into<String>, d: DynValue) {
        Arc::make_mut(&mut self.bindings).insert(name.into(), d);
    }

    /// Look up a top-level binding.
    pub fn binding(&self, name: &str) -> Option<&DynValue> {
        self.bindings.get(name)
    }

    /// Capture an all-or-nothing [`Image`] of this database. Transient
    /// extents are excluded (they "are not required to persist"); the
    /// dynamic store rides along as a binding so nothing else is lost.
    pub fn capture_image(&self) -> Image {
        let mut bindings = (*self.bindings).clone();
        // The dynamic store itself is a value: a list of dynamics.
        bindings.insert(
            "__dynamics".to_string(),
            DynValue::new(
                Type::list(Type::Dynamic),
                Value::List(
                    self.dynamics
                        .iter()
                        .map(|d| Value::Dyn(Box::new(d.clone())))
                        .collect(),
                ),
            ),
        );
        Image::capture(&self.env, &self.heap, &bindings)
    }

    /// Persist this database's durable state into an intrinsic store (one
    /// handle per concern), ready for [`Database::load_from_intrinsic`].
    /// Transient extents are not saved; maintained extents ride along as
    /// data. Call `store.commit()` afterwards to make it durable.
    pub fn save_to_intrinsic(
        &self,
        store: &mut dbpl_persist::IntrinsicStore,
    ) -> Result<(), CoreError> {
        // The whole durable state is one image value: reuse the snapshot
        // encoding as the handle payload, so principle 2 (type travels
        // with value) holds for the database as a unit.
        let img = self.capture_image();
        let bytes = img.encode();
        store.set_handle(
            "__database_image",
            Type::Str,
            Value::str(bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()),
        );
        Ok(())
    }

    /// Load a database previously saved with
    /// [`Database::save_to_intrinsic`].
    pub fn load_from_intrinsic(
        store: &dbpl_persist::IntrinsicStore,
    ) -> Result<Database, CoreError> {
        let (_, v) = store
            .handle("__database_image")
            .ok_or_else(|| CoreError::Invalid("no database image in store".into()))?;
        let hex = v
            .as_str()
            .ok_or_else(|| CoreError::Invalid("database image is not a string".into()))?;
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
            .collect::<Result<_, _>>()
            .map_err(|_| CoreError::Invalid("corrupt database image".into()))?;
        let img = Image::decode(&bytes).map_err(CoreError::Persist)?;
        Database::from_image(&img)
    }

    /// Fork a *hypothetical state*: an independent copy to "experiment
    /// with hypothetical states of the database" (one of the paper's
    /// motivations for multiple extents). Mutations to the fork leave the
    /// original untouched; [`Database::adopt`] commits a hypothesis back.
    pub fn fork(&self) -> Database {
        self.clone()
    }

    /// Adopt a hypothetical state: replace this database's contents with
    /// the fork's. (A deliberate whole-state commit — partial merges are
    /// the application's business.)
    pub fn adopt(&mut self, hypothesis: Database) {
        *self = hypothesis;
    }

    /// Restore a database from an image.
    pub fn from_image(img: &Image) -> Result<Database, CoreError> {
        let (env, heap, mut bindings) = img.restore()?;
        let mut dynamics = Vec::new();
        let mut index = TypedListIndex::new();
        if let Some(d) = bindings.remove("__dynamics") {
            if let Value::List(xs) = d.value {
                for x in xs {
                    if let Value::Dyn(b) = x {
                        // As in `put`: the row shares the index's copy of
                        // its carried type.
                        let DynValue { ty, value } = *b;
                        let ty = index.add(ty, dynamics.len());
                        dynamics.push(DynValue::new(ty, value));
                    }
                }
            }
        }
        Ok(Database {
            env,
            heap: Arc::new(heap),
            dynamics: dynamics.into_iter().collect(),
            index: Arc::new(index),
            extents: Arc::new(ExtentManager::new()),
            bindings: Arc::new(bindings),
            quarantined: Vec::new(),
            quarantined_positions: Arc::default(),
        })
    }

    /// Do this database and `other` share the same dynamic-store storage?
    /// True right after a [`Database::clone`] (or [`Database::fork`]),
    /// false once either side's store has been written — the observable
    /// face of copy-on-write snapshots, used by tests and the engine to
    /// assert that snapshot capture is O(1).
    pub fn shares_storage_with(&self, other: &Database) -> bool {
        self.dynamics.same_storage(&other.dynamics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::parse_type;

    fn db() -> Database {
        let mut db = Database::new();
        db.declare_type("Person", parse_type("{Name: Str}").unwrap())
            .unwrap();
        db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
            .unwrap();
        db.put(
            Type::named("Person"),
            Value::record([("Name", Value::str("p"))]),
        )
        .unwrap();
        db.put(
            Type::named("Employee"),
            Value::record([("Name", Value::str("e")), ("Empno", Value::Int(1))]),
        )
        .unwrap();
        db.put(Type::Int, Value::Int(7)).unwrap();
        db
    }

    #[test]
    fn put_is_typechecked() {
        let mut d = db();
        assert!(d
            .put(
                Type::named("Employee"),
                Value::record([("Name", Value::str("x"))])
            )
            .is_err());
        assert!(d.put(Type::named("Ghost"), Value::Unit).is_err());
    }

    #[test]
    fn get_agrees_with_the_scan_oracle() {
        let d = db();
        for bound in [
            Type::named("Person"),
            Type::named("Employee"),
            Type::Int,
            Type::Top,
        ] {
            assert_eq!(d.get(&bound), d.get_by_scan(&bound), "at {bound}");
        }
    }

    #[test]
    fn get_respects_hierarchy() {
        let d = db();
        assert_eq!(d.get(&Type::named("Person")).len(), 2);
        assert_eq!(d.get(&Type::named("Employee")).len(), 1);
        assert_eq!(d.get(&Type::Top).len(), 3);
    }

    #[test]
    fn the_view_counts_without_sealing_and_merges_in_store_order() {
        let mut d = db();
        let person = |n: &str| Value::record([("Name", Value::str(n))]);
        d.put(Type::named("Person"), person("p2")).unwrap();
        d.put(
            Type::named("Employee"),
            Value::record([("Name", Value::str("e2")), ("Empno", Value::Int(2))]),
        )
        .unwrap();
        d.quarantine_position(1, "planted damage");
        let bound = Type::named("Person");
        let view = d.get_view(&bound);
        assert_eq!(view.len(), 3, "p, p2 and e2; e is quarantined");
        let got: Vec<ExistsPkg> = view.iter().collect();
        assert_eq!(got, d.get_by_scan(&bound), "the lists merge in store order");
        let witnesses: Vec<String> = got.iter().map(|p| p.witness().to_string()).collect();
        assert_eq!(witnesses, ["Person", "Person", "Employee"]);
        let rows: Vec<DynValue> = view
            .rows()
            .map(|r| DynValue::new(r.witness().clone(), r.value().clone()))
            .collect();
        let packaged: Vec<DynValue> = got.into_iter().map(ExistsPkg::into_dynamic).collect();
        assert_eq!(rows, packaged, "rows() yields the packages' rows");
        // The view keeps its snapshot: later writes do not reach it.
        d.put(Type::named("Person"), person("late")).unwrap();
        d.quarantine_position(0, "more damage");
        assert_eq!((view.len(), view.iter().count()), (3, 3));
        assert_eq!(d.get_view(&bound).len(), 3);
        assert!(d.get_view(&Type::Bool).is_empty());
    }

    #[test]
    fn the_dynamics_view_shares_record_fields_with_the_store() {
        let d = db();
        let stored = d.rows_from(0).next().unwrap().value.as_record().unwrap();
        let copied = d.dynamics()[0].value.as_record().unwrap();
        assert!(
            stored.ptr_eq(copied),
            "the view copies the row, not its fields"
        );
    }

    #[test]
    fn alloc_is_typechecked() {
        let mut d = db();
        assert!(d
            .alloc(
                Type::named("Person"),
                Value::record([("Name", Value::str("ok"))])
            )
            .is_ok());
        assert!(d.alloc(Type::named("Person"), Value::Int(1)).is_err());
    }

    #[test]
    fn image_roundtrip_preserves_everything_durable() {
        let mut d = db();
        let o = d
            .alloc(
                Type::named("Person"),
                Value::record([("Name", Value::str("h"))]),
            )
            .unwrap();
        d.bind("root", DynValue::new(Type::named("Person"), Value::Ref(o)));
        d.extents_mut()
            .create("memo", Type::named("Person"), true)
            .unwrap();

        let mut before_capture = d.clone();
        before_capture.extents_mut().drop_transient();
        let img = before_capture.capture_image();
        let restored = Database::from_image(&img).unwrap();

        assert_eq!(restored.len(), d.len());
        assert_eq!(restored.get(&Type::named("Person")).len(), 2);
        assert!(restored.binding("root").is_some());
        let ro = restored
            .binding("root")
            .unwrap()
            .value
            .as_ref_oid()
            .unwrap();
        assert_eq!(
            restored.heap().get(ro).unwrap().value.field("Name"),
            Some(&Value::str("h"))
        );
        // The transient extent is gone; that was the point.
        assert!(restored.extents().extent("memo").is_err());
    }

    #[test]
    fn quarantined_positions_are_skipped_by_get_and_the_oracle() {
        let mut d = db();
        let before = d.get(&Type::Top).len();
        // Quarantine the Int element (position 2).
        d.quarantine_position(2, "planted damage");
        let got = d.get(&Type::Top);
        assert_eq!(got.len(), before - 1);
        assert!(got.iter().all(|p| p.witness() != &Type::Int));
        assert_eq!(got, d.get_by_scan(&Type::Top));
        let report = d.quarantine_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report.entries[0].handle, "dynamics[2]");
        assert_eq!(report.entries[0].cause, "planted damage");
        // Quarantining the same position twice does not duplicate.
        d.quarantine_position(2, "again");
        assert_eq!(d.quarantine_report().len(), 1);
    }

    #[test]
    fn verify_dynamics_quarantines_nonconforming_elements() {
        let mut d = db();
        assert_eq!(d.verify_dynamics(), 0);
        // Smuggle a dangling reference in (bypassing put's check).
        let o = d.heap_mut().alloc(Type::Int, Value::Int(5));
        d.put(Type::Int, Value::Ref(o)).unwrap();
        d.heap_mut().remove(o);
        assert_eq!(d.verify_dynamics(), 1);
        // The damaged element is named, and queries keep working.
        assert_eq!(d.quarantine_report().len(), 1);
        assert_eq!(d.get(&Type::Int).len(), 1, "healthy Int still found");
        // A second verify finds nothing new.
        assert_eq!(d.verify_dynamics(), 0);
    }

    #[test]
    fn the_catalog_counts_the_healthy_rows() {
        let mut d = db();
        let rows = |d: &Database| d.stats_catalog().values().map(|s| s.rows).sum::<u64>();
        assert_eq!(rows(&d), 3);
        d.quarantine_position(2, "planted damage");
        assert_eq!(rows(&d), 2);
        let catalog = d.stats_catalog();
        assert!(!catalog.contains_key(&Type::Int), "no healthy Int row");
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn extent_stats_follow_the_subtype_hierarchy() {
        let mut d = db();
        let person = d.extent_stats(&Type::named("Person"));
        assert_eq!(
            (person.rows, person.fanout),
            (2, 2),
            "Employee rows count toward Person"
        );
        assert_eq!(person.ground_rows, 2);
        let name = person.paths.get(&dbpl_values::Path::parse("Name")).unwrap();
        assert_eq!((name.present, name.ground, name.distinct), (2, 2, 2));
        let int = d.extent_stats(&Type::Int);
        assert_eq!((int.rows, int.fanout), (1, 1));
        assert_eq!(d.extent_stats(&Type::Top).rows, 3);
        // A carried type whose rows are all quarantined feeds nothing.
        d.quarantine_position(1, "planted damage");
        let person = d.extent_stats(&Type::named("Person"));
        assert_eq!((person.rows, person.fanout), (1, 1));
    }

    #[test]
    fn forks_and_restored_images_count_their_own_rows() {
        let mut d = db();
        let mut f = d.fork();
        f.put(Type::Int, Value::Int(99)).unwrap();
        let ints = |d: &Database| d.stats_catalog()[&Type::Int].rows;
        assert_eq!(ints(&f), 2);
        assert_eq!(ints(&d), 1, "original untouched");
        d.adopt(f);
        let restored = Database::from_image(&d.capture_image()).unwrap();
        assert_eq!(restored.stats_catalog(), d.stats_catalog());
        assert_eq!(ints(&restored), 2);
    }

    #[test]
    fn get_spans_carry_the_query_log_record() {
        let d = db();
        let (_, spans) = dbpl_obs::trace::capture("test", || d.get_by_scan(&Type::named("Person")));
        let records = dbpl_stats::queries(&spans);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(
            (r.fingerprint.as_str(), r.rows_in, r.rows_out),
            ("get:scan", 3, 2)
        );
    }

    #[test]
    fn cascade_can_be_enabled_after_the_fact() {
        let mut d = db();
        d.extents_mut()
            .create("persons", Type::named("Person"), false)
            .unwrap();
        d.extents_mut()
            .create("employees", Type::named("Employee"), false)
            .unwrap();
        let e = d
            .alloc(
                Type::named("Employee"),
                Value::record([("Name", Value::str("e")), ("Empno", Value::Int(2))]),
            )
            .unwrap();
        // Without cascade: independent.
        let heap = d.heap().clone();
        let env = d.env().clone();
        d.extents_mut().insert("employees", e, &heap, &env).unwrap();
        assert!(!d.extents().extent("persons").unwrap().contains(e));
        // Enabling cascade re-establishes the inclusion hierarchy.
        d.enable_extent_cascade();
        assert!(d.extents().extent("persons").unwrap().contains(e));
        assert!(d.extents().check_inclusions(d.env()).is_none());
    }
}
