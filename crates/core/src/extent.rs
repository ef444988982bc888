//! Extents, divorced from types.
//!
//! The paper argues a database programming language should separate a
//! *type* from its *extent* (the set of all values of that type in the
//! database): one may want **multiple extents per type** (hypothetical
//! database states, memo tables), **transient extents** (intermediate
//! relations), and types with **no useful extent at all** (`Int`).
//!
//! [`ExtentManager`] provides maintained extents in the Taxis/Adaplex
//! style — explicit insertion and deletion, with the *inclusion hierarchy
//! derived from the type hierarchy*: when cascading is on, "creating an
//! instance of Employee will also create a new instance of Person", i.e.
//! inserting into an extent inserts into every extent at a supertype, and
//! deletion cascades downward to extents at subtypes, preserving the
//! inclusion invariant checked by [`ExtentManager::check_inclusions`].
//!
//! [`TypedListIndex`] is the alternative implementation the paper
//! mentions — "keep a set of (statically) typed lists with appropriate
//! structure sharing" — indexing the dynamic store by carried type so a
//! `Get` touches only the lists at subtypes of the bound.

use crate::error::CoreError;
use dbpl_types::{is_subtype, Type, TypeEnv};
use dbpl_values::{Heap, Oid};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A maintained extent: a named set of object identities at a type.
#[derive(Debug, Clone)]
pub struct Extent {
    name: String,
    elem_ty: Type,
    members: BTreeSet<Oid>,
    transient: bool,
}

impl Extent {
    /// The extent's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element type.
    pub fn elem_type(&self) -> &Type {
        &self.elem_ty
    }

    /// Member identities.
    pub fn members(&self) -> impl Iterator<Item = Oid> + '_ {
        self.members.iter().copied()
    }

    /// Membership test.
    pub fn contains(&self, oid: Oid) -> bool {
        self.members.contains(&oid)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Is the extent empty?
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Is the extent transient (excluded from persistence)?
    pub fn is_transient(&self) -> bool {
        self.transient
    }
}

/// A collection of maintained extents with hierarchy-linked insertion.
#[derive(Debug, Clone, Default)]
pub struct ExtentManager {
    extents: BTreeMap<String, Extent>,
    /// When true, insertion cascades to supertype extents and deletion to
    /// subtype extents (the Taxis/Adaplex semantics). When false, extents
    /// are fully independent (the paper's "more general framework").
    cascade: bool,
}

impl ExtentManager {
    /// A manager with independent extents.
    pub fn new() -> ExtentManager {
        ExtentManager::default()
    }

    /// A manager with hierarchy-linked (cascading) extents.
    pub fn with_cascade() -> ExtentManager {
        ExtentManager {
            cascade: true,
            ..Default::default()
        }
    }

    /// Is cascading on?
    pub fn cascading(&self) -> bool {
        self.cascade
    }

    /// Create an extent. Multiple extents may share one element type —
    /// precisely what single-class-construct languages cannot express.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        elem_ty: Type,
        transient: bool,
    ) -> Result<(), CoreError> {
        let name = name.into();
        if self.extents.contains_key(&name) {
            return Err(CoreError::ExtentExists(name));
        }
        self.extents.insert(
            name.clone(),
            Extent {
                name,
                elem_ty,
                members: BTreeSet::new(),
                transient,
            },
        );
        Ok(())
    }

    /// Drop an extent (objects survive; only the collection goes away —
    /// the whole point of separating extent from type).
    pub fn drop_extent(&mut self, name: &str) -> Result<Extent, CoreError> {
        self.extents
            .remove(name)
            .ok_or_else(|| CoreError::UnknownExtent(name.to_string()))
    }

    /// Look up an extent.
    pub fn extent(&self, name: &str) -> Result<&Extent, CoreError> {
        self.extents
            .get(name)
            .ok_or_else(|| CoreError::UnknownExtent(name.to_string()))
    }

    /// All extents.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> {
        self.extents.values()
    }

    /// Insert an object (by identity) into an extent. The object's
    /// declared type must be a subtype of the extent's element type. With
    /// cascading on, the object also joins every extent whose element type
    /// is a supertype of *this extent's* element type.
    pub fn insert(
        &mut self,
        name: &str,
        oid: Oid,
        heap: &Heap,
        env: &TypeEnv,
    ) -> Result<(), CoreError> {
        let obj_ty = heap.get(oid)?.ty.clone();
        let elem_ty = {
            let e = self.extent(name)?;
            if !is_subtype(&obj_ty, &e.elem_ty, env) {
                return Err(CoreError::NotAMember {
                    extent: name.to_string(),
                    expected: e.elem_ty.clone(),
                    got: obj_ty,
                });
            }
            e.elem_ty.clone()
        };
        self.extents
            .get_mut(name)
            .expect("checked")
            .members
            .insert(oid);
        if self.cascade {
            for e in self.extents.values_mut() {
                if e.name != name && is_subtype(&elem_ty, &e.elem_ty, env) {
                    e.members.insert(oid);
                }
            }
        }
        Ok(())
    }

    /// Remove an object from an extent. With cascading on, the object also
    /// leaves every extent at a *subtype* (it cannot remain an Employee
    /// after ceasing to be a Person).
    pub fn remove(&mut self, name: &str, oid: Oid, env: &TypeEnv) -> Result<bool, CoreError> {
        let elem_ty = self.extent(name)?.elem_ty.clone();
        let was = self
            .extents
            .get_mut(name)
            .expect("checked")
            .members
            .remove(&oid);
        if self.cascade && was {
            for e in self.extents.values_mut() {
                if e.name != name && is_subtype(&e.elem_ty, &elem_ty, env) {
                    e.members.remove(&oid);
                }
            }
        }
        Ok(was)
    }

    /// Verify the inclusion invariant: for any two extents with `T₁ ≤ T₂`,
    /// `members(T₁) ⊆ members(T₂)`. Returns the violating pair if any.
    /// (Trivially holds under cascading; independent extents may violate
    /// it freely — that is their point.)
    pub fn check_inclusions(&self, env: &TypeEnv) -> Option<(String, String)> {
        for a in self.extents.values() {
            for b in self.extents.values() {
                if a.name != b.name
                    && is_subtype(&a.elem_ty, &b.elem_ty, env)
                    && !a.members.is_subset(&b.members)
                {
                    return Some((a.name.clone(), b.name.clone()));
                }
            }
        }
        None
    }

    /// Drop all transient extents (called when a database image is
    /// captured: transient extents are not required to persist).
    pub fn drop_transient(&mut self) {
        self.extents.retain(|_, e| !e.transient);
    }

    /// Remove members whose object no longer exists in `heap`, returning
    /// each pruned `(extent, oid)` pair. A graceful-degradation sweep: a
    /// dangling member (left by damage or a partial recovery) would
    /// otherwise poison every traversal of its extent.
    pub fn prune_dangling(&mut self, heap: &Heap) -> Vec<(String, Oid)> {
        let mut pruned = Vec::new();
        for e in self.extents.values_mut() {
            let dead: Vec<Oid> = e
                .members
                .iter()
                .copied()
                .filter(|oid| !heap.contains(*oid))
                .collect();
            for oid in dead {
                e.members.remove(&oid);
                pruned.push((e.name.clone(), oid));
            }
        }
        pruned
    }
}

/// An index of a dynamic store by carried type: "a set of (statically)
/// typed lists". A `Get` then unions the lists whose type is a subtype of
/// the bound — one subtype check per *distinct type*, not per element.
/// Each list holds its rows' positions in ascending (store) order.
#[derive(Debug, Clone, Default)]
pub struct TypedListIndex {
    lists: BTreeMap<Type, Vec<usize>>,
}

impl TypedListIndex {
    /// Empty index.
    pub fn new() -> TypedListIndex {
        TypedListIndex::default()
    }

    /// Register element `pos` (past every position added so far) as
    /// carrying type `ty`. Returns the index's own copy of the type — the
    /// canonical key every row of that carried type can share.
    pub fn add(&mut self, ty: Type, pos: usize) -> Type {
        match self.lists.entry(ty) {
            Entry::Occupied(mut list) => {
                list.get_mut().push(pos);
                list.key().clone()
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                slot.insert(vec![pos]);
                key
            }
        }
    }

    /// The carried types that are subtypes of `bound`.
    pub fn matching(&self, bound: &Type, env: &TypeEnv) -> Vec<Type> {
        self.lists
            .keys()
            .filter(|ty| is_subtype(ty, bound, env))
            .cloned()
            .collect()
    }

    /// The positions of the elements carrying exactly `ty`, ascending.
    pub fn positions(&self, ty: &Type) -> &[usize] {
        self.lists.get(ty).map_or(&[], Vec::as_slice)
    }

    /// The carried types, in type order.
    pub fn types(&self) -> impl Iterator<Item = &Type> {
        self.lists.keys()
    }

    /// Number of distinct carried types.
    pub fn distinct_types(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::parse_type;
    use dbpl_values::{DynValue, Value};

    fn env() -> TypeEnv {
        let mut e = TypeEnv::new();
        e.declare("Person", parse_type("{Name: Str}").unwrap())
            .unwrap();
        e.declare("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
            .unwrap();
        e.declare(
            "Manager",
            parse_type("{Name: Str, Empno: Int, Reports: Int}").unwrap(),
        )
        .unwrap();
        e
    }

    fn person_obj(heap: &mut Heap, ty: &str, name: &str) -> Oid {
        let mut v = Value::record([("Name", Value::str(name))]);
        if ty != "Person" {
            v = dbpl_values::extend(&v, [("Empno", Value::Int(1))]).unwrap();
        }
        if ty == "Manager" {
            v = dbpl_values::extend(&v, [("Reports", Value::Int(3))]).unwrap();
        }
        heap.alloc(Type::named(ty), v)
    }

    #[test]
    fn cascade_insertion_implements_taxis_semantics() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::with_cascade();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        let e = person_obj(&mut heap, "Employee", "e1");
        m.insert("employees", e, &heap, &env).unwrap();
        // "creating an instance of EMPLOYEE will also be in the extent of
        // PERSON".
        assert!(m.extent("persons").unwrap().contains(e));
        assert!(m.check_inclusions(&env).is_none());
    }

    #[test]
    fn cascade_is_transitive_through_the_hierarchy() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::with_cascade();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        m.create("managers", Type::named("Manager"), false).unwrap();
        let boss = person_obj(&mut heap, "Manager", "m1");
        m.insert("managers", boss, &heap, &env).unwrap();
        assert!(m.extent("employees").unwrap().contains(boss));
        assert!(m.extent("persons").unwrap().contains(boss));
    }

    #[test]
    fn cascade_deletion_goes_downward() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::with_cascade();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        let e = person_obj(&mut heap, "Employee", "e1");
        m.insert("employees", e, &heap, &env).unwrap();
        // Removing from the superclass removes from the subclass too...
        assert!(m.remove("persons", e, &env).unwrap());
        assert!(!m.extent("employees").unwrap().contains(e));
        // ...but removing from a subclass leaves the superclass alone.
        let e2 = person_obj(&mut heap, "Employee", "e2");
        m.insert("employees", e2, &heap, &env).unwrap();
        m.remove("employees", e2, &env).unwrap();
        assert!(m.extent("persons").unwrap().contains(e2));
        assert!(m.check_inclusions(&env).is_none());
    }

    #[test]
    fn typed_insertion_is_checked() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::new();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        let p = person_obj(&mut heap, "Person", "p1");
        assert!(matches!(
            m.insert("employees", p, &heap, &env),
            Err(CoreError::NotAMember { .. })
        ));
    }

    #[test]
    fn multiple_extents_per_type() {
        // "One may want to experiment with hypothetical states of the
        // database" — two independent Person extents.
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::new();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("hypothetical", Type::named("Person"), true)
            .unwrap();
        let p = person_obj(&mut heap, "Person", "p1");
        m.insert("persons", p, &heap, &env).unwrap();
        let q = person_obj(&mut heap, "Person", "p2");
        m.insert("hypothetical", q, &heap, &env).unwrap();
        assert_eq!(m.extent("persons").unwrap().len(), 1);
        assert_eq!(m.extent("hypothetical").unwrap().len(), 1);
        assert!(!m.extent("persons").unwrap().contains(q));
    }

    #[test]
    fn transient_extents_drop_at_persistence_time() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::new();
        m.create("durable", Type::named("Person"), false).unwrap();
        m.create("memo", Type::named("Person"), true).unwrap();
        let p = person_obj(&mut heap, "Person", "p");
        m.insert("memo", p, &heap, &env).unwrap();
        m.drop_transient();
        assert!(m.extent("memo").is_err());
        assert!(m.extent("durable").is_ok());
    }

    #[test]
    fn duplicate_extent_names_rejected() {
        let mut m = ExtentManager::new();
        m.create("e", Type::Int, false).unwrap();
        assert!(matches!(
            m.create("e", Type::Int, false),
            Err(CoreError::ExtentExists(_))
        ));
        assert!(matches!(
            m.extent("missing"),
            Err(CoreError::UnknownExtent(_))
        ));
    }

    #[test]
    fn independent_extents_may_violate_inclusion() {
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::new(); // no cascade
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        let e = person_obj(&mut heap, "Employee", "e");
        m.insert("employees", e, &heap, &env).unwrap();
        // e is an Employee but not in persons: inclusion violated — and
        // the checker reports it.
        assert_eq!(
            m.check_inclusions(&env),
            Some(("employees".to_string(), "persons".to_string()))
        );
    }

    #[test]
    fn cascading_insert_loop_does_o_types_structural_walks() {
        // 10k cascading inserts over a 3-extent hierarchy: every subtype
        // question is one of ≤ 9 distinct (type, type) pairs, so the memo
        // table must bound the structural walks by the *type* count — not
        // the insert count.
        let env = env();
        let mut heap = Heap::new();
        let mut m = ExtentManager::with_cascade();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.create("employees", Type::named("Employee"), false)
            .unwrap();
        m.create("managers", Type::named("Manager"), false).unwrap();
        let misses_before = env.subtype_cache().misses();
        for i in 0..10_000 {
            let ty = ["Person", "Employee", "Manager"][i % 3];
            let extent = ["persons", "employees", "managers"][i % 3];
            let oid = person_obj(&mut heap, ty, &format!("o{i}"));
            m.insert(extent, oid, &heap, &env).unwrap();
        }
        let walks = env.subtype_cache().misses() - misses_before;
        assert!(
            walks <= 9,
            "expected at most one structural walk per (type, type) pair, got {walks}"
        );
        assert!(m.check_inclusions(&env).is_none());
    }

    #[test]
    fn typed_list_index_agrees_with_scan() {
        let env = env();
        let dynamics: Vec<DynValue> = vec![
            DynValue::new(
                Type::named("Person"),
                Value::record([("Name", Value::str("p"))]),
            ),
            DynValue::new(
                Type::named("Employee"),
                Value::record([("Name", Value::str("e")), ("Empno", Value::Int(1))]),
            ),
            DynValue::new(Type::Int, Value::Int(1)),
            DynValue::new(
                Type::named("Employee"),
                Value::record([("Name", Value::str("f")), ("Empno", Value::Int(2))]),
            ),
        ];
        let mut idx = TypedListIndex::new();
        for (i, d) in dynamics.iter().enumerate() {
            idx.add(d.ty.clone(), i);
        }
        assert_eq!(idx.distinct_types(), 3);
        for bound in [
            Type::named("Person"),
            Type::named("Employee"),
            Type::Int,
            Type::Top,
        ] {
            let mut via_index: Vec<usize> = idx
                .matching(&bound, &env)
                .iter()
                .flat_map(|ty| idx.positions(ty))
                .copied()
                .collect();
            via_index.sort_unstable();
            let via_scan: Vec<usize> = dynamics
                .iter()
                .enumerate()
                .filter(|(_, d)| dbpl_types::is_subtype(&d.ty, &bound, &env))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(via_index, via_scan, "bound {bound}");
        }
    }

    #[test]
    fn prune_dangling_drops_members_without_objects() {
        let env = env();
        let mut heap = Heap::new();
        let live = heap.alloc(
            Type::named("Person"),
            Value::record([("Name", Value::str("ok"))]),
        );
        let doomed = heap.alloc(
            Type::named("Person"),
            Value::record([("Name", Value::str("gone"))]),
        );
        let mut m = ExtentManager::new();
        m.create("persons", Type::named("Person"), false).unwrap();
        m.insert("persons", live, &heap, &env).unwrap();
        m.insert("persons", doomed, &heap, &env).unwrap();
        heap.remove(doomed);
        let pruned = m.prune_dangling(&heap);
        assert_eq!(pruned, vec![("persons".to_string(), doomed)]);
        let e = m.extent("persons").unwrap();
        assert!(e.contains(live) && !e.contains(doomed));
        assert!(m.prune_dangling(&heap).is_empty());
    }
}
