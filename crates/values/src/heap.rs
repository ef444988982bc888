//! The object heap: object identity and sharing.
//!
//! The paper's object-oriented side requires values with *identity*
//! independent of their intrinsic properties (two identical cars in the
//! parking lot). A [`Heap`] owns objects addressed by [`Oid`]s; `Value::Ref`
//! values point into it, giving genuine sharing — the substrate on which
//! the replicating-persistence update anomaly (and intrinsic persistence's
//! avoidance of it) is demonstrated.

use crate::error::ValueError;
use crate::value::{Oid, Value};
use dbpl_types::Type;
use std::collections::{BTreeMap, BTreeSet};

/// A stored object: its declared type and current value.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapObject {
    /// Declared type of the object (persists with it — principle 2).
    pub ty: Type,
    /// Current value.
    pub value: Value,
}

/// An object heap mapping [`Oid`]s to typed objects.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: BTreeMap<Oid, HeapObject>,
    next: u64,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh object, returning its identity.
    pub fn alloc(&mut self, ty: Type, value: Value) -> Oid {
        let oid = Oid(self.next);
        self.next += 1;
        self.objects.insert(oid, HeapObject { ty, value });
        oid
    }

    /// Allocate with a specific `Oid` (used when reloading a persistent
    /// image). Advances the allocator past it.
    pub fn insert_at(&mut self, oid: Oid, ty: Type, value: Value) {
        self.next = self.next.max(oid.0 + 1);
        self.objects.insert(oid, HeapObject { ty, value });
    }

    /// Fetch an object.
    pub fn get(&self, oid: Oid) -> Result<&HeapObject, ValueError> {
        self.objects.get(&oid).ok_or(ValueError::DanglingRef(oid))
    }

    /// Fetch an object mutably.
    pub fn get_mut(&mut self, oid: Oid) -> Result<&mut HeapObject, ValueError> {
        self.objects
            .get_mut(&oid)
            .ok_or(ValueError::DanglingRef(oid))
    }

    /// Overwrite the value of an existing object (identity is preserved —
    /// this is what makes an update visible through *every* reference).
    pub fn update(&mut self, oid: Oid, value: Value) -> Result<(), ValueError> {
        self.get_mut(oid)?.value = value;
        Ok(())
    }

    /// Remove a single object, returning it if present. (Bulk reclamation
    /// should go through [`Heap::sweep`]; this exists for log replay of
    /// recorded deletions.)
    pub fn remove(&mut self, oid: Oid) -> Option<HeapObject> {
        self.objects.remove(&oid)
    }

    /// Does the heap contain this object?
    pub fn contains(&self, oid: Oid) -> bool {
        self.objects.contains_key(&oid)
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The identity the next [`Heap::alloc`] would hand out — a watermark
    /// separating pre-existing objects from ones allocated after this
    /// point (how an MVCC frame finds the objects a program created).
    pub fn next_oid(&self) -> Oid {
        Oid(self.next)
    }

    /// Move the allocator back to `watermark`, so the next
    /// [`Heap::alloc`] hands out that identity again (how an abort gives
    /// back the identities its transaction allocated). No live object
    /// may sit at or above `watermark`.
    pub fn rewind_to(&mut self, watermark: Oid) {
        debug_assert!(
            self.objects.range(watermark..).next().is_none(),
            "rewind below a live object"
        );
        self.next = watermark.0;
    }

    /// Iterate over all objects.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &HeapObject)> {
        self.objects.iter().map(|(o, h)| (*o, h))
    }

    /// Iterate over the objects at or above `watermark` (see
    /// [`Heap::next_oid`]), in O(log n + returned).
    pub fn iter_from(&self, watermark: Oid) -> impl Iterator<Item = (Oid, &HeapObject)> {
        self.objects.range(watermark..).map(|(o, h)| (*o, h))
    }

    /// The set of objects reachable from `roots` by following `Ref`s —
    /// the trace used by intrinsic persistence ("there is no need
    /// physically to retain storage for values for which all reference is
    /// lost").
    pub fn reachable(&self, roots: impl IntoIterator<Item = Oid>) -> BTreeSet<Oid> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<Oid> = roots.into_iter().collect();
        while let Some(o) = stack.pop() {
            if !seen.insert(o) {
                continue;
            }
            if let Some(obj) = self.objects.get(&o) {
                stack.extend(obj.value.direct_refs());
            }
        }
        seen
    }

    /// Drop every object *not* reachable from `roots`; returns the
    /// collected objects in identity order. This is the sweep of
    /// intrinsic persistence.
    pub fn sweep(&mut self, roots: impl IntoIterator<Item = Oid>) -> Vec<(Oid, HeapObject)> {
        let live = self.reachable(roots);
        let dead: Vec<Oid> = self
            .objects
            .keys()
            .copied()
            .filter(|o| !live.contains(o))
            .collect();
        dead.into_iter()
            .filter_map(|o| Some((o, self.objects.remove(&o)?)))
            .collect()
    }

    /// Deep-copy the object graph reachable from `value` out of this heap
    /// into `target`, remapping references; returns the rewritten value.
    ///
    /// This is exactly the *replication* of replicating persistence: "when
    /// a dynamic value is externed, it carries with it everything that is
    /// reachable from that value". Copies lose sharing with the source —
    /// deliberately, since that loss is the paper's update anomaly.
    pub fn replicate_into(&self, value: &Value, target: &mut Heap) -> Result<Value, ValueError> {
        let mut remap: BTreeMap<Oid, Oid> = BTreeMap::new();
        // First pass: allocate blanks for every reachable object so cycles
        // remap correctly.
        let roots = value.direct_refs();
        let reachable = self.reachable(roots);
        for o in &reachable {
            let obj = self.get(*o)?;
            let new = target.alloc(obj.ty.clone(), Value::Unit);
            remap.insert(*o, new);
        }
        // Second pass: rewrite and install values.
        for o in &reachable {
            let obj = self.get(*o)?;
            let rewritten = rewrite_refs(&obj.value, &remap)?;
            target.update(remap[o], rewritten)?;
        }
        rewrite_refs(value, &remap)
    }
}

/// Rewrite every `Ref` in `value` through `remap`.
fn rewrite_refs(value: &Value, remap: &BTreeMap<Oid, Oid>) -> Result<Value, ValueError> {
    Ok(match value {
        Value::Ref(o) => Value::Ref(*remap.get(o).ok_or(ValueError::DanglingRef(*o))?),
        Value::List(xs) => Value::List(
            xs.iter()
                .map(|v| rewrite_refs(v, remap))
                .collect::<Result<_, _>>()?,
        ),
        Value::Set(xs) => Value::Set(
            xs.iter()
                .map(|v| rewrite_refs(v, remap))
                .collect::<Result<_, _>>()?,
        ),
        Value::Record(fs) => Value::Record(
            fs.iter()
                .map(|(l, v)| Ok((*l, rewrite_refs(v, remap)?)))
                .collect::<Result<_, ValueError>>()?,
        ),
        Value::Tagged(l, v) => Value::Tagged(*l, Box::new(rewrite_refs(v, remap)?)),
        Value::Dyn(d) => Value::dynamic(d.ty.clone(), rewrite_refs(&d.value, remap)?),
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_update() {
        let mut h = Heap::new();
        let o = h.alloc(Type::Int, Value::Int(1));
        assert_eq!(h.get(o).unwrap().value, Value::Int(1));
        h.update(o, Value::Int(2)).unwrap();
        assert_eq!(h.get(o).unwrap().value, Value::Int(2));
        assert!(h.get(Oid(99)).is_err());
    }

    #[test]
    fn identity_distinct_from_structure() {
        let mut h = Heap::new();
        let car = Value::record([("Make", Value::str("Chevvy Nova"))]);
        let a = h.alloc(Type::named("Car"), car.clone());
        let b = h.alloc(Type::named("Car"), car);
        assert_ne!(a, b, "two identical cars are two objects");
    }

    #[test]
    fn reachability_follows_nested_refs() {
        let mut h = Heap::new();
        let c = h.alloc(Type::Int, Value::Int(0));
        let b = h.alloc(Type::Top, Value::record([("next", Value::Ref(c))]));
        let a = h.alloc(Type::Top, Value::list([Value::Ref(b)]));
        let orphan = h.alloc(Type::Int, Value::Int(9));
        let live = h.reachable([a]);
        assert!(live.contains(&a) && live.contains(&b) && live.contains(&c));
        assert!(!live.contains(&orphan));
    }

    #[test]
    fn reachability_handles_cycles() {
        let mut h = Heap::new();
        let a = h.alloc(Type::Top, Value::Unit);
        let b = h.alloc(Type::Top, Value::record([("peer", Value::Ref(a))]));
        h.update(a, Value::record([("peer", Value::Ref(b))]))
            .unwrap();
        let live = h.reachable([a]);
        assert_eq!(live, BTreeSet::from([a, b]));
    }

    #[test]
    fn sweep_collects_unreachable() {
        let mut h = Heap::new();
        let a = h.alloc(Type::Int, Value::Int(1));
        let dead = h.alloc(Type::Int, Value::Int(2));
        let collected = h.sweep([a]);
        assert_eq!(
            collected,
            vec![(
                dead,
                HeapObject {
                    ty: Type::Int,
                    value: Value::Int(2)
                }
            )]
        );
        assert!(h.contains(a));
        assert!(!h.contains(dead));
    }

    #[test]
    fn replicate_preserves_structure_but_not_identity() {
        let mut src = Heap::new();
        let shared = src.alloc(Type::Int, Value::Int(42));
        let root = Value::record([("x", Value::Ref(shared)), ("y", Value::Ref(shared))]);

        let mut dst = Heap::new();
        let copied = src.replicate_into(&root, &mut dst).unwrap();

        // Structure: both fields still point at an object holding 42...
        let fx = copied.field("x").unwrap().as_ref_oid().unwrap();
        let fy = copied.field("y").unwrap().as_ref_oid().unwrap();
        assert_eq!(dst.get(fx).unwrap().value, Value::Int(42));
        // ...and internal sharing within one replication is preserved,
        assert_eq!(fx, fy);
        // but the copy has its own identity: updating the source object is
        // invisible through the copy (the germ of the update anomaly).
        src.update(shared, Value::Int(0)).unwrap();
        assert_eq!(dst.get(fx).unwrap().value, Value::Int(42));
    }

    #[test]
    fn replicate_within_one_heap_gets_fresh_identities() {
        let mut h = Heap::new();
        let shared = h.alloc(Type::Int, Value::Int(7));
        let root = Value::record([("p", Value::Ref(shared))]);
        let copied = {
            let src = h.clone();
            src.replicate_into(&root, &mut h).unwrap()
        };
        let new = copied.field("p").unwrap().as_ref_oid().unwrap();
        assert_ne!(new, shared, "replication allocates a distinct object");
        assert_eq!(h.get(new).unwrap().value, Value::Int(7));
    }

    #[test]
    fn replicate_handles_cycles() {
        let mut src = Heap::new();
        let a = src.alloc(Type::Top, Value::Unit);
        let b = src.alloc(Type::Top, Value::record([("peer", Value::Ref(a))]));
        src.update(a, Value::record([("peer", Value::Ref(b))]))
            .unwrap();
        let mut dst = Heap::new();
        let v = src.replicate_into(&Value::Ref(a), &mut dst).unwrap();
        let na = v.as_ref_oid().unwrap();
        let nb = dst
            .get(na)
            .unwrap()
            .value
            .field("peer")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        let back = dst
            .get(nb)
            .unwrap()
            .value
            .field("peer")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        assert_eq!(back, na, "cycle reconstructed in the copy");
    }

    #[test]
    fn insert_at_advances_allocator() {
        let mut h = Heap::new();
        h.insert_at(Oid(10), Type::Int, Value::Int(1));
        let fresh = h.alloc(Type::Int, Value::Int(2));
        assert!(fresh.0 > 10);
    }

    #[test]
    fn rewind_hands_out_the_same_identities_again() {
        let mut h = Heap::new();
        h.alloc(Type::Int, Value::Int(1));
        let mark = h.next_oid();
        let a = h.alloc(Type::Int, Value::Int(2));
        h.remove(a);
        h.rewind_to(mark);
        assert_eq!(h.next_oid(), mark);
        assert_eq!(h.alloc(Type::Int, Value::Int(3)), a);
    }
}
