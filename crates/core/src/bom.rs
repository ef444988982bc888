//! The bill-of-materials computation, with transient memo fields on
//! persistent objects.
//!
//! The paper's closing example: computing the total manufacturing cost of
//! a part is "a text-book exercise but proved rather awkward in some of
//! the languages that were examined":
//!
//! ```text
//! function TotalCost(p: Part);
//!   if p.IsBase then p.PurchasePrice
//!   else p.ManufacturingCost +
//!        sum{TotalCost(q.SubPart) * q.Qty | q in p.Components}
//! ```
//!
//! "The only difficulty … is that when a given subpart is used in more
//! than one way in the manufacture of a larger part, the total cost will
//! be needlessly recomputed … This will happen when the parts explosion
//! diagram is not a tree but a directed acyclic graph. The way out of this
//! is to *memoize* intermediate results … these additional fields are not
//! required to be accessible outside the computation … Even though the
//! Part values … are presumably persistent, there is no need for the
//! additional information to persist."
//!
//! [`TransientFields`] is that mechanism: a side table attaching extra
//! fields to persistent objects by identity, never captured by any
//! persistence model. Experiment E2 measures naive vs memoized cost on
//! DAGs of varying sharing.

use crate::error::CoreError;
use dbpl_types::{parse_type, Type, TypeEnv};
use dbpl_values::{Heap, Label, Oid, RecordFields, Value};
use std::collections::BTreeMap;

/// Transient fields: extra, non-persistent information attached to
/// persistent objects by identity.
#[derive(Debug, Clone, Default)]
pub struct TransientFields {
    table: BTreeMap<Oid, RecordFields>,
}

impl TransientFields {
    /// An empty attachment table.
    pub fn new() -> TransientFields {
        TransientFields::default()
    }

    /// Attach (or overwrite) a transient field on an object.
    pub fn put(&mut self, oid: Oid, field: impl Into<Label>, v: Value) {
        self.table.entry(oid).or_default().insert(field.into(), v);
    }

    /// Read a transient field.
    pub fn get(&self, oid: Oid, field: &str) -> Option<&Value> {
        self.table.get(&oid).and_then(|fs| fs.get(field))
    }

    /// Discard everything (end of the computation — the fields were never
    /// "required to be accessible outside").
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Number of objects carrying attachments.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// The `Part` record type of the example.
pub fn part_type() -> Type {
    parse_type(
        "{Name: Str, IsBase: Bool, PurchasePrice: Float, ManufacturingCost: Float, \
          Mass: Float, Components: List[{Qty: Int, SubPart: Top}]}",
    )
    .expect("valid part type")
}

/// Register the `Part` type in an environment.
pub fn declare_part_type(env: &mut TypeEnv) -> Result<(), CoreError> {
    env.declare("Part", part_type())?;
    Ok(())
}

/// Build a *base* (purchased) part in the heap.
pub fn base_part(heap: &mut Heap, name: &str, price: f64, mass: f64) -> Oid {
    heap.alloc(
        Type::named("Part"),
        Value::record([
            ("Name", Value::str(name)),
            ("IsBase", Value::Bool(true)),
            ("PurchasePrice", Value::float(price)),
            ("ManufacturingCost", Value::float(0.0)),
            ("Mass", Value::float(mass)),
            ("Components", Value::list([])),
        ]),
    )
}

/// Build a *manufactured* part from components `(quantity, subpart)`.
pub fn assembly(
    heap: &mut Heap,
    name: &str,
    manufacturing_cost: f64,
    mass: f64,
    components: &[(i64, Oid)],
) -> Oid {
    let comps: Vec<Value> = components
        .iter()
        .map(|(q, sub)| Value::record([("Qty", Value::Int(*q)), ("SubPart", Value::Ref(*sub))]))
        .collect();
    heap.alloc(
        Type::named("Part"),
        Value::record([
            ("Name", Value::str(name)),
            ("IsBase", Value::Bool(false)),
            ("PurchasePrice", Value::float(0.0)),
            ("ManufacturingCost", Value::float(manufacturing_cost)),
            ("Mass", Value::float(mass)),
            ("Components", Value::List(comps)),
        ]),
    )
}

/// Decoded `Part` fields: `(is_base, price, manufacturing_cost, mass, components)`.
type PartFields = (bool, f64, f64, f64, Vec<(i64, Oid)>);

fn part_fields(heap: &Heap, p: Oid) -> Result<PartFields, CoreError> {
    let obj = heap.get(p)?;
    let is_base = obj
        .value
        .field("IsBase")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let price = obj
        .value
        .field("PurchasePrice")
        .and_then(Value::as_float)
        .unwrap_or(0.0);
    let mcost = obj
        .value
        .field("ManufacturingCost")
        .and_then(Value::as_float)
        .unwrap_or(0.0);
    let mass = obj
        .value
        .field("Mass")
        .and_then(Value::as_float)
        .unwrap_or(0.0);
    let comps = obj
        .value
        .field("Components")
        .and_then(Value::as_list)
        .map(|xs| {
            xs.iter()
                .filter_map(|c| {
                    let q = c.field("Qty")?.as_int()?;
                    let s = c.field("SubPart")?.as_ref_oid()?;
                    Some((q, s))
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    Ok((is_base, price, mcost, mass, comps))
}

/// The paper's recursive `TotalCost` verbatim — no memoization. Returns
/// the cost and the number of part visits (the measure of wasted
/// recomputation on DAGs).
pub fn total_cost_naive(heap: &Heap, p: Oid) -> Result<(f64, u64), CoreError> {
    let (is_base, price, mcost, _, comps) = part_fields(heap, p)?;
    let mut visits = 1u64;
    if is_base {
        return Ok((price, visits));
    }
    let mut total = mcost;
    for (q, sub) in comps {
        let (c, v) = total_cost_naive(heap, sub)?;
        total += c * q as f64;
        visits += v;
    }
    Ok((total, visits))
}

/// `TotalCost` with memoization through transient fields: "it first checks
/// these fields to see if it has already done the computation for the part
/// p". Returns cost and visits (at most one full visit per distinct part).
pub fn total_cost_memo(
    heap: &Heap,
    p: Oid,
    memo: &mut TransientFields,
) -> Result<(f64, u64), CoreError> {
    if let Some(v) = memo.get(p, "TotalCost") {
        let c = v
            .as_float()
            .ok_or_else(|| CoreError::Invalid("bad memo".into()))?;
        return Ok((c, 0));
    }
    let (is_base, price, mcost, _, comps) = part_fields(heap, p)?;
    let mut visits = 1u64;
    let total = if is_base {
        price
    } else {
        let mut t = mcost;
        for (q, sub) in comps {
            let (c, v) = total_cost_memo(heap, sub, memo)?;
            t += c * q as f64;
            visits += v;
        }
        t
    };
    memo.put(p, "TotalCost", Value::float(total));
    Ok((total, visits))
}

/// The paper's actual requirement: "It is required simultaneously to
/// compute the cost of manufacturing and total mass of a manufactured
/// part." One memoized traversal produces both.
pub fn cost_and_mass(
    heap: &Heap,
    p: Oid,
    memo: &mut TransientFields,
) -> Result<(f64, f64), CoreError> {
    if let (Some(c), Some(m)) = (memo.get(p, "TotalCost"), memo.get(p, "TotalMass")) {
        let c = c
            .as_float()
            .ok_or_else(|| CoreError::Invalid("bad memo".into()))?;
        let m = m
            .as_float()
            .ok_or_else(|| CoreError::Invalid("bad memo".into()))?;
        return Ok((c, m));
    }
    let (is_base, price, mcost, own_mass, comps) = part_fields(heap, p)?;
    let (cost, mass) = if is_base {
        (price, own_mass)
    } else {
        let mut c = mcost;
        let mut m = own_mass;
        for (q, sub) in comps {
            let (sc, sm) = cost_and_mass(heap, sub, memo)?;
            c += sc * q as f64;
            m += sm * q as f64;
        }
        (c, m)
    };
    memo.put(p, "TotalCost", Value::float(cost));
    memo.put(p, "TotalMass", Value::float(mass));
    Ok((cost, mass))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// bolt(2.0) ×4 → bracket; bracket ×2 + bolt ×2 → frame.
    fn small_dag(heap: &mut Heap) -> (Oid, Oid, Oid) {
        let bolt = base_part(heap, "bolt", 2.0, 0.1);
        let bracket = assembly(heap, "bracket", 5.0, 1.0, &[(4, bolt)]);
        let frame = assembly(heap, "frame", 10.0, 0.5, &[(2, bracket), (2, bolt)]);
        (bolt, bracket, frame)
    }

    #[test]
    fn paper_recursion_computes_the_right_cost() {
        let mut heap = Heap::new();
        let (_, bracket, frame) = small_dag(&mut heap);
        // bracket = 5 + 4*2 = 13; frame = 10 + 2*13 + 2*2 = 40.
        assert_eq!(total_cost_naive(&heap, bracket).unwrap().0, 13.0);
        assert_eq!(total_cost_naive(&heap, frame).unwrap().0, 40.0);
    }

    #[test]
    fn memoized_cost_agrees_with_naive() {
        let mut heap = Heap::new();
        let (_, _, frame) = small_dag(&mut heap);
        let naive = total_cost_naive(&heap, frame).unwrap().0;
        let mut memo = TransientFields::new();
        let memoized = total_cost_memo(&heap, frame, &mut memo).unwrap().0;
        assert_eq!(naive, memoized);
    }

    #[test]
    fn dag_sharing_causes_recomputation_only_in_naive() {
        let mut heap = Heap::new();
        let (_, _, frame) = small_dag(&mut heap);
        // Naive: frame, bracket, bolt (via bracket), bolt (direct) = 4.
        let (_, naive_visits) = total_cost_naive(&heap, frame).unwrap();
        assert_eq!(naive_visits, 4);
        // Memoized: each of the 3 distinct parts once.
        let mut memo = TransientFields::new();
        let (_, memo_visits) = total_cost_memo(&heap, frame, &mut memo).unwrap();
        assert_eq!(memo_visits, 3);
    }

    #[test]
    fn deep_diamond_dag_is_exponential_for_naive() {
        // A chain of diamonds: part_i uses part_{i-1} twice.
        let mut heap = Heap::new();
        let mut cur = base_part(&mut heap, "leaf", 1.0, 1.0);
        let depth = 12;
        for i in 0..depth {
            cur = assembly(
                &mut heap,
                &format!("lvl{i}"),
                0.0,
                0.0,
                &[(1, cur), (1, cur)],
            );
        }
        let (cost, naive_visits) = total_cost_naive(&heap, cur).unwrap();
        assert_eq!(cost, f64::from(1 << depth));
        assert_eq!(naive_visits, (1 << (depth + 1)) - 1, "2^{{d+1}}−1 visits");
        let mut memo = TransientFields::new();
        let (mcost, memo_visits) = total_cost_memo(&heap, cur, &mut memo).unwrap();
        assert_eq!(mcost, cost);
        assert_eq!(memo_visits, depth as u64 + 1, "one visit per distinct part");
    }

    #[test]
    fn cost_and_mass_computed_simultaneously() {
        let mut heap = Heap::new();
        let (_, _, frame) = small_dag(&mut heap);
        let mut memo = TransientFields::new();
        let (cost, mass) = cost_and_mass(&heap, frame, &mut memo).unwrap();
        assert_eq!(cost, 40.0);
        // mass: frame 0.5 + 2*(bracket 1.0 + 4*0.1) + 2*0.1 = 0.5+2.8+0.2
        assert!((mass - 3.5).abs() < 1e-9);
    }

    #[test]
    fn transient_fields_do_not_persist() {
        use dbpl_persist::Image;
        let mut heap = Heap::new();
        let (_, _, frame) = small_dag(&mut heap);
        let mut memo = TransientFields::new();
        total_cost_memo(&heap, frame, &mut memo).unwrap();
        assert!(!memo.is_empty());
        // Capture an image of the heap: the memo table is simply not part
        // of it — persistence of Part values does not drag the transient
        // fields along.
        let env = TypeEnv::new();
        let img = Image::capture(&env, &heap, &std::collections::BTreeMap::new());
        let (_, restored, _) = img.restore().unwrap();
        for (oid, obj) in restored.iter() {
            assert!(
                obj.value.field("TotalCost").is_none(),
                "object {oid} leaked memo data"
            );
        }
    }

    #[test]
    fn transient_table_basics() {
        let mut t = TransientFields::new();
        let o = Oid(1);
        assert!(t.get(o, "x").is_none());
        t.put(o, "x", Value::Int(1));
        t.put(o, "x", Value::Int(2));
        assert_eq!(t.get(o, "x"), Some(&Value::Int(2)));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn part_type_is_declarable() {
        let mut env = TypeEnv::new();
        declare_part_type(&mut env).unwrap();
        assert!(env.lookup("Part").is_some());
    }
}
