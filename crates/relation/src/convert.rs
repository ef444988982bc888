//! Conversions between flat and generalized relations.
//!
//! These back the paper's claim that the generalized join "is a
//! generalization of the 'natural join' for 1NF relations": embedding two
//! flat relations, joining generally, and reading the result back gives
//! exactly the classical natural join (experiment E4 measures the
//! overhead; `tests/join_generalizes.rs` proves the equality on random
//! inputs).

use crate::error::RelationError;
use crate::flat::{Relation, Schema, Tuple};
use crate::generalized::GenRelation;
use dbpl_values::Value;

/// Embed a flat relation as a generalized relation (every tuple becomes a
/// total record).
///
/// The embedding is faithful only on key-like data: distinct 1NF tuples
/// that stand in the information order (impossible — flat tuples over one
/// schema are total, hence comparable only when equal) are never subsumed,
/// so no information is lost.
pub fn to_generalized(rel: &Relation) -> GenRelation {
    GenRelation::from_values(rel.tuples().map(|t| Value::Record(t.clone().into())))
}

/// Read a generalized relation back as a flat relation over `schema`.
/// Every object must be total over the schema, flat and well-typed;
/// objects carrying *extra* fields are rejected (they would not round-trip).
pub fn to_flat(gen: &GenRelation, schema: Schema) -> Result<Relation, RelationError> {
    let mut rel = Relation::new(schema);
    for row in gen.rows() {
        let fields = row
            .as_record()
            .ok_or_else(|| RelationError::NotARecord(row.to_string()))?;
        let tuple: Tuple = fields.clone().into_iter().collect();
        rel.insert(tuple)?;
    }
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::Type;

    fn emp() -> Relation {
        let schema = Schema::new([("Name", Type::Str), ("Dept", Type::Str)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert_row([("Name", Value::str("ann")), ("Dept", Value::str("S"))])
            .unwrap();
        r.insert_row([("Name", Value::str("bob")), ("Dept", Value::str("M"))])
            .unwrap();
        r
    }

    fn dept() -> Relation {
        let schema = Schema::new([("Dept", Type::Str), ("City", Type::Str)]).unwrap();
        let mut r = Relation::new(schema);
        r.insert_row([("Dept", Value::str("S")), ("City", Value::str("Austin"))])
            .unwrap();
        r.insert_row([("Dept", Value::str("M")), ("City", Value::str("Moose"))])
            .unwrap();
        r
    }

    #[test]
    fn roundtrip_is_identity() {
        let r = emp();
        let g = to_generalized(&r);
        assert_eq!(g.len(), r.len());
        let back = to_flat(&g, r.schema().clone()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn generalized_join_specializes_to_natural_join() {
        let flat_join = emp().natural_join(&dept()).unwrap();
        let gen_join = to_generalized(&emp()).natural_join(&to_generalized(&dept()));
        let back = to_flat(&gen_join, flat_join.schema().clone()).unwrap();
        assert_eq!(back, flat_join);
    }

    #[test]
    fn partial_objects_do_not_flatten() {
        let g = GenRelation::from_values([Value::record([("Name", Value::str("x"))])]);
        let schema = Schema::new([("Name", Type::Str), ("Dept", Type::Str)]).unwrap();
        assert!(to_flat(&g, schema).is_err());
    }

    #[test]
    fn non_records_do_not_flatten() {
        let g = GenRelation::from_values([Value::Int(3)]);
        let schema = Schema::new([("A", Type::Int)]).unwrap();
        assert!(matches!(
            to_flat(&g, schema),
            Err(RelationError::NotARecord(_))
        ));
    }
}
