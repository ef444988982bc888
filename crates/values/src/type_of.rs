//! `typeOf`: computing the type description of a value.
//!
//! Amber "provides a special type `Type` whose values describe types, and a
//! special function `typeOf` that takes any dynamic value and returns a
//! description (another value) of its type". Here the description *is* a
//! [`Type`], computed structurally: the principal (most specific) type of
//! the value.

use crate::error::ValueError;
use crate::heap::Heap;
use crate::value::Value;
use dbpl_types::{join, Type, TypeEnv};

/// The principal structural type of a value.
///
/// * records type as records of their fields' principal types;
/// * list/set element types are the [`join`] of the members' types (an
///   empty list is `List[Bottom]`);
/// * a `Dyn` value types as `Dynamic` (its carried type is only revealed by
///   `coerce`, as in the paper);
/// * a `Ref` types as the *declared* type of the heap object it points to.
pub fn type_of(v: &Value, env: &TypeEnv, heap: &Heap) -> Result<Type, ValueError> {
    Ok(match v {
        Value::Unit => Type::Unit,
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::Int,
        Value::Float(_) => Type::Float,
        Value::Str(_) => Type::Str,
        Value::List(xs) => {
            let mut elem = Type::Bottom;
            for x in xs {
                let t = type_of(x, env, heap)?;
                elem = join(&elem, &t, env);
            }
            Type::list(elem)
        }
        Value::Set(xs) => {
            let mut elem = Type::Bottom;
            for x in xs {
                let t = type_of(x, env, heap)?;
                elem = join(&elem, &t, env);
            }
            Type::set(elem)
        }
        Value::Record(fs) => {
            let mut fields = dbpl_types::Fields::new();
            for (l, x) in fs {
                fields.insert(*l, type_of(x, env, heap)?);
            }
            Type::Record(fields)
        }
        Value::Tagged(l, x) => Type::variant([(*l, type_of(x, env, heap)?)]),
        Value::Dyn(_) => Type::Dynamic,
        Value::Ref(oid) => heap.get(*oid)?.ty.clone(),
    })
}

/// The type *carried* by a dynamic value (the paper's `typeOf d`), or the
/// principal type for non-dynamic values.
pub fn carried_type(v: &Value, env: &TypeEnv, heap: &Heap) -> Result<Type, ValueError> {
    match v {
        Value::Dyn(d) => Ok(d.ty.clone()),
        other => type_of(other, env, heap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_types() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        assert_eq!(type_of(&Value::Int(1), &env, &heap).unwrap(), Type::Int);
        assert_eq!(type_of(&Value::str("x"), &env, &heap).unwrap(), Type::Str);
        assert_eq!(type_of(&Value::Unit, &env, &heap).unwrap(), Type::Unit);
    }

    #[test]
    fn record_types_are_principal() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        let v = Value::record([("Name", Value::str("a")), ("Age", Value::Int(3))]);
        assert_eq!(
            type_of(&v, &env, &heap).unwrap(),
            Type::record([("Name", Type::Str), ("Age", Type::Int)])
        );
    }

    #[test]
    fn heterogeneous_list_joins_elements() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        // Employee-ish and Student-ish records join to Person-ish.
        let v = Value::list([
            Value::record([("Name", Value::str("a")), ("Empno", Value::Int(1))]),
            Value::record([("Name", Value::str("b")), ("Gpa", Value::float(3.5))]),
        ]);
        assert_eq!(
            type_of(&v, &env, &heap).unwrap(),
            Type::list(Type::record([("Name", Type::Str)]))
        );
    }

    #[test]
    fn empty_list_is_list_bottom() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        assert_eq!(
            type_of(&Value::list([]), &env, &heap).unwrap(),
            Type::list(Type::Bottom)
        );
    }

    #[test]
    fn int_and_float_join_to_float() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        let v = Value::list([Value::Int(1), Value::float(2.5)]);
        assert_eq!(type_of(&v, &env, &heap).unwrap(), Type::list(Type::Float));
    }

    #[test]
    fn dynamic_hides_carried_type() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        let d = Value::dynamic(Type::Int, Value::Int(3));
        assert_eq!(type_of(&d, &env, &heap).unwrap(), Type::Dynamic);
        assert_eq!(carried_type(&d, &env, &heap).unwrap(), Type::Int);
    }

    #[test]
    fn refs_use_declared_heap_type() {
        let env = TypeEnv::new();
        let mut heap = Heap::new();
        let o = heap.alloc(
            Type::named("Person"),
            Value::record([("Name", Value::str("d"))]),
        );
        assert_eq!(
            type_of(&Value::Ref(o), &env, &heap).unwrap(),
            Type::named("Person")
        );
        assert!(type_of(&Value::Ref(crate::value::Oid(404)), &env, &heap).is_err());
    }

    #[test]
    fn tagged_values_type_as_singleton_variants() {
        let env = TypeEnv::new();
        let heap = Heap::new();
        let v = Value::tagged("Cons", Value::Int(1));
        assert_eq!(
            type_of(&v, &env, &heap).unwrap(),
            Type::variant([("Cons", Type::Int)])
        );
    }
}
