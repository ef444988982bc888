//! Amber (Cardelli 1984): inheritance on types, a very general
//! persistence, and **no class construct at all**.
//!
//! "Amber … supports inheritance on types and a very general form of
//! persistence but … has no built-in class construct." The database is a
//! list of dynamic values; extents are *derived* by interrogating carried
//! types; persistence is replicating, through `extern`/`intern` of
//! self-describing units.
//!
//! This model is a thin assembly over `dbpl-core` and `dbpl-persist` —
//! deliberately: the point of the paper (and of this reproduction) is that
//! Amber-style databases need nothing beyond the type system and generic
//! functions.

use crate::error::ModelError;
use dbpl_core::{scan_get, ExistsPkg};
use dbpl_persist::ReplicatingStore;
use dbpl_types::{Type, TypeEnv};
use dbpl_values::{carried_type, make_dynamic, DynValue, Heap, Value};
use std::path::Path;

/// An Amber program's world: a type environment, a heterogeneous list of
/// dynamic values, and a replicating store.
pub struct AmberProgram {
    /// Structural type environment ("type declarations serve only to
    /// create names for types").
    pub env: TypeEnv,
    /// The database: a list of dynamic values.
    pub database: Vec<DynValue>,
    heap: Heap,
    store: ReplicatingStore,
}

impl AmberProgram {
    /// A program with a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<AmberProgram, ModelError> {
        let store = ReplicatingStore::open(dir).map_err(|e| ModelError::Io(e.to_string()))?;
        Ok(AmberProgram {
            env: TypeEnv::new(),
            database: Vec::new(),
            heap: Heap::new(),
            store,
        })
    }

    /// `dynamic v : T` (checked).
    pub fn dynamic(&self, ty: Type, v: Value) -> Result<DynValue, ModelError> {
        let d = make_dynamic(ty, v, &self.env, &self.heap)
            .map_err(|e| ModelError::Restriction(e.to_string()))?;
        match d {
            Value::Dyn(b) => Ok(*b),
            _ => unreachable!("make_dynamic returns a Dyn"),
        }
    }

    /// Add a dynamic value to the database list (totally unconstrained, as
    /// the paper notes).
    pub fn add(&mut self, d: DynValue) {
        self.database.push(d);
    }

    /// `typeOf` — the carried description of a dynamic value.
    pub fn type_of(&self, d: &DynValue) -> Result<Type, ModelError> {
        carried_type(&Value::Dyn(Box::new(d.clone())), &self.env, &self.heap)
            .map_err(|e| ModelError::Restriction(e.to_string()))
    }

    /// `coerce d to T` — the run-time-checked projection.
    pub fn coerce(&self, d: &DynValue, want: &Type) -> Result<Value, ModelError> {
        dbpl_values::coerce(d, want, &self.env).map_err(|e| ModelError::Restriction(e.to_string()))
    }

    /// The derived extent: all database members at a subtype of `bound` —
    /// no class construct needed.
    pub fn extract(&self, bound: &Type) -> Vec<ExistsPkg> {
        scan_get(&self.database, bound, &self.env)
    }

    /// `extern(handle, d)` — replicate to storage.
    pub fn extern_value(&self, handle: &str, d: &DynValue) -> Result<(), ModelError> {
        self.store
            .extern_value(handle, d, &self.heap)
            .map_err(|e| ModelError::Io(e.to_string()))
    }

    /// `intern handle` — read a copy back.
    pub fn intern(&mut self, handle: &str) -> Result<DynValue, ModelError> {
        self.store
            .intern(handle, &mut self.heap)
            .map_err(|e| ModelError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program over a fresh directory, removed when the guard drops.
    fn program(name: &str) -> (dbpl_persist::TempDir, AmberProgram) {
        let dir = dbpl_persist::TempDir::new(&format!("amber-{name}")).unwrap();
        let mut p = AmberProgram::open(&dir).unwrap();
        p.env
            .declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        p.env
            .declare(
                "Employee",
                Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
            )
            .unwrap();
        (dir, p)
    }

    #[test]
    fn database_is_a_list_of_dynamics_with_derived_extents() {
        let (_dir, mut p) = program("derived");
        let e = p
            .dynamic(
                Type::named("Employee"),
                Value::record([("Name", Value::str("e")), ("Empno", Value::Int(1))]),
            )
            .unwrap();
        let q = p
            .dynamic(
                Type::named("Person"),
                Value::record([("Name", Value::str("p"))]),
            )
            .unwrap();
        let i = p.dynamic(Type::Int, Value::Int(3)).unwrap();
        p.add(e);
        p.add(q);
        p.add(i);
        assert_eq!(p.extract(&Type::named("Person")).len(), 2);
        assert_eq!(p.extract(&Type::named("Employee")).len(), 1);
        assert_eq!(p.extract(&Type::Int).len(), 1);
    }

    #[test]
    fn paper_dynamic_coerce_example() {
        let (_dir, p) = program("coerce");
        let d = p.dynamic(Type::Int, Value::Int(3)).unwrap();
        assert_eq!(p.coerce(&d, &Type::Int).unwrap(), Value::Int(3));
        assert!(p.coerce(&d, &Type::Str).is_err(), "run-time exception");
        assert_eq!(p.type_of(&d).unwrap(), Type::Int);
    }

    #[test]
    fn extern_intern_database_roundtrip() {
        // The paper's DBFile fragment.
        let (_dir, mut p) = program("roundtrip");
        let db_ty = Type::record([("Employees", Type::list(Type::named("Employee")))]);
        let d = p
            .dynamic(
                db_ty.clone(),
                Value::record([(
                    "Employees",
                    Value::list([Value::record([
                        ("Name", Value::str("J Doe")),
                        ("Empno", Value::Int(1)),
                    ])]),
                )]),
            )
            .unwrap();
        p.extern_value("DBFile", &d).unwrap();
        let x = p.intern("DBFile").unwrap();
        let v = p.coerce(&x, &db_ty).unwrap();
        assert_eq!(v.field("Employees").unwrap().as_list().unwrap().len(), 1);
        // Coercing at the wrong type fails.
        assert!(p
            .coerce(&x, &Type::record([("Departments", Type::Int)]))
            .is_err());
    }
}
