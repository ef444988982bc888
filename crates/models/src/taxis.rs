//! Taxis (Mylopoulos–Bernstein–Wong 1980): classes all the way up.
//!
//! "In Taxis inheritance is fundamental, and programming constructs such
//! as type, transaction, procedure, exception, set and record all have
//! analogs in Taxis as classes, which are derived through some form of
//! inheritance from a universal class. Taxis, in fact, supports two forms
//! of relationship among classes: *instance* and *subclass*."
//!
//! The model keeps the paper's three-level instance hierarchy (token :
//! class : metaclass) and its two metaclasses:
//!
//! * `VARIABLE_CLASS` — "instances have the property that they have an
//!   associated extent defined by explicit insertion and deletion";
//! * `AGGREGATE_CLASS` — "similar to VARIABLE_CLASS, but does not have an
//!   associated extent … one can think of it as similar to a
//!   record type in other programming languages".
//!
//! Declaring `EMPLOYEE isa PERSON` makes every instance of EMPLOYEE carry
//! PERSON's attributes *and* (for variable classes) appear in PERSON's
//! extent.

use crate::error::ModelError;
use dbpl_core::ExtentManager;
use dbpl_types::{Fields, Type, TypeEnv};
use dbpl_values::{conforms, Heap, Mode, Oid, Value};
use std::collections::BTreeMap;

/// The metaclass of a Taxis class (its node one level up the instance
/// hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaClass {
    /// Has an extent maintained by explicit insertion/deletion.
    VariableClass,
    /// No extent; a record type in all but name.
    AggregateClass,
}

/// A Taxis schema: classes, their metaclasses, isa edges and extents.
pub struct TaxisSchema {
    env: TypeEnv,
    meta: BTreeMap<String, MetaClass>,
    supers: BTreeMap<String, Vec<String>>,
    extents: ExtentManager,
    heap: Heap,
}

impl Default for TaxisSchema {
    fn default() -> Self {
        Self::new()
    }
}

impl TaxisSchema {
    /// An empty schema.
    pub fn new() -> TaxisSchema {
        TaxisSchema {
            env: TypeEnv::new(),
            meta: BTreeMap::new(),
            supers: BTreeMap::new(),
            extents: ExtentManager::with_cascade(),
            heap: Heap::new(),
        }
    }

    /// `CLASS name isa supers with characteristics fields end` — declare a
    /// class as an instance of `meta`. Attributes of every superclass are
    /// inherited; clashes must agree.
    pub fn declare_class(
        &mut self,
        name: &str,
        meta: MetaClass,
        supers: &[&str],
        fields: impl IntoIterator<Item = (&'static str, Type)>,
    ) -> Result<(), ModelError> {
        if self.meta.contains_key(name) {
            return Err(ModelError::Restriction(format!(
                "class `{name}` already declared"
            )));
        }
        let mut all = Fields::new();
        for s in supers {
            let sup_ty = self
                .env
                .lookup(s)
                .ok_or_else(|| ModelError::Unknown(format!("superclass `{s}`")))?;
            if let Type::Record(fs) = sup_ty {
                for (l, t) in fs {
                    if let Some(existing) = all.get(l) {
                        if existing != t {
                            return Err(ModelError::Restriction(format!(
                                "attribute `{l}` inherited at two different types"
                            )));
                        }
                    }
                    all.insert(*l, t.clone());
                }
            }
        }
        for (l, t) in fields {
            all.insert(l.into(), t);
        }
        self.env
            .declare(name.to_string(), Type::Record(all))
            .map_err(|e| ModelError::Restriction(e.to_string()))?;
        self.meta.insert(name.to_string(), meta);
        self.supers.insert(
            name.to_string(),
            supers.iter().map(|s| s.to_string()).collect(),
        );
        if meta == MetaClass::VariableClass {
            self.extents
                .create(name.to_string(), Type::named(name), false)
                .map_err(|e| ModelError::Restriction(e.to_string()))?;
        }
        Ok(())
    }

    /// The metaclass of a class — one step up the instance hierarchy.
    pub fn metaclass_of(&self, class: &str) -> Result<MetaClass, ModelError> {
        self.meta
            .get(class)
            .copied()
            .ok_or_else(|| ModelError::Unknown(format!("class `{class}`")))
    }

    /// Create a token (an instance) of a class. For variable classes the
    /// token enters the class's extent and, through the isa hierarchy, the
    /// extents of all its variable superclasses.
    pub fn new_instance(&mut self, class: &str, value: Value) -> Result<Oid, ModelError> {
        let ty = self
            .env
            .lookup(class)
            .cloned()
            .ok_or_else(|| ModelError::Unknown(format!("class `{class}`")))?;
        conforms(&value, &ty, &self.env, &self.heap, Mode::Strict)
            .map_err(|e| ModelError::Restriction(e.to_string()))?;
        let oid = self.heap.alloc(Type::named(class), value);
        if self.meta[class] == MetaClass::VariableClass {
            self.extents
                .insert(class, oid, &self.heap, &self.env)
                .map_err(|e| ModelError::Restriction(e.to_string()))?;
        }
        Ok(oid)
    }

    /// The class of a token — the instance hierarchy downward link.
    pub fn class_of(&self, token: Oid) -> Result<String, ModelError> {
        let obj = self
            .heap
            .get(token)
            .map_err(|e| ModelError::Unknown(e.to_string()))?;
        match &obj.ty {
            Type::Named(n) => Ok(n.clone()),
            other => Err(ModelError::Unknown(format!(
                "token of anonymous type {other}"
            ))),
        }
    }

    /// The extent of a variable class.
    pub fn extent(&self, class: &str) -> Result<Vec<Oid>, ModelError> {
        match self.meta.get(class) {
            Some(MetaClass::VariableClass) => Ok(self
                .extents
                .extent(class)
                .map_err(|e| ModelError::Unknown(e.to_string()))?
                .members()
                .collect()),
            Some(MetaClass::AggregateClass) => Err(ModelError::Restriction(format!(
                "AGGREGATE_CLASS `{class}` has no extent"
            ))),
            None => Err(ModelError::Unknown(format!("class `{class}`"))),
        }
    }

    /// Remove a token from a class extent (explicit deletion; cascades
    /// down the isa hierarchy as inclusion requires).
    pub fn remove_instance(&mut self, class: &str, token: Oid) -> Result<bool, ModelError> {
        self.extents
            .remove(class, token, &self.env)
            .map_err(|e| ModelError::Restriction(e.to_string()))
    }

    /// Direct superclasses.
    pub fn isa(&self, class: &str) -> &[String] {
        self.supers.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The heap (token storage).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The type environment derived from the class declarations.
    pub fn env(&self) -> &TypeEnv {
        &self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_employee() -> TaxisSchema {
        let mut s = TaxisSchema::new();
        s.declare_class(
            "PERSON",
            MetaClass::VariableClass,
            &[],
            [("Name", Type::Str)],
        )
        .unwrap();
        // The paper's declaration:
        // VARIABLE_CLASS EMPLOYEE isa PERSON with characteristics
        //   Empno: integer, ... Department: ...
        s.declare_class(
            "EMPLOYEE",
            MetaClass::VariableClass,
            &["PERSON"],
            [("Empno", Type::Int), ("Department", Type::Str)],
        )
        .unwrap();
        s
    }

    #[test]
    fn isa_inherits_attributes() {
        let s = person_employee();
        let emp = s.env().lookup("EMPLOYEE").unwrap();
        if let Type::Record(fs) = emp {
            assert!(fs.contains_key("Name"), "inherited from PERSON");
            assert!(fs.contains_key("Empno"));
        } else {
            panic!("not a record");
        }
        assert_eq!(s.isa("EMPLOYEE"), ["PERSON".to_string()]);
    }

    #[test]
    fn instances_of_employee_are_in_persons_extent() {
        // "the declaration above would ensure that every instance of
        // EMPLOYEE will be in the extent of PERSON".
        let mut s = person_employee();
        let e = s
            .new_instance(
                "EMPLOYEE",
                Value::record([
                    ("Name", Value::str("d")),
                    ("Empno", Value::Int(1)),
                    ("Department", Value::str("S")),
                ]),
            )
            .unwrap();
        assert!(s.extent("PERSON").unwrap().contains(&e));
        assert!(s.extent("EMPLOYEE").unwrap().contains(&e));
    }

    #[test]
    fn aggregate_classes_have_no_extent() {
        let mut s = TaxisSchema::new();
        s.declare_class(
            "ADDRESS",
            MetaClass::AggregateClass,
            &[],
            [("City", Type::Str)],
        )
        .unwrap();
        s.new_instance("ADDRESS", Value::record([("City", Value::str("x"))]))
            .unwrap();
        assert!(matches!(
            s.extent("ADDRESS"),
            Err(ModelError::Restriction(_))
        ));
    }

    #[test]
    fn instance_hierarchy_is_navigable() {
        let mut s = person_employee();
        let p = s
            .new_instance("PERSON", Value::record([("Name", Value::str("p"))]))
            .unwrap();
        // token → class → metaclass: three levels.
        assert_eq!(s.class_of(p).unwrap(), "PERSON");
        assert_eq!(s.metaclass_of("PERSON").unwrap(), MetaClass::VariableClass);
    }

    #[test]
    fn instances_are_typechecked() {
        let mut s = person_employee();
        let bad = s.new_instance("EMPLOYEE", Value::record([("Name", Value::str("d"))]));
        assert!(matches!(bad, Err(ModelError::Restriction(_))));
    }

    #[test]
    fn deletion_from_superclass_cascades_down() {
        let mut s = person_employee();
        let e = s
            .new_instance(
                "EMPLOYEE",
                Value::record([
                    ("Name", Value::str("d")),
                    ("Empno", Value::Int(1)),
                    ("Department", Value::str("S")),
                ]),
            )
            .unwrap();
        s.remove_instance("PERSON", e).unwrap();
        assert!(!s.extent("EMPLOYEE").unwrap().contains(&e));
    }

    #[test]
    fn clashing_inherited_attributes_rejected() {
        let mut s = TaxisSchema::new();
        s.declare_class("A", MetaClass::AggregateClass, &[], [("x", Type::Int)])
            .unwrap();
        s.declare_class("B", MetaClass::AggregateClass, &[], [("x", Type::Str)])
            .unwrap();
        let err = s.declare_class("C", MetaClass::AggregateClass, &["A", "B"], []);
        assert!(matches!(err, Err(ModelError::Restriction(_))));
    }
}
