//! Schema evolution on persistent handles.
//!
//! From the paper's "Persistence and Extents" section: suppose `Test` was
//! compiled binding handle `DBHandle` at type `DBType`, and is later
//! recompiled with a new `DBType'`:
//!
//! * if `DBType ≤ DBType'` (the stored type is a **subtype** of the new
//!   one), "there is no reason why the compilation will fail … This second
//!   compilation with `DBType'` is simply providing us with a **view** of
//!   the data";
//! * "a more interesting possibility arises when `DBType` is not a subtype
//!   of `DBType'`, but is **consistent** with it, i.e. there is a common
//!   subtype of both. As a result of the second compilation, the handle
//!   now refers to a value with a richer structure. Provided we never
//!   contradict any of our previous definitions, we can continue to
//!   **enrich** the type, or schema, of the database";
//! * otherwise the compilation is refused.
//!
//! The paper also observes that **intrinsic** persistence is the right
//! home for this: a *replicating* `extern` at type `DBType'` would write
//! a value of exactly that type, "thereby losing structure from the
//! database" — [`project_to_type`] makes that loss executable so the tests
//! and benchmarks can demonstrate it.

use crate::error::PersistError;
use crate::intrinsic::IntrinsicStore;
use dbpl_types::{consistent, is_subtype, meet, Type, TypeEnv};
use dbpl_values::Value;

/// The outcome of re-opening a handle at an expected type.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenOutcome {
    /// The stored type is a subtype of the expected type: the program sees
    /// a *view*; nothing changes on disk.
    View {
        /// The type stored with the handle.
        stored: Type,
        /// The handle's current value.
        value: Value,
    },
    /// The stored type was consistent with (but not a subtype of) the
    /// expected type: the schema was *enriched* to the common subtype.
    Enriched {
        /// The handle's previous type.
        old: Type,
        /// The enriched type now stored (the meet).
        new: Type,
        /// The handle's current value.
        value: Value,
    },
}

/// Re-open `handle` in `store` at `expected`, applying the paper's
/// three-way rule (view / enrich / refuse). On enrichment the handle's
/// stored type is updated in the working state (commit to make durable).
pub fn open_handle(
    store: &mut IntrinsicStore,
    env: &TypeEnv,
    handle: &str,
    expected: &Type,
) -> Result<OpenOutcome, PersistError> {
    let (stored, value) = store
        .handle(handle)
        .cloned()
        .ok_or_else(|| PersistError::UnknownHandle(handle.to_string()))?;
    if is_subtype(&stored, expected, env) {
        return Ok(OpenOutcome::View { stored, value });
    }
    if consistent(&stored, expected, env) {
        let new = meet(&stored, expected, env).expect("consistent implies meet exists");
        store.set_handle(handle, new.clone(), value.clone());
        return Ok(OpenOutcome::Enriched {
            old: stored,
            new,
            value,
        });
    }
    Err(PersistError::SchemaMismatch {
        handle: handle.to_string(),
        stored,
        expected: expected.clone(),
    })
}

/// Truncate a value to the fields a type mentions — what a *replicating*
/// `extern` at that type writes. Everything the type does not describe is
/// dropped: "losing structure from the database".
pub fn project_to_type(value: &Value, ty: &Type, env: &TypeEnv) -> Value {
    let ty = match env.head_normal(ty) {
        Ok(t) => t,
        Err(_) => return value.clone(),
    };
    match (value, ty) {
        (Value::Record(fs), Type::Record(want)) => Value::Record(
            fs.iter()
                .filter(|(l, _)| want.contains_key(*l))
                .map(|(l, v)| (*l, project_to_type(v, &want[l], env)))
                .collect(),
        ),
        (Value::List(xs), Type::List(elem)) => {
            Value::List(xs.iter().map(|x| project_to_type(x, elem, env)).collect())
        }
        (Value::Set(xs), Type::Set(elem)) => {
            Value::Set(xs.iter().map(|x| project_to_type(x, elem, env)).collect())
        }
        (Value::Tagged(l, v), Type::Variant(arms)) => match arms.get(l) {
            Some(at) => Value::Tagged(*l, Box::new(project_to_type(v, at, env))),
            None => value.clone(),
        },
        _ => value.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::parse_type;

    /// A log path in a fresh directory, removed when the guard drops.
    fn fresh(name: &str) -> (crate::TempDir, std::path::PathBuf) {
        let dir = crate::TempDir::new("evo").unwrap();
        let path = dir.join(format!("{name}.log"));
        (dir, path)
    }

    fn db_value() -> Value {
        Value::record([("Name", Value::str("J Doe")), ("Empno", Value::Int(7))])
    }

    #[test]
    fn subtype_reopen_is_a_view() {
        let env = TypeEnv::new();
        let (_dir, path) = fresh("view");
        let mut s = IntrinsicStore::open(path).unwrap();
        let stored_ty = parse_type("{Name: Str, Empno: Int}").unwrap();
        s.set_handle("DB", stored_ty.clone(), db_value());
        s.commit().unwrap();
        // Recompile against the wider (super)type {Name: Str}.
        let expected = parse_type("{Name: Str}").unwrap();
        match open_handle(&mut s, &env, "DB", &expected).unwrap() {
            OpenOutcome::View { stored, .. } => assert_eq!(stored, stored_ty),
            other => panic!("expected a view, got {other:?}"),
        }
        // Nothing changed.
        assert_eq!(s.handle("DB").unwrap().0, stored_ty);
    }

    #[test]
    fn consistent_reopen_enriches_schema() {
        let env = TypeEnv::new();
        let (_dir, path) = fresh("enrich");
        let mut s = IntrinsicStore::open(path).unwrap();
        s.set_handle(
            "DB",
            parse_type("{Name: Str, Empno: Int}").unwrap(),
            db_value(),
        );
        s.commit().unwrap();
        // New program expects an additional field: consistent, not a
        // supertype.
        let expected = parse_type("{Name: Str, Dept: Str}").unwrap();
        match open_handle(&mut s, &env, "DB", &expected).unwrap() {
            OpenOutcome::Enriched { new, .. } => {
                assert_eq!(
                    new,
                    parse_type("{Name: Str, Empno: Int, Dept: Str}").unwrap()
                );
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
        // The richer schema is now stored (in working state).
        assert_eq!(
            s.handle("DB").unwrap().0,
            parse_type("{Dept: Str, Empno: Int, Name: Str}").unwrap()
        );
        // And enrichment is monotone: re-opening at the enriched type is a
        // view.
        let again = open_handle(
            &mut s,
            &env,
            "DB",
            &parse_type("{Name: Str, Empno: Int, Dept: Str}").unwrap(),
        )
        .unwrap();
        assert!(matches!(again, OpenOutcome::View { .. }));
    }

    #[test]
    fn contradictory_reopen_is_refused() {
        let env = TypeEnv::new();
        let (_dir, path) = fresh("refuse");
        let mut s = IntrinsicStore::open(path).unwrap();
        s.set_handle(
            "DB",
            parse_type("{Name: Str}").unwrap(),
            Value::record([("Name", Value::str("x"))]),
        );
        s.commit().unwrap();
        let expected = parse_type("{Name: Int}").unwrap(); // contradicts
        assert!(matches!(
            open_handle(&mut s, &env, "DB", &expected),
            Err(PersistError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn missing_handle_is_reported() {
        let env = TypeEnv::new();
        let (_dir, path) = fresh("missing");
        let mut s = IntrinsicStore::open(path).unwrap();
        assert!(matches!(
            open_handle(&mut s, &env, "Nope", &Type::Int),
            Err(PersistError::UnknownHandle(_))
        ));
    }

    #[test]
    fn replicating_extern_at_supertype_loses_structure() {
        let env = TypeEnv::new();
        let v = Value::record([
            ("Name", Value::str("J Doe")),
            ("Empno", Value::Int(7)),
            (
                "Addr",
                Value::record([("City", Value::str("Austin")), ("Zip", Value::Int(1))]),
            ),
        ]);
        let supertype = parse_type("{Name: Str, Addr: {City: Str}}").unwrap();
        let projected = project_to_type(&v, &supertype, &env);
        assert_eq!(
            projected,
            Value::record([
                ("Name", Value::str("J Doe")),
                ("Addr", Value::record([("City", Value::str("Austin"))])),
            ]),
            "Empno and Zip are gone — structure lost"
        );
        // Idempotent.
        assert_eq!(project_to_type(&projected, &supertype, &env), projected);
    }

    #[test]
    fn projection_descends_collections_and_variants() {
        let env = TypeEnv::new();
        let v = Value::list([Value::record([("a", Value::Int(1)), ("b", Value::Int(2))])]);
        let t = parse_type("List[{a: Int}]").unwrap();
        assert_eq!(
            project_to_type(&v, &t, &env),
            Value::list([Value::record([("a", Value::Int(1))])])
        );
        let tagged = Value::tagged(
            "Ok",
            Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        let vt = parse_type("<Ok: {a: Int}>").unwrap();
        assert_eq!(
            project_to_type(&tagged, &vt, &env),
            Value::tagged("Ok", Value::record([("a", Value::Int(1))]))
        );
    }
}
