//! Pascal/R (Schmidt 1977): the clean three-way separation, with
//! restrictions.
//!
//! "In Pascal/R one would construct an employee database by first
//! declaring an Employee record type", then `type EmpRel = relation of
//! Employee` for the extent, and a `database` variable for persistence —
//! "a clear separation between type, extent, and persistence". But:
//! "In Pascal/R there is a restriction that only *relation* data types can
//! be placed in a database."
//!
//! [`PascalRDatabase`] enforces exactly that: its members are flat
//! relations (first normal form comes along via `dbpl-relation`), persisted
//! file-style — the whole database saved and loaded by name, like a Pascal
//! file variable.

use crate::error::ModelError;
use dbpl_persist::format::{self, Reader};
use dbpl_relation::{Relation, Schema};
use dbpl_values::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A `database … end` variable: named relations, persisted as a unit.
pub struct PascalRDatabase {
    path: PathBuf,
    relations: BTreeMap<String, Relation>,
}

impl PascalRDatabase {
    /// Open a database file (loading it if present).
    pub fn open(path: impl AsRef<Path>) -> Result<PascalRDatabase, ModelError> {
        let path = path.as_ref().to_path_buf();
        let mut db = PascalRDatabase {
            path: path.clone(),
            relations: BTreeMap::new(),
        };
        if path.exists() {
            db.load()?;
        }
        Ok(db)
    }

    /// Declare a relation member: `Employees: EmpRel`. The schema must be
    /// first normal form (enforced by [`Schema::new`] upstream).
    pub fn declare_relation(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), ModelError> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(ModelError::Restriction(format!(
                "relation `{name}` already declared"
            )));
        }
        self.relations.insert(name, Relation::new(schema));
        Ok(())
    }

    /// The restriction itself, as an API: arbitrary values cannot be
    /// placed in a Pascal/R database. (Always fails; exists so the
    /// capability tests can demonstrate the restriction rather than
    /// merely assert it.)
    pub fn store_value(&mut self, _name: &str, _v: Value) -> Result<(), ModelError> {
        Err(ModelError::Restriction(
            "Pascal/R: only relation data types can be placed in a database".into(),
        ))
    }

    /// Access a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation, ModelError> {
        self.relations
            .get(name)
            .ok_or_else(|| ModelError::Unknown(format!("relation `{name}`")))
    }

    /// Mutable access to a relation.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation, ModelError> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| ModelError::Unknown(format!("relation `{name}`")))
    }

    /// Relation names.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    /// Persist the whole database variable (file semantics: replace).
    pub fn save(&self) -> Result<(), ModelError> {
        let mut out = Vec::new();
        format::put_u64(&mut out, self.relations.len() as u64);
        for (name, rel) in &self.relations {
            format::put_str(&mut out, name);
            // schema
            let attrs: Vec<(&dbpl_types::Label, &dbpl_types::Type)> = rel
                .schema()
                .attr_names()
                .map(|a| (a, rel.schema().attr_type(a).expect("own attr")))
                .collect();
            format::put_u64(&mut out, attrs.len() as u64);
            for (a, t) in attrs {
                format::put_str(&mut out, a);
                format::put_type(&mut out, t);
            }
            // tuples
            format::put_u64(&mut out, rel.len() as u64);
            for t in rel.tuples() {
                format::put_value(&mut out, &Value::Record(t.clone().into()));
            }
        }
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &out).map_err(|e| ModelError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| ModelError::Io(e.to_string()))?;
        Ok(())
    }

    fn load(&mut self) -> Result<(), ModelError> {
        let buf = std::fs::read(&self.path).map_err(|e| ModelError::Io(e.to_string()))?;
        let mut r = Reader::new(&buf);
        let decode = |e: dbpl_persist::PersistError| ModelError::Io(e.to_string());
        let n = r.u64().map_err(decode)? as usize;
        for _ in 0..n {
            let name = r.str().map_err(decode)?;
            let na = r.u64().map_err(decode)? as usize;
            let mut attrs = Vec::with_capacity(na);
            for _ in 0..na {
                let a = r.str().map_err(decode)?;
                let t = r.ty().map_err(decode)?;
                attrs.push((a, t));
            }
            let schema = Schema::new(attrs).map_err(|e| ModelError::Io(e.to_string()))?;
            let mut rel = Relation::new(schema);
            let nt = r.u64().map_err(decode)? as usize;
            for _ in 0..nt {
                let v = r.value().map_err(decode)?;
                if let Value::Record(fs) = v {
                    rel.insert(fs.into_iter().collect())
                        .map_err(|e| ModelError::Io(e.to_string()))?;
                }
            }
            self.relations.insert(name, rel);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::Type;

    /// A database path in a fresh directory, removed when the guard
    /// drops.
    fn tmp(name: &str) -> (dbpl_persist::TempDir, PathBuf) {
        let dir = dbpl_persist::TempDir::new("pascalr").unwrap();
        let p = dir.join(format!("{name}.db"));
        (dir, p)
    }

    fn emp_schema() -> Schema {
        Schema::new([("Name", Type::Str), ("Sal", Type::Int)]).unwrap()
    }

    #[test]
    fn declare_insert_save_load() {
        let (_dir, path) = tmp("roundtrip");
        {
            let mut db = PascalRDatabase::open(&path).unwrap();
            db.declare_relation("Employees", emp_schema()).unwrap();
            db.relation_mut("Employees")
                .unwrap()
                .insert_row([("Name", Value::str("ann")), ("Sal", Value::Int(10))])
                .unwrap();
            db.save().unwrap();
        }
        let db = PascalRDatabase::open(&path).unwrap();
        assert_eq!(db.relation("Employees").unwrap().len(), 1);
    }

    #[test]
    fn only_relations_persist() {
        let (_dir, path) = tmp("restriction");
        let mut db = PascalRDatabase::open(path).unwrap();
        let err = db.store_value("X", Value::Int(3)).unwrap_err();
        assert!(matches!(err, ModelError::Restriction(_)));
    }

    #[test]
    fn first_normal_form_comes_with_the_model() {
        assert!(Schema::new([("Kids", Type::list(Type::Str))]).is_err());
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let (_dir, path) = tmp("dup");
        let mut db = PascalRDatabase::open(path).unwrap();
        db.declare_relation("R", emp_schema()).unwrap();
        assert!(db.declare_relation("R", emp_schema()).is_err());
        assert!(db.relation("Nope").is_err());
    }
}
