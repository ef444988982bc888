//! Multiple name spaces with controlled sharing.
//!
//! The idealized description of intrinsic persistence "implicitly assumed
//! a single global name space. Although it is global to the program, is it
//! also global to the user, the user community…? In practice one needs to
//! operate with multiple name spaces and control the sharing of structures
//! among name spaces."
//!
//! A [`NamespaceManager`] owns a directory of named [`ReplicatingStore`]s
//! (one per user/community name space) plus an export table governing
//! which handles a name space has published and to whom.

use crate::error::PersistError;
use crate::replicating::ReplicatingStore;
use dbpl_values::{DynValue, Heap};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Who may import an exported handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Any name space may import.
    Public,
    /// Only the listed name spaces may import.
    Restricted(BTreeSet<String>),
}

/// A collection of name spaces with explicit sharing.
pub struct NamespaceManager {
    root: PathBuf,
    spaces: BTreeMap<String, ReplicatingStore>,
    /// (namespace, handle) → visibility.
    exports: BTreeMap<(String, String), Visibility>,
}

impl NamespaceManager {
    /// Open a manager rooted at `root` (a directory; name spaces are
    /// subdirectories).
    pub fn open(root: impl AsRef<Path>) -> Result<NamespaceManager, PersistError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let mut spaces = BTreeMap::new();
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    spaces.insert(name.to_string(), ReplicatingStore::open(entry.path())?);
                }
            }
        }
        Ok(NamespaceManager {
            root,
            spaces,
            exports: BTreeMap::new(),
        })
    }

    /// Create a new name space.
    pub fn create(&mut self, name: &str) -> Result<(), PersistError> {
        if self.spaces.contains_key(name) {
            return Err(PersistError::AlreadyExists(name.to_string()));
        }
        let store = ReplicatingStore::open(self.root.join(name))?;
        self.spaces.insert(name.to_string(), store);
        Ok(())
    }

    /// The store behind a name space.
    pub fn space(&self, name: &str) -> Result<&ReplicatingStore, PersistError> {
        self.spaces
            .get(name)
            .ok_or_else(|| PersistError::UnknownNamespace(name.to_string()))
    }

    /// Names of all name spaces.
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.spaces.keys()
    }

    /// Publish a handle from a name space.
    pub fn export(&mut self, ns: &str, handle: &str, vis: Visibility) -> Result<(), PersistError> {
        let space = self.space(ns)?;
        if !space.exists(handle) {
            return Err(PersistError::UnknownHandle(handle.to_string()));
        }
        self.exports
            .insert((ns.to_string(), handle.to_string()), vis);
        Ok(())
    }

    /// Import `handle` from `from` into `into` (as `handle`). The value is
    /// *replicated* — cross-name-space sharing has copy semantics, exactly
    /// like any other replication.
    pub fn import(&mut self, from: &str, handle: &str, into: &str) -> Result<(), PersistError> {
        // Check visibility first.
        match self.exports.get(&(from.to_string(), handle.to_string())) {
            Some(Visibility::Public) => {}
            Some(Visibility::Restricted(allowed)) if allowed.contains(into) => {}
            Some(Visibility::Restricted(_)) | None => {
                return Err(PersistError::Malformed(format!(
                    "handle `{handle}` is not exported from `{from}` to `{into}`"
                )))
            }
        }
        let mut scratch = Heap::new();
        let d: DynValue = self.space(from)?.intern(handle, &mut scratch)?;
        self.space(into)?.extern_value(handle, &d, &scratch)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use dbpl_types::Type;
    use dbpl_values::Value;

    /// A manager over a fresh directory, removed when the guard drops.
    fn mgr(name: &str) -> (TempDir, NamespaceManager) {
        let root = TempDir::new(&format!("ns-{name}")).unwrap();
        let m = NamespaceManager::open(&root).unwrap();
        (root, m)
    }

    #[test]
    fn create_and_list() {
        let (_root, mut m) = mgr("list");
        m.create("alice").unwrap();
        m.create("bob").unwrap();
        assert!(matches!(
            m.create("alice"),
            Err(PersistError::AlreadyExists(_))
        ));
        assert_eq!(m.names().collect::<Vec<_>>(), ["alice", "bob"]);
        assert!(m.space("carol").is_err());
    }

    #[test]
    fn public_export_import() {
        let (_root, mut m) = mgr("pub");
        m.create("alice").unwrap();
        m.create("bob").unwrap();
        let heap = Heap::new();
        m.space("alice")
            .unwrap()
            .extern_value("Shared", &DynValue::new(Type::Int, Value::Int(5)), &heap)
            .unwrap();
        // Not exported yet: import refused.
        assert!(m.import("alice", "Shared", "bob").is_err());
        m.export("alice", "Shared", Visibility::Public).unwrap();
        m.import("alice", "Shared", "bob").unwrap();
        let mut h = Heap::new();
        assert_eq!(
            m.space("bob")
                .unwrap()
                .intern("Shared", &mut h)
                .unwrap()
                .value,
            Value::Int(5)
        );
    }

    #[test]
    fn restricted_export_controls_who_imports() {
        let (_root, mut m) = mgr("restricted");
        for n in ["alice", "bob", "eve"] {
            m.create(n).unwrap();
        }
        let heap = Heap::new();
        m.space("alice")
            .unwrap()
            .extern_value("Secret", &DynValue::new(Type::Int, Value::Int(1)), &heap)
            .unwrap();
        m.export(
            "alice",
            "Secret",
            Visibility::Restricted(BTreeSet::from(["bob".to_string()])),
        )
        .unwrap();
        assert!(m.import("alice", "Secret", "bob").is_ok());
        assert!(m.import("alice", "Secret", "eve").is_err());
    }

    #[test]
    fn export_requires_existing_handle() {
        let (_root, mut m) = mgr("missing");
        m.create("alice").unwrap();
        assert!(matches!(
            m.export("alice", "Ghost", Visibility::Public),
            Err(PersistError::UnknownHandle(_))
        ));
    }

    #[test]
    fn reopen_discovers_existing_spaces() {
        let root = TempDir::new("ns-reopen").unwrap();
        {
            let mut m = NamespaceManager::open(&root).unwrap();
            m.create("alice").unwrap();
        }
        let m = NamespaceManager::open(&root).unwrap();
        assert_eq!(m.names().collect::<Vec<_>>(), ["alice"]);
    }
}
