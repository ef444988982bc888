//! All-or-nothing persistence: the whole "core image" saved and resumed.
//!
//! "Some versions of Lisp and Prolog, for example, allow one to save the
//! state of an interactive session and resume it later on … While simple
//! to implement, this approach does not provide adequate structure for
//! database work: it does not allow sharing of values among programs,
//! moreover the user cannot separate the relatively constant structures he
//! has created (the database) from the extremely volatile structures such
//! as experimental programs."
//!
//! An [`Image`] is exactly that: the complete type environment, object
//! heap, and variable bindings of a session, serialized as one atomic
//! unit. The limitations the paper lists are *by design* — experiment E3
//! and the integration tests contrast this model with replicating and
//! intrinsic persistence.

use crate::error::PersistError;
use crate::format::{self, Reader};
use crate::vfs::{retry_io, StdVfs, Vfs};
use dbpl_types::{SubtypePolicy, Type, TypeEnv};
use dbpl_values::{DynValue, Heap, Oid, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// A complete session image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Image {
    /// Named type definitions.
    pub types: Vec<(String, Type)>,
    /// Declared (`include`) subtype edges.
    pub declared: Vec<(String, String)>,
    /// Whether the environment used the declared policy.
    pub declared_policy: bool,
    /// Every heap object.
    pub heap: Vec<(Oid, Type, Value)>,
    /// Top-level variable bindings (name → dynamic value).
    pub bindings: BTreeMap<String, DynValue>,
}

impl Image {
    /// Capture an image from live session state.
    pub fn capture(env: &TypeEnv, heap: &Heap, bindings: &BTreeMap<String, DynValue>) -> Image {
        let types = env
            .definitions()
            .map(|(n, t)| (n.clone(), t.clone()))
            .collect();
        let mut declared = Vec::new();
        for n in env.names() {
            for s in env.declared_supertypes(n) {
                declared.push((n.clone(), s.clone()));
            }
        }
        let heap_objs = heap
            .iter()
            .map(|(o, obj)| (o, obj.ty.clone(), obj.value.clone()))
            .collect();
        Image {
            types,
            declared,
            declared_policy: env.policy() == SubtypePolicy::Declared,
            heap: heap_objs,
            bindings: bindings.clone(),
        }
    }

    /// Restore the image into fresh session state.
    pub fn restore(&self) -> Result<(TypeEnv, Heap, BTreeMap<String, DynValue>), PersistError> {
        let mut env = TypeEnv::with_policy(if self.declared_policy {
            SubtypePolicy::Declared
        } else {
            SubtypePolicy::Structural
        });
        for (n, t) in &self.types {
            env.redeclare(n.clone(), t.clone());
        }
        for (sub, sup) in &self.declared {
            env.declare_subtype(sub.clone(), sup.clone())
                .map_err(|e| PersistError::Malformed(format!("declared edge: {e}")))?;
        }
        let mut heap = Heap::new();
        for (o, t, v) in &self.heap {
            heap.insert_at(*o, t.clone(), v.clone());
        }
        Ok((env, heap, self.bindings.clone()))
    }

    /// Serialize the image: a [`format::frame_unit`] checksummed frame
    /// over the image payload, so bit rot in a saved session is detected
    /// at load instead of restoring silently-damaged state.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(b'I'); // image discriminator
        out.push(self.declared_policy as u8);
        format::put_u64(&mut out, self.types.len() as u64);
        for (n, t) in &self.types {
            format::put_str(&mut out, n);
            format::put_type(&mut out, t);
        }
        format::put_u64(&mut out, self.declared.len() as u64);
        for (a, b) in &self.declared {
            format::put_str(&mut out, a);
            format::put_str(&mut out, b);
        }
        format::put_u64(&mut out, self.heap.len() as u64);
        for (o, t, v) in &self.heap {
            format::put_u64(&mut out, o.0);
            format::put_type(&mut out, t);
            format::put_value(&mut out, v);
        }
        format::put_u64(&mut out, self.bindings.len() as u64);
        for (n, d) in &self.bindings {
            format::put_str(&mut out, n);
            format::put_type(&mut out, &d.ty);
            format::put_value(&mut out, &d.value);
        }
        format::frame_unit(&out)
    }

    /// Deserialize an image (either framed version; version-2 images
    /// have their checksum verified).
    pub fn decode(buf: &[u8]) -> Result<Image, PersistError> {
        let (_, payload) = format::unframe_unit(buf)?;
        let mut r = Reader::new(payload);
        if r.byte()? != b'I' {
            return Err(PersistError::Malformed("not an image unit".into()));
        }
        let declared_policy = r.byte()? != 0;
        let nt = r.u64()? as usize;
        let mut types = Vec::with_capacity(nt.min(1 << 12));
        for _ in 0..nt {
            let n = r.str()?;
            let t = r.ty()?;
            types.push((n, t));
        }
        let nd = r.u64()? as usize;
        let mut declared = Vec::with_capacity(nd.min(1 << 12));
        for _ in 0..nd {
            let a = r.str()?;
            let b = r.str()?;
            declared.push((a, b));
        }
        let nh = r.u64()? as usize;
        let mut heap = Vec::with_capacity(nh.min(1 << 12));
        for _ in 0..nh {
            let o = Oid(r.u64()?);
            let t = r.ty()?;
            let v = r.value()?;
            heap.push((o, t, v));
        }
        let nb = r.u64()? as usize;
        let mut bindings = BTreeMap::new();
        for _ in 0..nb {
            let n = r.str()?;
            let t = r.ty()?;
            let v = r.value()?;
            bindings.insert(n, DynValue::new(t, v));
        }
        if r.remaining() != 0 {
            return Err(PersistError::Malformed("trailing bytes after image".into()));
        }
        Ok(Image {
            types,
            declared,
            declared_policy,
            heap,
            bindings,
        })
    }

    /// Save atomically: write to a temp file, fsync it, then rename over
    /// the target and fsync the directory, so a crash never leaves a
    /// half-written image *and* the rename itself is durable (the whole
    /// point of "all-or-nothing").
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_with(&StdVfs, path)
    }

    /// Save through an explicit [`Vfs`].
    pub fn save_with(&self, vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let encoded = self.encode();
        retry_io(|| vfs.write(&tmp, &encoded))?;
        retry_io(|| vfs.sync_file(&tmp))?;
        retry_io(|| vfs.rename(&tmp, path))?;
        let parent = path.parent().map(Path::to_path_buf).unwrap_or_default();
        retry_io(|| vfs.sync_dir(&parent))?;
        Ok(())
    }

    /// Load an image file.
    pub fn load(path: impl AsRef<Path>) -> Result<Image, PersistError> {
        Image::load_with(&StdVfs, path)
    }

    /// Load through an explicit [`Vfs`].
    pub fn load_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Image, PersistError> {
        let buf = retry_io(|| vfs.read(path.as_ref()))?;
        Image::decode(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        let mut env = TypeEnv::new();
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        env.declare(
            "Employee",
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
        )
        .unwrap();
        let mut heap = Heap::new();
        let o = heap.alloc(
            Type::named("Person"),
            Value::record([("Name", Value::str("d"))]),
        );
        let bindings = BTreeMap::from([(
            "db".to_string(),
            DynValue::new(Type::named("Person"), Value::Ref(o)),
        )]);
        Image::capture(&env, &heap, &bindings)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let img = sample();
        let bytes = img.encode();
        assert_eq!(Image::decode(&bytes).unwrap(), img);
    }

    #[test]
    fn save_load_restore() {
        let dir = crate::TempDir::new("snap").unwrap();
        let path = dir.join("session.image");
        let img = sample();
        img.save(&path).unwrap();
        let loaded = Image::load(&path).unwrap();
        let (env, heap, bindings) = loaded.restore().unwrap();
        assert!(env.lookup("Person").is_some());
        assert_eq!(heap.len(), 1);
        let d = &bindings["db"];
        let o = d.value.as_ref_oid().unwrap();
        assert_eq!(
            heap.get(o).unwrap().value.field("Name"),
            Some(&Value::str("d"))
        );
    }

    #[test]
    fn corrupt_image_rejected() {
        let img = sample();
        let mut bytes = img.encode();
        bytes.truncate(bytes.len() / 2);
        assert!(Image::decode(&bytes).is_err());
        let mut bad = img.encode();
        bad[0] = b'Z';
        assert!(matches!(Image::decode(&bad), Err(PersistError::BadMagic)));
    }

    #[test]
    fn save_survives_a_crash_immediately_after() {
        // save() returns only once the image is fully durable: a power
        // failure the very next instant must not lose or tear it.
        use crate::vfs::SimVfs;
        let vfs = SimVfs::new();
        let img = sample();
        let path = Path::new("d/session.image");
        img.save_with(&vfs, path).unwrap();
        vfs.crash_now();
        vfs.recover();
        assert_eq!(Image::load_with(&vfs, path).unwrap(), img);
    }

    #[test]
    fn declared_edges_survive() {
        let mut env = TypeEnv::with_policy(SubtypePolicy::Declared);
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        env.declare(
            "Employee",
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
        )
        .unwrap();
        env.declare_subtype("Employee", "Person").unwrap();
        let img = Image::capture(&env, &Heap::new(), &BTreeMap::new());
        let (env2, _, _) = img.restore().unwrap();
        assert_eq!(env2.policy(), SubtypePolicy::Declared);
        assert!(env2.declared_le("Employee", "Person"));
    }
}
