//! Property tests for the storage layer: the self-describing format
//! round-trips arbitrary types and values, decoding never panics on
//! corrupted bytes, log recovery always yields a valid prefix, the
//! intrinsic store's undo log behaves exactly like keeping a full copy
//! of the committed heap, and the simulated disk frees the files nothing
//! can reach any more.

use dbpl_persist::format::{put_str, put_type, put_u64, put_value, Reader};
use dbpl_persist::intrinsic::Handles;
use dbpl_persist::{decode_dyn, encode_dyn, Image, IntrinsicStore, LogFile, SimVfs, Vfs};
use dbpl_types::{Type, TypeEnv};
use dbpl_values::{DynValue, Heap, HeapObject, Oid, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Int),
        Just(Type::Float),
        Just(Type::Str),
        Just(Type::Bool),
        Just(Type::Unit),
        Just(Type::Top),
        Just(Type::Bottom),
        Just(Type::Dynamic),
        "[A-Z][a-z]{0,4}".prop_map(Type::named),
        "[a-z]{1,3}".prop_map(Type::var),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::list),
            inner.clone().prop_map(Type::set),
            prop::collection::btree_map("[a-c]", inner.clone(), 0..3).prop_map(Type::record),
            prop::collection::btree_map("[A-C]", inner.clone(), 1..3).prop_map(Type::variant),
            (inner.clone(), inner.clone()).prop_map(|(a, r)| Type::fun(a, r)),
            ("[t-v]", prop::option::of(inner.clone()), inner.clone())
                .prop_map(|(v, b, body)| Type::forall(v, b, body)),
            ("[t-v]", prop::option::of(inner.clone()), inner)
                .prop_map(|(v, b, body)| Type::exists(v, b, body)),
        ]
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::float),
        ".{0,8}".prop_map(Value::str),
        (0u64..1000).prop_map(|o| Value::Ref(dbpl_values::Oid(o))),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::btree_set(inner.clone(), 0..4).prop_map(Value::Set),
            prop::collection::btree_map("[a-c]", inner.clone(), 0..4).prop_map(Value::record),
            ("[A-C]", inner.clone()).prop_map(|(l, v)| Value::tagged(l, v)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn type_encoding_roundtrips(t in arb_type()) {
        let mut buf = Vec::new();
        put_type(&mut buf, &t);
        let got = Reader::new(&buf).ty().unwrap();
        prop_assert_eq!(got, t);
    }

    #[test]
    fn value_encoding_roundtrips(v in arb_value()) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let got = Reader::new(&buf).value().unwrap();
        prop_assert_eq!(got, v);
    }

    #[test]
    fn dyn_units_roundtrip(t in arb_type(), v in arb_value()) {
        let d = DynValue::new(t, v);
        let bytes = encode_dyn(&d);
        prop_assert_eq!(decode_dyn(&bytes).unwrap(), d);
    }

    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; a panic is not.
        let _ = decode_dyn(&bytes);
        let _ = Reader::new(&bytes).value();
        let _ = Reader::new(&bytes).ty();
        let _ = Image::decode(&bytes);
    }

    #[test]
    fn truncated_units_always_error(t in arb_type(), v in arb_value()) {
        let bytes = encode_dyn(&DynValue::new(t, v));
        // Any strict prefix must fail (never silently succeed).
        for cut in 0..bytes.len() {
            prop_assert!(decode_dyn(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn log_recovers_exact_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        chop in 1usize..32
    ) {
        let dir = dbpl_persist::TempDir::new("logprop").unwrap();
        let path = dir.join(format!("fuzz-{chop}-{}.log", payloads.len()));
        {
            let mut log = LogFile::open(&path).unwrap();
            for p in &payloads {
                log.append(p).unwrap();
            }
            log.flush().unwrap();
        }
        // Untouched: full recovery.
        let r = LogFile::replay(&path).unwrap();
        prop_assert!(r.clean);
        let got: Vec<&[u8]> = r.records().collect();
        prop_assert_eq!(got, payloads.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Chopped: recovered records are a prefix of what was written.
        let len = std::fs::metadata(&path).unwrap().len();
        let keep = len.saturating_sub(chop as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);
        let r2 = LogFile::replay(&path).unwrap();
        let got: Vec<&[u8]> = r2.records().collect();
        prop_assert!(got.len() <= payloads.len());
        for (g, p) in got.iter().zip(&payloads) {
            prop_assert_eq!(*g, p.as_slice());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn images_roundtrip(v in arb_value(), t in arb_type()) {
        let env = TypeEnv::new();
        let mut heap = Heap::new();
        heap.alloc(t.clone(), v.clone());
        let bindings = BTreeMap::from([("x".to_string(), DynValue::new(t, v))]);
        let img = Image::capture(&env, &heap, &bindings);
        let decoded = Image::decode(&img.encode()).unwrap();
        prop_assert_eq!(decoded, img);
    }
}

proptest! {
    // Exhaustive over bits but quadratic in unit size, so this block runs
    // fewer cases than the rest; the deterministic unit test in format.rs
    // covers one fixed shape every run.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn framed_units_detect_every_single_bit_flip(t in arb_type(), v in arb_value()) {
        // The self-healing contract's foundation: the CRC-32 frame turns
        // *any* one-bit change at rest into a clean decode error — there
        // is no bit whose flip yields Ok.
        let bytes = encode_dyn(&DynValue::new(t, v));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                prop_assert!(
                    decode_dyn(&flipped).is_err(),
                    "flip of byte {} bit {} went undetected", i, bit
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The intrinsic store against a literal snapshot model
// ---------------------------------------------------------------------------

/// The intrinsic store as PS-algol's divergence reads most literally: a
/// full copy of the committed heap and handle table, cloned on every
/// commit and restored on abort, plus the sets of what changed since.
/// Its staged records and its log are the reference the undo log must
/// reproduce byte for byte.
#[derive(Clone, Default)]
struct SnapshotModel {
    committed_heap: Heap,
    committed_handles: Handles,
    heap: Heap,
    handles: Handles,
    dirty_objects: BTreeSet<Oid>,
    dead_objects: BTreeSet<Oid>,
    dirty_handles: BTreeSet<String>,
    /// The record payloads the log holds.
    log: Vec<Vec<u8>>,
    txn: u64,
    /// The allocator watermark a replay of the log reaches: one past the
    /// highest oid of any committed object record since the last
    /// compaction.
    log_next: u64,
}

impl SnapshotModel {
    fn alloc(&mut self, ty: Type, value: Value) -> Oid {
        let oid = self.heap.alloc(ty, value);
        self.dirty_objects.insert(oid);
        oid
    }

    fn update(&mut self, oid: Oid, value: Value) -> bool {
        let ok = self.heap.update(oid, value).is_ok();
        if ok {
            self.dirty_objects.insert(oid);
        }
        ok
    }

    fn set_handle(&mut self, name: &str, ty: Type, value: Value) {
        self.handles.insert(name.to_string(), (ty, value));
        self.dirty_handles.insert(name.to_string());
    }

    fn remove_handle(&mut self, name: &str) -> bool {
        let existed = self.handles.remove(name).is_some();
        if existed {
            self.dirty_handles.insert(name.to_string());
        }
        existed
    }

    fn sweep(&mut self) -> Vec<Oid> {
        let roots: BTreeSet<Oid> = self
            .handles
            .values()
            .flat_map(|(_, v)| v.direct_refs())
            .collect();
        let dead: Vec<Oid> = self.heap.sweep(roots).into_iter().map(|(o, _)| o).collect();
        for d in &dead {
            self.dirty_objects.remove(d);
            self.dead_objects.insert(*d);
        }
        dead
    }

    fn staged_records(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for oid in &self.dirty_objects {
            if let Ok(obj) = self.heap.get(*oid) {
                out.push(object_record(*oid, obj));
            }
        }
        for oid in &self.dead_objects {
            let mut rec = vec![b'X'];
            put_u64(&mut rec, oid.0);
            out.push(rec);
        }
        for name in &self.dirty_handles {
            out.push(match self.handles.get(name) {
                Some((ty, v)) => handle_record(name, ty, v),
                None => handle_del_record(name),
            });
        }
        out
    }

    fn commit(&mut self) {
        let records = self.staged_records();
        self.log.extend(records);
        self.txn += 1;
        self.log.push(commit_marker(self.txn));
        for oid in &self.dirty_objects {
            self.log_next = self.log_next.max(oid.0 + 1);
        }
        self.committed_heap = self.heap.clone();
        self.committed_handles = self.handles.clone();
        self.dirty_objects.clear();
        self.dead_objects.clear();
        self.dirty_handles.clear();
    }

    fn abort(&mut self) {
        self.heap = self.committed_heap.clone();
        self.handles = self.committed_handles.clone();
        self.dirty_objects.clear();
        self.dead_objects.clear();
        self.dirty_handles.clear();
    }

    fn is_dirty(&self) -> bool {
        !(self.dirty_objects.is_empty()
            && self.dead_objects.is_empty()
            && self.dirty_handles.is_empty())
    }

    fn compact(&mut self) {
        self.log = self
            .committed_heap
            .iter()
            .map(|(oid, obj)| object_record(oid, obj))
            .chain(
                self.committed_handles
                    .iter()
                    .map(|(name, (ty, v))| handle_record(name, ty, v)),
            )
            .collect();
        self.log.push(commit_marker(self.txn));
        self.log_next = self
            .committed_heap
            .iter()
            .last()
            .map_or(0, |(oid, _)| oid.0 + 1);
    }

    fn apply_records_and_commit(&mut self, records: &[ModelRecord]) {
        for rec in records {
            match rec {
                ModelRecord::Object(oid, v) => {
                    self.heap.insert_at(*oid, Type::Top, v.clone());
                    self.dead_objects.remove(oid);
                    self.dirty_objects.insert(*oid);
                }
                ModelRecord::Delete(oid) => {
                    self.heap.remove(*oid);
                    self.dirty_objects.remove(oid);
                    self.dead_objects.insert(*oid);
                }
                ModelRecord::Handle(name, v) => {
                    self.handles.insert(name.clone(), (Type::Top, v.clone()));
                    self.dirty_handles.insert(name.clone());
                }
                ModelRecord::HandleDel(name) => {
                    self.handles.remove(name);
                    self.dirty_handles.insert(name.clone());
                }
            }
        }
        self.commit();
    }

    /// What a fresh open of the log recovers: the committed state, with
    /// the allocator at the watermark replay reaches.
    fn reopen(&mut self) {
        self.abort();
        self.heap.rewind_to(Oid(self.log_next));
        self.committed_heap = self.heap.clone();
    }
}

fn object_record(oid: Oid, obj: &HeapObject) -> Vec<u8> {
    let mut rec = vec![b'O'];
    put_u64(&mut rec, oid.0);
    put_type(&mut rec, &obj.ty);
    put_value(&mut rec, &obj.value);
    rec
}

fn handle_record(name: &str, ty: &Type, v: &Value) -> Vec<u8> {
    let mut rec = vec![b'H'];
    put_str(&mut rec, name);
    put_type(&mut rec, ty);
    put_value(&mut rec, v);
    rec
}

fn commit_marker(txn: u64) -> Vec<u8> {
    let mut rec = vec![b'C'];
    put_u64(&mut rec, txn);
    rec
}

fn handle_del_record(name: &str) -> Vec<u8> {
    let mut rec = vec![b'D'];
    put_str(&mut rec, name);
    rec
}

/// One staged record replayed by `apply_records_and_commit`.
#[derive(Debug, Clone)]
enum ModelRecord {
    Object(Oid, Value),
    Delete(Oid),
    Handle(String, Value),
    HandleDel(String),
}

impl ModelRecord {
    fn encode(&self) -> Vec<u8> {
        match self {
            ModelRecord::Object(oid, v) => object_record(
                *oid,
                &HeapObject {
                    ty: Type::Top,
                    value: v.clone(),
                },
            ),
            ModelRecord::Delete(oid) => {
                let mut rec = vec![b'X'];
                put_u64(&mut rec, oid.0);
                rec
            }
            ModelRecord::Handle(name, v) => handle_record(name, &Type::Top, v),
            ModelRecord::HandleDel(name) => handle_del_record(name),
        }
    }
}

/// A value to store: an integer, or a record holding one and pointing at
/// the `k`th object of the working heap (so sweeps have graphs to trace).
#[derive(Debug, Clone)]
struct Val(i64, Option<usize>);

impl Val {
    fn to_value(&self, heap: &Heap) -> Value {
        let oids: Vec<Oid> = heap.iter().map(|(o, _)| o).collect();
        match self.1 {
            Some(k) if !oids.is_empty() => Value::record([
                ("n", Value::Int(self.0)),
                ("next", Value::Ref(oids[k % oids.len()])),
            ]),
            _ => Value::Int(self.0),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(Val),
    /// Update the `k`th object, or a missing one when there are none.
    Update(usize, Val),
    SetHandle(u8, Val),
    RemoveHandle(u8),
    Sweep,
    Commit,
    Abort,
    Compact,
    /// Redo a transaction of (kind, oid, handle, value) records.
    Apply(Vec<(u8, u64, u8, Val)>),
    Reopen,
}

fn arb_val() -> impl Strategy<Value = Val> {
    (0i64..100, prop::option::of(0usize..64)).prop_map(|(n, k)| Val(n, k))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_val().prop_map(Op::Alloc),
        4 => (0usize..64, arb_val()).prop_map(|(k, v)| Op::Update(k, v)),
        3 => (0u8..4, arb_val()).prop_map(|(h, v)| Op::SetHandle(h, v)),
        2 => (0u8..4).prop_map(Op::RemoveHandle),
        2 => Just(Op::Sweep),
        3 => Just(Op::Commit),
        2 => Just(Op::Abort),
        1 => Just(Op::Compact),
        1 => prop::collection::vec((0u8..4, 0u64..24, 0u8..4, arb_val()), 0..5).prop_map(Op::Apply),
        1 => Just(Op::Reopen),
    ]
}

fn heap_contents(heap: &Heap) -> Vec<(Oid, HeapObject)> {
    heap.iter().map(|(o, h)| (o, h.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn undo_log_store_matches_the_snapshot_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new());
        let path = Path::new("/model/intrinsic.log");
        let mut store = IntrinsicStore::open_with(Arc::clone(&vfs), path).unwrap();
        let mut model = SnapshotModel::default();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Alloc(v) => {
                    let value = v.to_value(&model.heap);
                    let got = store.alloc(Type::Top, value.clone());
                    prop_assert_eq!(got, model.alloc(Type::Top, value), "step {}", step);
                }
                Op::Update(k, v) => {
                    let oids: Vec<Oid> = model.heap.iter().map(|(o, _)| o).collect();
                    let oid = if oids.is_empty() { model.heap.next_oid() } else { oids[k % oids.len()] };
                    let value = v.to_value(&model.heap);
                    let got = store.update(oid, value.clone()).is_ok();
                    prop_assert_eq!(got, model.update(oid, value), "step {}", step);
                }
                Op::SetHandle(h, v) => {
                    let value = v.to_value(&model.heap);
                    let name = format!("h{h}");
                    store.set_handle(name.clone(), Type::Top, value.clone());
                    model.set_handle(&name, Type::Top, value);
                }
                Op::RemoveHandle(h) => {
                    let name = format!("h{h}");
                    prop_assert_eq!(store.remove_handle(&name), model.remove_handle(&name));
                }
                Op::Sweep => {
                    prop_assert_eq!(store.sweep(), model.sweep(), "step {}", step);
                }
                Op::Commit => {
                    store.commit().unwrap();
                    model.commit();
                }
                Op::Abort => {
                    store.abort();
                    model.abort();
                }
                Op::Compact => {
                    store.compact().unwrap();
                    model.compact();
                }
                Op::Apply(raw) => {
                    let records: Vec<ModelRecord> = raw
                        .iter()
                        .map(|(kind, oid, h, v)| match kind {
                            0 => ModelRecord::Object(Oid(*oid), v.to_value(&model.heap)),
                            1 => ModelRecord::Delete(Oid(*oid)),
                            2 => ModelRecord::Handle(format!("h{h}"), v.to_value(&model.heap)),
                            _ => ModelRecord::HandleDel(format!("h{h}")),
                        })
                        .collect();
                    let bytes: Vec<Vec<u8>> = records.iter().map(ModelRecord::encode).collect();
                    store.apply_records_and_commit(&bytes).unwrap();
                    model.apply_records_and_commit(&records);
                }
                Op::Reopen => {
                    drop(store);
                    store = IntrinsicStore::open_with(Arc::clone(&vfs), path).unwrap();
                    prop_assert!(store.recovery_report().clean(), "step {}", step);
                    model.reopen();
                }
            }
            prop_assert_eq!(heap_contents(store.heap()), heap_contents(&model.heap), "heap after step {} ({:?})", step, op);
            prop_assert_eq!(store.handles(), &model.handles, "handles after step {}", step);
            prop_assert_eq!(store.heap().next_oid(), model.heap.next_oid(), "next_oid after step {} ({:?})", step, op);
            prop_assert_eq!(store.is_dirty(), model.is_dirty(), "is_dirty after step {}", step);
            prop_assert_eq!(store.staged_records(), model.staged_records(), "staged records after step {}", step);
            let replay = LogFile::replay_with(&*vfs, path).unwrap();
            let log: Vec<&[u8]> = replay.records().collect();
            prop_assert_eq!(log, model.log.iter().map(Vec::as_slice).collect::<Vec<_>>(), "log after step {}", step);
        }
        // Whatever the sequence, a reopen recovers exactly the committed state.
        drop(store);
        let store = IntrinsicStore::open_with(Arc::clone(&vfs), path).unwrap();
        model.reopen();
        prop_assert_eq!(heap_contents(store.heap()), heap_contents(&model.heap));
        prop_assert_eq!(store.handles(), &model.handles);
    }
}

/// Attribute `key` of the one span named `name` in `spans`.
fn span_attr(spans: &[dbpl_obs::trace::SpanRecord], name: &str, key: &str) -> String {
    let matching: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
    assert_eq!(matching.len(), 1, "one {name} span");
    matching[0]
        .attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("{name} has no {key} attr"))
}

#[test]
fn one_update_on_a_large_heap_commits_and_aborts_one_undo_entry() {
    let vfs: Arc<dyn Vfs> = Arc::new(SimVfs::new());
    let mut store = IntrinsicStore::open_with(vfs, "/big/intrinsic.log").unwrap();
    let oids: Vec<Oid> = (0..10_000)
        .map(|i| store.alloc(Type::Int, Value::Int(i)))
        .collect();
    store.set_handle(
        "all",
        Type::Top,
        Value::List(oids.iter().map(|&o| Value::Ref(o)).collect()),
    );
    store.commit().unwrap();
    let target = oids[4_321];

    store.update(target, Value::Int(-1)).unwrap();
    let (r, spans) = dbpl_obs::trace::capture("test.commit", || store.commit());
    r.unwrap();
    assert_eq!(span_attr(&spans, "intrinsic.commit", "touched"), "1");
    assert_eq!(span_attr(&spans, "intrinsic.commit", "records"), "1");

    store.update(target, Value::Int(-2)).unwrap();
    store.update(target, Value::Int(-3)).unwrap();
    let ((), spans) = dbpl_obs::trace::capture("test.abort", || store.abort());
    assert_eq!(span_attr(&spans, "intrinsic.abort", "touched"), "1");
    assert_eq!(store.get(target).unwrap().value, Value::Int(-1));
    assert_eq!(store.heap().len(), 10_000);
    assert!(!store.is_dirty());
}

// ---------------------------------------------------------------------------
// SimVfs reclaims unreachable inodes
// ---------------------------------------------------------------------------

#[test]
fn replace_by_rename_cycles_keep_retained_bytes_bounded() {
    let vfs = SimVfs::new();
    let dir = Path::new("d");
    let (tmp, live) = (dir.join("unit.tmp"), dir.join("unit"));
    for i in 0..1_000u32 {
        // The intent/unit pattern: tmp write, fsync, rename over the old
        // file, directory fsync — and a scratch file created and unlinked.
        vfs.write(&tmp, &[i as u8; 1024]).unwrap();
        vfs.sync_file(&tmp).unwrap();
        vfs.rename(&tmp, &live).unwrap();
        vfs.sync_dir(dir).unwrap();
        let scratch = dir.join(format!("scratch{i}"));
        vfs.write(&scratch, &[0; 512]).unwrap();
        vfs.sync_file(&scratch).unwrap();
        vfs.remove_file(&scratch).unwrap();
        vfs.sync_dir(dir).unwrap();
    }
    // Only the live unit remains: its live and synced images.
    assert_eq!(vfs.retained_bytes(), 2 * 1024);
    assert_eq!(vfs.read(&live).unwrap(), vec![999u32 as u8; 1024]);
}

#[test]
fn an_open_handle_keeps_an_unlinked_inode_alive() {
    let vfs = SimVfs::new();
    let dir = Path::new("d");
    let mut f = vfs.open_append(&dir.join("a")).unwrap();
    f.write_all(b"abc").unwrap();
    f.sync_data().unwrap();
    vfs.sync_dir(dir).unwrap();
    vfs.remove_file(&dir.join("a")).unwrap();
    vfs.sync_dir(dir).unwrap();
    assert!(!vfs.exists(&dir.join("a")));
    // A new file must not land in the unlinked, still-open inode.
    vfs.write(&dir.join("b"), b"xyz").unwrap();
    f.write_all(b"def").unwrap();
    f.sync_data().unwrap();
    assert_eq!(vfs.read(&dir.join("b")).unwrap(), b"xyz");
    assert_eq!(vfs.retained_bytes(), 2 * 6 + 3);
    drop(f);
    assert_eq!(vfs.retained_bytes(), 3, "the last handle frees the inode");
}

#[test]
fn crash_after_reclaiming_inodes_still_yields_the_durable_images() {
    let vfs = SimVfs::new();
    let dir = Path::new("d");
    let (tmp, log) = (dir.join("log.tmp"), dir.join("log"));
    vfs.write(&log, b"first").unwrap();
    vfs.sync_file(&log).unwrap();
    vfs.sync_dir(dir).unwrap();
    // Files that were never durable are freed, and their slots reused.
    for i in 0..10 {
        let p = dir.join(format!("s{i}"));
        vfs.write(&p, b"scratch").unwrap();
        vfs.remove_file(&p).unwrap();
    }
    // Replace the log without a directory fsync: the old inode is still
    // the durable one and must survive the reuse of freed slots.
    vfs.write(&tmp, b"second").unwrap();
    vfs.sync_file(&tmp).unwrap();
    vfs.rename(&tmp, &log).unwrap();
    vfs.write(&dir.join("other"), b"other").unwrap();
    vfs.sync_file(&dir.join("other")).unwrap();
    vfs.crash_now();
    vfs.recover();
    assert_eq!(vfs.read(&log).unwrap(), b"first");
    assert!(!vfs.exists(&dir.join("other")));

    // Now make the replacement durable: the first image is reclaimed, and
    // a crash after its slot is reused still recovers the new images.
    vfs.write(&tmp, b"second").unwrap();
    vfs.sync_file(&tmp).unwrap();
    vfs.rename(&tmp, &log).unwrap();
    vfs.sync_dir(dir).unwrap();
    vfs.write(&dir.join("x"), b"fresh").unwrap();
    vfs.sync_file(&dir.join("x")).unwrap();
    vfs.sync_dir(dir).unwrap();
    vfs.crash_now();
    vfs.recover();
    assert_eq!(vfs.read(&log).unwrap(), b"second");
    assert_eq!(vfs.read(&dir.join("x")).unwrap(), b"fresh");
    assert_eq!(vfs.retained_bytes(), 2 * (6 + 5));
}
