//! The chunked dynamic store against a `Vec<DynValue>` model: random
//! sequences of puts (crossing chunk boundaries), clones, forks and
//! quarantines must leave every database equal to its own model — through
//! `dynamics()`, `len`, `rows_from`, `Get`, the scan oracle and an image
//! round trip — and no write may be visible through another clone.

use dbpl_core::{scan_get, Database};
use dbpl_types::{parse_type, Type};
use dbpl_values::{DynValue, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The tests read the process-global `store.rows_copied` counter or bump
/// it; serialize them so one test's deltas are its own.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema() -> Database {
    let mut db = Database::new();
    db.declare_type("Person", parse_type("{Name: Str}").unwrap())
        .unwrap();
    db.declare_type("Employee", parse_type("{Name: Str, Empno: Int}").unwrap())
        .unwrap();
    db
}

/// The `i`th generated row: Person, Employee or Int, by `i`.
fn row(i: usize) -> DynValue {
    let name = Value::str(format!("n{i}"));
    match i % 3 {
        0 => DynValue::new(Type::named("Person"), Value::record([("Name", name)])),
        1 => DynValue::new(
            Type::named("Employee"),
            Value::record([("Name", name), ("Empno", Value::Int(i as i64))]),
        ),
        _ => DynValue::new(Type::Int, Value::Int(i as i64)),
    }
}

/// A database with the model it must equal.
#[derive(Clone)]
struct Modelled {
    db: Database,
    rows: Vec<DynValue>,
    quarantined: BTreeSet<usize>,
}

impl Modelled {
    fn put(&mut self, d: DynValue) {
        assert_eq!(self.db.put_dyn(d.clone()).unwrap(), self.rows.len());
        self.rows.push(d);
    }

    fn check(&self) -> Result<(), TestCaseError> {
        let db = &self.db;
        prop_assert_eq!(db.len(), self.rows.len());
        prop_assert_eq!(db.is_empty(), self.rows.is_empty());
        prop_assert_eq!(db.dynamics(), &self.rows[..]);
        for start in [0, self.rows.len() / 2, self.rows.len()] {
            prop_assert!(db.rows_from(start).eq(self.rows[start..].iter()));
        }
        let healthy: Vec<DynValue> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantined.contains(i))
            .map(|(_, d)| d.clone())
            .collect();
        for bound in [
            Type::named("Person"),
            Type::named("Employee"),
            Type::Int,
            Type::Top,
        ] {
            let want = scan_get(&healthy, &bound, db.env());
            prop_assert_eq!(&db.get(&bound), &want, "get at {}", bound);
            prop_assert_eq!(&db.get_by_scan(&bound), &want, "scan oracle at {}", bound);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_store_equals_a_vec_model(
        ops in prop::collection::vec((0u8..4, 0usize..1000, 0usize..300), 1..10)
    ) {
        let _guard = lock();
        let mut dbs = vec![Modelled {
            db: schema(),
            rows: Vec::new(),
            quarantined: BTreeSet::new(),
        }];
        let mut next = 0;
        for (kind, pick, count) in ops {
            let i = pick % dbs.len();
            match kind {
                // A run of puts, long enough to cross chunk boundaries.
                0 => {
                    for _ in 0..count {
                        dbs[i].put(row(next));
                        next += 1;
                    }
                }
                // Snapshots: a clone and a fork share the store until a
                // write; at most four databases stay live.
                1 | 2 => {
                    let mut copy = dbs[i].clone();
                    if kind == 2 {
                        copy.db = dbs[i].db.fork();
                    }
                    prop_assert!(copy.db.shares_storage_with(&dbs[i].db));
                    if dbs.len() < 4 {
                        dbs.push(copy);
                    } else {
                        dbs[count % 4] = copy;
                    }
                }
                _ => {
                    let m = &mut dbs[i];
                    if !m.rows.is_empty() {
                        let pos = count % m.rows.len();
                        m.db.quarantine_position(pos, "planted");
                        m.quarantined.insert(pos);
                    }
                }
            }
            // Every database still equals its own model: no write leaked
            // through a shared chunk into another snapshot.
            for m in &dbs {
                m.check()?;
            }
        }
        // The image carries every row (quarantine is a per-database
        // report, not data) and restores into the same store.
        for m in &dbs {
            let restored = Database::from_image(&m.db.capture_image()).unwrap();
            let whole = Modelled {
                db: restored,
                rows: m.rows.clone(),
                quarantined: BTreeSet::new(),
            };
            whole.check()?;
        }
    }
}

#[test]
fn typed_list_packages_equal_scan_packages() {
    let _guard = lock();
    let mut db = schema();
    for i in 0..700 {
        db.put_dyn(row(i)).unwrap();
    }
    for bound in [Type::named("Person"), Type::named("Employee"), Type::Top] {
        let shared = db.get(&bound);
        let owned = db.get_by_scan(&bound);
        assert_eq!(shared, owned);
        for (s, o) in shared.iter().zip(&owned) {
            assert_eq!(s.bound(), o.bound());
            assert_eq!(s.witness(), o.witness());
            assert_eq!(s.open(), o.open());
            assert_eq!(format!("{s:?}"), format!("{o:?}"));
            assert_eq!(s.clone().into_dynamic(), o.clone().into_dynamic());
            assert_eq!(
                s.widen(Type::Top, db.env()).unwrap(),
                o.widen(Type::Top, db.env()).unwrap()
            );
        }
    }
    // A package outlives later writes and keeps showing its own row.
    let first = db.get(&Type::Int).remove(0);
    db.put(Type::Int, Value::Int(-1)).unwrap();
    assert_eq!(first.open(), &Value::Int(2));
}

#[test]
fn a_put_on_a_shared_snapshot_copies_at_most_one_chunk() {
    /// The store's rows per chunk (a private constant of the store).
    const CHUNK: u64 = 64;
    let _guard = lock();
    let copied = dbpl_obs::global().counter("store.rows_copied");
    for rows in [1_000, 10_000] {
        let mut db = schema();
        for i in 0..rows {
            db.put_dyn(row(i)).unwrap();
        }
        let snapshot = db.clone();
        let before = copied.get();
        db.put(Type::Int, Value::Int(0)).unwrap();
        let first = copied.get() - before;
        assert!(
            first <= CHUNK,
            "{first} rows copied by one put on a {rows}-row snapshot"
        );
        assert_eq!(first, rows as u64 % CHUNK, "exactly the shared tail");
        let before = copied.get();
        db.put(Type::Int, Value::Int(1)).unwrap();
        assert_eq!(copied.get() - before, 0, "the tail is private now");
        assert_eq!(snapshot.len(), rows, "the snapshot did not move");
        assert_eq!(db.len(), rows + 2);
    }
}
