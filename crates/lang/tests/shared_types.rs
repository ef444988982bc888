//! Stored rows share their carried type: the typed-list index keeps one
//! copy of each carried type, and every row of that type points at it.
//! Checked after a session's `put`, after the server applies a frame,
//! and after a database is restored from an image. Sharing is invisible
//! on disk: a unit encodes to the same bytes either way.

use dbpl_core::Database;
use dbpl_lang::{Server, Session};
use dbpl_persist::ReplicatingStore;
use dbpl_types::{Fields, Type};
use dbpl_values::{DynValue, Heap};

const PUTS: &str = "
    put(db, dynamic {Name = 'a', Empno = 1})
    put(db, dynamic 7)
    put(db, dynamic {Name = 'b', Empno = 2})
    put(db, dynamic {Name = 'c', Empno = 3})
";

fn fields(ty: &Type) -> &Fields {
    match ty {
        Type::Record(fs) => fs,
        other => panic!("expected a record type, found {other}"),
    }
}

/// The record rows of `db` (every row but the `Int`) share one field map.
fn assert_shared(db: &Database, what: &str) {
    let records: Vec<&DynValue> = db
        .rows_from(0)
        .filter(|d| matches!(d.ty, Type::Record(_)))
        .collect();
    assert_eq!(records.len(), 3, "{what}");
    let first = fields(&records[0].ty);
    for d in &records[1..] {
        assert!(
            fields(&d.ty).ptr_eq(first),
            "{what}: every Employee row points at one field map"
        );
    }
}

#[test]
fn rows_of_one_carried_type_share_one_field_map() {
    let mut s = Session::new().unwrap();
    s.run(PUTS).unwrap();
    assert_shared(&s.db, "after put");

    let server = Server::new().unwrap();
    let mut session = server.session();
    for put in PUTS.lines().filter(|l| !l.trim().is_empty()) {
        session.run(put).unwrap();
    }
    assert_shared(
        &session.snapshot().db,
        "after the server applied the frames",
    );

    let restored = Database::from_image(&s.db.capture_image()).unwrap();
    assert_shared(&restored, "after a restore from an image");
    assert_eq!(restored.dynamics(), s.db.dynamics());
}

#[test]
fn a_shared_type_encodes_like_a_private_one() {
    let mut s = Session::new().unwrap();
    s.run(PUTS).unwrap();
    let heap = Heap::new();
    for stored in s.db.rows_from(0) {
        let private = DynValue::new(
            dbpl_types::parse_type(&stored.ty.to_string()).unwrap(),
            stored.value.clone(),
        );
        if let (Type::Record(a), Type::Record(b)) = (&stored.ty, &private.ty) {
            assert!(!a.ptr_eq(b));
        }
        assert_eq!(
            ReplicatingStore::encode_unit(stored, &heap).unwrap(),
            ReplicatingStore::encode_unit(&private, &heap).unwrap(),
        );
    }
}
