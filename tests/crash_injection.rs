//! Failure injection on the intrinsic store: random truncations and bit
//! flips anywhere in the log must never produce a state that was not a
//! committed prefix — recovery either restores a committed transaction
//! boundary or (for corruption *before* the last valid commit marker)
//! conservatively rolls further back. It must never panic, and never
//! resurrect uncommitted data.

use dbpl::persist::{IntrinsicStore, TempDir};
use dbpl::types::Type;
use dbpl::values::Value;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A log path in a fresh directory, removed when the guard drops.
fn fresh_log() -> (TempDir, PathBuf) {
    let dir = TempDir::new("crash").unwrap();
    let path = dir.join(format!("case-{}.log", CASE.fetch_add(1, Ordering::Relaxed)));
    (dir, path)
}

/// Build a log with `commits` transactions, each setting handle "n" to its
/// transaction number.
fn build(path: &PathBuf, commits: u64) {
    let _ = std::fs::remove_file(path);
    let mut s = IntrinsicStore::open(path).unwrap();
    let o = s.alloc(Type::Int, Value::Int(0));
    s.set_handle("n", Type::Int, Value::Ref(o));
    for i in 1..=commits {
        s.update(o, Value::Int(i as i64)).unwrap();
        s.commit().unwrap();
    }
}

/// What value does handle "n" hold after recovery (None if absent)?
fn recovered_value(path: &PathBuf) -> Option<i64> {
    let s = IntrinsicStore::open(path).ok()?;
    let (_, v) = s.handle("n")?.clone();
    let o = v.as_ref_oid()?;
    s.get(o).ok()?.value.as_int()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncation_recovers_a_committed_prefix(commits in 1u64..8, chop in 1u64..200) {
        let (_dir, path) = fresh_log();
        build(&path, commits);
        let full = std::fs::metadata(&path).unwrap().len();
        let keep = full.saturating_sub(chop);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);

        // Whatever survives must be a value some commit actually wrote;
        // chopping everything may lose the handle entirely — also a valid
        // committed prefix (the empty one).
        if let Some(v) = recovered_value(&path) {
            prop_assert!((0..=commits as i64).contains(&v), "impossible value {v}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_never_panic_or_fabricate(commits in 1u64..6, byte in 0usize..4096, bit in 0u8..8) {
        let (_dir, path) = fresh_log();
        build(&path, commits);
        let mut bytes = std::fs::read(&path).unwrap();
        if !bytes.is_empty() {
            let idx = byte % bytes.len();
            bytes[idx] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
        }
        // Recovery must not panic; a recovered value must be one a commit
        // wrote. (A flip inside a *payload* that still passes CRC is
        // cryptographically negligible for CRC32 on single-bit flips —
        // single-bit errors are always detected.)
        if let Some(v) = recovered_value(&path) {
            prop_assert!((0..=commits as i64).contains(&v), "fabricated value {v}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn post_recovery_store_is_writable(commits in 1u64..5, chop in 1u64..100) {
        // After any torn-tail recovery, the store must accept new commits
        // and subsequently reopen to exactly the new state.
        let (_dir, path) = fresh_log();
        build(&path, commits);
        let full = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full.saturating_sub(chop)).unwrap();
        drop(f);

        {
            let mut s = IntrinsicStore::open(&path).unwrap();
            let o = s.alloc(Type::Int, Value::Int(777));
            s.set_handle("fresh", Type::Int, Value::Ref(o));
            s.commit().unwrap();
        }
        let s = IntrinsicStore::open(&path).unwrap();
        let (_, v) = s.handle("fresh").expect("new commit survived");
        prop_assert_eq!(s.get(v.as_ref_oid().unwrap()).unwrap().value.as_int(), Some(777));
        let _ = std::fs::remove_file(&path);
    }
}
