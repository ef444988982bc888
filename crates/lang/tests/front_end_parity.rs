//! The two front ends — a standalone [`Session`] and a one-session
//! [`Server`] — share one durability gate, so the same fault must get the
//! same verdict from both.
//!
//! Over [`SimVfs`], the same one-extern program commits on each front end
//! while a disk-full (`enospc_at_op`) or a dead-flush
//! (`fail_fsync_at_op`) fault is armed at every operation of the commit
//! in turn, before, at and past its durability point. At each point both
//! front ends must agree on:
//!
//! * the outcome class of the faulted commit (ok / aborted / refused /
//!   in-doubt) and of a second commit while the fault still stands;
//! * the reported [`Health`] after each;
//! * the outcome of a follow-up commit once the fault is cleared;
//! * which handles `intern` successfully afterwards.
//!
//! Without faults, the write paths agree too: the same externs written
//! as raw store writes, by a program (an implicit transaction) and
//! inside `begin` … `commit` leave identical durable values.

use dbpl_lang::{Health, LangError, Server, ServerSession, Session};
use dbpl_persist::{recover_pending, FaultPlan, ReplicatingStore, SimVfs};
use dbpl_types::Type;
use dbpl_values::{DynValue, Heap, Value};
use std::path::Path;
use std::sync::Arc;

const SETUP: &str = "extern('Seed', dynamic 0)";
const FAULTED: &str = "extern('Probe', dynamic 1)";
const AGAIN: &str = "extern('Again', dynamic 2)";
const FOLLOW_UP: &str = "extern('After', dynamic 3)";
const HANDLES: [&str; 4] = ["Seed", "Probe", "Again", "After"];

/// One program-running front end over a fresh simulated disk.
trait FrontEnd {
    fn open(vfs: &SimVfs) -> Self;
    fn run(&mut self, src: &str) -> Result<Vec<String>, LangError>;
    fn health(&self) -> Health;
}

impl FrontEnd for Session {
    fn open(vfs: &SimVfs) -> Session {
        let store =
            ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new("parity")).unwrap();
        Session::from_store(store).unwrap()
    }
    fn run(&mut self, src: &str) -> Result<Vec<String>, LangError> {
        Session::run(self, src)
    }
    fn health(&self) -> Health {
        Session::health(self)
    }
}

/// A one-session server (the session keeps the engine alive).
struct OneSession(ServerSession);

impl FrontEnd for OneSession {
    fn open(vfs: &SimVfs) -> OneSession {
        let server = Server::open_with(Arc::new(vfs.clone()), "parity").unwrap();
        OneSession(server.session())
    }
    fn run(&mut self, src: &str) -> Result<Vec<String>, LangError> {
        self.0.run(src)
    }
    fn health(&self) -> Health {
        self.0.health()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Ok,
    Aborted,
    Refused,
    InDoubt,
}

fn class(res: Result<Vec<String>, LangError>) -> Class {
    match res {
        Ok(_) => Class::Ok,
        Err(e) if e.msg.contains("in doubt") => Class::InDoubt,
        Err(e) if e.msg.starts_with("commit refused") => Class::Refused,
        Err(e) if e.msg.starts_with("commit failed") => Class::Aborted,
        Err(e) => panic!("unclassified commit error: {e}"),
    }
}

/// Everything one front end reports around one armed fault.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    faulted: (Class, Health),
    again: (Class, Health),
    follow_up: (Class, Health),
    interned: Vec<&'static str>,
}

/// Ops the faulted commit takes on a clean disk.
fn commit_ops<F: FrontEnd>() -> u64 {
    let vfs = SimVfs::new();
    let mut fe = F::open(&vfs);
    fe.run(SETUP).unwrap();
    let before = vfs.ops();
    fe.run(FAULTED).unwrap();
    vfs.ops() - before
}

fn observe<F: FrontEnd>(arm: impl Fn(u64) -> FaultPlan, at: u64) -> Observed {
    let vfs = SimVfs::new();
    let mut fe = F::open(&vfs);
    fe.run(SETUP).unwrap();
    vfs.set_plan(arm(vfs.ops() + at));
    let faulted = (class(fe.run(FAULTED)), fe.health());
    let again = (class(fe.run(AGAIN)), fe.health());
    vfs.set_plan(FaultPlan::default());
    let follow_up = (class(fe.run(FOLLOW_UP)), fe.health());
    let interned = HANDLES
        .into_iter()
        .filter(|h| fe.run(&format!("intern('{h}')")).is_ok())
        .collect();
    Observed {
        faulted,
        again,
        follow_up,
        interned,
    }
}

fn sweep(name: &str, arm: impl Fn(u64) -> FaultPlan) -> Vec<Class> {
    let n = commit_ops::<Session>();
    assert_eq!(
        n,
        commit_ops::<OneSession>(),
        "the commit takes a different number of ops on the two front ends"
    );
    let mut seen = Vec::new();
    for at in 1..=n + 1 {
        let session = observe::<Session>(&arm, at);
        let server = observe::<OneSession>(&arm, at);
        assert_eq!(
            session, server,
            "{name} at op {at}/{n}: the front ends disagree"
        );
        // Once the fault clears, both heal and commit.
        assert_eq!(
            session.follow_up,
            (Class::Ok, Health::Healthy),
            "{name} at op {at}"
        );
        seen.extend([session.faulted.0, session.again.0]);
    }
    seen.sort();
    seen.dedup();
    seen
}

#[test]
fn disk_full_gets_the_same_verdict_from_session_and_server() {
    let seen = sweep("enospc", |op| FaultPlan {
        enospc_at_op: Some(op),
        ..FaultPlan::default()
    });
    // The sweep reaches every verdict a full disk can produce: aborted
    // and degraded before the durability point (then refused), in doubt
    // past it, and committed once the commit's ops are all behind it.
    assert_eq!(
        seen,
        [Class::Ok, Class::Aborted, Class::Refused, Class::InDoubt]
    );
}

#[test]
fn dead_flush_gets_the_same_verdict_from_session_and_server() {
    let seen = sweep("fsync", |op| FaultPlan {
        fail_fsync_at_op: Some(op),
        ..FaultPlan::default()
    });
    // A commit's only fsync is its commit-log record's: a dead flush
    // there leaves the record's durability unknown, so the commit is in
    // doubt — never reported aborted while it may be durable — and the
    // next one is refused until a checkpoint makes the pending one
    // durable. A dead flush never degrades, and once the commit's fsync
    // is behind it, that commit is acknowledged.
    assert_eq!(seen, [Class::Ok, Class::Refused, Class::InDoubt]);
}

#[test]
fn raw_implicit_and_explicit_writes_leave_the_same_durable_values() {
    const N: i64 = 4;
    let vfs = SimVfs::new();
    let open = |dir: &str| ReplicatingStore::open_with(Arc::new(vfs.clone()), dir).unwrap();
    let raw = open("raw");
    for i in 0..N {
        let d = DynValue::new(Type::Int, Value::Int(i));
        raw.extern_value(&format!("h{i}"), &d, &Heap::new())
            .unwrap();
    }
    let program: String = (0..N)
        .map(|i| format!("extern('h{i}', dynamic {i})\n"))
        .collect();
    Session::from_store(open("implicit"))
        .unwrap()
        .run(&program)
        .unwrap();
    Session::from_store(open("explicit"))
        .unwrap()
        .run(&format!("begin\n{program}commit"))
        .unwrap();
    // Each store reopened from disk, its commit log replayed.
    let durable = |dir: &str| -> Vec<DynValue> {
        let store = open(dir);
        recover_pending(None, &store).unwrap();
        (0..N)
            .map(|i| store.intern(&format!("h{i}"), &mut Heap::new()).unwrap())
            .collect()
    };
    let raw = durable("raw");
    assert_eq!(raw, durable("implicit"), "an implicit transaction diverged");
    assert_eq!(raw, durable("explicit"), "an explicit transaction diverged");
}
