//! Sessions: running MiniDBPL programs against shared database state.
//!
//! A [`Session`] models what persists *between* program invocations: the
//! database (heterogeneous dynamic store + heap + schema) and the
//! replicating store behind `extern`/`intern`. Each call to
//! [`Session::run`] is one "program": it starts with a fresh variable
//! scope — precisely the paper's model, where only database structures
//! survive from one program to the next, through handles.
//!
//! Every program runs inside a **transaction frame**. A plain [`run`]
//! opens an implicit frame and commits it when the program completes;
//! any failure — a run-time error or even a panic in the evaluator —
//! aborts the frame, rolling the database (data *and* schema) back to
//! where the frame opened and discarding every staged store write.
//! `begin` / `commit` / `abort` statements (or the host-side
//! [`Session::transaction`]) manage an explicit frame that can span
//! several programs. A mid-program `begin` or `commit` is a **commit
//! point**: it first settles (commits) the frame covering the statements
//! before it, so a later failure in the same program rolls back only to
//! that point — not to the start of the program. Commit is crash-atomic
//! across an attached
//! [`IntrinsicStore`] and the replicating store's externs: both are
//! covered by one record of the store's commit log, replayed as a unit
//! on reopen (see `dbpl_persist::txn`). Dropping a session is a clean
//! close: it checkpoints the commit log.
//!
//! Both front ends run a program the same way (see [`crate::eval`]): it
//! records its effects in a transaction frame as it goes. A session
//! commits the frame through its own durability gate; a
//! [`crate::ServerSession`] hands it to the engine's group commit.
//!
//! [`run`]: Session::run

use crate::ast::Item;
use crate::error::LangError;
use crate::eval::{contained, Ctx, Frame};
use dbpl_core::Database;
use dbpl_persist::{
    DurabilityGate, Health, IntrinsicStore, PersistError, QuarantineEntry, QuarantineReport,
    Recovery, ReplicatingStore, RetryPolicy, SalvageReport, ScrubReport, TempDir, Verdict,
};
use dbpl_values::DynValue;
use std::path::Path;
use std::time::Duration;

/// A running MiniDBPL session.
pub struct Session {
    /// The database shared by all programs of this session.
    pub db: Database,
    /// The replicating store behind `extern`/`intern`.
    pub store: ReplicatingStore,
    /// An intrinsic (log-structured) store, once one has been attached
    /// with [`Session::attach_intrinsic`]. Mutations staged here (via the
    /// host API) commit atomically with the session's externs.
    pub intrinsic: Option<IntrinsicStore>,
    /// Output produced by `print` and expression statements, plus any
    /// recovery/salvage notices from attaching an intrinsic store.
    /// Printing is an observable effect: it is *not* rolled back when a
    /// transaction aborts.
    pub out: Vec<String>,
    /// Wall-clock budget granted to each transaction frame; a commit
    /// that has not reached its durability point by then aborts with a
    /// deadline error instead of retrying forever. `None` (the default)
    /// means only the bounded retry policy limits a commit.
    pub txn_deadline: Option<Duration>,
    /// The open transaction frame, if any.
    txn: Option<Frame>,
    /// Corrupt store units hit by `intern` — quarantined here, at the
    /// session level, so the record survives the enclosing transaction's
    /// abort. Merged into [`Session::quarantine_report`].
    quarantined: Vec<QuarantineEntry>,
    /// What happens when a durable write fails: degraded mode, pending
    /// recovery, in-doubt roll-forward and abort bookkeeping — the same
    /// policy an engine's group commit uses.
    gate: DurabilityGate,
    /// The temp directory [`Session::new`] created for the store, removed
    /// on drop. A directory the caller named is never removed.
    owned_dir: Option<TempDir>,
}

/// A session's frames commit, and its writes outside any frame land,
/// through its own durability gate.
impl Ctx<'_> {
    /// Run a commit point: `begin` settles what ran before it and opens
    /// an explicit frame; `commit` and `abort` close the explicit frame,
    /// and the rest of the program runs in a fresh implicit one,
    /// committed when the program completes.
    pub(crate) fn commit_point(&mut self, item: &Item) -> Result<(), LangError> {
        let explicit = self.txn.as_ref().is_some_and(|t| t.explicit);
        match item {
            Item::Begin { at } if explicit => {
                Err(LangError::eval(*at, "transaction already in progress"))
            }
            Item::Commit { at } | Item::Abort { at } if !explicit => {
                Err(LangError::eval(*at, "no transaction in progress"))
            }
            Item::Abort { .. } => {
                self.abort();
                self.open(false);
                Ok(())
            }
            _ => {
                self.commit()?;
                self.open(matches!(item, Item::Begin { .. }));
                Ok(())
            }
        }
    }

    /// Durably apply the open frame: one crash-atomic commit across the
    /// intrinsic store (if attached and dirty) and the staged externs,
    /// through the session's [`DurabilityGate`]. A commit that did not
    /// become durable rolls memory back to the frame's base; an in-doubt
    /// one keeps it, since the transaction will roll forward.
    pub(crate) fn commit(&mut self) -> Result<(), LangError> {
        let Some(frame) = self.txn.take() else {
            return Ok(());
        };
        let policy = frame
            .deadline
            .map_or_else(RetryPolicy::default, RetryPolicy::with_deadline);
        let verdict = self
            .gated(|gate, intrinsic, store| gate.commit(intrinsic, store, &frame.externs, &policy));
        match verdict {
            Verdict::Committed => return Ok(()),
            Verdict::InDoubt { .. } => {}
            Verdict::Refused(_) | Verdict::Aborted(_) => {
                *self.db = frame.base;
                if let Some(s) = self.intrinsic.as_mut() {
                    s.abort();
                }
            }
        }
        Err(LangError::eval(0, verdict.to_string()))
    }

    /// Run one operation through the session's durability gate and
    /// announce any health change it made in the output.
    pub(crate) fn gated<T>(
        &mut self,
        op: impl FnOnce(&DurabilityGate, Option<&mut IntrinsicStore>, &ReplicatingStore) -> T,
    ) -> T {
        let gate = self
            .gate
            .expect("only a session writes through its own gate");
        let was_degraded = gate.health().is_degraded();
        let result = op(gate, self.intrinsic.as_deref_mut(), self.store);
        match gate.health() {
            Health::Degraded { reason } if !was_degraded => self.out.push(format!(
                "warning: session degraded ({reason}); durable commits are refused until \
                 the store is writable again"
            )),
            Health::Healthy if was_degraded => self
                .out
                .push("note: session healthy again; durable commits resume".to_string()),
            _ => {}
        }
        result
    }
}

impl Session {
    /// A session whose replicating store lives in a fresh temp directory,
    /// removed when the session drops.
    pub fn new() -> Result<Session, LangError> {
        let dir = TempDir::new("session")
            .map_err(|e| LangError::eval(0, format!("cannot create a store directory: {e}")))?;
        let mut s = Session::with_store_dir(&dir)?;
        s.owned_dir = Some(dir);
        Ok(s)
    }

    /// A session backed by a specific store directory — two sessions given
    /// the same directory share their externed handles, which is how the
    /// paper's cross-program examples run.
    pub fn with_store_dir(dir: impl AsRef<Path>) -> Result<Session, LangError> {
        let store = ReplicatingStore::open(dir)
            .map_err(|e| LangError::eval(0, format!("cannot open store: {e}")))?;
        Session::from_store(store)
    }

    /// A session over a store directory opened in **salvage mode**: every
    /// unit is probed up front, undecodable ones are quarantined rather
    /// than surfaced as errors later, and the store is read-only. The
    /// quarantine report is also returned directly.
    pub fn with_store_dir_salvage(
        dir: impl AsRef<Path>,
    ) -> Result<(Session, QuarantineReport), LangError> {
        let (store, report) = ReplicatingStore::open_salvage(dir)
            .map_err(|e| LangError::eval(0, format!("cannot salvage store: {e}")))?;
        let mut s = Session::from_store(store)?;
        s.quarantined = report.entries.clone();
        dbpl_obs::emit(dbpl_obs::Event::Salvage {
            loaded: s.store.handles().map(|h| h.len()).unwrap_or(0) as u64,
            skipped: report.len() as u64,
        });
        let names: Vec<&str> = report.entries.iter().map(|e| e.handle.as_str()).collect();
        s.out.push(format!(
            "warning: store opened read-only in salvage mode: {} unit(s) quarantined{}{}",
            report.len(),
            if names.is_empty() { "" } else { ": " },
            names.join(", ")
        ));
        Ok((s, report))
    }

    /// Build the session over an opened store and finish any transaction
    /// a crash left in its commit log. Most sessions never attach an
    /// intrinsic store, so this is where their crash recovery happens: an
    /// extern-only log tail is replayed immediately; a tail that also
    /// carries intrinsic-store records is left in place — with commits
    /// blocked — until [`Session::attach_intrinsic`] can replay both
    /// halves as a unit.
    ///
    /// Public so hosts can inject a store opened over a custom
    /// [`dbpl_persist::Vfs`] (fault injection, in-memory testing) via
    /// [`ReplicatingStore::open_with`].
    pub fn from_store(store: ReplicatingStore) -> Result<Session, LangError> {
        let (gate, recovery) = DurabilityGate::open(&store)
            .map_err(|e| LangError::eval(0, format!("cannot recover pending transaction: {e}")))?;
        let mut s = Session {
            db: Database::new(),
            store,
            intrinsic: None,
            out: Vec::new(),
            txn_deadline: None,
            txn: None,
            quarantined: Vec::new(),
            gate,
            owned_dir: None,
        };
        match recovery {
            Recovery::Clean => {}
            Recovery::Completed(txn_id) => s.out.push(completed_note(txn_id)),
            Recovery::Blocked(txn_id) => s.out.push(format!(
                "note: pending transaction {txn_id} involves an intrinsic store; attach \
                 it to finish recovery (commits are blocked until then)"
            )),
            Recovery::ReadOnly(txn_id) => s.out.push(format!(
                "warning: pending transaction {txn_id} left unrecovered (store is read-only)"
            )),
        }
        Ok(s)
    }

    /// Attach an intrinsic store backed by the log at `path`, surfacing
    /// crash-recovery outcomes to the user: if the log had a torn tail,
    /// a `note:` line describing what was recovered and what was dropped
    /// is appended to the session output.
    pub fn attach_intrinsic(&mut self, path: impl AsRef<Path>) -> Result<(), LangError> {
        let store = IntrinsicStore::open(path)
            .map_err(|e| LangError::eval(0, format!("cannot open intrinsic store: {e}")))?;
        self.attach_opened(store)
    }

    /// [`Session::attach_intrinsic`] for a store already opened.
    fn attach_opened(&mut self, mut store: IntrinsicStore) -> Result<(), LangError> {
        let r = store.recovery_report();
        if !r.clean() {
            self.out.push(format!(
                "note: store recovered to txn {}, dropped {} torn record(s) ({} trailing bytes discarded)",
                r.recovered_txn, r.dropped_records, r.truncated_bytes
            ));
        }
        // Both store kinds are now present: finish any multi-store
        // transaction a crash interrupted between them, which also lifts
        // the block recovery deferred at open put on commits.
        let recovered = self
            .gate
            .recover(Some(&mut store), &self.store)
            .map_err(|e| LangError::eval(0, format!("cannot recover pending transaction: {e}")))?;
        self.out.extend(recovered.map(completed_note));
        self.intrinsic = Some(store);
        Ok(())
    }

    /// Attach an intrinsic store in **salvage mode**: the log is opened
    /// read-only even if normal recovery would refuse it, and a summary of
    /// what could and could not be recovered is appended to the session
    /// output. Returns the loss report.
    pub fn attach_intrinsic_salvage(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<SalvageReport, LangError> {
        let (store, report) = IntrinsicStore::open_salvage(path)
            .map_err(|e| LangError::eval(0, format!("cannot salvage intrinsic store: {e}")))?;
        dbpl_obs::emit(dbpl_obs::Event::Salvage {
            loaded: report.applied_records as u64,
            skipped: (report.skipped_records + report.dropped_records) as u64,
        });
        self.out.push(format!(
            "warning: store opened read-only in salvage mode: recovered to txn {}, \
             applied {} record(s), skipped {} unreadable, dropped {} uncommitted, \
             lost {} byte(s) across {} gap(s)",
            report.recovered_txn,
            report.applied_records,
            report.skipped_records,
            report.dropped_records,
            report.lost_bytes,
            report.gaps
        ));
        self.intrinsic = Some(store);
        Ok(report)
    }

    /// The session's own state, lent to a program.
    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            db: &mut self.db,
            txn: &mut self.txn,
            store: &self.store,
            intrinsic: self.intrinsic.as_mut(),
            out: &mut self.out,
            quarantined: &mut self.quarantined,
            gate: Some(&self.gate),
            budget: self.txn_deadline,
        }
    }

    /// Parse, type-check and run one program. Returns the lines of output
    /// it produced (also appended to [`Session::out`]).
    ///
    /// The program runs in a transaction frame: unless an explicit
    /// transaction is already open, one is opened for this program and
    /// committed when it completes. A check error leaves the session
    /// untouched; a run-time error or a panic mid-program aborts the
    /// frame, so no partial mutation — not even a `type` declaration —
    /// leaks into the session. The one qualification: `begin` and
    /// `commit` statements are commit points that settle the preceding
    /// statements, so in a program that uses them the abort rolls back
    /// to the most recent commit point rather than the program's start.
    pub fn run(&mut self, src: &str) -> Result<Vec<String>, LangError> {
        let out_start = self.out.len();
        self.ctx().run(src)?;
        Ok(self.out[out_start..].to_vec())
    }

    /// Run a program, rendering any error against the source.
    pub fn run_pretty(&mut self, src: &str) -> Result<Vec<String>, String> {
        self.run(src).map_err(|e| e.render(src))
    }

    // ---------- transactions ----------

    /// Run `f` inside an explicit transaction: committed if it returns
    /// `Ok`, aborted — with every staged mutation discarded — if it
    /// returns `Err` **or panics**. The panic is contained; the session
    /// stays usable.
    pub fn transaction<T>(
        &mut self,
        f: impl FnOnce(&mut Session) -> Result<T, LangError>,
    ) -> Result<T, LangError> {
        if self.in_transaction() {
            return Err(LangError::eval(0, "transaction already in progress"));
        }
        self.ctx().open(true);
        let v = contained("transaction", || f(self)).inspect_err(|_| self.ctx().abort())?;
        self.ctx().commit()?;
        Ok(v)
    }

    /// Whether an explicit transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.txn.as_ref().is_some_and(|t| t.explicit)
    }

    // ---------- staged store access ----------

    /// Stage an extern: inside a transaction frame the encoded unit is
    /// buffered and written only at commit; outside any frame it is
    /// installed (hardened) immediately, behind the durability gate.
    pub fn stage_extern(&mut self, handle: &str, d: &DynValue) -> Result<(), PersistError> {
        self.ctx().stage(handle, Some(d))
    }

    /// Stage a handle removal, transactionally when a frame is open.
    pub fn stage_remove(&mut self, handle: &str) -> Result<(), PersistError> {
        self.ctx().stage(handle, None)
    }

    /// Intern a handle with read-your-writes over the open frame's
    /// staged externs. A unit that fails to decode (corruption) is
    /// recorded in the session's quarantine — the error still surfaces
    /// to the calling program, but the session itself stays healthy and
    /// the report names the bad package.
    pub fn intern_staged(&mut self, handle: &str) -> Result<DynValue, PersistError> {
        self.ctx().intern(handle)
    }

    /// Load every readable unit of the replicating store into the
    /// database; undecodable units are quarantined (and noted in the
    /// session output) instead of failing the import. Returns how many
    /// units were imported.
    pub fn import_store(&mut self) -> Result<usize, LangError> {
        let (good, report) = self.store.intern_all(self.db.heap_mut());
        let n = good.len();
        for (_, d) in good {
            self.db
                .put_dyn(d)
                .map_err(|e| LangError::eval(0, format!("import failed: {e}")))?;
        }
        if !report.is_empty() {
            let names: Vec<&str> = report.entries.iter().map(|e| e.handle.as_str()).collect();
            self.out.push(format!(
                "note: {} corrupt unit(s) quarantined during import: {}",
                report.len(),
                names.join(", ")
            ));
        }
        for e in report.entries {
            self.ctx().quarantine(&e.handle, e.cause, e.reason);
        }
        Ok(n)
    }

    /// Walk every unit of the replicating store, verify checksums and
    /// decodability, and read-repair corrupt units from the attached
    /// intrinsic store's copy of the same handle (when one is attached
    /// and holds one). Units that stay corrupt are quarantined at the
    /// session level, exactly as if `intern` had tripped over them.
    /// Emits [`dbpl_obs::Event::ScrubReport`] and the `scrub.*` counters.
    pub fn scrub(&mut self) -> ScrubReport {
        self.ctx().scrub()
    }

    // ---------- diagnostics ----------

    /// The session's current health: [`Health::Healthy`], or
    /// [`Health::Degraded`] after an environmental failure (disk full)
    /// flipped durable writes off. Degraded mode clears itself the next
    /// time a commit or direct write probes the store and finds it
    /// writable.
    pub fn health(&self) -> Health {
        self.gate.health()
    }

    /// Everything this session has quarantined: corrupt store units hit
    /// by `intern`/import plus the database's own quarantined dynamics.
    pub fn quarantine_report(&self) -> QuarantineReport {
        let mut r = self.db.quarantine_report();
        r.entries.extend(self.quarantined.iter().cloned());
        r
    }

    /// Run one program under its own dedicated trace and return
    /// `(output lines, rendered trace tree)` — the interactive
    /// "why was that slow" tool. The capture is detached from any
    /// enclosing trace, so the returned tree is exactly this program's
    /// spans: the `run` root, parse/check, per-statement spans, and
    /// whatever Get/join/commit work the statements performed.
    pub fn run_profiled(&mut self, src: &str) -> Result<(Vec<String>, String), LangError> {
        let (result, spans) = dbpl_obs::trace::capture("profile", || self.run(src));
        result.map(|out| (out, dbpl_obs::trace::render_tree(&spans)))
    }

    /// Write everything currently buffered in the trace ring as a Chrome
    /// tracing / Perfetto JSON array to `path` (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn export_trace_chrome(&self, path: &std::path::Path) -> Result<(), LangError> {
        // Counter tracks for every `span.<name>` histogram ride along, so
        // the trace file also carries the per-site lifetime totals.
        let json = dbpl_obs::trace::export_chrome_with_counters(
            &dbpl_obs::trace::buffered(),
            &dbpl_obs::global().snapshot(),
        );
        std::fs::write(path, json)
            .map_err(|e| LangError::eval(0, format!("trace export failed: {e}")))
    }
}

/// Dropping a session is a clean close: the commit log is checkpointed
/// so the next open has nothing to replay, and a temp directory the
/// session created is removed after that.
impl Drop for Session {
    fn drop(&mut self) {
        self.gate.close(self.intrinsic.as_mut(), &self.store);
        // `owned_dir` drops after this, removing the directory.
    }
}

/// The session note for a pending transaction recovery rolled forward.
fn completed_note(txn_id: u64) -> String {
    format!("note: completed pending transaction {txn_id} left by an interrupted commit")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(src: &str) -> Vec<String> {
        Session::new()
            .unwrap()
            .run(src)
            .unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn an_owned_store_dir_goes_with_the_session_and_a_given_one_stays() {
        let mut s = Session::new().unwrap();
        let owned = s.store.dir().to_path_buf();
        s.run("extern('K', dynamic 1)").unwrap();
        assert!(owned.exists());
        drop(s);
        assert!(!owned.exists(), "the session removes the directory it made");

        let given = TempDir::new("sess-given").unwrap();
        let mut s = Session::with_store_dir(&given).unwrap();
        s.run("extern('K', dynamic 2)").unwrap();
        drop(s);
        let mut s = Session::with_store_dir(&given).unwrap();
        assert_eq!(s.run("coerce intern('K') to Int").unwrap(), vec!["2"]);
        drop(s);
        assert!(given.exists(), "a given directory stays");
    }

    #[test]
    fn arithmetic_and_printing() {
        assert_eq!(run_one("1 + 2 * 3"), vec!["7"]);
        assert_eq!(run_one("print('hi')"), vec!["'hi'"]);
        assert_eq!(run_one("'a' ++ 'b'"), vec!["'ab'"]);
        assert_eq!(run_one("1.5 + 1"), vec!["2.5"]);
    }

    #[test]
    fn records_with_and_fields() {
        assert_eq!(
            run_one("let p = {Name = 'J Doe'}\nlet e = p with {Empno = 1234}\ne.Empno"),
            vec!["1234"]
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            run_one("fun fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1)\nfact(10)"),
            vec!["3628800"]
        );
        assert_eq!(
            run_one("fun add(a: Int, b: Int): Int = a + b\nadd(40, 2)"),
            vec!["42"]
        );
    }

    #[test]
    fn polymorphism_runs() {
        assert_eq!(
            run_one(
                "type Person = {Name: Str}\n\
                 fun name[t <= Person](x: t): Str = x.Name\n\
                 name[{Name: Str, Empno: Int}]({Name = 'e', Empno = 1})"
            ),
            vec!["'e'"]
        );
    }

    #[test]
    fn list_builtins() {
        assert_eq!(run_one("len[Int]([1,2,3])"), vec!["3"]);
        assert_eq!(run_one("sum([1, 2, 3.5])"), vec!["6.5"]);
        assert_eq!(run_one("cons[Int](1, [2])"), vec!["[1, 2]"]);
        assert_eq!(
            run_one("map[Int][Int](fn(x: Int) => x * x, [1,2,3])"),
            vec!["[1, 4, 9]"]
        );
        assert_eq!(
            run_one("filter[Int](fn(x: Int) => x > 1, [1,2,3])"),
            vec!["[2, 3]"]
        );
        assert_eq!(
            run_one("fold[Int][Int](fn(a: Int, x: Int) => a + x, 0, [1,2,3])"),
            vec!["6"]
        );
        assert_eq!(run_one("head[Int]([9, 8])"), vec!["9"]);
        assert_eq!(run_one("append[Int]([1],[2])"), vec!["[1, 2]"]);
    }

    #[test]
    fn paper_dynamic_example() {
        // let d = dynamic 3; coerce to Int works, coerce to Str raises the
        // run-time exception.
        let mut s = Session::new().unwrap();
        assert_eq!(
            s.run("let d = dynamic 3\ncoerce d to Int").unwrap(),
            vec!["3"]
        );
        let err = s.run("let d = dynamic 3\ncoerce d to Str").unwrap_err();
        assert!(err.msg.contains("coerce failed"), "{err}");
        assert_eq!(s.run("typeof (dynamic 3)").unwrap(), vec!["'Int'"]);
    }

    #[test]
    fn database_put_and_generic_get() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "type Person = {Name: Str}\n\
                 type Employee = {Name: Str, Empno: Int}\n\
                 put(db, dynamic {Name = 'p'})\n\
                 put(db, dynamic {Name = 'e', Empno = 1})\n\
                 put(db, dynamic 42)\n\
                 print(len[Person](get[Person](db)))\n\
                 print(len[Employee](get[Employee](db)))\n\
                 print(len[Int](get[Int](db)))",
            )
            .unwrap();
        assert_eq!(out, vec!["2", "1", "1"]);
    }

    #[test]
    fn get_result_is_usable_at_the_bound() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "type Person = {Name: Str}\n\
                 put(db, dynamic {Name = 'a', Empno = 9})\n\
                 map[Person][Str](fn(p: Person) => p.Name, get[Person](db))",
            )
            .unwrap();
        assert_eq!(out, vec!["['a']"]);
    }

    #[test]
    fn extern_intern_across_programs() {
        // The paper's Amber fragment, split across two program runs.
        let mut s = Session::new().unwrap();
        s.run(
            "type Database = {Employees: List[{Name: Str}]}\n\
             let d = {Employees = [{Name = 'J Doe'}]}\n\
             extern('DBFile', dynamic d)",
        )
        .unwrap_or_else(|e| panic!("{e}"));
        // "to access the database in a subsequent program":
        let out = s
            .run(
                "let x = intern('DBFile')\n\
                 let d = coerce x to {Employees: List[{Name: Str}]}\n\
                 head[{Name: Str}](d.Employees).Name",
            )
            .unwrap();
        assert_eq!(out, vec!["'J Doe'"]);
    }

    #[test]
    fn paper_reintern_discards_modifications() {
        // var x = intern 'DBFile'; --code that modifies x--;
        // x = intern 'DBFile'  => modifications not visible.
        let mut s = Session::new().unwrap();
        s.run("extern('DBFile', dynamic {N = 1})").unwrap();
        let out = s
            .run(
                "let x = coerce intern('DBFile') to {N: Int}\n\
                 let modified = x with {N = 99}\n\
                 let again = coerce intern('DBFile') to {N: Int}\n\
                 again.N",
            )
            .unwrap();
        assert_eq!(out, vec!["1"]);
    }

    #[test]
    fn schema_persists_across_programs_within_session() {
        let mut s = Session::new().unwrap();
        s.run("type Person = {Name: Str}").unwrap();
        // Second program still knows Person.
        assert!(s.run("let p: Person = {Name = 'x'}\np.Name").is_ok());
    }

    #[test]
    fn type_errors_stop_execution_before_effects() {
        let mut s = Session::new().unwrap();
        let err = s.run("put(db, dynamic {N = 1})\nghost").unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Check);
        // Static failure ⇒ nothing ran.
        assert_eq!(s.db.len(), 0);
    }

    #[test]
    fn shadowing_and_scoping() {
        assert_eq!(run_one("let x = 1\nlet x = x + 1\nx"), vec!["2"]);
        // Expression-level `let … in` needs an expression position: a
        // top-level bare `let` is always a session binding.
        assert_eq!(run_one("(let x = 1 in (let x = 2 in x) + x)"), vec!["3"]);
    }

    /// A log path in a fresh directory, removed when the guard drops.
    fn fresh_log(name: &str) -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("sess-intr").unwrap();
        let path = dir.join(format!("{name}.log"));
        (dir, path)
    }

    fn committed_store(path: &std::path::Path, txns: u64) {
        use dbpl_types::Type;
        use dbpl_values::Value;
        let mut s = dbpl_persist::IntrinsicStore::open(path).unwrap();
        for i in 0..txns {
            s.set_handle(format!("h{i}"), Type::Int, Value::Int(i as i64));
            s.commit().unwrap();
        }
    }

    #[test]
    fn attaching_a_clean_intrinsic_store_is_silent() {
        let (_dir, path) = fresh_log("clean");
        committed_store(&path, 2);
        let mut s = Session::new().unwrap();
        s.attach_intrinsic(&path).unwrap();
        assert!(s.out.is_empty(), "no notice for a clean open: {:?}", s.out);
        assert_eq!(s.intrinsic.as_ref().unwrap().txn(), 2);
    }

    #[test]
    fn torn_tail_recovery_is_reported_to_the_user() {
        let (_dir, path) = fresh_log("torn");
        committed_store(&path, 3);
        // Simulate a crash mid-append: garbage trailing bytes that cannot
        // frame a record.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xFF, 0x13, 0x37, 0x00, 0x42]).unwrap();
        drop(f);

        let mut s = Session::new().unwrap();
        s.attach_intrinsic(&path).unwrap();
        assert_eq!(s.out.len(), 1, "exactly one notice: {:?}", s.out);
        assert!(
            s.out[0].starts_with("note: store recovered to txn 3"),
            "{}",
            s.out[0]
        );
        assert!(
            s.out[0].contains("5 trailing bytes discarded"),
            "{}",
            s.out[0]
        );
    }

    #[test]
    fn salvage_attachment_reports_losses_and_is_read_only() {
        let (_dir, path) = fresh_log("salvage");
        committed_store(&path, 2);
        // A validly framed record of an unknown kind: normal open refuses.
        let mut log = dbpl_persist::LogFile::open(&path).unwrap();
        log.append(b"?future record kind").unwrap();
        log.sync().unwrap();
        drop(log);

        let mut s = Session::new().unwrap();
        let err = s.attach_intrinsic(&path).unwrap_err();
        assert!(err.msg.contains("cannot open intrinsic store"), "{err}");

        let report = s.attach_intrinsic_salvage(&path).unwrap();
        assert_eq!(report.recovered_txn, 2);
        assert_eq!(report.skipped_records, 1);
        assert!(
            s.out.last().unwrap().contains("salvage mode"),
            "{:?}",
            s.out
        );
        assert!(s.intrinsic.as_ref().unwrap().is_read_only());
    }

    #[test]
    fn runtime_errors_carry_positions() {
        let mut s = Session::new().unwrap();
        let err = s.run("head[Int]([])").unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Eval);
        assert!(err.msg.contains("empty"));
        let err2 = s.run("1 / 0").unwrap_err();
        assert!(err2.msg.contains("division"));
    }
}

#[cfg(test)]
mod variant_tests {
    use super::*;

    fn run_one(src: &str) -> Vec<String> {
        Session::new()
            .unwrap()
            .run(src)
            .unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn tag_and_case_roundtrip() {
        assert_eq!(
            run_one(
                "type Shape = <Circle: Float | Square: Float>\n\
                 fun area(s: Shape): Float =\n\
                   case s of Circle r => 3.14 * r * r | Square w => w * w\n\
                 print(area(tag Square 3.0))\n\
                 print(area(tag Circle 1.0))"
            ),
            vec!["9.0", "3.14"]
        );
    }

    #[test]
    fn singleton_tag_subsumes_into_wider_variant() {
        // tag Circle 1.0 : <Circle: Float> ≤ Shape by variant width.
        assert_eq!(
            run_one(
                "type Shape = <Circle: Float | Square: Float>\n\
                 let s: Shape = tag Circle 1.0\n\
                 case s of Circle r => r | Square w => w * 2.0"
            ),
            vec!["1.0"]
        );
    }

    #[test]
    fn case_must_be_exhaustive() {
        let mut s = Session::new().unwrap();
        let err = s
            .run(
                "type Shape = <Circle: Float | Square: Float>\n\
                 let s: Shape = tag Circle 1.0\n\
                 case s of Circle r => r",
            )
            .unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Check);
        assert!(err.msg.contains("non-exhaustive"), "{err}");
    }

    #[test]
    fn case_rejects_unknown_and_duplicate_arms() {
        let mut s = Session::new().unwrap();
        let err = s
            .run(
                "let v = tag Ok 1\n\
                 case v of Ok x => x | Nope y => y",
            )
            .unwrap_err();
        assert!(err.msg.contains("no arm"), "{err}");
        let err2 = s
            .run("case (tag Ok 1) of Ok x => x | Ok y => y")
            .unwrap_err();
        assert!(err2.msg.contains("twice"), "{err2}");
    }

    #[test]
    fn case_joins_branch_types() {
        // One branch returns an Employee-ish record, the other a
        // Student-ish one; the case expression has their join.
        assert_eq!(
            run_one(
                "let v = if true then tag A 1 else tag A 2\n\
                 let r = case (tag B {Name = 'x', Empno = 1}) of\n\
                   B p => p\n\
                 r.Name"
            ),
            vec!["'x'"]
        );
    }

    #[test]
    fn externs_staged_in_a_program_are_readable_in_that_program() {
        // Read-your-writes: `extern` then `intern` of the same handle in
        // one program sees the staged bytes, before anything is durable.
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "extern('RYW', dynamic 11)\n\
                 coerce intern('RYW') to Int",
            )
            .unwrap();
        assert_eq!(out, vec!["11"]);
    }

    #[test]
    fn variants_are_data_for_the_database() {
        // Tagged values flow through dynamic/put/get and persistence.
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "type Event = <Hired: {Name: Str} | Fired: {Name: Str}>\n\
                 put(db, dynamic (tag Hired {Name = 'ann'}))\n\
                 extern('Log', dynamic (tag Fired {Name = 'bob'}))\n\
                 let back = coerce intern('Log') to <Hired: {Name: Str} | Fired: {Name: Str}>\n\
                 case back of Hired p => p.Name | Fired p => 'ex-' ++ p.Name",
            )
            .unwrap();
        assert_eq!(out, vec!["'ex-bob'"]);
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    // The global metrics registry is shared by every test thread in this
    // binary, so all counter assertions here use `>=` deltas — another
    // test may add to the same counters concurrently.

    #[test]
    fn explain_reports_get_strategy_and_match_count() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "type Person = {Name: Str}\n\
                 put(db, dynamic {Name = 'a'})\n\
                 put(db, dynamic {Name = 'b'})\n\
                 put(db, dynamic 42)\n\
                 explain[Person](db)",
            )
            .unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("strategy=typed_lists"), "{}", out[0]);
        assert!(out[0].contains("matches=2"), "{}", out[0]);
        assert!(out[0].contains("rows_sealed="), "{}", out[0]);
    }

    #[test]
    fn explain_join_reports_strategy_and_sizes() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "explainJoin[{A: Int, B: Int}][{B: Int, C: Int}](\n\
                   [{A = 1, B = 1}, {A = 2, B = 2}],\n\
                   [{B = 1, C = 9}])",
            )
            .unwrap();
        assert!(out[0].contains("strategy=partitioned"), "{}", out[0]);
        assert!(out[0].contains("left=2"), "{}", out[0]);
        assert!(out[0].contains("right=1"), "{}", out[0]);
        assert!(out[0].contains("out=1"), "{}", out[0]);
    }

    #[test]
    fn explain_analyze_renders_a_measured_plan_tree() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "type Person = {Name: Str}\n\
                 put(db, dynamic {Name = 'a'})\n\
                 put(db, dynamic {Name = 'b'})\n\
                 put(db, dynamic 42)\n\
                 explainAnalyze[Person](db)",
            )
            .unwrap();
        assert_eq!(out.len(), 1, "{out:?}");
        let text = &out[0];
        // Header: the summary line explain also gives, plus the ratio.
        assert!(text.contains("strategy=typed_lists"), "{text}");
        assert!(text.contains("matches=2"), "{text}");
        assert!(text.contains("cache_hit_ratio="), "{text}");
        // Tree: the measured stages, indented under the root.
        assert!(text.contains("\nexplain_analyze dur_us="), "{text}");
        assert!(text.contains("\n  get dur_us="), "{text}");
        for stage in ["get.plan", "get.index", "get.seal"] {
            assert!(text.contains(&format!("\n    {stage} dur_us=")), "{text}");
        }
        assert!(text.contains("rows_out=2"), "{text}");
    }

    #[test]
    fn explain_analyze_join_renders_a_measured_plan_tree() {
        let mut s = Session::new().unwrap();
        let out = s
            .run(
                "explainAnalyzeJoin[{A: Int, B: Int}][{B: Int, C: Int}](\n\
                   [{A = 1, B = 1}, {A = 2, B = 2}],\n\
                   [{B = 1, C = 9}])",
            )
            .unwrap();
        let text = &out[0];
        assert!(text.contains("left=2"), "{text}");
        assert!(text.contains("out=1"), "{text}");
        assert!(text.contains("\nexplain_analyze_join dur_us="), "{text}");
        assert!(text.contains("\n  join dur_us="), "{text}");
        for stage in ["join.partition", "join.reduce"] {
            assert!(text.contains(&format!("{stage} dur_us=")), "{text}");
        }
        // The bucketed reduction explains itself: one bucket per B value,
        // no key-partial rows, and the one joined row meets no rival.
        let reduce = text
            .lines()
            .find(|l| l.trim_start().starts_with("join.reduce "))
            .expect("join.reduce line");
        for attr in ["buckets=1", "partial_rows=0", "pairs_compared=0"] {
            assert!(reduce.contains(attr), "{reduce}");
        }
        assert!(text.contains("reduce_pairs_compared="), "{text}");
    }

    #[test]
    fn run_profiled_returns_output_and_a_trace_of_the_run() {
        let mut s = Session::new().unwrap();
        let (out, tree) = s
            .run_profiled("put(db, dynamic 1)\nextern('p', dynamic 2)\n'done'")
            .unwrap();
        assert_eq!(out, vec!["'done'".to_string()]);
        // The dedicated capture root, the run root under it, and the
        // per-statement spans with their kinds.
        assert!(tree.starts_with("profile dur_us="), "{tree}");
        assert!(tree.contains("\n  run dur_us="), "{tree}");
        assert!(tree.contains("statements=3"), "{tree}");
        assert!(tree.contains("run.parse dur_us="), "{tree}");
        assert!(tree.contains("run.check dur_us="), "{tree}");
        assert!(tree.contains("kind=expr"), "{tree}");
        // The staged extern makes the implicit frame's commit durable, so
        // the commit protocol runs inside the capture too.
        assert!(tree.contains("txn.commit dur_us="), "{tree}");
        assert!(tree.contains("txn.intent dur_us="), "{tree}");
        assert!(tree.contains("store.extern dur_us="), "{tree}");
    }

    #[test]
    fn slow_threshold_emits_slow_op_with_the_subtree() {
        let sink = std::sync::Arc::new(dbpl_obs::MemorySink::new());
        dbpl_obs::set_sink(sink.clone());
        let mut s = Session::new().unwrap();
        dbpl_obs::trace::enable(4096);
        dbpl_obs::trace::set_slow_threshold_us(Some(0));
        s.run("put(db, dynamic 7)").unwrap();
        dbpl_obs::trace::set_slow_threshold_us(None);
        dbpl_obs::trace::disable();
        dbpl_obs::clear_sink();
        let slow_runs: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                dbpl_obs::Event::SlowOp { name, spans, .. } if name == "run" => Some(spans),
                _ => None,
            })
            .collect();
        assert!(!slow_runs.is_empty(), "no slow_op for the run");
        // The event carries the whole subtree: the root plus its stages.
        let spans = &slow_runs[0];
        assert_eq!(spans[0].name, "run");
        assert!(spans.iter().any(|sp| sp.name == "stmt"));
        dbpl_obs::trace::clear();
    }

    #[test]
    fn stats_show_txn_and_storage_counters_after_durable_work() {
        let dir = TempDir::new("sess-obs").unwrap();
        let mut s = Session::with_store_dir(&dir).unwrap();
        let before = dbpl_obs::global().snapshot();
        s.run("begin\nextern('Watched', dynamic 1)\ncommit")
            .unwrap();
        let delta = dbpl_obs::global().snapshot().delta_since(&before);
        assert!(delta.counter("events.txn_begin") >= 1, "{delta:?}");
        assert!(delta.counter("events.txn_commit") >= 1, "{delta:?}");
        assert!(delta.counter("vfs.writes") >= 1, "{delta:?}");
        assert!(delta.counter("vfs.fsyncs") >= 1, "{delta:?}");
    }

    #[test]
    fn aborts_and_quarantines_surface_as_events() {
        let dir = TempDir::new("sess-obs").unwrap();
        let mut s = Session::with_store_dir(&dir).unwrap();
        let before = dbpl_obs::global().snapshot();
        s.run("begin\nput(db, dynamic 1)\nabort").unwrap();
        std::fs::write(dir.join("Evil.dyn"), b"\xFFnot a unit").unwrap();
        let _ = s.run("intern('Evil')").unwrap_err();
        let delta = dbpl_obs::global().snapshot().delta_since(&before);
        assert!(delta.counter("events.txn_abort") >= 1, "{delta:?}");
        assert!(delta.counter("events.quarantine") >= 1, "{delta:?}");
    }
}

#[cfg(test)]
mod txn_tests {
    use super::*;
    use dbpl_types::Type;
    use dbpl_values::Value;
    use std::sync::Arc;

    /// A fresh store directory, removed when the guard drops.
    fn fresh_dir(name: &str) -> TempDir {
        TempDir::new(&format!("sess-txn-{name}")).unwrap()
    }

    #[test]
    fn failed_programs_leave_no_partial_state() {
        // The partial-mutation leak: a program failing at statement k
        // used to leave statements 1..k-1 applied. Now the implicit
        // frame aborts — data *and* schema roll back.
        let mut s = Session::new().unwrap();
        let err = s
            .run(
                "type Ghost = {N: Int}\n\
                 put(db, dynamic {N = 1})\n\
                 head[Int]([])",
            )
            .unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Eval);
        assert_eq!(s.db.len(), 0, "the put rolled back");
        assert!(
            s.db.env().lookup("Ghost").is_none(),
            "the type declaration rolled back"
        );
        // The session is still usable.
        assert_eq!(
            s.run("put(db, dynamic 7)\nlen[Int](get[Int](db))").unwrap(),
            vec!["1"]
        );
    }

    #[test]
    fn panicking_program_aborts_and_poisons_nothing() {
        let mut s = Session::new().unwrap();
        let err = s
            .run("put(db, dynamic 1)\npanic('boom')\nput(db, dynamic 2)")
            .unwrap_err();
        assert!(err.msg.contains("panicked"), "{err}");
        assert!(err.msg.contains("boom"), "{err}");
        assert_eq!(s.db.len(), 0, "every staged put discarded");
        // Subsequent run and Get succeed: nothing is poisoned.
        assert_eq!(
            s.run("put(db, dynamic 7)\nlen[Int](get[Int](db))").unwrap(),
            vec!["1"]
        );
    }

    #[test]
    fn explicit_transactions_span_programs() {
        let mut s = Session::new().unwrap();
        s.run("begin").unwrap();
        assert!(s.in_transaction());
        s.run("put(db, dynamic 1)").unwrap();
        s.run("put(db, dynamic 2)").unwrap();
        assert_eq!(s.db.len(), 2, "staged state is visible inside the txn");
        s.run("abort").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(s.db.len(), 0, "abort rolled both programs back");

        s.run("begin\nput(db, dynamic 9)\ncommit").unwrap();
        assert_eq!(s.db.len(), 1);
    }

    #[test]
    fn commit_and_abort_require_an_open_transaction() {
        let mut s = Session::new().unwrap();
        let err = s.run("commit").unwrap_err();
        assert!(err.msg.contains("no transaction"), "{err}");
        let err = s.run("abort").unwrap_err();
        assert!(err.msg.contains("no transaction"), "{err}");
        let err = s.run("begin\nbegin").unwrap_err();
        assert!(err.msg.contains("already in progress"), "{err}");
        // The failed program aborted its frame; the session is clean.
        assert!(!s.in_transaction());
    }

    #[test]
    fn staged_externs_hit_disk_only_at_commit() {
        let dir = fresh_dir("stage");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.run("begin\nextern('H', dynamic 5)").unwrap();
        // Not yet durable: an independent store sees nothing.
        let peek = ReplicatingStore::open(&dir).unwrap();
        assert!(peek.handles().unwrap().is_empty());
        s.run("commit").unwrap();
        assert_eq!(peek.handles().unwrap(), vec!["H".to_string()]);
    }

    #[test]
    fn aborted_externs_never_become_visible() {
        let dir = fresh_dir("abort");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.run("begin\nextern('Doomed', dynamic 1)").unwrap();
        // Visible inside the transaction…
        assert_eq!(s.run("coerce intern('Doomed') to Int").unwrap(), vec!["1"]);
        s.run("abort").unwrap();
        // …gone after abort, in memory and on disk.
        let err = s.run("intern('Doomed')").unwrap_err();
        assert!(err.msg.contains("Doomed"), "{err}");
        let peek = ReplicatingStore::open(&dir).unwrap();
        assert!(peek.handles().unwrap().is_empty());
    }

    #[test]
    fn transaction_closure_commits_or_aborts() {
        let mut s = Session::new().unwrap();
        let n = s
            .transaction(|s| {
                s.run("put(db, dynamic 1)")?;
                Ok(41 + 1)
            })
            .unwrap();
        assert_eq!(n, 42);
        assert_eq!(s.db.len(), 1);

        // A panic inside the closure aborts and is contained.
        let err = s
            .transaction(|s| -> Result<(), LangError> {
                s.run("put(db, dynamic 2)")?;
                panic!("kaboom");
            })
            .unwrap_err();
        assert!(err.msg.contains("kaboom"), "{err}");
        assert_eq!(s.db.len(), 1, "the second put rolled back");
        assert!(!s.in_transaction());
    }

    #[test]
    fn one_commit_spans_intrinsic_and_replicating_stores() {
        let dir = fresh_dir("multi");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("intr.log");
        let mut s = Session::with_store_dir(dir.join("repl")).unwrap();
        s.attach_intrinsic(&log).unwrap();
        s.transaction(|s| {
            s.intrinsic
                .as_mut()
                .unwrap()
                .set_handle("count", Type::Int, Value::Int(3));
            s.run("extern('Pair', dynamic 4)")?;
            Ok(())
        })
        .unwrap();

        // A fresh session over the same storage sees both effects.
        let mut s2 = Session::with_store_dir(dir.join("repl")).unwrap();
        s2.attach_intrinsic(&log).unwrap();
        assert_eq!(
            s2.intrinsic.as_ref().unwrap().handle("count").unwrap().1,
            Value::Int(3)
        );
        // No pending-transaction note: the two sessions share the
        // directory's commit log, and the first one applied its record.
        assert!(s2.out.is_empty(), "{:?}", s2.out);
        assert_eq!(s2.run("coerce intern('Pair') to Int").unwrap(), vec!["4"]);
    }

    #[test]
    fn aborting_discards_intrinsic_staging_too() {
        let dir = fresh_dir("multi-abort");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("intr.log");
        let mut s = Session::with_store_dir(dir.join("repl")).unwrap();
        s.attach_intrinsic(&log).unwrap();
        let err = s
            .transaction(|s| -> Result<(), LangError> {
                s.intrinsic
                    .as_mut()
                    .unwrap()
                    .set_handle("count", Type::Int, Value::Int(3));
                s.run("head[Int]([])")?;
                Ok(())
            })
            .unwrap_err();
        assert!(err.msg.contains("empty"), "{err}");
        assert!(s.intrinsic.as_ref().unwrap().handle("count").is_none());
        assert_eq!(s.intrinsic.as_ref().unwrap().txn(), 0);
    }

    #[test]
    fn corrupt_unit_is_quarantined_and_session_stays_usable() {
        let dir = fresh_dir("quarantine");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.run("extern('Good', dynamic 1)").unwrap();
        // Plant an undecodable unit next to the good one.
        std::fs::write(dir.join("Evil.dyn"), b"\xFFnot a unit").unwrap();

        let err = s.run("intern('Evil')").unwrap_err();
        assert_eq!(err.phase, crate::error::Phase::Eval);
        // Subsequent run and Get succeed; the report names the package.
        assert_eq!(s.run("coerce intern('Good') to Int").unwrap(), vec!["1"]);
        assert_eq!(
            s.run("put(db, dynamic 2)\nlen[Int](get[Int](db))").unwrap(),
            vec!["1"]
        );
        let report = s.quarantine_report();
        assert!(
            report.entries.iter().any(|e| e.handle == "Evil"),
            "{report:?}"
        );
    }

    #[test]
    fn import_store_skips_corrupt_units() {
        let dir = fresh_dir("import");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.run("extern('A', dynamic 1)\nextern('B', dynamic 2)")
            .unwrap();
        std::fs::write(dir.join("C.dyn"), b"garbage").unwrap();

        let n = s.import_store().unwrap();
        assert_eq!(n, 2);
        assert_eq!(s.db.len(), 2);
        assert!(s
            .quarantine_report()
            .entries
            .iter()
            .any(|e| e.handle == "C"));
        assert!(
            s.out.last().unwrap().contains("quarantined during import"),
            "{:?}",
            s.out
        );
    }

    #[test]
    fn salvage_session_is_read_only_and_reports() {
        let dir = fresh_dir("salvage");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.run("extern('Keep', dynamic 1)").unwrap();
        std::fs::write(dir.join("Bad.dyn"), b"\x00\x01\x02").unwrap();

        let (mut s2, report) = Session::with_store_dir_salvage(&dir).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report.entries[0].handle, "Bad");
        assert!(s2.out[0].contains("salvage mode"), "{:?}", s2.out);
        assert!(s2.out[0].contains("Bad"), "{:?}", s2.out);
        // Reads work; writes are refused but leave the session healthy.
        assert_eq!(s2.run("coerce intern('Keep') to Int").unwrap(), vec!["1"]);
        let err = s2.run("extern('New', dynamic 2)").unwrap_err();
        assert!(err.msg.contains("read-only"), "{err}");
        assert_eq!(s2.run("coerce intern('Keep') to Int").unwrap(), vec!["1"]);
    }

    #[test]
    fn an_expired_deadline_aborts_the_commit() {
        let dir = fresh_dir("deadline");
        let mut s = Session::with_store_dir(&dir).unwrap();
        s.txn_deadline = Some(Duration::ZERO);
        let err = s.run("extern('Late', dynamic 1)").unwrap_err();
        assert!(err.msg.contains("deadline"), "{err}");
        assert!(err.msg.contains("aborted"), "{err}");
        // Nothing became durable; lifting the deadline makes it work.
        s.txn_deadline = None;
        s.run("extern('Late', dynamic 1)").unwrap();
        assert_eq!(s.run("coerce intern('Late') to Int").unwrap(), vec!["1"]);
    }

    /// Store paths on the simulated disk of the crash tests below.
    const REPL: &str = "repl";
    const LOG: &str = "intr.log";

    fn open_repl(vfs: &dbpl_persist::SimVfs) -> ReplicatingStore {
        ReplicatingStore::open_with(Arc::new(vfs.clone()), Path::new(REPL)).unwrap()
    }

    fn open_intr(vfs: &dbpl_persist::SimVfs) -> IntrinsicStore {
        IntrinsicStore::open_with(Arc::new(vfs.clone()), Path::new(LOG)).unwrap()
    }

    /// Run `txn` as one transaction of a session over a simulated disk —
    /// with an intrinsic store attached when `intrinsic` — and lose power
    /// right after its commit-log record is synced, before either store
    /// is touched. Returns the rebooted disk.
    fn crash_after_log_sync(
        intrinsic: bool,
        txn: impl FnOnce(&mut Session) -> Result<(), LangError>,
    ) -> dbpl_persist::SimVfs {
        let vfs = dbpl_persist::SimVfs::new();
        let mut s = Session::from_store(open_repl(&vfs)).unwrap();
        if intrinsic {
            s.attach_opened(open_intr(&vfs)).unwrap();
        }
        // The store's first logged commit opens the log (op 1), syncs
        // its directory (2), appends the record (3) and syncs it (4):
        // op 5 is the first effect on the stores.
        vfs.set_plan(dbpl_persist::FaultPlan {
            crash_at_op: Some(vfs.ops() + 5),
            ..dbpl_persist::FaultPlan::default()
        });
        let err = s.transaction(txn).unwrap_err();
        assert!(err.msg.contains("in doubt"), "{err}");
        drop(s);
        vfs.recover();
        vfs
    }

    fn stage(s: &mut Session, handle: &str, v: i64) -> Result<(), LangError> {
        s.stage_extern(handle, &DynValue::new(Type::Int, Value::Int(v)))
            .map_err(|e| LangError::eval(0, e.to_string()))
    }

    fn set_count(s: &mut Session, v: i64) {
        let intr = s.intrinsic.as_mut().unwrap();
        intr.set_handle("count", Type::Int, Value::Int(v));
    }

    #[test]
    fn pending_commit_is_completed_when_session_reattaches() {
        // A crash right after the durability point: attaching both
        // stores must redo the transaction.
        let vfs = crash_after_log_sync(true, |s| {
            set_count(s, 5);
            stage(s, "Ghosted", 8)
        });
        let mut s = Session::from_store(open_repl(&vfs)).unwrap();
        s.attach_opened(open_intr(&vfs)).unwrap();
        assert!(
            s.out.iter().any(|l| l.contains("pending transaction 1")),
            "{:?}",
            s.out
        );
        assert_eq!(s.run("coerce intern('Ghosted') to Int").unwrap(), vec!["8"]);
    }

    #[test]
    fn replicating_only_session_recovers_pending_externs_on_open() {
        // The default session shape: no intrinsic store is ever attached,
        // yet a crash between extern installs must still be rolled
        // forward when the session reopens over the store directory.
        let vfs = crash_after_log_sync(false, |s| {
            stage(s, "TornA", 1)?;
            stage(s, "TornB", 2)
        });

        // No attach_intrinsic: opening the session alone must finish the
        // transaction.
        let mut s = Session::from_store(open_repl(&vfs)).unwrap();
        assert!(
            s.out
                .iter()
                .any(|l| l.contains("completed pending transaction 0")),
            "{:?}",
            s.out
        );
        assert_eq!(s.run("coerce intern('TornA') to Int").unwrap(), vec!["1"]);
        assert_eq!(s.run("coerce intern('TornB') to Int").unwrap(), vec!["2"]);
        // Recovery checkpointed the log: a second open is silent.
        let s2 = Session::from_store(open_repl(&vfs)).unwrap();
        assert!(s2.out.is_empty(), "{:?}", s2.out);
    }

    #[test]
    fn intrinsic_bearing_log_tail_defers_recovery_and_blocks_commits() {
        // A crash left a logged transaction that spans both stores. A
        // replicating-only reopen must NOT recover just the extern half
        // (that would lose the intrinsic writes) — it defers, blocks
        // durable commits, and attach_intrinsic completes the whole
        // transaction.
        let vfs = crash_after_log_sync(true, |s| {
            set_count(s, 5);
            stage(s, "Paired", 6)
        });

        let mut s = Session::from_store(open_repl(&vfs)).unwrap();
        assert!(
            s.out
                .iter()
                .any(|l| l.contains("pending transaction 1") && l.contains("blocked")),
            "{:?}",
            s.out
        );
        // Purely in-memory programs still work…
        assert_eq!(s.run("1 + 1").unwrap(), vec!["2"]);
        // …but durable commits are refused, and the logged transaction
        // (with the extern half un-applied) is preserved.
        let err = s.run("extern('New', dynamic 9)").unwrap_err();
        assert!(err.msg.contains("pending transaction 1"), "{err}");
        let peek = open_repl(&vfs);
        assert!(peek.handles().unwrap().is_empty(), "no half-recovery");

        // Attaching the intrinsic store completes the transaction whole.
        s.attach_opened(open_intr(&vfs)).unwrap();
        assert!(
            s.out
                .iter()
                .any(|l| l.contains("completed pending transaction 1")),
            "{:?}",
            s.out
        );
        assert_eq!(
            s.intrinsic.as_ref().unwrap().handle("count").unwrap().1,
            Value::Int(5)
        );
        assert_eq!(s.run("coerce intern('Paired') to Int").unwrap(), vec!["6"]);
        // Commits flow again.
        s.run("extern('New', dynamic 9)").unwrap();
        assert_eq!(s.run("coerce intern('New') to Int").unwrap(), vec!["9"]);
    }
}
