//! The dynamic store's storage: a chunked, append-only persistent vector.
//!
//! Stored rows are immutable once appended, so nothing ever needs a
//! private copy of one. Rows live in fixed-size chunks, each behind an
//! [`Arc`]; the chunk list is itself behind an `Arc`. Cloning a store
//! (every MVCC snapshot, worker session and applier batch does) shares
//! everything, and appending to a shared store copies the chunk pointers
//! plus at most one chunk of rows — the partially filled tail — instead
//! of the whole store. A `Get` package can hold its row's chunk directly
//! ([`crate::ExistsPkg`]), so reads copy pointers, not rows.
//!
//! Positions are stable (append-only), which is what the typed-list
//! index, quarantine positions and statistics are keyed by.

use dbpl_values::DynValue;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Rows per chunk: the most rows one copy-on-write append deep-copies.
const CHUNK: usize = 64;

/// One fixed-size run of stored rows, shared by every snapshot (and
/// every package) that references it.
pub(crate) type Chunk = Arc<Vec<DynValue>>;

/// The dynamic store: rows in order, addressed by position.
#[derive(Clone, Default)]
pub(crate) struct Store {
    /// Full chunks, then the tail (the only chunk appends write to).
    chunks: Arc<Vec<Chunk>>,
    len: usize,
    /// The contiguous copy behind [`Store::as_slice`], built on first
    /// use and dropped by the next append. No hot path asks for it.
    view: OnceLock<Arc<[DynValue]>>,
}

impl Store {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append a row. Returns how many existing rows copy-on-write had to
    /// deep-copy: the tail chunk's rows when another snapshot or a live
    /// package still shares it, otherwise none.
    pub(crate) fn push(&mut self, row: DynValue) -> usize {
        self.view = OnceLock::new();
        let chunks = Arc::make_mut(&mut self.chunks);
        if self.len.is_multiple_of(CHUNK) {
            chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let tail = chunks.last_mut().expect("a tail chunk exists");
        let copied = if Arc::get_mut(tail).is_some() {
            0
        } else {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.extend(tail.iter().cloned());
            *tail = Arc::new(fresh);
            tail.len()
        };
        Arc::get_mut(tail)
            .expect("the tail was just un-shared")
            .push(row);
        self.len += 1;
        copied
    }

    /// The chunk holding `pos` and the row's offset inside it.
    pub(crate) fn locate(&self, pos: usize) -> (&Chunk, usize) {
        (&self.chunks[pos / CHUNK], pos % CHUNK)
    }

    /// The rows as contiguous slices, one per chunk, in order.
    pub(crate) fn parts(&self) -> impl Iterator<Item = &[DynValue]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// Every row from position `start` on, in order.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = &DynValue> {
        let first = (start / CHUNK).min(self.chunks.len());
        let skip = start - first * CHUNK;
        self.chunks[first..]
            .iter()
            .flat_map(|c| c.iter())
            .skip(skip)
    }

    /// Every row, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DynValue> {
        self.iter_from(0)
    }

    /// The whole store as one slice: a copy of every row (record rows
    /// share their fields and types), made once per store version and
    /// cached. A compatibility view for callers that need a
    /// slice; hot paths go through [`Store::parts`] or
    /// [`Store::iter_from`] instead.
    pub(crate) fn as_slice(&self) -> &[DynValue] {
        self.view.get_or_init(|| self.iter().cloned().collect())
    }

    /// Do the two stores share their chunk list (no write since a clone)?
    pub(crate) fn same_storage(&self, other: &Store) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks)
    }
}

impl FromIterator<DynValue> for Store {
    fn from_iter<I: IntoIterator<Item = DynValue>>(rows: I) -> Store {
        let mut store = Store::default();
        for row in rows {
            store.push(row);
        }
        store
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpl_types::Type;
    use dbpl_values::Value;

    fn row(i: usize) -> DynValue {
        DynValue::new(Type::Int, Value::Int(i as i64))
    }

    #[test]
    fn positions_survive_chunk_boundaries() {
        let store: Store = (0..CHUNK * 2 + 3).map(row).collect();
        assert_eq!(store.len(), CHUNK * 2 + 3);
        assert_eq!(store.parts().count(), 3);
        for pos in [0, CHUNK - 1, CHUNK, CHUNK * 2 + 2] {
            let (chunk, at) = store.locate(pos);
            assert_eq!(chunk[at], row(pos));
        }
        let tail: Vec<_> = store.iter_from(CHUNK + 5).cloned().collect();
        assert_eq!(
            tail,
            (CHUNK + 5..CHUNK * 2 + 3).map(row).collect::<Vec<_>>()
        );
        assert_eq!(store.iter_from(store.len()).count(), 0);
        assert_eq!(store.as_slice().len(), store.len());
    }

    #[test]
    fn an_append_to_a_shared_store_copies_at_most_the_tail() {
        let base: Store = (0..CHUNK * 3 + 10).map(row).collect();
        let mut fork = base.clone();
        assert!(fork.same_storage(&base));
        assert_eq!(fork.push(row(0)), 10, "only the tail's rows are copied");
        assert_eq!(fork.push(row(1)), 0, "the tail is now private");
        assert!(!fork.same_storage(&base));
        assert_eq!(base.len(), CHUNK * 3 + 10, "the original is untouched");
        // A full tail is never copied: the append opens a fresh chunk.
        let full: Store = (0..CHUNK).map(row).collect();
        let mut fork = full.clone();
        assert_eq!(fork.push(row(0)), 0);
    }

    #[test]
    fn the_slice_view_follows_appends() {
        let mut store: Store = (0..3).map(row).collect();
        assert_eq!(store.as_slice(), &[row(0), row(1), row(2)]);
        store.push(row(3));
        assert_eq!(store.as_slice().len(), 4);
    }
}
