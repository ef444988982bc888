//! Interned labels.
//!
//! In the paper a record is a finite partial function from labels, and
//! `⊑`, `⊔` and the generalized join compare records label by label. A
//! [`Label`] is therefore one interned name: a `Copy` handle into a
//! process-wide name table, so every row of a relation shares its label
//! names instead of owning copies, and two labels are equal exactly when
//! they are the same handle.
//!
//! The table only grows: a name, once interned, stays for the life of the
//! process, so the table is bounded by the distinct labels ever seen
//! (field and variant names of types, stored units and programs), not by
//! the rows that carry them. Each thread looks names up in its own cache
//! first and takes the one global table's lock only for a name it has
//! not seen before.
//!
//! A label orders, hashes, prints and borrows as its name (`Ord`, `Hash`,
//! `Borrow<str>`, `Display` and `Debug` are the `str`'s), so a map keyed
//! by labels iterates in the same order, and hashes the same feed, as one
//! keyed by `String`s, and it can be looked up by `&str`.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{LazyLock, Mutex, PoisonError};

/// A field or variant label: an interned name, compared by pointer.
#[derive(Clone, Copy)]
pub struct Label(&'static &'static str);

/// Labels by name. The names come from stored units and programs, so the
/// maps keep the default (keyed) hasher.
type Names = HashMap<&'static str, Label>;

/// Every label ever interned, by name.
static TABLE: LazyLock<Mutex<Names>> = LazyLock::new(Mutex::default);

thread_local! {
    /// The labels this thread has interned, in front of [`TABLE`].
    static CACHE: RefCell<Names> = RefCell::default();
}

impl Label {
    /// The label named `name`, interned on first use.
    pub fn new(name: &str) -> Label {
        CACHE.with(|cache| {
            if let Some(&l) = cache.borrow().get(name) {
                return l;
            }
            let l = Label::global(name);
            cache.borrow_mut().insert(l.0, l);
            l
        })
    }

    fn global(name: &str) -> Label {
        // An insert leaves the table whole even if it panics, so a
        // poisoned lock still guards a valid table.
        let mut table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&l) = table.get(name) {
            return l;
        }
        let l = Label(Box::leak(Box::new(&*Box::leak(Box::<str>::from(name)))));
        table.insert(l.0, l);
        l
    }

    /// The label's name.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Label {
    fn from(name: &str) -> Label {
        Label::new(name)
    }
}

impl From<&String> for Label {
    fn from(name: &String) -> Label {
        Label::new(name)
    }
}

impl From<String> for Label {
    fn from(name: String) -> Label {
        Label::new(&name)
    }
}

/// What a record field can be looked up by: a [`Label`], compared by
/// pointer, or a name, compared by its bytes.
pub trait LabelKey {
    /// Is `label` the field this key names?
    fn is(&self, label: Label) -> bool;
    /// The name, to binary search label-sorted fields by.
    fn name(&self) -> &str;
}

impl LabelKey for Label {
    fn is(&self, label: Label) -> bool {
        *self == label
    }

    fn name(&self) -> &str {
        self.as_str()
    }
}

impl LabelKey for str {
    fn is(&self, label: Label) -> bool {
        label.as_str() == self
    }

    fn name(&self) -> &str {
        self
    }
}

impl LabelKey for String {
    fn is(&self, label: Label) -> bool {
        label.as_str() == self
    }

    fn name(&self) -> &str {
        self
    }
}

impl<K: LabelKey + ?Sized> LabelKey for &K {
    fn is(&self, label: Label) -> bool {
        (**self).is(label)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_name_one_label() {
        let a = Label::new("Name");
        let b = Label::from(String::from("Name"));
        assert!(std::ptr::eq(a.0, b.0));
        assert_ne!(a, Label::new("Addr"));
        assert_eq!(format!("{a} {a:?}"), r#"Name "Name""#);
    }

    #[test]
    fn labels_order_by_name_not_by_interning() {
        let z = Label::new("zz-interned-first");
        let a = Label::new("aa-interned-second");
        assert!(a < z);
        assert_eq!(Label::new(""), Label::new(""));
        assert!(Label::new("") < a);
    }
}
