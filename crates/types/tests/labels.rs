//! Interned labels behave as their names: one symbol per name across
//! threads, and `==`, `cmp` and the `Hash` feed of a label are its
//! `str`'s, for any string (empty, NUL, non-ASCII).

use dbpl_types::Label;
use proptest::prelude::*;
use std::hash::{Hash, Hasher};

/// The symbol's identity: the address of its interned name.
fn addr(l: Label) -> *const u8 {
    l.as_str().as_ptr()
}

#[test]
fn threads_interning_the_same_names_get_the_same_symbols() {
    let names: Vec<String> = (0..1_000).map(|i| format!("thread-shared-{i}")).collect();
    let per_thread: Vec<Vec<Label>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let names = &names;
                s.spawn(move || {
                    // Each thread walks the names from its own offset, so
                    // first internings race.
                    let mut got = vec![None; names.len()];
                    for k in 0..names.len() {
                        let i = (k + t * 250) % names.len();
                        got[i] = Some(Label::new(&names[i]));
                    }
                    got.into_iter().map(|l| l.expect("every name")).collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no panic"))
            .collect()
    });
    for (i, name) in names.iter().enumerate() {
        let here = Label::new(name);
        for labels in &per_thread {
            assert_eq!(addr(labels[i]), addr(here), "`{name}`");
            assert_eq!(labels[i], here);
        }
    }
}

/// Every byte a value feeds its hasher, in order.
#[derive(Default)]
struct Feed(Vec<u8>);

impl Hasher for Feed {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

fn feed(x: &(impl Hash + ?Sized)) -> Vec<u8> {
    let mut h = Feed::default();
    x.hash(&mut h);
    h.0
}

/// Short strings over a few characters, so equal pairs are common: the
/// empty string, NUL, multi-byte characters and an arbitrary code point.
fn arb_name() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        4 => prop::sample::select(vec!['a', 'b', '\0', 'é', '€', '😀']),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}')),
    ];
    prop::collection::vec(ch, 0..4).prop_map(|cs| cs.into_iter().collect())
}

fn labels_are_their_names(a: &str, b: &str) -> TestCaseResult {
    let (la, lb) = (Label::new(a), Label::new(b));
    prop_assert_eq!(la == lb, a == b, "{:?} == {:?}", a, b);
    prop_assert_eq!(la.cmp(&lb), a.cmp(b), "{:?} cmp {:?}", a, b);
    prop_assert_eq!(feed(&la), feed(a), "hash feed of {:?}", a);
    prop_assert_eq!(la.as_str(), a);
    prop_assert_eq!(format!("{la} {la:?}"), format!("{a} {a:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_label_compares_and_hashes_as_its_name(a in arb_name(), b in arb_name()) {
        labels_are_their_names(&a, &b)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16 * 512))]

    #[test]
    #[ignore = "16x the tier-1 cases; nightly runs with --ignored"]
    fn a_label_compares_and_hashes_as_its_name_nightly(a in arb_name(), b in arb_name()) {
        labels_are_their_names(&a, &b)?;
    }
}
