//! A global symbol table: names interned once, compared and hashed as
//! `u32` indices forever after.
//!
//! Every identifier the lexer reads — term variables, type variables,
//! constructor names — is interned into one process-wide table and
//! carried through the whole stack as a [`Symbol`]: a `Copy` index whose
//! equality is an integer comparison and whose hash is one multiply.
//! This is the representation work production ML implementations take
//! for granted; before it, every `TyVar` clone bumped an `Arc`, every
//! environment lookup hashed string bytes, and every pretty-print
//! rebuilt owned `String` sets.
//!
//! Interned strings are leaked (`&'static str`), which is what lets
//! [`Symbol::as_str`] hand out a reference without holding a lock. The
//! table only ever grows, but it grows with the set of *distinct
//! identifiers the process has seen* — bounded by source text, not by
//! inference work, and a few bytes per name.
//!
//! The table is seeded with the single-letter names `a`–`z` at first
//! use, so the printer's letter supply ([`crate::types`]) starts from
//! symbols that already exist and ordering of early symbols is stable
//! across processes.
//!
//! Most names are short (`x`, `b17`, `plus`, `single`), so names of up
//! to 8 bytes are keyed by their bytes packed into a `u64`: a lookup
//! hashes one word and compares integers, with no string hash and no
//! `memcmp`. Longer names are keyed by their string.

use fxhash::FxHashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// An interned name: a `Copy` index into the global symbol table.
///
/// Equality, hashing, and `Ord` all operate on the index. `Ord` is
/// therefore *interning order*, not lexicographic order — callers that
/// need alphabetical output (only `Subst`'s `Display` does) must sort by
/// [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Table {
    /// Names [`packed`] into a word.
    short: FxHashMap<u64, u32>,
    /// Every other name.
    long: FxHashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

/// A name of at most 8 bytes, none of them NUL, as its bytes packed
/// little-endian into a word: the packing is injective on such names,
/// since the zero bytes that pad it cannot occur in them.
fn packed(s: &str) -> Option<u64> {
    let b = s.as_bytes();
    if b.len() > 8 || b.contains(&0) {
        return None;
    }
    let mut w = [0u8; 8];
    w[..b.len()].copy_from_slice(b);
    Some(u64::from_le_bytes(w))
}

impl Table {
    fn get(&self, s: &str, key: Option<u64>) -> Option<u32> {
        match key {
            Some(k) => self.short.get(&k),
            None => self.long.get(s),
        }
        .copied()
    }

    fn insert(&mut self, s: &str, key: Option<u64>) -> u32 {
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.names.len() as u32;
        match key {
            Some(k) => self.short.insert(k, id),
            None => self.long.insert(leaked, id),
        };
        self.names.push(leaked);
        id
    }
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Table {
            short: FxHashMap::default(),
            long: FxHashMap::default(),
            names: Vec::with_capacity(64),
        };
        for c in b'a'..=b'z' {
            let s = (c as char).to_string();
            t.insert(&s, packed(&s));
        }
        RwLock::new(t)
    })
}

/// Interns many names under one hold of the table's read lock, taken at
/// the first name and released at the first new one and on drop: the
/// lexer interns a whole text's identifiers with it. A thread holding
/// one must not reach the table any other way (a read lock taken again
/// while a writer waits deadlocks), so it stays inside this crate.
pub(crate) struct Interner(Option<RwLockReadGuard<'static, Table>>);

impl Interner {
    pub(crate) fn new() -> Interner {
        Interner(None)
    }

    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        let key = packed(s);
        let t = self
            .0
            .get_or_insert_with(|| table().read().expect("symbol table poisoned"));
        if let Some(id) = t.get(s, key) {
            return Symbol(id);
        }
        self.0 = None;
        let mut t = table().write().expect("symbol table poisoned");
        // Another thread may have interned it since the read.
        Symbol(t.get(s, key).unwrap_or_else(|| t.insert(s, key)))
    }
}

impl Symbol {
    /// Intern a string, returning its symbol (idempotent).
    pub fn intern(s: &str) -> Symbol {
        Interner::new().intern(s)
    }

    /// The symbol for `s` if it has ever been interned — membership
    /// tests (the printer's letter supply) without growing the table.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let t = table().read().expect("symbol table poisoned");
        t.get(s, packed(s)).map(Symbol)
    }

    /// The interned string (leaked, so no lock is held by the borrow).
    pub fn as_str(self) -> &'static str {
        table().read().expect("symbol table poisoned").names[self.0 as usize]
    }

    /// The raw table index (stable for the life of the process).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("hello_sym_test");
        let b = Symbol::intern("hello_sym_test");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello_sym_test");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("sym_x"), Symbol::intern("sym_y"));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(Symbol::lookup("never_interned_name_xyzzy"), None);
        let s = Symbol::intern("interned_name_xyzzy");
        assert_eq!(Symbol::lookup("interned_name_xyzzy"), Some(s));
    }

    #[test]
    fn short_and_long_names_are_told_apart() {
        // Names at the packing boundary, and ones a zero-padded packing
        // would confuse: they go to the string-keyed map.
        let names = [
            "",
            "q",
            "q\0",
            "\0",
            "\0\0",
            "eightchr",
            "ninechars",
            "q\0\0\0\0\0\0\0",
            "é",
        ];
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (i, (n, s)) in names.iter().zip(&syms).enumerate() {
            assert_eq!(s.as_str(), *n);
            assert_eq!(Symbol::lookup(n), Some(*s));
            assert_eq!(Symbol::intern(n), *s, "idempotent on {n:?}");
            for (m, t) in names.iter().zip(&syms).skip(i + 1) {
                assert_ne!(s, t, "{n:?} and {m:?}");
            }
        }
    }

    #[test]
    fn letters_are_preseeded() {
        // Single letters exist from process start, in order.
        let a = Symbol::lookup("a").expect("seeded");
        let z = Symbol::lookup("z").expect("seeded");
        assert_eq!(z.index() - a.index(), 25);
    }

    #[test]
    fn threads_agree_on_symbols() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| Symbol::intern("raced_symbol").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
