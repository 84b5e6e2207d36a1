//! Symbol tables mapping work-function addresses to names (paper Section VI-C).

use serde::{Deserialize, Serialize};

/// One symbol: a function address and its name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Symbol {
    /// Start address of the function.
    pub addr: u64,
    /// Size of the function in bytes (0 when unknown).
    pub size: u64,
    /// Demangled function name.
    pub name: String,
}

/// A sorted table of symbols supporting address lookup.
///
/// Aftermath extracts this information from the application binary (via `nm` in the
/// original tool) and uses it to display the work-function name of a selected task.
///
/// # Examples
///
/// ```rust
/// use aftermath_trace::SymbolTable;
///
/// let mut table = SymbolTable::new();
/// table.insert(0x1000, 0x80, "seidel_block");
/// table.insert(0x2000, 0, "kmeans_distance");
/// assert_eq!(table.lookup(0x1040).map(|s| s.name.as_str()), Some("seidel_block"));
/// assert_eq!(table.lookup(0x2000).map(|s| s.name.as_str()), Some("kmeans_distance"));
/// assert!(table.lookup(0x500).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SymbolTable {
    symbols: Vec<Symbol>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Number of symbols in the table.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Inserts a symbol, keeping the table sorted by address.
    ///
    /// A symbol with the same address replaces the existing entry.
    pub fn insert(&mut self, addr: u64, size: u64, name: impl Into<String>) {
        let sym = Symbol {
            addr,
            size,
            name: name.into(),
        };
        match self.symbols.binary_search_by_key(&addr, |s| s.addr) {
            Ok(i) => self.symbols[i] = sym,
            Err(i) => self.symbols.insert(i, sym),
        }
    }

    /// Finds the symbol covering `addr`.
    ///
    /// A symbol with a known size covers `[addr, addr+size)`; a symbol with size 0 covers
    /// every address up to (but not including) the next symbol's start.
    pub fn lookup(&self, addr: u64) -> Option<&Symbol> {
        let idx = match self.symbols.binary_search_by_key(&addr, |s| s.addr) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let sym = &self.symbols[idx];
        let covered = if sym.size > 0 {
            addr < sym.addr.saturating_add(sym.size)
        } else {
            match self.symbols.get(idx + 1) {
                Some(next) => addr < next.addr,
                None => true,
            }
        };
        covered.then_some(sym)
    }

    /// Iterates over all symbols in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter()
    }
}

impl FromIterator<Symbol> for SymbolTable {
    fn from_iter<T: IntoIterator<Item = Symbol>>(iter: T) -> Self {
        let mut table = SymbolTable::new();
        for s in iter {
            table.insert(s.addr, s.size, s.name);
        }
        table
    }
}

impl Extend<Symbol> for SymbolTable {
    fn extend<T: IntoIterator<Item = Symbol>>(&mut self, iter: T) {
        for s in iter {
            self.insert(s.addr, s.size, s.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_and_replaces() {
        let mut t = SymbolTable::new();
        t.insert(0x3000, 0, "c");
        t.insert(0x1000, 0, "a");
        t.insert(0x2000, 0, "b");
        let addrs: Vec<u64> = t.iter().map(|s| s.addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x2000, 0x3000]);
        t.insert(0x2000, 0, "b2");
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(0x2000).unwrap().name, "b2");
    }

    #[test]
    fn lookup_with_explicit_size() {
        let mut t = SymbolTable::new();
        t.insert(0x1000, 0x10, "f");
        assert!(t.lookup(0x100f).is_some());
        assert!(t.lookup(0x1010).is_none());
    }

    #[test]
    fn lookup_sizeless_bounded_by_next_symbol() {
        let mut t = SymbolTable::new();
        t.insert(0x1000, 0, "f");
        t.insert(0x2000, 0, "g");
        assert_eq!(t.lookup(0x1fff).unwrap().name, "f");
        assert_eq!(t.lookup(0x2000).unwrap().name, "g");
        assert_eq!(t.lookup(0x9999).unwrap().name, "g");
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert!(t.lookup(0x1000).is_none());
    }

    #[test]
    fn from_iterator() {
        let t: SymbolTable = vec![
            Symbol {
                addr: 2,
                size: 0,
                name: "b".into(),
            },
            Symbol {
                addr: 1,
                size: 0,
                name: "a".into(),
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().next().unwrap().addr, 1);
    }
}
