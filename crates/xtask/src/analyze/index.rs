//! Workspace symbol index: item definitions plus per-file identifier
//! occurrence sets.
//!
//! Built once over the loaded [`Workspace`] and shared
//! by the passes: the allowlist-staleness pass asks "does this symbol
//! still occur under this path prefix", the doc/report layer asks
//! "where is this item defined". Occurrences are tracked per file as a
//! set (the passes never need positions of *every* use — definitions
//! carry positions).

use std::collections::{BTreeMap, BTreeSet};

use super::tree::all_items;
use super::Workspace;
use crate::lexer::Kind;

/// Where an item is defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    pub path: String,
    pub line: usize,
    pub col: usize,
}

/// The index: definitions by name, identifier occurrences by file.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    defs: BTreeMap<String, Vec<Location>>,
    occurrences: Vec<(String, BTreeSet<String>)>,
}

impl SymbolIndex {
    /// Indexes every file in the workspace.
    pub fn build(ws: &Workspace) -> SymbolIndex {
        let mut defs: BTreeMap<String, Vec<Location>> = BTreeMap::new();
        let mut occurrences = Vec::new();
        for file in &ws.files {
            for item in all_items(&file.tree) {
                if item.name.is_empty() {
                    continue;
                }
                defs.entry(item.name.clone()).or_default().push(Location {
                    path: file.path.clone(),
                    line: item.line,
                    col: item.col,
                });
            }
            let idents: BTreeSet<String> = file
                .tokens
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.clone())
                .collect();
            occurrences.push((file.path.clone(), idents));
        }
        SymbolIndex { defs, occurrences }
    }

    /// Definition sites of `name`, in file order.
    pub fn defs(&self, name: &str) -> &[Location] {
        self.defs.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether any indexed file path starts with `prefix`.
    pub fn any_file_under(&self, prefix: &str) -> bool {
        self.occurrences.iter().any(|(path, _)| path.starts_with(prefix))
    }

    /// Whether identifier `ident` occurs in any file under `prefix`.
    pub fn ident_occurs_under(&self, prefix: &str, ident: &str) -> bool {
        self.occurrences
            .iter()
            .any(|(path, idents)| path.starts_with(prefix) && idents.contains(ident))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_occurrences_resolve_by_prefix() {
        let ws = Workspace::from_sources(vec![
            ("crates/a/src/lib.rs".to_string(), "pub fn alpha() { beta_helper(); }".to_string()),
            ("crates/b/src/lib.rs".to_string(), "pub struct Gamma { x: u32 }".to_string()),
        ]);
        let idx = SymbolIndex::build(&ws);
        assert_eq!(idx.defs("alpha").len(), 1);
        assert_eq!(idx.defs("alpha")[0].path, "crates/a/src/lib.rs");
        assert_eq!(idx.defs("Gamma")[0].line, 1);
        assert!(idx.any_file_under("crates/a"));
        assert!(!idx.any_file_under("crates/zzz"));
        assert!(idx.ident_occurs_under("crates/a", "beta_helper"));
        assert!(!idx.ident_occurs_under("crates/b", "beta_helper"));
        assert!(idx.ident_occurs_under("crates/b/src/lib.rs", "Gamma"));
    }
}
