//! In-memory iSAX index (Shieh & Keogh 2008 — the paper's ref \[29\]).
//!
//! A tree over iSAX words with **per-symbol cardinality promotion**:
//!
//! - root children live at cardinality 2 in every position (the coarsest
//!   iSAX words);
//! - a leaf that overflows splits by promoting one position to the next
//!   power-of-two cardinality ([`crate::isax::ISaxWord::split_at`]); its
//!   entries are redistributed between the two refined children;
//! - positions are promoted lowest-cardinality-first, so refinement is
//!   balanced across the word; when every position has reached the
//!   alphabet's full cardinality the leaf simply stays oversized
//!   (identical words cannot be separated further).
//!
//! Queries:
//!
//! - [`ISaxIndex::approximate_search`] — descend to the query's leaf and
//!   scan it (the classic cheap iSAX approximation);
//! - [`ISaxIndex::exact_search`] — branch-and-bound over the whole tree
//!   using MINDIST as the lower bound; guaranteed to return the true
//!   nearest neighbour under Euclidean distance on z-normalized series
//!   (verified against a linear scan in the tests).

use crate::encoder::{SaxConfig, SaxEncoder};
use crate::isax::ISaxWord;
use crate::mindist::mindist;
use mc_tslib::transform::znorm;

/// One indexed entry: caller-supplied id plus the normalized series and
/// its full-cardinality SAX cells.
#[derive(Debug, Clone)]
struct Entry {
    id: usize,
    normalized: Vec<f64>,
    cells: Vec<usize>,
}

impl Entry {
    fn full_word(&self, base_card: usize) -> ISaxWord {
        ISaxWord::from_cells(&self.cells, base_card)
    }
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<Entry>),
    Internal(Vec<(ISaxWord, Node)>),
}

/// An iSAX index over fixed-length series.
#[derive(Debug)]
pub struct ISaxIndex {
    encoder: SaxEncoder,
    series_len: usize,
    leaf_capacity: usize,
    /// Root children keyed by all-cardinality-2 words.
    root: Vec<(ISaxWord, Node)>,
    base_cardinality: usize,
    len: usize,
}

impl ISaxIndex {
    /// Creates an index for series of exactly `series_len` points.
    ///
    /// # Panics
    /// If the alphabet size is not a power of two (iSAX splitting needs
    /// binary cardinality promotion), `leaf_capacity == 0`, or the series
    /// are shorter than one segment.
    pub fn new(config: SaxConfig, series_len: usize, leaf_capacity: usize) -> Self {
        assert!(
            config.alphabet.size().is_power_of_two(),
            "iSAX requires a power-of-two alphabet, got {}",
            config.alphabet.size()
        );
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        assert!(series_len >= config.segment_len, "series shorter than one segment");
        Self {
            encoder: SaxEncoder::new(config),
            series_len,
            leaf_capacity,
            root: Vec::new(),
            base_cardinality: config.alphabet.size(),
            len: 0,
        }
    }

    /// Number of indexed series.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn encode_entry(&self, id: usize, series: &[f64]) -> Entry {
        let (normalized, _) = znorm(series).expect("non-empty series");
        let cells = self.encoder.encode(series).symbols;
        Entry { id, normalized, cells }
    }

    /// Inserts a series under `id`.
    ///
    /// # Panics
    /// If the series length differs from the index's configured length.
    pub fn insert(&mut self, id: usize, series: &[f64]) {
        assert_eq!(series.len(), self.series_len, "series length mismatch");
        let entry = self.encode_entry(id, series);
        let full = entry.full_word(self.base_cardinality);
        let coarse = demote_all(&full, 2);
        let base = self.base_cardinality;
        let capacity = self.leaf_capacity;
        match self.root.iter_mut().find(|(w, _)| *w == coarse) {
            Some((word, node)) => {
                let word = word.clone();
                insert_rec(node, &word, entry, capacity, base);
            }
            None => self.root.push((coarse, Node::Leaf(vec![entry]))),
        }
        self.len += 1;
    }

    /// Approximate nearest neighbour: descend to the query's region and
    /// return the best match inside it (`None` on an empty index or when
    /// no region covers the query).
    pub fn approximate_search(&self, query: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(query.len(), self.series_len, "query length mismatch");
        let probe = self.encode_entry(usize::MAX, query);
        let full = probe.full_word(self.base_cardinality);
        let coarse = demote_all(&full, 2);
        let mut node = &self.root.iter().find(|(w, _)| *w == coarse)?.1;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return entries
                        .iter()
                        .map(|e| (e.id, euclidean(&probe.normalized, &e.normalized)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                }
                Node::Internal(children) => {
                    match children.iter().find(|(w, _)| w.contains(&full)) {
                        Some((_, child)) => node = child,
                        None => return None,
                    }
                }
            }
        }
    }

    /// Exact nearest neighbour via MINDIST branch-and-bound.
    pub fn exact_search(&self, query: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(query.len(), self.series_len, "query length mismatch");
        let probe = self.encode_entry(usize::MAX, query);
        let a = self.base_cardinality;
        let n = self.series_len;

        // Seed the upper bound with the cheap approximate answer.
        let mut best: Option<(usize, f64)> = self.approximate_search(query);
        let mut stack: Vec<&Node> = self.root.iter().map(|(_, node)| node).collect();
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        let lb = mindist(&probe.cells, &e.cells, a, n);
                        if let Some((_, ub)) = best {
                            if lb >= ub {
                                continue;
                            }
                        }
                        let d = euclidean(&probe.normalized, &e.normalized);
                        if best.is_none_or(|(_, ub)| d < ub) {
                            best = Some((e.id, d));
                        }
                    }
                }
                Node::Internal(children) => {
                    for (_, child) in children {
                        stack.push(child);
                    }
                }
            }
        }
        best
    }

    /// Total leaves (exposed for tests asserting split behaviour).
    pub fn leaf_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Internal(children) => children.iter().map(|(_, c)| count(c)).sum(),
            }
        }
        self.root.iter().map(|(_, node)| count(node)).sum()
    }

    /// Maximum leaf depth below the root layer (diagnostics).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 0,
                Node::Internal(children) => {
                    1 + children.iter().map(|(_, c)| depth(c)).max().unwrap_or(0)
                }
            }
        }
        self.root.iter().map(|(_, node)| depth(node)).max().unwrap_or(0)
    }
}

/// Demotes every position of a word to `card`.
fn demote_all(word: &ISaxWord, card: usize) -> ISaxWord {
    let symbols: Vec<usize> = word.symbols().iter().map(|s| s.demote(card).cell).collect();
    ISaxWord::from_cells(&symbols, card)
}

/// Picks the split position: the lowest-cardinality symbol still below
/// `base_card` (ties broken by position). `None` if fully refined.
fn split_position(word: &ISaxWord, base_card: usize) -> Option<usize> {
    word.symbols()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.card < base_card)
        .min_by_key(|(_, s)| s.card)
        .map(|(i, _)| i)
}

fn insert_rec(node: &mut Node, node_word: &ISaxWord, entry: Entry, capacity: usize, base: usize) {
    match node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() > capacity {
                try_split(node, node_word, capacity, base);
            }
        }
        Node::Internal(children) => {
            let full = entry.full_word(base);
            let child = children.iter_mut().find(|(w, _)| w.contains(&full));
            match child {
                Some((word, node)) => {
                    let word = word.clone();
                    insert_rec(node, &word, entry, capacity, base);
                }
                None => unreachable!("split children partition the parent region"),
            }
        }
    }
}

/// Splits an overflowing leaf by cardinality promotion; recurses while a
/// child still overflows and can be refined.
fn try_split(node: &mut Node, node_word: &ISaxWord, capacity: usize, base: usize) {
    let Some(pos) = split_position(node_word, base) else {
        return; // fully refined: identical words, leaf stays oversized
    };
    let entries = match node {
        Node::Leaf(entries) => std::mem::take(entries),
        Node::Internal(_) => unreachable!("try_split on internal node"),
    };
    let (lo, hi) = node_word.split_at(pos);
    let mut lo_entries = Vec::new();
    let mut hi_entries = Vec::new();
    for e in entries {
        let full = e.full_word(base);
        if lo.contains(&full) {
            lo_entries.push(e);
        } else {
            debug_assert!(hi.contains(&full), "children must partition the region");
            hi_entries.push(e);
        }
    }
    let mut children = vec![(lo, Node::Leaf(lo_entries)), (hi, Node::Leaf(hi_entries))];
    for (word, child) in &mut children {
        let overflowing = matches!(child, Node::Leaf(v) if v.len() > capacity);
        if overflowing {
            try_split(child, word, capacity, base);
        }
    }
    *node = Node::Internal(children);
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{SaxAlphabet, SaxAlphabetKind};

    fn config() -> SaxConfig {
        SaxConfig {
            segment_len: 8,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 8).unwrap(),
        }
    }

    fn make_series(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|t| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let noise = ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                (t as f64 * 0.1 * (seed % 7 + 1) as f64).sin() * 5.0 + noise
            })
            .collect()
    }

    #[test]
    fn insert_and_count() {
        let mut idx = ISaxIndex::new(config(), 64, 4);
        assert!(idx.is_empty());
        for i in 0..20 {
            idx.insert(i, &make_series(i as u64, 64));
        }
        assert_eq!(idx.len(), 20);
        assert!(!idx.is_empty());
    }

    #[test]
    fn leaves_split_under_pressure() {
        let mut idx = ISaxIndex::new(config(), 64, 2);
        for i in 0..60 {
            idx.insert(i, &make_series(i as u64, 64));
        }
        assert!(idx.leaf_count() > 10, "60 series in capacity-2 leaves must split repeatedly");
        assert!(idx.depth() >= 1, "cardinality promotion should create internal nodes");
    }

    #[test]
    fn exact_search_matches_linear_scan() {
        let n = 64;
        let mut idx = ISaxIndex::new(config(), n, 3);
        let mut all: Vec<(usize, Vec<f64>)> = Vec::new();
        for i in 0..60 {
            let s = make_series(i as u64 + 100, n);
            idx.insert(i, &s);
            all.push((i, s));
        }
        for q in 0..10u64 {
            let query = make_series(q + 500, n);
            let (qn, _) = znorm(&query).unwrap();
            let brute = all
                .iter()
                .map(|(id, s)| {
                    let (sn, _) = znorm(s).unwrap();
                    (*id, euclidean(&qn, &sn))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            let found = idx.exact_search(&query).unwrap();
            assert_eq!(found.0, brute.0, "query {q}: exact search disagrees with scan");
            assert!((found.1 - brute.1).abs() < 1e-9);
        }
    }

    #[test]
    fn approximate_search_finds_self() {
        let n = 64;
        let mut idx = ISaxIndex::new(config(), n, 4);
        let mut kept = Vec::new();
        for i in 0..30 {
            let s = make_series(i as u64, n);
            idx.insert(i, &s);
            kept.push(s);
        }
        // Querying with an indexed series must return it at distance ~0.
        let (id, d) = idx.approximate_search(&kept[7]).expect("region non-empty");
        assert_eq!(id, 7);
        assert!(d < 1e-9);
    }

    #[test]
    fn duplicate_words_do_not_split_forever() {
        // The same series inserted many times: identical full-cardinality
        // words can never be separated; the leaf must stay oversized
        // instead of looping.
        let mut idx = ISaxIndex::new(config(), 64, 2);
        let s = make_series(9, 64);
        for i in 0..10 {
            idx.insert(i, &s);
        }
        assert_eq!(idx.len(), 10);
        let (id, d) = idx.exact_search(&s).unwrap();
        assert!(d < 1e-9);
        assert!(id < 10);
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = ISaxIndex::new(config(), 64, 4);
        assert!(idx.approximate_search(&make_series(1, 64)).is_none());
        assert!(idx.exact_search(&make_series(1, 64)).is_none());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_alphabet_rejected() {
        let cfg = SaxConfig {
            segment_len: 8,
            alphabet: SaxAlphabet::new(SaxAlphabetKind::Alphabetic, 5).unwrap(),
        };
        ISaxIndex::new(cfg, 64, 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let mut idx = ISaxIndex::new(config(), 64, 4);
        idx.insert(0, &make_series(0, 32));
    }
}
