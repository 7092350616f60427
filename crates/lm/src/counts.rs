//! Flat next-token count table shared by [`crate::ngram::NGramLm`] and
//! [`crate::ppm::PpmLm`] (and their copy-on-write decode sessions).
//!
//! A context of `k` tokens is identified by its radix key
//! `t₁·Vᵏ⁻¹ + … + tₖ` (`V` = vocabulary size). Per order, a map with a
//! multiplicative hasher sends the key to a row, and the rows live back
//! to back in one flat `u32` vector: the row's integer `total` and
//! `distinct`, kept current as counts are bumped, then its `V` counts. A
//! lookup is one hash probe; reading a row's sums is free. (One vector
//! per order rather than one for the whole table keeps every allocation
//! small: a single arena filled faster but raised the single-forecast
//! benchmark's peak RSS by about a third in a trial run.)
//!
//! [`Context`] holds the radix keys of the current history for every
//! order and rolls them forward in O(order) per token
//! (`keys[k] = keys[k-1]·V + t`), which is exactly the value a
//! from-scratch radix encoding of the last `k` tokens gives.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::vocab::TokenId;

/// Multiplicative hasher for radix keys. The keys are already dense
/// integers, so one odd-constant multiply spreads them; folding the high
/// half down feeds the table's bucket bits as well as its tag bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type KeyMap = HashMap<u64, u32, BuildHasherDefault<KeyHasher>>;

/// A borrowed count row with its cached sums.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// Next-token counts, one per vocabulary id.
    pub counts: &'a [u32],
    /// Sum of `counts`.
    pub total: u64,
    /// Number of non-zero entries in `counts`.
    pub distinct: u64,
}

/// One context order's rows, back to back with stride `V + 2`: the
/// row's `total` and `distinct`, then its `V` counts. The map holds each
/// row's offset into `rows`. Totals are `u32` like the counts; a total
/// overflows only after 2³² observations of one context.
#[derive(Debug, Clone, Default)]
struct Order {
    index: KeyMap,
    rows: Vec<u32>,
}

/// Per-order context → count-row table. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct CountTable {
    vocab: usize,
    /// `orders[k]` holds the rows of the `k`-token contexts.
    orders: Vec<Order>,
}

/// Offsets of a row's cached sums and first count.
const TOTAL: usize = 0;
const DISTINCT: usize = 1;
const COUNTS: usize = 2;

impl CountTable {
    /// An empty table over `vocab` tokens for context orders
    /// `0..=max_order`.
    pub fn new(vocab: usize, max_order: usize) -> Self {
        Self { vocab, orders: vec![Order::default(); max_order + 1] }
    }

    /// The counts following context `key` at order `k`, if it was ever
    /// seen.
    pub fn row(&self, k: usize, key: u64) -> Option<Row<'_>> {
        let order = &self.orders[k];
        let at = *order.index.get(&key)? as usize;
        let row = &order.rows[at..at + COUNTS + self.vocab];
        Some(Row {
            counts: &row[COUNTS..],
            total: u64::from(row[TOTAL]),
            distinct: u64::from(row[DISTINCT]),
        })
    }

    /// Counts one occurrence of `token` after context `key` at order `k`.
    /// A context seen for the first time starts from `seed`'s row for the
    /// same context (copy-on-write over a frozen base), or from zeros.
    pub fn bump(&mut self, seed: Option<&CountTable>, k: usize, key: u64, token: TokenId) {
        let stride = COUNTS + self.vocab;
        let order = &mut self.orders[k];
        let fresh = order.rows.len();
        assert!(fresh < u32::MAX as usize, "order {k} holds 2^32 count cells");
        let at = *order.index.entry(key).or_insert(fresh as u32) as usize;
        if at == fresh {
            let base = seed.and_then(|s| {
                let o = &s.orders[k];
                o.index.get(&key).map(|&from| &o.rows[from as usize..from as usize + stride])
            });
            match base {
                Some(row) => order.rows.extend_from_slice(row),
                None => order.rows.resize(fresh + stride, 0),
            }
        }
        let row = &mut order.rows[at..at + stride];
        if row[COUNTS + token as usize] == 0 {
            row[DISTINCT] += 1;
        }
        row[COUNTS + token as usize] += 1;
        row[TOTAL] += 1;
    }

    /// Sizes the key maps for the contexts `tokens` more observations
    /// can add (at most one per token per order, and never more than the
    /// `Vᵏ` contexts order `k` has), so a prompt fit never rehashes. The
    /// rows grow as usual: sizing them too made fits faster but raised
    /// peak RSS by ~10% with ten fitted models held in a cache.
    pub fn reserve(&mut self, tokens: usize) {
        let mut contexts = 1usize;
        for order in &mut self.orders {
            let map = &mut order.index;
            map.reserve(tokens.min(contexts.saturating_sub(map.len())));
            contexts = contexts.saturating_mul(self.vocab);
        }
    }

    /// Forgets every context.
    pub fn clear(&mut self) {
        for order in &mut self.orders {
            order.index.clear();
            order.rows.clear();
        }
    }
}

/// Where a model reads its counts: its own table, or a session's overlay
/// stacked over the frozen base it was forked from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layered<'a> {
    /// Session-private rows (contexts this session has bumped).
    pub top: Option<&'a CountTable>,
    /// The table every other context is read from.
    pub base: &'a CountTable,
}

impl<'a> Layered<'a> {
    /// The counts following context `key` at order `k`: the overlay's
    /// copy if it has one, else the base's.
    pub fn row(&self, k: usize, key: u64) -> Option<Row<'a>> {
        self.top.and_then(|t| t.row(k, key)).or_else(|| self.base.row(k, key))
    }
}

/// Radix keys of the current history for every context order.
#[derive(Debug, Clone)]
pub(crate) struct Context {
    vocab: u64,
    /// `keys[k]` encodes the last `k` tokens; `keys[0]` is always 0.
    keys: Vec<u64>,
    /// Usable orders: `min(tokens seen, max_order)`.
    depth: usize,
}

impl Context {
    /// An empty history for orders `0..=max_order`.
    pub fn new(vocab: usize, max_order: usize) -> Self {
        Self { vocab: vocab as u64, keys: vec![0; max_order + 1], depth: 0 }
    }

    /// The deepest order with a full context.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The key of the last `k` tokens (`k <= depth`).
    pub fn key(&self, k: usize) -> u64 {
        debug_assert!(k <= self.depth);
        self.keys[k]
    }

    /// Appends `token` to the history.
    fn push(&mut self, token: TokenId) {
        let max_order = self.keys.len() - 1;
        self.depth = (self.depth + 1).min(max_order);
        for k in (1..=self.depth).rev() {
            self.keys[k] = self.keys[k - 1] * self.vocab + u64::from(token);
        }
    }

    /// Forgets the history.
    pub fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = 0);
        self.depth = 0;
    }

    /// Counts `token` after every order's context in `table` (seeding new
    /// rows from `seed`), then appends it. Returns the number of rows
    /// bumped.
    pub fn observe(
        &mut self,
        table: &mut CountTable,
        seed: Option<&CountTable>,
        token: TokenId,
    ) -> u64 {
        assert!((token as u64) < self.vocab, "token {token} out of range");
        for k in 0..=self.depth {
            table.bump(seed, k, self.keys[k], token);
        }
        let bumped = self.depth as u64 + 1;
        self.push(token);
        bumped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The from-scratch radix encoding the rolling keys must reproduce.
    fn radix_key(history: &[TokenId], k: usize, vocab: usize) -> u64 {
        history[history.len() - k..].iter().fold(0, |key, &t| key * vocab as u64 + u64::from(t))
    }

    #[test]
    fn rolling_keys_match_radix_encoding() {
        for max_order in 0..5 {
            let mut ctx = Context::new(7, max_order);
            let mut history = Vec::new();
            for i in 0..40u32 {
                let t = (i * 5 + i / 3) % 7;
                ctx.push(t);
                history.push(t);
                assert_eq!(ctx.depth(), history.len().min(max_order));
                for k in 0..=ctx.depth() {
                    assert_eq!(ctx.key(k), radix_key(&history, k, 7), "order {k} after {i}");
                }
            }
            ctx.clear();
            assert_eq!(ctx.depth(), 0);
            assert_eq!(ctx.key(0), 0);
        }
    }

    fn snapshot(row: Option<Row<'_>>) -> Option<(Vec<u32>, u64, u64)> {
        row.map(|r| (r.counts.to_vec(), r.total, r.distinct))
    }

    #[test]
    fn bump_keeps_totals_and_distinct_exact() {
        let mut t = CountTable::new(4, 1);
        for tok in [2, 2, 3, 0, 2] {
            t.bump(None, 1, 9, tok);
        }
        assert_eq!(snapshot(t.row(1, 9)), Some((vec![1, 0, 3, 1], 5, 3)));
        assert!(t.row(0, 9).is_none(), "orders are separate key spaces");
        t.clear();
        assert!(t.row(1, 9).is_none());
    }

    #[test]
    fn overlay_copies_the_base_row_on_first_touch() {
        let mut base = CountTable::new(3, 0);
        base.bump(None, 0, 0, 1);
        base.bump(None, 0, 0, 1);
        let mut top = CountTable::new(3, 0);
        top.bump(Some(&base), 0, 0, 2);
        let layered = Layered { top: Some(&top), base: &base };
        assert_eq!(snapshot(layered.row(0, 0)), Some((vec![0, 2, 1], 3, 2)));
        assert_eq!(snapshot(base.row(0, 0)), Some((vec![0, 2, 0], 2, 1)), "base never written");
    }
}
