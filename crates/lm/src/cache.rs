//! Multi-tenant cache of fitted [`FrozenLm`] contexts.
//!
//! The zero-shot pipeline pays a full prompt fit per forecast cohort;
//! the serve scheduler's frozen-context dedup (PR 3) only shares that
//! fit *within* one batch. [`LmCache`] is the cross-batch half of "fit
//! once, serve many": a bounded, sharded map from spec fingerprint to
//! fitted context, shared across `serve_all` batches and tenants, with
//! **incremental refit** — when a tenant streams new observations, the
//! cached ancestor whose prompt is a prefix of the new one is
//! delta-updated in place via [`FrozenLm::refit_extend`] instead of
//! being refit from scratch. Refit is bit-identical to a from-scratch
//! fit (the differential proptests in `crates/lm/tests` are the proof),
//! so a warm cache can never change a forecast.
//!
//! # Pinning vs eviction
//!
//! A context handed out by [`LmCache::acquire`]/[`LmCache::insert`] is
//! **pinned**: in-flight `DecodeSession` forks borrow the frozen base,
//! so eviction while pinned would free memory under a live reader.
//! Eviction therefore skips pinned entries unconditionally — the cache
//! runs over capacity rather than freeing a pinned context — and the
//! caller unpins via [`LmCache::release`] at its flush boundary. All
//! locking routes through `mc_sync`, so the loom model check
//! (`crates/core/tests/loom_cache.rs`) explores pin/evict interleavings
//! exhaustively.
//!
//! # Sharding
//!
//! Entries shard by **family** fingerprint (every spec component except
//! the prompt), not by the full fingerprint: all prompts of one tenant
//! family colocate, so the prefix scan behind incremental refit touches
//! exactly one shard lock.

use crate::model::FrozenLm;
use crate::vocab::TokenId;
use mc_obs::{mix, Attrs, Recorder, SpanEvent, SpanKind};
use mc_sync::atomic::{AtomicU64, Ordering};
use mc_sync::{Arc, Mutex};

/// Eviction policy for [`LmCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Evict the least-recently-touched unpinned entry.
    #[default]
    Lru,
    /// Segmented LRU (ARC-flavoured, scan-resistant): entries that have
    /// never been hit since insertion are on probation and evict first;
    /// proven entries evict only when no probationary one is available.
    Slru,
}

/// How the cache reacts to a prompt that strictly extends a cached one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefitMode {
    /// Delta-update the cached ancestor in place via
    /// [`FrozenLm::refit_extend`] (bit-identical to a full fit).
    #[default]
    Incremental,
    /// Always fit extended prompts from scratch (the ancestor stays
    /// cached for exact hits).
    Rebuild,
}

/// Shape knobs for [`LmCache`] (small and `Copy` so serve configs can
/// embed it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident contexts across all shards. Pinned entries are
    /// never evicted, so the cache may transiently exceed this.
    pub capacity: usize,
    /// Number of independent shard locks.
    pub shards: usize,
    /// Eviction policy.
    pub policy: CachePolicy,
    /// Refit behaviour for prefix-extended prompts.
    pub refit: RefitMode,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { capacity: 32, shards: 4, policy: CachePolicy::Lru, refit: RefitMode::Incremental }
    }
}

/// Counter snapshot (see [`LmCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact-fingerprint hits.
    pub hits: u64,
    /// Lookups that found nothing usable (caller fits from scratch).
    pub misses: u64,
    /// Prefix hits resolved by incremental refit.
    pub refits: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (exact hits + refits).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.refits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.refits) as f64 / lookups as f64
    }
}

/// Outcome of [`LmCache::acquire`].
pub enum Found {
    /// Exact fingerprint hit; the entry is pinned. The epoch is the
    /// entry's refit epoch (0 for a never-refit context).
    Hit {
        /// The cached frozen context.
        frozen: Arc<dyn FrozenLm>,
        /// Monotone refit epoch of the entry.
        epoch: u64,
    },
    /// A cached ancestor (strict prompt prefix, same family) was
    /// delta-updated in place to cover the requested prompt; the entry
    /// is pinned and now keyed under the requested fingerprint with a
    /// bumped epoch.
    Refit {
        /// The refit frozen context (bit-identical to a full fit).
        frozen: Arc<dyn FrozenLm>,
        /// Monotone refit epoch after the bump (≥ 1).
        epoch: u64,
        /// Tokens appended by the delta update.
        appended: usize,
    },
    /// Nothing usable cached; fit from scratch and [`LmCache::insert`].
    Miss,
}

struct Entry {
    fingerprint: u64,
    family: u64,
    prompt: Vec<TokenId>,
    frozen: Arc<dyn FrozenLm>,
    pins: usize,
    epoch: u64,
    last_touch: u64,
    hits: u64,
}

struct Shard {
    entries: Vec<Entry>,
}

/// Bounded, sharded multi-tenant cache of fitted contexts. See the
/// [module docs](self).
pub struct LmCache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    refits: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl LmCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// If `capacity` or `shards` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        assert!(config.shards > 0, "cache shard count must be positive");
        Self {
            config,
            shards: (0..config.shards).map(|_| Mutex::new(Shard { entries: Vec::new() })).collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            refits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn shard(&self, family: u64) -> &Mutex<Shard> {
        &self.shards[(family % self.shards.len() as u64) as usize]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a context for `(family, fingerprint, prompt)` and pins
    /// it on success.
    ///
    /// Resolution order: exact fingerprint hit; else (in
    /// [`RefitMode::Incremental`]) the longest cached strict prompt
    /// prefix in the same family that is unpinned and uniquely owned is
    /// refit-extended in place and re-keyed under `fingerprint`; else
    /// [`Found::Miss`]. Every `Hit`/`Refit` must be balanced by one
    /// [`LmCache::release`] with the same `(family, fingerprint)`.
    pub fn acquire(&self, family: u64, fingerprint: u64, prompt: &[TokenId]) -> Found {
        let now = self.touch();
        let mut shard = self.shard(family).lock().expect("cache shard lock");
        if let Some(e) = shard.entries.iter_mut().find(|e| e.fingerprint == fingerprint) {
            e.pins += 1;
            e.hits += 1;
            e.last_touch = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Found::Hit { frozen: Arc::clone(&e.frozen), epoch: e.epoch };
        }
        if self.config.refit == RefitMode::Incremental {
            // Longest strict-prefix ancestor that nothing else holds:
            // refit mutates the context in place, so it must be both
            // unpinned and uniquely owned by the cache.
            let candidate = shard
                .entries
                .iter_mut()
                .filter(|e| {
                    e.family == family
                        && e.pins == 0
                        && e.prompt.len() < prompt.len()
                        && prompt.starts_with(&e.prompt)
                })
                .max_by_key(|e| e.prompt.len());
            if let Some(e) = candidate {
                let extendable = Arc::get_mut(&mut e.frozen)
                    .is_some_and(|m| m.refit_extend(&prompt[e.prompt.len()..]));
                if extendable {
                    let appended = prompt.len() - e.prompt.len();
                    e.prompt = prompt.to_vec();
                    e.fingerprint = fingerprint;
                    e.epoch += 1;
                    e.pins = 1;
                    e.hits += 1;
                    e.last_touch = now;
                    self.refits.fetch_add(1, Ordering::Relaxed);
                    return Found::Refit {
                        frozen: Arc::clone(&e.frozen),
                        epoch: e.epoch,
                        appended,
                    };
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Found::Miss
    }

    /// [`LmCache::acquire`] wrapped in a `cache_lookup` span keyed by the
    /// context fingerprint. Cache warmth depends on flush history, so the
    /// span is scheduler-scoped (tick-minted id, sidecar export only); a
    /// disabled recorder makes this identical to `acquire`.
    pub fn acquire_observed(
        &self,
        family: u64,
        fingerprint: u64,
        prompt: &[TokenId],
        obs: &dyn Recorder,
    ) -> Found {
        if !obs.enabled() {
            return self.acquire(family, fingerprint, prompt);
        }
        let id = mix(obs.now(), SpanKind::CacheLookup.index() as u64);
        obs.span(SpanEvent::open_with_id(id, fingerprint, SpanKind::CacheLookup));
        let found = self.acquire(family, fingerprint, prompt);
        let attrs = match &found {
            Found::Hit { .. } => Attrs::CacheHit,
            Found::Refit { epoch, appended, .. } => {
                Attrs::CacheRefit { appended: *appended as u64, epoch: *epoch }
            }
            Found::Miss => Attrs::CacheMiss,
        };
        obs.span(SpanEvent::close_with_id(id, fingerprint, SpanKind::CacheLookup).with(attrs));
        found
    }

    /// Inserts a freshly fitted context and pins it.
    ///
    /// If the fingerprint is already resident (two tenants fit the same
    /// spec concurrently), the existing entry wins — it is pinned and
    /// returned, and `frozen` is dropped — so both callers share one
    /// context. Inserting may evict unpinned entries per the policy;
    /// pinned entries are never evicted, even over capacity.
    pub fn insert(
        &self,
        family: u64,
        fingerprint: u64,
        prompt: &[TokenId],
        frozen: Arc<dyn FrozenLm>,
    ) -> Arc<dyn FrozenLm> {
        let now = self.touch();
        let mut shard = self.shard(family).lock().expect("cache shard lock");
        if let Some(e) = shard.entries.iter_mut().find(|e| e.fingerprint == fingerprint) {
            e.pins += 1;
            e.last_touch = now;
            return Arc::clone(&e.frozen);
        }
        shard.entries.push(Entry {
            fingerprint,
            family,
            prompt: prompt.to_vec(),
            frozen: Arc::clone(&frozen),
            pins: 1,
            epoch: 0,
            last_touch: now,
            hits: 0,
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
        // Per-shard share of the global capacity, rounded up so small
        // caches still hold at least one entry per shard.
        let per_shard = self.config.capacity.div_ceil(self.shards.len());
        while shard.entries.len() > per_shard {
            let victim = match self.config.policy {
                CachePolicy::Lru => shard
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.pins == 0)
                    .min_by_key(|(_, e)| e.last_touch)
                    .map(|(i, _)| i),
                CachePolicy::Slru => {
                    let probation = shard
                        .entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.pins == 0 && e.hits == 0)
                        .min_by_key(|(_, e)| e.last_touch)
                        .map(|(i, _)| i);
                    probation.or_else(|| {
                        shard
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.pins == 0)
                            .min_by_key(|(_, e)| e.last_touch)
                            .map(|(i, _)| i)
                    })
                }
            };
            match victim {
                Some(i) => {
                    shard.entries.remove(i);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything is pinned: run over capacity rather than
                // free a context a live fork may be reading.
                None => break,
            }
        }
        // The freshly inserted (pinned) entry can never be the victim.
        let e = shard
            .entries
            .iter()
            .find(|e| e.fingerprint == fingerprint)
            .expect("pinned insert survived eviction");
        Arc::clone(&e.frozen)
    }

    /// Unpins one acquisition of `(family, fingerprint)`.
    ///
    /// Call exactly once per successful [`LmCache::acquire`] (`Hit` or
    /// `Refit`) or [`LmCache::insert`], at the caller's flush boundary.
    /// Releasing an entry evicted while pinned is impossible (pinned
    /// entries are never evicted); releasing an unknown fingerprint is
    /// a caller bug and panics.
    pub fn release(&self, family: u64, fingerprint: u64) {
        let mut shard = self.shard(family).lock().expect("cache shard lock");
        let e = shard
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint)
            .expect("release of unknown cache entry");
        assert!(e.pins > 0, "release without matching acquire");
        e.pins -= 1;
    }

    /// Current pin count of a resident entry (tests and invariants).
    pub fn pins(&self, family: u64, fingerprint: u64) -> Option<usize> {
        let shard = self.shard(family).lock().expect("cache shard lock");
        shard.entries.iter().find(|e| e.fingerprint == fingerprint).map(|e| e.pins)
    }

    /// Number of resident contexts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard lock").entries.len()).sum()
    }

    /// Whether the cache holds no contexts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            refits: self.refits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LmCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LmCache")
            .field("config", &self.config)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::observe_all;
    use crate::presets::{fit_model, ModelPreset};

    fn fit(prompt: &[TokenId]) -> Arc<dyn FrozenLm> {
        Arc::from(fit_model(ModelPreset::Small, 4, prompt))
    }

    fn small_cache(capacity: usize) -> LmCache {
        LmCache::new(CacheConfig { capacity, shards: 1, ..CacheConfig::default() })
    }

    #[test]
    fn miss_insert_hit_release_cycle() {
        let cache = small_cache(4);
        let prompt = [0u32, 1, 2, 3];
        assert!(matches!(cache.acquire(7, 100, &prompt), Found::Miss));
        cache.insert(7, 100, &prompt, fit(&prompt));
        assert_eq!(cache.pins(7, 100), Some(1));
        match cache.acquire(7, 100, &prompt) {
            Found::Hit { epoch, .. } => assert_eq!(epoch, 0),
            _ => panic!("expected exact hit"),
        }
        assert_eq!(cache.pins(7, 100), Some(2));
        cache.release(7, 100);
        cache.release(7, 100);
        assert_eq!(cache.pins(7, 100), Some(0));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_extension_refits_in_place() {
        let cache = small_cache(4);
        let prefix = [0u32, 1, 2, 0, 1, 2];
        let full = [0u32, 1, 2, 0, 1, 2, 0, 1];
        cache.insert(7, 100, &prefix, fit(&prefix));
        cache.release(7, 100);
        let refit = match cache.acquire(7, 200, &full) {
            Found::Refit { frozen, epoch, appended } => {
                assert_eq!(epoch, 1);
                assert_eq!(appended, 2);
                frozen
            }
            _ => panic!("expected prefix refit"),
        };
        // Bit-identical to a from-scratch fit of the full prompt.
        let cold = fit(&full);
        let mut warm_p = vec![0.0; 4];
        let mut cold_p = vec![0.0; 4];
        refit.fork().next_distribution(&mut warm_p);
        cold.fork().next_distribution(&mut cold_p);
        assert_eq!(
            warm_p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            cold_p.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(refit.prompt_cost(), cold.prompt_cost());
        // Old key is gone; new key hits exactly.
        assert_eq!(cache.pins(7, 100), None);
        assert_eq!(cache.pins(7, 200), Some(1));
        assert_eq!(cache.len(), 1);
        cache.release(7, 200);
        assert_eq!(cache.stats().refits, 1);
    }

    #[test]
    fn refit_refuses_pinned_and_shared_ancestors() {
        let cache = small_cache(4);
        let prefix = [0u32, 1];
        let full = [0u32, 1, 2];
        // Still pinned: the ancestor must not be mutated under a reader.
        let held = cache.insert(7, 100, &prefix, fit(&prefix));
        assert!(matches!(cache.acquire(7, 200, &full), Found::Miss));
        drop(held);
        cache.release(7, 100);
        // Unpinned but another Arc is still alive outside the cache: the
        // uniqueness check must also refuse.
        let Found::Hit { frozen: outside, .. } = cache.acquire(7, 100, &prefix) else {
            panic!("expected hit")
        };
        cache.release(7, 100);
        assert!(matches!(cache.acquire(7, 200, &full), Found::Miss));
        drop(outside);
        assert!(matches!(cache.acquire(7, 200, &full), Found::Refit { .. }));
        cache.release(7, 200);
    }

    #[test]
    fn rebuild_mode_never_refits() {
        let cache = LmCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
            refit: RefitMode::Rebuild,
            ..CacheConfig::default()
        });
        let prefix = [0u32, 1];
        let full = [0u32, 1, 2];
        cache.insert(7, 100, &prefix, fit(&prefix));
        cache.release(7, 100);
        assert!(matches!(cache.acquire(7, 200, &full), Found::Miss));
        assert_eq!(cache.stats().refits, 0);
    }

    #[test]
    fn eviction_is_lru_and_skips_pinned() {
        let cache = small_cache(2);
        let p = [0u32];
        cache.insert(1, 10, &p, fit(&p)); // pinned — immune
        cache.insert(2, 20, &p, fit(&p));
        cache.release(2, 20);
        // 10 is older but pinned, so 30's insertion must evict 20.
        cache.insert(3, 30, &p, fit(&p));
        cache.release(3, 30);
        assert_eq!(cache.len(), 2);
        assert!(cache.pins(1, 10).is_some(), "pinned entry must survive");
        assert_eq!(cache.stats().evictions, 1);
        // All pinned: capacity may be exceeded, nothing is freed.
        cache.release(1, 10);
        let held_a = cache.acquire(1, 10, &p);
        let held_b = cache.acquire(3, 30, &p);
        assert!(matches!(held_a, Found::Hit { .. }) && matches!(held_b, Found::Hit { .. }));
        cache.insert(4, 40, &p, fit(&p));
        assert_eq!(cache.len(), 3, "fully pinned cache must run over capacity");
    }

    #[test]
    fn slru_prefers_probationary_victims() {
        let cache = LmCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
            policy: CachePolicy::Slru,
            ..CacheConfig::default()
        });
        let p = [0u32];
        cache.insert(1, 10, &p, fit(&p));
        cache.release(1, 10);
        cache.acquire(1, 10, &p); // entry 10 is now proven (1 hit)
        cache.release(1, 10);
        cache.insert(2, 20, &p, fit(&p)); // probation, but more recent
        cache.release(2, 20);
        cache.insert(3, 30, &p, fit(&p));
        cache.release(3, 30);
        // LRU would evict 10 (oldest); SLRU protects it and takes 20.
        assert!(cache.pins(1, 10).is_some());
        assert!(cache.pins(2, 20).is_none());
    }

    #[test]
    fn duplicate_insert_shares_the_existing_entry() {
        let cache = small_cache(4);
        let p = [0u32, 1];
        let first = cache.insert(7, 100, &p, fit(&p));
        let second = cache.insert(7, 100, &p, fit(&p));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.pins(7, 100), Some(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn refit_matches_streamed_observation_semantics() {
        // The refit context must behave like a model that observed the
        // whole stream: same distribution as a mutable model fed
        // prefix ++ suffix.
        let cache = small_cache(4);
        let prefix: Vec<TokenId> = [0u32, 1, 2, 3].iter().cycle().take(12).copied().collect();
        let full: Vec<TokenId> = [0u32, 1, 2, 3].iter().cycle().take(19).copied().collect();
        cache.insert(9, 1, &prefix, fit(&prefix));
        cache.release(9, 1);
        let Found::Refit { frozen: refit, .. } = cache.acquire(9, 2, &full) else {
            panic!("expected refit")
        };
        let mut live = crate::presets::build_model(ModelPreset::Small, 4);
        observe_all(live.as_mut(), &full);
        let mut p_warm = vec![0.0; 4];
        let mut p_live = vec![0.0; 4];
        refit.fork().next_distribution(&mut p_warm);
        live.next_distribution(&mut p_live);
        assert_eq!(
            p_warm.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            p_live.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        cache.release(9, 2);
    }

    #[test]
    #[should_panic(expected = "release of unknown cache entry")]
    fn release_of_unknown_entry_panics() {
        small_cache(2).release(1, 999);
    }
}
