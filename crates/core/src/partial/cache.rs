//! The process-global cache of whole-page partial aggregate states,
//! content-addressed by page checksum, header statistics and function.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use etsqp_storage::page::Page;

use super::PartialState;
use crate::expr::AggFunc;

/// Content-addressed key of one cached whole-page partial: the page's
/// FNV checksum plus every exact header statistic and the aggregate
/// function. Two pages colliding on the full key while differing in
/// content would need an FNV-32 collision *and* identical header
/// statistics; the hit path still re-verifies the page checksum before
/// trusting the entry (the cache-obligation invariant), so a stale or
/// colliding entry can never silently stand in for corrupted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Page FNV checksum ([`Page::checksum`]).
    pub checksum: u32,
    /// Header tuple count.
    pub count: u32,
    /// Header first timestamp.
    pub first_ts: i64,
    /// Header last timestamp.
    pub last_ts: i64,
    /// Header minimum value.
    pub min_value: i64,
    /// Header maximum value.
    pub max_value: i64,
    /// The aggregate the partial was computed for.
    pub func: AggFunc,
}

impl CacheKey {
    /// The key for `page`'s whole-page partial under `func`.
    pub fn for_page(page: &Page, func: AggFunc) -> CacheKey {
        CacheKey {
            checksum: page.checksum,
            count: page.header.count,
            first_ts: page.header.first_ts,
            last_ts: page.header.last_ts,
            min_value: page.header.min_value,
            max_value: page.header.max_value,
            func,
        }
    }
}

/// Bounded FIFO cache state behind the [`PartialCache`] mutex.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, PartialState>,
    order: VecDeque<CacheKey>,
    bytes: usize,
}

/// Maximum cached entries (FIFO-evicted beyond this).
const CACHE_MAX_ENTRIES: usize = 8192;

/// Approximate byte budget for cached states (digests dominate).
const CACHE_MAX_BYTES: usize = 8 << 20;

/// The process-global cache of whole-page partial aggregate states,
/// keyed by [`CacheKey`] (content-addressed — safe to share across
/// stores and queries). Bounded by entry count and approximate bytes
/// with FIFO eviction; `EXPLAIN` renders the static `[cacheable]`
/// eligibility and [`crate::exec::ExecStats`] counts the live
/// hits/misses (EXPLAIN text must stay a pure function of the plan).
#[derive(Debug, Default)]
pub struct PartialCache {
    inner: Mutex<CacheInner>,
}

impl PartialCache {
    /// The process-global instance.
    pub fn global() -> &'static PartialCache {
        static CACHE: OnceLock<PartialCache> = OnceLock::new();
        CACHE.get_or_init(PartialCache::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding the lock cannot corrupt the FIFO
        // invariants (no partial mutations escape), so poisoning is
        // recovered instead of propagated.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up a cached whole-page partial.
    pub fn get(&self, key: &CacheKey) -> Option<PartialState> {
        self.lock().map.get(key).cloned()
    }

    /// Inserts a whole-page partial, evicting FIFO past the bounds.
    /// The digest (if any) is compressed first so cached entries hold
    /// their minimal form.
    pub fn insert(&self, key: CacheKey, mut state: PartialState) {
        if let Some(d) = &mut state.digest {
            d.compress();
        }
        let bytes = state.approx_bytes();
        let mut inner = self.lock();
        if inner.map.insert(key, state).is_none() {
            inner.order.push_back(key);
            inner.bytes = inner.bytes.saturating_add(bytes);
        }
        while inner.order.len() > CACHE_MAX_ENTRIES || inner.bytes > CACHE_MAX_BYTES {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&old) {
                inner.bytes = inner.bytes.saturating_sub(evicted.approx_bytes());
            }
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (benchmark cold-start; tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_bounds_and_clear() {
        let cache = PartialCache::default();
        let mut key = CacheKey {
            checksum: 0,
            count: 1,
            first_ts: 0,
            last_ts: 0,
            min_value: 0,
            max_value: 0,
            func: AggFunc::Sum,
        };
        for i in 0..(CACHE_MAX_ENTRIES + 10) as u32 {
            key.checksum = i;
            cache.insert(key, PartialState::default());
        }
        assert!(cache.len() <= CACHE_MAX_ENTRIES);
        cache.clear();
        assert!(cache.is_empty());
    }
}
