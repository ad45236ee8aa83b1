//! The version stamp all per-topology derived state is kept under (the
//! training windows with their models and forecasts, and the plans), the
//! one comparison that decides between serving an entry, advancing it by
//! a delta read, and rebuilding it, and the bounded cache the plans are
//! stored in under their stamps.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;

/// The three versions anything derived from a topology's metrics
/// depends on:
///
/// * `watermark` — the store's newest minute
///   ([`crate::providers::metrics::MetricsProvider::latest_minute`]);
///   any newly ingested minute moves it.
/// * `plan_version` — [`crate::providers::tracker::TopologyTracker::last_updated`];
///   packing-plan or parallelism changes bump it.
/// * `truncation_gen` — the store's count of truncations that dropped
///   samples (`None` when the provider cannot tell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DataStamp {
    pub watermark: i64,
    pub plan_version: u64,
    pub truncation_gen: Option<u64>,
}

/// How a cached entry stands against the store's current stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Nothing moved: serve the entry as it is.
    Hit,
    /// Only the watermark advanced — same plan, nothing truncated, time
    /// moving forwards — so reading `(entry.watermark, now.watermark]`
    /// brings the entry up to date.
    Stale,
    /// Anything else: rebuild from a full read.
    Cold,
}

impl DataStamp {
    /// Freshness of an entry stamped `self` now that the store reads
    /// `now`.
    pub fn freshness(&self, now: &DataStamp) -> Freshness {
        if self == now {
            Freshness::Hit
        } else if self.plan_version == now.plan_version
            && self.truncation_gen == now.truncation_gen
            && self.watermark < now.watermark
        {
            Freshness::Stale
        } else {
            Freshness::Cold
        }
    }
}

/// A least-recently-used bounded cache of derived state, each entry
/// stored under the [`DataStamp`] it was derived from. [`StampedCache::read`]
/// is the only way to learn how an entry stands against the store, so
/// the cache decides with [`DataStamp::freshness`]; what a Stale or Cold
/// entry is still good for (a seed to search from) is the caller's
/// business.
pub(crate) struct StampedCache<K, V> {
    inner: Mutex<Entries<K, V>>,
}

struct Entries<K, V> {
    /// `(stamp, value, clock tick of the last Hit or put)` per key.
    map: HashMap<K, (DataStamp, V, u64)>,
    /// Entries kept at most; least recently used go first. Zero stores
    /// nothing.
    capacity: usize,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> StampedCache<K, V> {
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Entries {
                map: HashMap::new(),
                capacity,
                clock: 0,
            }),
        }
    }

    /// How the entry under `key` stands against `now`, with what `read`
    /// makes of it under the lock; `None` when there is no entry. The
    /// entry stays where it is; a Hit marks it recently used.
    pub fn read<R>(
        &self,
        key: &K,
        now: &DataStamp,
        read: impl FnOnce(&V) -> R,
    ) -> Option<(Freshness, R)> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let tick = inner.clock;
        let (stamp, value, used) = inner.map.get_mut(key)?;
        let freshness = stamp.freshness(now);
        if freshness == Freshness::Hit {
            *used = tick;
        }
        Some((freshness, read(value)))
    }

    /// Stores `value` as derived from the data at `stamp`, replacing any
    /// entry under `key`. Returns how many entries the bound evicted.
    pub fn put(&self, key: K, stamp: DataStamp, value: V) -> u64 {
        let mut inner = self.inner.lock();
        if inner.capacity == 0 {
            return 0;
        }
        inner.clock += 1;
        let tick = inner.clock;
        inner.map.insert(key, (stamp, value, tick));
        let mut evicted = 0;
        while inner.map.len() > inner.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(key, _)| key.clone())
                .expect("an over-capacity cache is non-empty");
            inner.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry whose key names `topology` (`topology_of` says
    /// which one a key names), or every entry with `None`.
    pub fn forget(&self, topology: Option<&str>, topology_of: impl Fn(&K) -> &str) {
        let mut inner = self.inner.lock();
        match topology {
            Some(name) => inner.map.retain(|key, _| topology_of(key) != name),
            None => inner.map.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY: DataStamp = DataStamp {
        watermark: 600_000,
        plan_version: 3,
        truncation_gen: Some(1),
    };

    #[test]
    fn only_a_forward_watermark_move_is_stale() {
        assert_eq!(ENTRY.freshness(&ENTRY), Freshness::Hit);
        let advanced = DataStamp {
            watermark: 660_000,
            ..ENTRY
        };
        assert_eq!(ENTRY.freshness(&advanced), Freshness::Stale);
        // Time moving backwards means the store was replaced.
        assert_eq!(advanced.freshness(&ENTRY), Freshness::Cold);
    }

    #[test]
    fn plan_or_truncation_changes_are_cold_even_at_an_unchanged_watermark() {
        for now in [
            DataStamp {
                plan_version: 4,
                ..ENTRY
            },
            DataStamp {
                truncation_gen: Some(2),
                ..ENTRY
            },
            DataStamp {
                truncation_gen: None,
                ..ENTRY
            },
        ] {
            assert_eq!(ENTRY.freshness(&now), Freshness::Cold);
            let advanced = DataStamp {
                watermark: 660_000,
                ..now
            };
            assert_eq!(ENTRY.freshness(&advanced), Freshness::Cold);
        }
    }

    fn key(topology: &str, request: u64) -> (String, u64) {
        (topology.to_string(), request)
    }

    fn read(
        cache: &StampedCache<(String, u64), u32>,
        key: &(String, u64),
        now: &DataStamp,
    ) -> Option<(Freshness, u32)> {
        cache.read(key, now, |value| *value)
    }

    #[test]
    fn a_read_is_a_hit_a_seed_or_nothing_and_leaves_the_entry() {
        let cache = StampedCache::new(8);
        assert_eq!(read(&cache, &key("t", 1), &ENTRY), None);
        cache.put(key("t", 1), ENTRY, 3);
        assert_eq!(
            read(&cache, &key("t", 1), &ENTRY),
            Some((Freshness::Hit, 3))
        );
        // The data moved, the plan was bumped, or the store truncated at
        // an unchanged watermark: no Hit, but the entry is there to seed
        // from.
        for (now, freshness) in [
            (
                DataStamp {
                    watermark: 660_000,
                    ..ENTRY
                },
                Freshness::Stale,
            ),
            (
                DataStamp {
                    plan_version: 4,
                    ..ENTRY
                },
                Freshness::Cold,
            ),
            (
                DataStamp {
                    truncation_gen: Some(2),
                    ..ENTRY
                },
                Freshness::Cold,
            ),
        ] {
            assert_eq!(read(&cache, &key("t", 1), &now), Some((freshness, 3)));
        }
        assert_eq!(
            read(&cache, &key("t", 1), &ENTRY),
            Some((Freshness::Hit, 3))
        );
        // A different request key is a different entry entirely.
        assert_eq!(read(&cache, &key("t", 2), &ENTRY), None);

        cache.put(key("u", 1), ENTRY, 4);
        cache.forget(Some("t"), |(topology, _)| topology);
        assert_eq!(read(&cache, &key("t", 1), &ENTRY), None);
        assert_eq!(
            read(&cache, &key("u", 1), &ENTRY),
            Some((Freshness::Hit, 4))
        );
        cache.forget(None, |(topology, _)| topology);
        assert_eq!(read(&cache, &key("u", 1), &ENTRY), None);
    }

    #[test]
    fn the_bound_evicts_the_least_recently_used_entry() {
        let cache = StampedCache::new(2);
        assert_eq!(cache.put(key("a", 0), ENTRY, 1), 0);
        assert_eq!(cache.put(key("b", 0), ENTRY, 2), 0);
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(
            read(&cache, &key("a", 0), &ENTRY),
            Some((Freshness::Hit, 1))
        );
        assert_eq!(cache.put(key("c", 0), ENTRY, 3), 1);
        assert_eq!(
            read(&cache, &key("a", 0), &ENTRY),
            Some((Freshness::Hit, 1))
        );
        assert_eq!(read(&cache, &key("b", 0), &ENTRY), None);
        assert_eq!(
            read(&cache, &key("c", 0), &ENTRY),
            Some((Freshness::Hit, 3))
        );
        // Zero capacity disables caching entirely.
        let off = StampedCache::new(0);
        assert_eq!(off.put(key("a", 0), ENTRY, 1), 0);
        assert_eq!(read(&off, &key("a", 0), &ENTRY), None);
    }
}
