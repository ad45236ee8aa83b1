//! The version stamp every cache of per-topology derived state is keyed
//! by, the one comparison that decides between serving an entry,
//! advancing it by a delta read, and rebuilding it, and the cache type
//! that stores entries under their stamps.

use parking_lot::Mutex;
use std::borrow::Borrow;
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

/// A cache of derived state, each entry stored under the [`DataStamp`]
/// it was derived from. [`StampedCache::read`] is the only way to learn
/// how an entry stands against the store, so every cache decides with
/// [`DataStamp::freshness`]; what a Stale or Cold entry is still good
/// for (a delta to absorb, a seed to search from) is the caller's
/// business.
pub(crate) struct StampedCache<K, V> {
    inner: Mutex<Entries<K, V>>,
}

struct Entries<K, V> {
    /// `(stamp, value, clock tick of the last Hit or put)` per key.
    map: HashMap<K, (DataStamp, V, u64)>,
    /// Entries kept at most; least recently used go first. `None` is
    /// unbounded, `Some(0)` stores nothing.
    capacity: Option<usize>,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> StampedCache<K, V> {
    pub fn new(capacity: Option<usize>) -> Self {
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
    pub fn read<Q, R>(
        &self,
        key: &Q,
        now: &DataStamp,
        read: impl FnOnce(&V) -> R,
    ) -> Option<(Freshness, R)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
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

    /// Takes the entry under `key` out, with the stamp it was put under.
    pub fn take<Q>(&self, key: &Q) -> Option<(DataStamp, V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (stamp, value, _) = self.inner.lock().map.remove(key)?;
        Some((stamp, value))
    }

    /// Stores `value` as derived from the data at `stamp`, replacing any
    /// entry under `key`. Returns how many entries the bound evicted.
    pub fn put(&self, key: K, stamp: DataStamp, value: V) -> u64 {
        let mut inner = self.inner.lock();
        if inner.capacity == Some(0) {
            return 0;
        }
        inner.clock += 1;
        let tick = inner.clock;
        inner.map.insert(key, (stamp, value, tick));
        let mut evicted = 0;
        while inner.capacity.is_some_and(|bound| inner.map.len() > bound) {
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
        let cache = StampedCache::new(Some(8));
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
        assert_eq!(cache.take(&key("u", 1)), Some((ENTRY, 4)));
        assert_eq!(cache.take(&key("u", 1)), None);
        cache.put(key("u", 1), ENTRY, 4);
        cache.forget(None, |(topology, _)| topology);
        assert_eq!(read(&cache, &key("u", 1), &ENTRY), None);
    }

    #[test]
    fn the_bound_evicts_the_least_recently_used_entry() {
        let cache = StampedCache::new(Some(2));
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
        // Zero capacity disables caching entirely; no bound never evicts.
        let off = StampedCache::new(Some(0));
        assert_eq!(off.put(key("a", 0), ENTRY, 1), 0);
        assert_eq!(read(&off, &key("a", 0), &ENTRY), None);
        let unbounded = StampedCache::new(None);
        for request in 0..64 {
            assert_eq!(unbounded.put(key("a", request), ENTRY, 1), 0);
        }
        assert_eq!(
            read(&unbounded, &key("a", 0), &ENTRY),
            Some((Freshness::Hit, 1))
        );
    }
}
