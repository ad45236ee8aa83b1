//! The version stamp every cache of per-topology derived state is keyed
//! by, and the one comparison that decides between serving an entry,
//! advancing it by a delta read, and rebuilding it.

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
pub(crate) enum Freshness {
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
}
