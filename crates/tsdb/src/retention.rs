//! Retention policies: bounding how much history the store keeps.

use crate::db::MetricsDb;
use crate::error::Result;

/// How long samples are kept relative to the newest data in the store.
///
/// Production metric stores enforce retention by wall clock; the simulator's
/// clock is logical, so the policy is expressed relative to the maximum
/// observed timestamp instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Samples older than `max_ts - window_ms` are dropped.
    pub window_ms: i64,
}

impl RetentionPolicy {
    /// Keeps `hours` hours of history.
    pub fn hours(hours: i64) -> Self {
        Self {
            window_ms: hours * 3_600_000,
        }
    }

    /// Keeps `days` days of history.
    pub fn days(days: i64) -> Self {
        Self {
            window_ms: days * 86_400_000,
        }
    }

    /// Applies the policy to `db`; returns the number of dropped samples.
    pub fn enforce(&self, db: &MetricsDb) -> Result<usize> {
        let mut max_ts = None;
        for name in db.metric_names() {
            if let Some(ts) = db.latest_ts(&name, &[]) {
                max_ts = Some(max_ts.map_or(ts, |m: i64| m.max(ts)));
            }
        }
        match max_ts {
            Some(max) => db.truncate_before(max - self.window_ms),
            None => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesKey;

    #[test]
    fn policy_constructors() {
        assert_eq!(RetentionPolicy::hours(2).window_ms, 7_200_000);
        assert_eq!(RetentionPolicy::days(1).window_ms, 86_400_000);
    }

    #[test]
    fn enforce_drops_old_samples_relative_to_newest() {
        let db = MetricsDb::new();
        let key = SeriesKey::new("m");
        let handle = db.register(&key);
        for m in 0..180i64 {
            db.append(&handle, m * 60_000, m as f64);
        }
        // Newest ts = 179 min; 1 hour retention keeps [119 min, 179 min].
        let dropped = RetentionPolicy::hours(1).enforce(&db).unwrap();
        assert_eq!(dropped, 119);
        let kept = db.read(&key, 0, i64::MAX).unwrap();
        assert_eq!(kept.first().unwrap().ts, 119 * 60_000);
        assert_eq!(kept.len(), 61);
    }

    #[test]
    fn enforce_on_empty_db_is_noop() {
        let db = MetricsDb::new();
        assert_eq!(RetentionPolicy::hours(1).enforce(&db).unwrap(), 0);
    }

    #[test]
    fn enforce_spans_multiple_metrics() {
        let db = MetricsDb::new();
        db.append(&db.register(&SeriesKey::new("old")), 0, 1.0);
        db.append(&db.register(&SeriesKey::new("new")), 10 * 86_400_000, 1.0);
        let dropped = RetentionPolicy::days(1).enforce(&db).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(db.sample_count(), 1);
    }
}
