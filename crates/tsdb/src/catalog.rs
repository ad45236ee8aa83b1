//! Series catalog: name → id resolution plus a tag inverted index.

use crate::query::TagFilter;
use crate::series::SeriesKey;
use std::collections::{BTreeSet, HashMap};

/// Opaque, dense identifier for a series within one [`crate::MetricsDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub(crate) u64);

impl SeriesId {
    /// Raw id value (useful for debugging / display).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Metadata index mapping [`SeriesKey`]s to [`SeriesId`]s and supporting
/// tag-filtered lookups via an inverted index, the way Cuckoo-style metric
/// stores answer `name{tag=value}` selectors.
#[derive(Debug, Default)]
pub struct Catalog {
    by_key: HashMap<SeriesKey, SeriesId>,
    keys: Vec<SeriesKey>,
    /// metric name -> ids
    by_name: HashMap<String, BTreeSet<SeriesId>>,
    /// (tag, value) -> ids
    by_tag: HashMap<(String, String), BTreeSet<SeriesId>>,
    /// tag -> ids that carry the tag at all (for Exists filters)
    by_tag_presence: HashMap<String, BTreeSet<SeriesId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns the id for `key`, registering it on first sight.
    pub fn ensure(&mut self, key: &SeriesKey) -> SeriesId {
        if let Some(id) = self.by_key.get(key) {
            return *id;
        }
        let id = SeriesId(self.keys.len() as u64);
        self.by_key.insert(key.clone(), id);
        self.keys.push(key.clone());
        self.by_name.entry(key.name.clone()).or_default().insert(id);
        for (tag, value) in &key.tags {
            self.by_tag
                .entry((tag.clone(), value.clone()))
                .or_default()
                .insert(id);
            self.by_tag_presence
                .entry(tag.clone())
                .or_default()
                .insert(id);
        }
        id
    }

    /// Looks a key up without registering.
    pub fn get(&self, key: &SeriesKey) -> Option<SeriesId> {
        self.by_key.get(key).copied()
    }

    /// Returns the key registered under `id`.
    pub fn key(&self, id: SeriesId) -> Option<&SeriesKey> {
        self.keys.get(id.0 as usize)
    }

    /// All ids registered under a metric name.
    pub fn ids_for_name(&self, name: &str) -> Vec<SeriesId> {
        self.by_name
            .get(name)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All distinct metric names.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Ids matching a metric name and every tag filter.
    ///
    /// Filters are intersected starting from the (usually small) name
    /// posting list, so the cost is proportional to the candidate set.
    pub fn select(&self, name: &str, filters: &[TagFilter]) -> Vec<SeriesId> {
        let Some(base) = self.by_name.get(name) else {
            return Vec::new();
        };
        let mut out: Vec<SeriesId> = base.iter().copied().collect();
        for filter in filters {
            out.retain(|id| self.matches(*id, filter));
            if out.is_empty() {
                break;
            }
        }
        out
    }

    fn matches(&self, id: SeriesId, filter: &TagFilter) -> bool {
        let key = &self.keys[id.0 as usize];
        match filter {
            TagFilter::Eq(tag, value) => key.tag(tag) == Some(value.as_str()),
            TagFilter::NotEq(tag, value) => key.tag(tag) != Some(value.as_str()),
            TagFilter::In(tag, values) => {
                key.tag(tag).is_some_and(|v| values.iter().any(|x| x == v))
            }
            TagFilter::Exists(tag) => key.tag(tag).is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for comp in ["splitter", "counter"] {
            for inst in 0..3 {
                c.ensure(
                    &SeriesKey::new("emit-count")
                        .with_tag("topology", "wc")
                        .with_tag("component", comp)
                        .with_tag("instance", inst.to_string()),
                );
            }
        }
        c.ensure(&SeriesKey::new("cpu-load").with_tag("topology", "wc"));
        c
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut c = Catalog::new();
        let k = SeriesKey::new("m").with_tag("a", "1");
        let id1 = c.ensure(&k);
        let id2 = c.ensure(&k);
        assert_eq!(id1, id2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.key(id1), Some(&k));
    }

    #[test]
    fn select_by_name_only() {
        let c = catalog();
        assert_eq!(c.select("emit-count", &[]).len(), 6);
        assert_eq!(c.select("cpu-load", &[]).len(), 1);
        assert!(c.select("missing", &[]).is_empty());
    }

    #[test]
    fn select_with_eq_filter() {
        let c = catalog();
        let ids = c.select("emit-count", &[TagFilter::eq("component", "splitter")]);
        assert_eq!(ids.len(), 3);
        for id in ids {
            assert_eq!(c.key(id).unwrap().tag("component"), Some("splitter"));
        }
    }

    #[test]
    fn select_with_combined_filters() {
        let c = catalog();
        let ids = c.select(
            "emit-count",
            &[
                TagFilter::eq("component", "counter"),
                TagFilter::eq("instance", "1"),
            ],
        );
        assert_eq!(ids.len(), 1);
    }

    #[test]
    fn select_not_eq_and_in() {
        let c = catalog();
        let ids = c.select("emit-count", &[TagFilter::not_eq("component", "counter")]);
        assert_eq!(ids.len(), 3);
        let ids = c.select("emit-count", &[TagFilter::is_in("instance", ["0", "2"])]);
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn select_exists() {
        let c = catalog();
        let ids = c.select("cpu-load", &[TagFilter::exists("instance")]);
        assert!(ids.is_empty());
        let ids = c.select("emit-count", &[TagFilter::exists("instance")]);
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn names_listing() {
        let c = catalog();
        assert_eq!(c.names(), vec!["cpu-load", "emit-count"]);
    }
}
