//! Configuration: a small YAML-subset parser and the typed Caladrius
//! config it feeds.
//!
//! The paper configures model implementations "through YAML files"
//! (§III-B). The offline dependency allow-list has no YAML crate, so this
//! module implements the subset Caladrius needs: nested maps by two-space
//! indentation, `- ` item lists, scalars and `#` comments.

use crate::error::{CoreError, Result};
use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Key → value mapping.
    Map(BTreeMap<String, Value>),
    /// Ordered list.
    List(Vec<Value>),
    /// Leaf scalar (kept as the raw string; use the typed getters).
    Scalar(String),
}

impl Value {
    /// String view of a scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Float view of a scalar.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_str()?.parse().ok()
    }

    /// Integer view of a scalar.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_str()?.parse().ok()
    }

    /// Boolean view (`true`/`false`, `yes`/`no`, `on`/`off`).
    pub fn as_bool(&self) -> Option<bool> {
        match self.as_str()? {
            "true" | "yes" | "on" => Some(true),
            "false" | "no" | "off" => Some(false),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Dotted-path lookup: `get("caladrius.traffic.models")`.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.as_map()?.get(part)?;
        }
        Some(cur)
    }
}

/// Parses a YAML-subset document into a [`Value`].
pub fn parse(text: &str) -> Result<Value> {
    // Strip comments / blank lines, keep (indent, content, line_no).
    let mut lines: Vec<(usize, String, usize)> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let without_comment = match raw.find('#') {
            Some(idx) if !raw[..idx].contains('"') => &raw[..idx],
            _ => raw,
        };
        let trimmed = without_comment.trim_end();
        if trimmed.trim().is_empty() {
            continue;
        }
        let indent = trimmed.len() - trimmed.trim_start().len();
        if trimmed.trim_start().starts_with('\t') || trimmed[..indent].contains('\t') {
            return Err(CoreError::Config(format!(
                "line {}: tabs are not allowed",
                no + 1
            )));
        }
        lines.push((indent, trimmed.trim_start().to_string(), no + 1));
    }
    let (value, consumed) = parse_block(&lines, 0, 0)?;
    if consumed != lines.len() {
        let (_, _, no) = lines[consumed];
        return Err(CoreError::Config(format!(
            "line {no}: unexpected indentation"
        )));
    }
    Ok(value)
}

/// Parses a block of lines at `indent`, starting at `start`. Returns the
/// value and the number of lines consumed.
fn parse_block(
    lines: &[(usize, String, usize)],
    start: usize,
    indent: usize,
) -> Result<(Value, usize)> {
    if start >= lines.len() {
        return Ok((Value::Map(BTreeMap::new()), 0));
    }
    let is_list = lines[start].1.starts_with("- ") || lines[start].1 == "-";
    let mut i = start;
    if is_list {
        let mut items = Vec::new();
        while i < lines.len()
            && lines[i].0 == indent
            && (lines[i].1.starts_with("- ") || lines[i].1 == "-")
        {
            let content = lines[i].1.trim_start_matches('-').trim_start();
            if content.is_empty() {
                // Nested structure under the dash.
                let (value, consumed) =
                    parse_block(lines, i + 1, next_indent(lines, i + 1, indent)?)?;
                items.push(value);
                i += 1 + consumed;
            } else {
                items.push(Value::Scalar(content.to_string()));
                i += 1;
            }
        }
        return Ok((Value::List(items), i - start));
    }

    let mut map = BTreeMap::new();
    while i < lines.len() && lines[i].0 == indent {
        let (_, line, no) = &lines[i];
        if line.starts_with("- ") {
            return Err(CoreError::Config(format!(
                "line {no}: list item mixed into a mapping"
            )));
        }
        let Some(colon) = line.find(':') else {
            return Err(CoreError::Config(format!(
                "line {no}: expected `key: value`"
            )));
        };
        let key = line[..colon].trim().to_string();
        if key.is_empty() {
            return Err(CoreError::Config(format!("line {no}: empty key")));
        }
        let rest = line[colon + 1..].trim();
        if rest.is_empty() {
            // Nested block (map or list) on the following lines.
            let child_indent = next_indent(lines, i + 1, indent)?;
            if child_indent <= indent && i + 1 < lines.len() {
                // `key:` with nothing nested — empty map.
                map.insert(key, Value::Map(BTreeMap::new()));
                i += 1;
                continue;
            }
            let (value, consumed) = parse_block(lines, i + 1, child_indent)?;
            map.insert(key, value);
            i += 1 + consumed;
        } else {
            map.insert(key, Value::Scalar(rest.trim_matches('"').to_string()));
            i += 1;
        }
    }
    Ok((Value::Map(map), i - start))
}

fn next_indent(lines: &[(usize, String, usize)], at: usize, parent: usize) -> Result<usize> {
    match lines.get(at) {
        Some((indent, _, _)) if *indent > parent => Ok(*indent),
        _ => Ok(parent), // signals "no nested block"
    }
}

/// Typed Caladrius service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CaladriusConfig {
    /// Traffic models the traffic endpoint runs by default.
    pub traffic_models: Vec<String>,
    /// Performance models the performance endpoint runs by default.
    pub performance_models: Vec<String>,
    /// Historic window (minutes) used to fit models.
    pub source_window_minutes: u32,
    /// Forecast horizon (minutes).
    pub forecast_horizon_minutes: u32,
    /// Bound on cached capacity-plan timelines
    /// ([`crate::service::Caladrius::plan_capacity`]); least-recently-used
    /// entries are evicted past it, and 0 disables the cache.
    pub plan_cache_capacity: usize,
}

impl Default for CaladriusConfig {
    fn default() -> Self {
        Self {
            traffic_models: vec!["prophet".into(), "stats_summary".into()],
            performance_models: vec![
                "topology_throughput".into(),
                "backpressure_risk".into(),
                "latency_headroom".into(),
            ],
            source_window_minutes: 240,
            forecast_horizon_minutes: 60,
            plan_cache_capacity: 4096,
        }
    }
}

impl CaladriusConfig {
    /// Loads the config from YAML-subset text; missing keys fall back to
    /// defaults.
    pub fn from_text(text: &str) -> Result<Self> {
        let root = parse(text)?;
        let mut config = CaladriusConfig::default();
        let string_list = |v: &Value| -> Option<Vec<String>> {
            v.as_list().map(|items| {
                items
                    .iter()
                    .filter_map(|i| i.as_str().map(String::from))
                    .collect()
            })
        };
        if let Some(v) = root.get("traffic.models").and_then(string_list) {
            config.traffic_models = v;
        }
        if let Some(v) = root.get("performance.models").and_then(string_list) {
            config.performance_models = v;
        }
        if let Some(v) = root
            .get("traffic.source_window_minutes")
            .and_then(Value::as_i64)
        {
            if v <= 0 {
                return Err(CoreError::Config(
                    "source_window_minutes must be positive".into(),
                ));
            }
            config.source_window_minutes = v as u32;
        }
        if let Some(v) = root
            .get("traffic.forecast_horizon_minutes")
            .and_then(Value::as_i64)
        {
            if v <= 0 {
                return Err(CoreError::Config(
                    "forecast_horizon_minutes must be positive".into(),
                ));
            }
            config.forecast_horizon_minutes = v as u32;
        }
        if let Some(v) = root
            .get("planner.plan_cache_capacity")
            .and_then(Value::as_i64)
        {
            if v < 0 {
                return Err(CoreError::Config(
                    "plan_cache_capacity must be non-negative".into(),
                ));
            }
            config.plan_cache_capacity = v as usize;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Caladrius service configuration
traffic:
  models:
    - prophet
    - stats_summary
  source_window_minutes: 120
  forecast_horizon_minutes: 30
performance:
  models:
    - topology_throughput
limits:
  max_parallelism: 64
  cpu_margin: 0.25
flags:
  enabled: yes
  debug: off
";

    #[test]
    fn parses_nested_maps_and_lists() {
        let v = parse(SAMPLE).unwrap();
        assert_eq!(v.get("traffic.models").unwrap().as_list().unwrap().len(), 2);
        assert_eq!(
            v.get("traffic.source_window_minutes").unwrap().as_i64(),
            Some(120)
        );
        assert_eq!(v.get("limits.cpu_margin").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("flags.enabled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("flags.debug").unwrap().as_bool(), Some(false));
        assert!(v.get("missing.path").is_none());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let v = parse("a: 1\n\n# comment\nb: 2 # trailing\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn quoted_scalars_unquoted() {
        let v = parse("name: \"hello world\"\n").unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("hello world"));
    }

    #[test]
    fn top_level_list() {
        let v = parse("- a\n- b\n- c\n").unwrap();
        let items = v.as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].as_str(), Some("c"));
    }

    #[test]
    fn empty_document_is_empty_map() {
        let v = parse("").unwrap();
        assert_eq!(v, Value::Map(BTreeMap::new()));
        let v = parse("# only comments\n").unwrap();
        assert!(v.as_map().unwrap().is_empty());
    }

    #[test]
    fn rejects_tabs_and_missing_colons() {
        assert!(matches!(parse("\tkey: 1\n"), Err(CoreError::Config(_))));
        assert!(matches!(
            parse("not a key value\n"),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn typed_config_from_text() {
        let c = CaladriusConfig::from_text(SAMPLE).unwrap();
        assert_eq!(c.traffic_models, vec!["prophet", "stats_summary"]);
        assert_eq!(c.performance_models, vec!["topology_throughput"]);
        assert_eq!(c.source_window_minutes, 120);
        assert_eq!(c.forecast_horizon_minutes, 30);
    }

    #[test]
    fn typed_config_defaults() {
        let c = CaladriusConfig::from_text("").unwrap();
        assert_eq!(c, CaladriusConfig::default());
    }

    #[test]
    fn plan_cache_capacity_parses_and_validates() {
        let c = CaladriusConfig::from_text("planner:\n  plan_cache_capacity: 64\n").unwrap();
        assert_eq!(c.plan_cache_capacity, 64);
        assert!(CaladriusConfig::from_text("planner:\n  plan_cache_capacity: -1\n").is_err());
    }

    #[test]
    fn typed_config_validates_ranges() {
        assert!(CaladriusConfig::from_text("traffic:\n  source_window_minutes: 0\n").is_err());
        assert!(CaladriusConfig::from_text("traffic:\n  forecast_horizon_minutes: -5\n").is_err());
    }

    #[test]
    fn scalar_type_coercions() {
        let v = Value::Scalar("42".into());
        assert_eq!(v.as_i64(), Some(42));
        assert_eq!(v.as_f64(), Some(42.0));
        assert_eq!(v.as_bool(), None);
        assert!(Value::Scalar("x".into()).as_i64().is_none());
        assert!(Value::List(vec![]).as_str().is_none());
    }
}
