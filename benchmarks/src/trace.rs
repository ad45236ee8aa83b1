//! The harness's own span recorder.
//!
//! The benchmark drives the crates from outside, so its trace is taken
//! outside too: one span (name, start, end, parent, round) around every
//! call the harness makes into a layer. Spans stay in memory and are
//! written out once, at exit; [`fold`] turns them into per-name self
//! time (span − children). Span names are `layer.operation`, the layer
//! being the crate the call enters.
//!
//! The harness is single-threaded, so the open-span stack is a plain
//! `Vec` and a disabled tracer costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Ids are 1-based positions in the span list;
/// `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The measured round this span belongs to; `None` for the probes
    /// that run between rounds.
    pub round: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: None,
        }
    }

    /// Switches recording on or off between rounds (the traced pass
    /// alternates, so tracing overhead is a paired comparison).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle inside an open span");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` gets the tracer back to open child
    /// spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            round: self.round,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] for a call that opens no child spans.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Runs one measured round as a `round` span; every span opened
    /// inside carries the round id.
    pub fn round<R>(&mut self, round: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.round = Some(round);
        let out = self.span("round", f);
        self.round = None;
        out
    }

    /// Durations (ms) of the probe spans called `name` — those recorded
    /// between rounds — in recording order. A workload's round may make
    /// the same call under the same name; a per-layer metric is the
    /// probe's, measured the same way on every workload.
    pub fn probe_durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.round.is_none() && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, round, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Folds a trace by span name. Parents are reconstructed from the ids
/// alone — the fold must work on a span file read back from disk, in
/// any order.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration_ns();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        entry.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        round: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            round,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // round [0,100] → api.handle [10,70] → core.evaluate [20,50];
        // plus a second child of the round, tsdb.ingest [70,90].
        let spans = vec![
            span(1, 0, Some(0), "round", 0, 100),
            span(2, 1, Some(0), "api.handle", 10, 70),
            span(3, 2, Some(0), "core.evaluate", 20, 50),
            span(4, 1, Some(0), "tsdb.ingest", 70, 90),
        ];
        let folded = fold(&spans);
        assert_eq!(
            folded["round"],
            Folded {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(folded["api.handle"].self_ns, 30);
        assert_eq!(folded["core.evaluate"].self_ns, 30);
        assert_eq!(folded["tsdb.ingest"].self_ns, 20);
        // Self times partition the root: nothing is counted twice.
        let total_self: u64 = folded.values().map(|f| f.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn parents_are_rebuilt_from_ids_in_any_order() {
        let mut spans = vec![
            span(1, 0, Some(3), "round", 0, 50),
            span(2, 1, Some(3), "api.handle", 5, 25),
            span(3, 1, Some(3), "api.handle", 25, 45),
            span(4, 0, None, "core.probe", 60, 80),
        ];
        let forward = fold(&spans);
        spans.reverse();
        assert_eq!(fold(&spans), forward);
        assert_eq!(forward["round"].self_ns, 10);
        assert_eq!(
            forward["api.handle"],
            Folded {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        // A probe between rounds is its own root.
        assert_eq!(forward["core.probe"].self_ns, 20);
    }

    #[test]
    fn recorder_nests_spans_and_tags_rounds() {
        let mut tracer = Tracer::new(true);
        tracer.round(7, |t| {
            t.span("api.handle", |t| t.leaf("core.evaluate", || ()));
            t.leaf("tsdb.ingest", || ());
        });
        tracer.leaf("core.probe", || ());
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "round",
                "api.handle",
                "core.evaluate",
                "tsdb.ingest",
                "core.probe"
            ]
        );
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 2, 1, 0]);
        assert!(spans[..4].iter().all(|s| s.round == Some(7)));
        assert_eq!(spans[4].round, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Children end before their parent does.
        assert!(spans[2].end_ns <= spans[1].end_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_call() {
        let mut tracer = Tracer::new(false);
        let out = tracer.round(0, |t| t.leaf("api.handle", || 42));
        assert_eq!(out, 42);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.leaf("api.handle", || ());
        tracer.round(1, |t| t.leaf("api.handle", || ()));
        // Only the call outside a round is a probe.
        assert_eq!(tracer.probe_durations_ms("api.handle").len(), 1);
    }

    #[test]
    fn span_file_has_one_object_per_line() {
        let mut tracer = Tracer::new(true);
        tracer.round(1, |t| t.leaf("api.handle", || ()));
        tracer.leaf("core.probe", || ());
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\":1,\"parent\":0,\"round\":1,\"name\":\"round\""));
        assert!(lines[1].starts_with("{\"id\":2,\"parent\":1,\"round\":1,\"name\":\"api.handle\""));
        assert!(lines[2].starts_with("{\"id\":3,\"parent\":0,\"round\":null,"));
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(layer_of("heron-sim.event_day"), "heron-sim");
        assert_eq!(layer_of("round"), "round");
    }
}
