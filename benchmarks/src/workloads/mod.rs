//! The four workloads. Each is one closed loop with one client: the
//! next round starts only after the previous one completed, so with a
//! single load-generating thread nothing queues and a faster layer
//! saves exactly its share of the round.

pub mod fleet_drift;
pub mod minute_round;
pub mod onboard_replay;
pub mod whatif_hit;

use crate::fixture::Size;
use crate::trace::Tracer;
use caladrius_api::{Request, Response};
use caladrius_core::config::CaladriusConfig;
use caladrius_fleet::StagedWorkload;
use std::collections::BTreeMap;

/// Operations attempted and failed. Anything refused, non-2xx, a failed
/// job, or a failed output check is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// One operation that passed iff `ok`.
    pub fn one(ok: bool) -> Ops {
        Ops {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl std::iter::Sum for Ops {
    fn sum<I: Iterator<Item = Ops>>(iter: I) -> Ops {
        let mut total = Ops::default();
        for ops in iter {
            total += ops;
        }
        total
    }
}

/// What the layer probes of the traced pass are sized after: the probe
/// fixture hosts the same topology shape, training window and history
/// depth as the workload, and as many topologies as take turns in one
/// round (a refit that alternates between topologies runs on colder
/// caches than one repeated on the same store), so probe medians and
/// round times are comparable.
pub struct Shape<'a> {
    pub size: Size,
    pub topologies: usize,
    pub config: CaladriusConfig,
    pub history_minutes: usize,
    pub staged: &'a StagedWorkload,
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// How a round decomposes into probed layer calls: `(per-layer
    /// metric, calls per round)`. The traced pass reports the share of
    /// the round median these do *not* explain.
    const RECIPE: &'static [(&'static str, f64)];

    /// What one round hands to [`Workload::check`].
    type Output;

    /// Everything from process start to "service ready": staging,
    /// history feed, cold fits and plans.
    fn setup(seed: u64) -> Self;

    /// One closed-loop round — the timed region. Calls into a layer are
    /// spans of `tracer`.
    fn round(&mut self, tracer: &mut Tracer) -> Self::Output;

    /// Checks a round's outputs, outside the timed region.
    fn check(&mut self, output: Self::Output) -> Ops;

    /// End-of-run output checks, for workloads that have any.
    fn verify(&mut self) -> Ops {
        Ops::default()
    }

    fn shape(&self) -> Shape<'_>;
}

/// A hand-built request, as the in-process front doors take it.
pub fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query) = caladrius_api::http::parse_target(target);
    Request {
        method: method.to_string(),
        path,
        query,
        headers: BTreeMap::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// The JSON body of a response; `None` when it is not JSON.
pub fn body_json(response: &Response) -> Option<caladrius_api::Value> {
    caladrius_api::json::parse(std::str::from_utf8(&response.body).ok()?).ok()
}

/// Polls a job to completion. `JobRunner::wait` sleeps 2 ms between
/// polls, which would quantise every plan latency; this polls every
/// 50 µs instead.
pub fn poll_job(jobs: &caladrius_api::JobRunner, id: u64) -> Option<caladrius_api::jobs::JobState> {
    loop {
        match jobs.state(id) {
            Some(caladrius_api::jobs::JobState::Pending) => {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            other => return other,
        }
    }
}

/// The job id of a `202 Accepted` envelope.
pub fn accepted_job_id(response: &Response) -> Option<u64> {
    if response.status != 202 {
        return None;
    }
    Some(body_json(response)?.get("job_id")?.as_f64()? as u64)
}
