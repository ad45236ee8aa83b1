//! `whatif_hit`: what-if requests over loopback HTTP against a service
//! whose every cache is a Hit.
//!
//! Why: with no ingest during the run, only the front door works —
//! `api::http` accept/parse/JSON, per-request obs accounting, the core
//! cache probe, model predict, graph. tsdb, forecast, planner and
//! heron-sim do nothing, so an optimisation there must predict "no
//! change" here.

use super::{Ops, Shape, Workload};
use crate::fixture::{day_window, reference_day, Hosted, Rng, Size, DAY_MINUTES};
use crate::trace::Tracer;
use caladrius_api::{ApiService, HttpClient, HttpServer};
use caladrius_core::service::SourceRateSpec;
use caladrius_fleet::StagedWorkload;
use std::collections::HashMap;
use std::sync::Arc;

const TOPOLOGIES: usize = 4;
const HISTORY_DAYS: usize = 7;
/// Distinct pre-generated requests, cycled.
const REQUESTS: usize = 256;
/// Every what-if asks about the same offered load; the proposals vary.
const SOURCE_RATE: f64 = 60.0e6;
const PACKING_CONTAINERS: usize = 13;

/// What a response must say, taken from direct library calls at setup.
enum Expect {
    Evaluate {
        sink_output_rate: f64,
        risk: String,
        saturation_rate: Option<f64>,
    },
    Packing {
        total_instances: usize,
    },
}

struct Call {
    post: bool,
    target: String,
    body: String,
    expect: Expect,
}

pub struct WhatIfHit {
    // First field, so the accept loop stops before the service goes.
    _server: HttpServer,
    staged: StagedWorkload,
    hosted: Hosted,
    client: HttpClient,
    calls: Vec<Call>,
    cursor: usize,
}

impl Workload for WhatIfHit {
    const NAME: &'static str = "whatif_hit";
    const RECIPE: &'static [(&'static str, f64)] = &[
        ("api.http_transport_ms", 1.0),
        ("api.handle_evaluate_us", 1.0),
    ];
    type Output = (usize, std::io::Result<(u16, String)>);

    fn setup(seed: u64) -> Self {
        let staged = reference_day(Size::Medium, seed);
        let hosted = Hosted::new(
            &staged,
            Size::Medium,
            TOPOLOGIES,
            HISTORY_DAYS * DAY_MINUTES,
            day_window(),
        );
        let caladrius = &hosted.caladrius;
        for replica in &hosted.replicas {
            caladrius
                .fitted_models(&replica.name)
                .expect("the replayed day fits");
        }

        // 7 of 8 requests are what-if evaluations of a seeded proposal,
        // 1 of 8 asks the graph tier about a proposed packing.
        let mut rng = Rng::new(seed);
        let base = Size::Medium.parallelism();
        let calls = (0..REQUESTS)
            .map(|slot| {
                let topology = &hosted.replicas[rng.range(0, TOPOLOGIES as u32 - 1) as usize].name;
                let splitter = rng.range(6, 12);
                let counter = rng.range(8, 16);
                let proposal = HashMap::from([
                    ("splitter".to_string(), splitter),
                    ("counter".to_string(), counter),
                ]);
                if slot % 8 == 7 {
                    let overview = caladrius
                        .packing_overview(topology, &proposal, PACKING_CONTAINERS)
                        .expect("packing overview");
                    assert_eq!(
                        overview.total_instances,
                        (base.spout + splitter + counter) as usize
                    );
                    Call {
                        post: false,
                        target: format!(
                            "/model/packing/heron/{topology}?containers={PACKING_CONTAINERS}\
                             &parallelism=splitter:{splitter},counter:{counter}"
                        ),
                        body: String::new(),
                        expect: Expect::Packing {
                            total_instances: overview.total_instances,
                        },
                    }
                } else {
                    let report = caladrius
                        .evaluate(topology, &proposal, &SourceRateSpec::Fixed(SOURCE_RATE))
                        .expect("what-if evaluation");
                    Call {
                        post: true,
                        target: format!("/model/topology/heron/{topology}"),
                        body: format!(
                            "{{\"parallelism\":{{\"splitter\":{splitter},\"counter\":{counter}}},\
                             \"source_rate\":{SOURCE_RATE}}}"
                        ),
                        expect: Expect::Evaluate {
                            sink_output_rate: report.prediction.sink_output_rate,
                            risk: format!("{:?}", report.risk).to_lowercase(),
                            saturation_rate: report.saturation_rate,
                        },
                    }
                }
            })
            .collect();

        let api = ApiService::new(Arc::clone(caladrius), 1);
        let server =
            HttpServer::serve("127.0.0.1:0", 2, api.handler()).expect("bind a loopback port");
        let client = HttpClient::new(server.local_addr());
        WhatIfHit {
            staged,
            hosted,
            _server: server,
            client,
            calls,
            cursor: 0,
        }
    }

    fn round(&mut self, tracer: &mut Tracer) -> Self::Output {
        let idx = self.cursor % self.calls.len();
        self.cursor += 1;
        let call = &self.calls[idx];
        let client = &self.client;
        let reply = tracer.leaf("api.http_request", || {
            if call.post {
                client.post(&call.target, &call.body)
            } else {
                client.get(&call.target)
            }
        });
        (idx, reply)
    }

    fn check(&mut self, (idx, reply): Self::Output) -> Ops {
        let ok = match reply {
            Ok((200, body)) => caladrius_api::json::parse(&body)
                .is_ok_and(|json| matches_expectation(&json, &self.calls[idx].expect)),
            _ => false,
        };
        Ops::one(ok)
    }

    fn verify(&mut self) -> Ops {
        // No ingest ran, so the measured service must have served every
        // request from the models it fitted at setup.
        let stats = self.hosted.caladrius.model_cache_stats();
        Ops::one(stats.full_fits > 0 && stats.incremental_fits == 0 && stats.hits > 0)
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            size: Size::Medium,
            topologies: TOPOLOGIES,
            config: self.hosted.config().clone(),
            history_minutes: HISTORY_DAYS * DAY_MINUTES,
            staged: &self.staged,
        }
    }
}

fn matches_expectation(json: &caladrius_api::Value, expect: &Expect) -> bool {
    let number = |key: &str| json.get(key).and_then(caladrius_api::Value::as_f64);
    match expect {
        Expect::Evaluate {
            sink_output_rate,
            risk,
            saturation_rate,
        } => {
            number("sink_output_rate") == Some(*sink_output_rate)
                && json
                    .get("backpressure_risk")
                    .and_then(caladrius_api::Value::as_str)
                    == Some(risk)
                && number("saturation_rate") == *saturation_rate
        }
        Expect::Packing { total_instances } => {
            number("total_instances") == Some(*total_instances as f64)
        }
    }
}
