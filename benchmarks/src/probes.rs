//! The layer probes of the traced pass.
//!
//! The workload rounds only see the front doors. To say where inside a
//! round the time goes, the traced pass then calls each layer's public
//! functions directly, every call a span, on a **probe fixture** of the
//! workload's own shape (topology size, training window, history depth)
//! — never on the measured service, whose caches the next round relies
//! on. Stale and Hit probes go to a shadow `Caladrius` over the probe
//! stores, in the order the front door would call them; Cold probes go
//! to scratch services dropped afterwards.
//!
//! Rule: a timing metric `layer.operation_<unit>` is the median of the
//! spans named `layer.operation`, unless this file computes it otherwise
//! (differences, per-item shares).

use crate::catalogue::{ms_per, PER_LAYER};
use crate::fixture::{deployed, simulate_day, Hosted, MINUTE_MS};
use crate::planning::{search_inputs, TRAFFIC_MODEL};
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{fold, layer_of, Tracer};
use crate::workloads::fleet_drift::{field, partition, TenantFleet};
use crate::workloads::{accepted_job_id, poll_job, request, Shape};
use caladrius_api::jobs::JobState;
use caladrius_api::{ApiService, HttpClient, HttpServer, Value};
use caladrius_core::capacity::CapacityPlanRequest;
use caladrius_core::service::SourceRateSpec;
use caladrius_core::Caladrius;
use caladrius_exec::ExecPool;
use caladrius_fleet::{allocate_greedy, TopologyDemand};
use caladrius_forecast::prophet::Prophet;
use caladrius_forecast::stats::StatsSummaryModel;
use caladrius_forecast::{DataPoint, Forecaster};
use caladrius_planner::{plan_horizon, plan_horizon_warm, replay_timeline, ReplayConfig};
use caladrius_tsdb::{MetricBatch, MetricsDb, TagFilter};
use heron_sim::engine::{SimConfig, Simulation};
use heron_sim::metrics::{metric, tag};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PROBE_TENANTS: usize = 16;
const PROBE_DRIFT_TENANTS: usize = 2;
const WHATIF_RATE: f64 = 60.0e6;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    metrics: &'a mut Metrics,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn run(tracer: &mut Tracer, shape: &Shape<'_>, seed: u64, metrics: &mut Metrics) {
    let mut p = Probes { tracer, metrics };
    let mut hosted = p.feed(shape);
    let topology = hosted.replicas[0].name.clone();
    p.cold(&hosted, &topology);
    let shadow = Arc::new(hosted.shadow());
    p.stale_loop(&mut hosted, &shadow, shape);
    p.tsdb_reads(&hosted, &topology);
    let history = shadow.source_history(&topology).expect("source history");
    p.forecast(&history);
    p.planner(&hosted, &shadow, &topology, shape);
    p.simulator(shape, seed);
    let api = ApiService::new(Arc::clone(&shadow), 1);
    p.api(&mut hosted, &api, &topology, shape);
    p.fleet(shape);
    p.exec(&history);
    p.obs(&api);
    p.finish();
}

impl Probes<'_> {
    /// Median duration (ms) of the probe spans called `span`.
    fn p50_ms(&self, span: &str) -> f64 {
        median(&self.tracer.probe_durations_ms(span))
            .unwrap_or_else(|| panic!("no probe span called {span}"))
    }

    /// Feeds the probe fixture: the workload's topology count and
    /// history depth.
    fn feed(&mut self, shape: &Shape<'_>) -> Hosted {
        let mut hosted = Hosted::new(
            shape.staged,
            shape.size,
            shape.topologies,
            0,
            shape.config.clone(),
        );
        let mut batch = MetricBatch::new(0);
        let started = Instant::now();
        self.tracer.leaf("tsdb.feed", || {
            for i in 0..shape.topologies {
                for _ in 0..shape.history_minutes {
                    hosted.ingest_next(i, shape.staged, &mut batch);
                }
            }
        });
        let secs = started.elapsed().as_secs_f64();
        let db = hosted.replicas[0].metrics.db();
        self.metrics.set(
            "tsdb.ingest_samples_per_s",
            (db.sample_count() * shape.topologies) as f64 / secs,
            shape.history_minutes * shape.topologies,
        );
        self.metrics.set(
            "tsdb.bytes_per_sample",
            db.storage_bytes() as f64 / db.sample_count() as f64,
            db.sample_count(),
        );
        hosted
    }

    /// Cold fit and cold plan, each on a scratch service of its own.
    fn cold(&mut self, hosted: &Hosted, topology: &str) {
        for _ in 0..3 {
            let scratch = hosted.shadow();
            self.tracer.leaf("core.fitted_models_cold", || {
                scratch.fitted_models(topology).expect("cold fit")
            });
            self.tracer.leaf("core.plan_cold", || {
                scratch
                    .plan_capacity(topology, &CapacityPlanRequest::default())
                    .expect("cold plan")
            });
        }
    }

    /// One new minute, then the calls a service minute makes, in
    /// front-door order, on the shadow service — topology by topology,
    /// as a round takes them.
    fn stale_loop(&mut self, hosted: &mut Hosted, shadow: &Caladrius, shape: &Shape<'_>) {
        let request = CapacityPlanRequest::default();
        let models = [TRAFFIC_MODEL.to_string()];
        for replica in &hosted.replicas {
            shadow
                .plan_capacity(&replica.name, &request)
                .expect("cold plan");
        }
        let db = hosted.replicas[0].metrics.db();
        let (model_before, plan_before, tail_before) = (
            shadow.model_cache_stats(),
            shadow.plan_cache_stats(),
            db.tail_cache_stats(),
        );
        let mut batch = MetricBatch::new(0);
        for turn in 0..16 * shape.topologies {
            let i = turn % shape.topologies;
            let previous = hosted.replicas[i].metrics.db().watermark().expect("fed");
            self.tracer.leaf("tsdb.ingest_batch", || {
                hosted.ingest_next(i, shape.staged, &mut batch)
            });
            let replica = &hosted.replicas[i];
            let topology = replica.name.as_str();
            self.tracer.leaf("tsdb.read_since", || {
                replica.metrics.component_sum_since(
                    metric::EMIT_COUNT,
                    Some("counter"),
                    previous,
                    previous + MINUTE_MS,
                )
            });
            self.tracer.leaf("core.fitted_models_stale", || {
                shadow.fitted_models(topology).expect("stale fit")
            });
            self.tracer.leaf("core.forecast_traffic", || {
                shadow
                    .forecast_traffic(topology, Some(&models))
                    .expect("forecast")
            });
            self.tracer.leaf("core.plan_warm", || {
                shadow.plan_capacity(topology, &request).expect("warm plan")
            });
            self.tracer.leaf("core.plan_hit", || {
                shadow.plan_capacity(topology, &request).expect("plan hit")
            });
        }
        let (model, plan, tail) = (
            shadow.model_cache_stats(),
            shadow.plan_cache_stats(),
            db.tail_cache_stats(),
        );
        let fits = model.fits - model_before.fits;
        self.metrics.set(
            "core.incremental_fit_share",
            ratio(model.incremental_fits - model_before.incremental_fits, fits),
            fits as usize,
        );
        let probes = (model.hits - model_before.hits) + (model.misses - model_before.misses);
        self.metrics.set(
            "core.model_cache_hit_ratio",
            ratio(model.hits - model_before.hits, probes),
            probes as usize,
        );
        let plans = (plan.hits - plan_before.hits) + (plan.misses - plan_before.misses);
        self.metrics.set(
            "core.plan_cache_hit_ratio",
            ratio(plan.hits - plan_before.hits, plans),
            plans as usize,
        );
        let assessments = (model.oracle_hits - model_before.oracle_hits)
            + (model.oracle_misses - model_before.oracle_misses);
        self.metrics.set(
            "core.oracle_memo_hit_ratio",
            ratio(model.oracle_hits - model_before.oracle_hits, assessments),
            assessments as usize,
        );
        let reads = (tail.hits - tail_before.hits) + (tail.misses - tail_before.misses);
        self.metrics.set(
            "tsdb.tail_cache_hit_ratio",
            ratio(tail.hits - tail_before.hits, reads),
            reads as usize,
        );
    }

    /// The tsdb used the other way round: full-window decode, and the
    /// simulator's column-at-a-time record path.
    fn tsdb_reads(&mut self, hosted: &Hosted, topology: &str) {
        let metrics = &hosted.replicas[0].metrics;
        let db = metrics.db();
        let to = db.watermark().expect("fed store");
        let from = to - i64::from(hosted.config().source_window_minutes - 1) * MINUTE_MS;
        for _ in 0..5 {
            self.tracer.leaf("tsdb.read_window", || {
                metrics.component_sum(metric::EXECUTE_COUNT, Some("splitter"), from, to)
            });
        }
        let filter = [TagFilter::eq(tag::TOPOLOGY, topology)];
        let columns: Vec<_> = [metric::EXECUTE_COUNT, metric::EMIT_COUNT]
            .into_iter()
            .flat_map(|name| db.select(name, &filter, from, to).expect("select"))
            .collect();
        let samples: usize = columns.iter().map(|(_, column)| column.len()).sum();
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let fresh = MetricsDb::new();
                let started = Instant::now();
                self.tracer.leaf("tsdb.sim_record", || {
                    for (key, column) in &columns {
                        fresh.append_series(&fresh.register(key), column);
                    }
                });
                samples as f64 / started.elapsed().as_secs_f64()
            })
            .collect();
        self.metrics.set(
            "tsdb.sim_record_samples_per_s",
            median(&rates).expect("three runs"),
            rates.len(),
        );
    }

    fn forecast(&mut self, history: &[DataPoint]) {
        let horizon: Vec<i64> = caladrius_forecast::future_timestamps(history, 60, MINUTE_MS);
        for _ in 0..5 {
            let mut model = Prophet::with_defaults();
            self.tracer
                .leaf("forecast.prophet_fit", || model.fit(history).expect("fit"));
            for _ in 0..4 {
                self.tracer.leaf("forecast.prophet_predict", || {
                    model.predict(&horizon).expect("predict")
                });
            }
        }
        let (fitted, tail) = history.split_at(history.len() / 2);
        let mut summary = StatsSummaryModel::mean();
        summary.fit(fitted).expect("stats summary fit");
        for point in tail.iter().take(200) {
            self.tracer.leaf("forecast.stats_summary_update", || {
                summary
                    .update(std::slice::from_ref(point))
                    .expect("streaming update")
            });
        }
    }

    /// The horizon search without the service around it, and the sim
    /// replay of its result.
    fn planner(&mut self, hosted: &Hosted, shadow: &Caladrius, topology: &str, shape: &Shape<'_>) {
        let request = CapacityPlanRequest::default();
        let inputs = search_inputs(shadow, hosted.tracker.as_ref(), topology, &request);
        let cold_search = || {
            plan_horizon(
                &inputs.oracle,
                &inputs.initial,
                &inputs.windows,
                &request.planner,
            )
            .expect("cold search")
        };
        let cold = cold_search();
        for _ in 0..5 {
            self.tracer.leaf("planner.search_cold", cold_search);
        }
        let mut warm_evals = 0;
        for _ in 0..20 {
            warm_evals = self
                .tracer
                .leaf("planner.search_warm", || {
                    plan_horizon_warm(
                        &inputs.oracle,
                        &inputs.initial,
                        &inputs.windows,
                        &request.planner,
                        Some(&cold),
                    )
                    .expect("warm search")
                })
                .oracle_evals;
        }
        self.metrics
            .set("planner.oracle_evals_cold", cold.oracle_evals as f64, 1);
        self.metrics
            .set("planner.oracle_evals_warm", warm_evals as f64, 1);

        let base = deployed(shape.size, topology);
        for _ in 0..2 {
            self.tracer.leaf("planner.replay", || {
                replay_timeline(&base, &cold, &ReplayConfig::default()).expect("replay")
            });
        }
        self.metrics.set(
            "planner.replay_window_ms",
            self.p50_ms("planner.replay") / cold.windows.len() as f64,
            2,
        );
    }

    fn simulator(&mut self, shape: &Shape<'_>, seed: u64) {
        let topology = deployed(shape.size, "probe-sim");
        let mut sim = Simulation::new(topology.clone(), SimConfig::default()).expect("valid");
        for _ in 0..5 {
            sim = self.tracer.leaf("heron-sim.build", || {
                Simulation::new(topology.clone(), SimConfig::default()).expect("valid")
            });
        }
        for _ in 0..20 {
            self.tracer.leaf("heron-sim.reset", || {
                sim.reset_with(&[], shape.size.base_rate()).expect("reset")
            });
        }
        let mut event_sim = None;
        for _ in 0..2 {
            event_sim = Some(self.tracer.leaf("heron-sim.event_day", || {
                simulate_day(shape.size, "probe-sim", 1.0, seed, true).1
            }));
        }
        self.tracer.leaf("heron-sim.exact_day", || {
            simulate_day(shape.size, "probe-sim", 1.0, seed, false)
        });
        let event_sim = event_sim.expect("two event-mode days");
        let ticks = event_sim.ticks_executed() + event_sim.ticks_skipped();
        self.metrics.set(
            "heron-sim.closed_form_share",
            ratio(event_sim.ticks_closed_form(), ticks),
            ticks as usize,
        );
        self.metrics
            .set("heron-sim.events_per_day", event_sim.sim_events() as f64, 1);
    }

    /// The front door over the shadow service: in-process handling, the
    /// async job path, JSON, and the loopback transport.
    fn api(
        &mut self,
        hosted: &mut Hosted,
        api: &Arc<ApiService>,
        topology: &str,
        shape: &Shape<'_>,
    ) {
        let shadow = Arc::clone(api.caladrius());
        let proposal = HashMap::from([("splitter".to_string(), 10), ("counter".to_string(), 12)]);
        let whatif_target = format!("/model/topology/heron/{topology}");
        let whatif_body = format!(
            "{{\"parallelism\":{{\"splitter\":10,\"counter\":12}},\"source_rate\":{WHATIF_RATE}}}"
        );
        shadow.fitted_models(topology).expect("fresh models");
        for _ in 0..200 {
            self.tracer.leaf("core.evaluate_hit", || {
                shadow
                    .evaluate(topology, &proposal, &SourceRateSpec::Fixed(WHATIF_RATE))
                    .expect("evaluate")
            });
            let response = self.tracer.leaf("api.handle_evaluate", || {
                api.handle(request("POST", &whatif_target, &whatif_body))
            });
            assert_eq!(response.status, 200);
            self.tracer.leaf("graph.packing_assess", || {
                shadow
                    .packing_overview(topology, &proposal, 13)
                    .expect("packing overview")
            });
        }

        let plan_target = format!("/topology/{topology}/plan");
        let mut batch = MetricBatch::new(0);
        let mut last_plan = Value::Null;
        for _ in 0..12 {
            hosted.ingest_next(0, shape.staged, &mut batch);
            let state = self.tracer.span("api.job_turnaround", |t| {
                let accepted = t.leaf("api.plan_submit", || {
                    api.handle(request("POST", &plan_target, "{}"))
                });
                poll_job(api.jobs(), accepted_job_id(&accepted).expect("202"))
            });
            match state {
                Some(JobState::Done(result)) => last_plan = result,
                other => panic!("probe plan did not finish: {other:?}"),
            }
        }
        for _ in 0..50 {
            self.tracer.leaf("api.job_queue_wait", || {
                poll_job(api.jobs(), api.jobs().submit(|| Ok(Value::Null)))
            });
            let text = self.tracer.leaf("api.json_render", || last_plan.to_json());
            self.tracer.leaf("api.json_parse", || {
                caladrius_api::json::parse(&text).expect("rendered JSON parses")
            });
        }

        // Transport = what the client waited minus what the handler took.
        let inner_ns = Arc::new(AtomicU64::new(0));
        let timed = {
            let (inner_ns, handler) = (Arc::clone(&inner_ns), api.handler());
            Arc::new(move |request| {
                let started = Instant::now();
                let response = handler(request);
                inner_ns.store(started.elapsed().as_nanos() as u64, Ordering::SeqCst);
                response
            })
        };
        let server = HttpServer::serve("127.0.0.1:0", 2, timed).expect("bind a loopback port");
        let client = HttpClient::new(server.local_addr());
        let transport_ms: Vec<f64> = (0..40)
            .map(|_| {
                let started = Instant::now();
                let reply = self.tracer.leaf("api.http_request", || {
                    client.post(&whatif_target, &whatif_body)
                });
                let total_ns = started.elapsed().as_nanos() as u64;
                assert!(matches!(reply, Ok((200, _))), "{reply:?}");
                total_ns.saturating_sub(inner_ns.load(Ordering::SeqCst)) as f64 / 1e6
            })
            .collect();
        drop(server);
        self.metrics.set(
            "api.route_overhead_us",
            (self.p50_ms("api.handle_evaluate") - self.p50_ms("core.evaluate_hit")) * 1e3,
            200,
        );
        self.metrics.set(
            "api.http_transport_ms",
            median(&transport_ms).expect("forty requests"),
            transport_ms.len(),
        );

        let (mut requests, mut shed) = (0u64, 0u64);
        for family in caladrius_obs::global_registry().families() {
            if family.name != "caladrius_http_requests_total" {
                continue;
            }
            for row in family.rows {
                if let caladrius_obs::MetricHandle::Counter(counter) = row.handle {
                    requests += counter.get();
                    if row.labels.iter().any(|(k, v)| k == "status" && v == "429") {
                        shed += counter.get();
                    }
                }
            }
        }
        self.metrics.set("api.requests", requests as f64, 1);
        self.metrics.set("api.shed", shed as f64, 1);
    }

    /// A 16-tenant fleet of the workload's tenant shape, taken through
    /// the `fleet_drift` round.
    fn fleet(&mut self, shape: &Shape<'_>) {
        let started = Instant::now();
        let mut tenants = self.tracer.leaf("fleet.feed", || {
            TenantFleet::new(
                shape.staged,
                shape.size,
                PROBE_TENANTS,
                shape.config.clone(),
            )
        });
        let batches = tenants
            .fleet
            .health()
            .shards
            .iter()
            .map(|s| s.routed_batches)
            .sum::<u64>();
        self.metrics.set(
            "fleet.ingest_batches_per_s",
            batches as f64 / started.elapsed().as_secs_f64(),
            batches as usize,
        );
        let cold = tenants.replan("{}").expect("cold probe-fleet plan");
        assert_eq!(partition(&cold), Some((0, 0, PROBE_TENANTS)));
        let mut granted = 0.0;
        for round in 0..3 {
            tenants.ingest_minute(shape.staged, 0..PROBE_TENANTS);
            let all = self
                .tracer
                .leaf("fleet.plan_alldrift", || tenants.replan("{}"))
                .expect("all-drift replan");
            granted = field(&all, "total_granted").expect("total_granted");
            let first = round * PROBE_DRIFT_TENANTS;
            tenants.ingest_minute(shape.staged, first..first + PROBE_DRIFT_TENANTS);
            let body = format!("{{\"budget\":{}}}", ((granted * 0.75) as u32).max(1));
            self.tracer
                .leaf("fleet.plan_drift10", || tenants.replan(&body))
                .expect("budgeted replan");
            self.tracer
                .leaf("fleet.plan_unchanged", || tenants.replan("{}"))
                .expect("unchanged replan");
        }
        self.metrics
            .set("fleet.granted_containers", granted, PROBE_TENANTS);

        // The allocator alone, on the demands the unconstrained plan
        // recorded (every tenant a plan-cache Hit by now).
        let plan = tenants
            .fleet
            .plan_fleet(&CapacityPlanRequest::default(), None);
        let demands: Vec<TopologyDemand> = plan
            .outcomes
            .iter()
            .map(|o| TopologyDemand {
                topology: o.topology.clone(),
                per_window_containers: o.demand.clone(),
            })
            .collect();
        let budget = (f64::from(plan.total_granted) * 0.75) as u32;
        for _ in 0..50 {
            self.tracer.leaf("fleet.allocate_greedy", || {
                allocate_greedy(&demands, budget)
            });
        }

        let health = tenants.fleet.health();
        let (hits, misses) = health.shards.iter().fold((0, 0), |(h, m), s| {
            (h + s.plan_cache.hits, m + s.plan_cache.misses)
        });
        self.metrics.set(
            "fleet.plan_cache_hit_ratio",
            ratio(hits, hits + misses),
            (hits + misses) as usize,
        );
        let largest = health
            .shards
            .iter()
            .map(|s| s.topologies)
            .max()
            .unwrap_or(0);
        self.metrics.set(
            "fleet.shard_skew",
            largest as f64 * health.shards.len() as f64 / health.topologies as f64,
            health.shards.len(),
        );
    }

    fn exec(&mut self, history: &[DataPoint]) {
        let narrow = ExecPool::with_threads("bench-probe-1", 1);
        let wide = ExecPool::with_threads("bench-probe-2", 2);
        let items = [0u8; 64];
        for _ in 0..200 {
            self.tracer.leaf("exec.dispatch", || {
                narrow.parallel_map(&items, |_, item| std::hint::black_box(*item))
            });
        }
        let fits = |pool: &ExecPool| {
            pool.parallel_map(&items[..8], |_, _| {
                let mut model = Prophet::with_defaults();
                model.fit(history).expect("fit");
            })
        };
        for _ in 0..3 {
            self.tracer.leaf("exec.fanout_narrow", || fits(&narrow));
            self.tracer.leaf("exec.fanout_wide", || fits(&wide));
        }
        self.metrics.set(
            "exec.fanout_speedup",
            self.p50_ms("exec.fanout_narrow") / self.p50_ms("exec.fanout_wide"),
            3,
        );
    }

    fn obs(&mut self, api: &ApiService) {
        const BATCH: usize = 1000;
        for _ in 0..20 {
            self.tracer.leaf("obs.span_batch", || {
                for _ in 0..BATCH {
                    drop(caladrius_obs::global_span("bench.probe"));
                }
            });
        }
        self.metrics.set(
            "obs.span_record_ns",
            self.p50_ms("obs.span_batch") * 1e6 / BATCH as f64,
            20 * BATCH,
        );
        for _ in 0..5 {
            let scrape = self.tracer.leaf("obs.scrape", || {
                api.handle(request("GET", "/metrics/service", ""))
            });
            assert_eq!(scrape.status, 200);
            let recent = self.tracer.leaf("obs.trace_recent", || {
                api.handle(request("GET", "/trace/recent", ""))
            });
            assert_eq!(recent.status, 200);
        }
        self.metrics.set(
            "obs.registry_series",
            caladrius_obs::global_registry().len() as f64,
            1,
        );
    }

    /// Applies the naming rule: every timing metric not set yet is the
    /// median of its spans. Also prints the folded per-layer table.
    fn finish(&mut self) {
        for spec in PER_LAYER {
            if self.metrics.get(spec.name).is_some() || layer_of(spec.name) == "harness" {
                continue;
            }
            let (Some(ms_per_unit), Some(span)) = (
                ms_per(spec.unit),
                spec.name
                    .strip_suffix(spec.unit)
                    .and_then(|n| n.strip_suffix('_')),
            ) else {
                continue;
            };
            let durations = self.tracer.probe_durations_ms(span);
            if let Some(p50) = median(&durations) {
                self.metrics
                    .set(spec.name, p50 / ms_per_unit, durations.len());
            }
        }

        let mut layers: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for (name, folded) in fold(self.tracer.spans()) {
            let entry = layers.entry(layer_of(name)).or_default();
            entry.0 += folded.count;
            entry.1 += folded.self_ns;
        }
        eprintln!("{:>10} {:>8} {:>12}", "layer", "spans", "self ms");
        for (layer, (count, self_ns)) in layers {
            eprintln!("{layer:>10} {count:>8} {:>12.3}", self_ns as f64 / 1e6);
        }
    }
}
