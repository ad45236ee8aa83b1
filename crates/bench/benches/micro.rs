//! Criterion micro-benchmarks: the cost of a Caladrius "dry run" and of
//! the substrates underneath it.
//!
//! The paper's motivation is latency: deploy-and-observe tuning takes
//! "weeks" while a model evaluation takes milliseconds. These benches
//! quantify the milliseconds.

use caladrius_api::http::{Handler, HttpClient, HttpServer, Response};
use caladrius_core::model::component::{ComponentModel, ComponentObservation, GroupingKind};
use caladrius_core::model::instance::{InstanceModel, InstanceObservation};
use caladrius_core::model::topology::TopologyModel;
use caladrius_core::providers::metrics::SimMetricsProvider;
use caladrius_core::providers::tracker::StaticTracker;
use caladrius_core::service::SourceRateSpec;
use caladrius_core::Caladrius;
use caladrius_forecast::prophet::{Prophet, ProphetConfig};
use caladrius_forecast::{DataPoint, Forecaster};
use caladrius_graph::algo;
use caladrius_graph::topology_graph::{build_logical, instance_path_count, LogicalSpec};
use caladrius_tsdb::encoding::{compress, decompress};
use caladrius_tsdb::{MetricBatch, MetricsDb, Sample, SeriesKey, TagFilter};
use caladrius_workload::wordcount::{wordcount_topology, WordCountParallelism};
use criterion::{criterion_group, criterion_main, Criterion};
use heron_sim::engine::{SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("wordcount_one_minute", |b| {
        let topo = wordcount_topology(WordCountParallelism::default(), 8.0e6);
        let mut sim = Simulation::new(topo, SimConfig::default()).unwrap();
        let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
        b.iter(|| sim.run_minutes_into(1, &metrics));
    });
    group.finish();
}

fn sweep_observations() -> Vec<ComponentObservation> {
    (1..=60)
        .map(|i| {
            let t = i as f64 * 1.0e6;
            let per = (t / 3.0).min(11.0e6);
            let input = per * 3.0;
            ComponentObservation {
                source_rate: t,
                input_rate: input,
                output_rate: input * 7.63,
                per_instance_inputs: vec![per; 3],
                backpressured: t / 3.0 > 11.0e6,
            }
        })
        .collect()
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    let instance_obs: Vec<InstanceObservation> = (1..=600)
        .map(|i| {
            let t = i as f64 * 50_000.0;
            let input = t.min(11.0e6);
            InstanceObservation {
                source_rate: t,
                input_rate: input,
                output_rate: input * 7.63,
                backpressured: t > 11.0e6,
            }
        })
        .collect();
    group.bench_function("instance_fit_600_windows", |b| {
        b.iter(|| InstanceModel::fit(black_box(&instance_obs)).unwrap());
    });

    let component_obs = sweep_observations();
    group.bench_function("component_fit_60_windows", |b| {
        b.iter(|| {
            ComponentModel::fit(
                "splitter",
                3,
                GroupingKind::Shuffle,
                black_box(&component_obs),
            )
            .unwrap()
        });
    });

    let splitter =
        ComponentModel::fit("splitter", 3, GroupingKind::Shuffle, &component_obs).unwrap();
    let counter = ComponentModel {
        name: "counter".into(),
        instance: InstanceModel::from_params(1.0, None),
        ..splitter.clone()
    };
    let spec = LogicalSpec::new("wc")
        .component("spout", 2)
        .component("splitter", 3)
        .component("counter", 3)
        .edge("spout", "splitter", "shuffle")
        .edge("splitter", "counter", "fields");
    let topo = TopologyModel::new(
        spec,
        HashMap::from([
            ("splitter".to_string(), splitter),
            ("counter".to_string(), counter),
        ]),
    )
    .unwrap();
    let none = HashMap::new();
    group.bench_function("topology_dry_run_predict", |b| {
        b.iter(|| topo.predict(black_box(&none), black_box(30.0e6)).unwrap());
    });
    group.bench_function("topology_saturation_search", |b| {
        b.iter(|| topo.saturation_source_rate(black_box(&none)).unwrap());
    });
    group.finish();
}

fn bench_forecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast");
    group.sample_size(10);
    let history: Vec<DataPoint> = (0..2880)
        .map(|i| {
            let phase = std::f64::consts::TAU * (i % 1440) as f64 / 1440.0;
            DataPoint::new(i * 60_000, 1.0e6 * (1.0 + 0.4 * phase.sin()))
        })
        .collect();
    group.bench_function("prophet_fit_2880_minutes", |b| {
        b.iter(|| {
            let mut m = Prophet::new(ProphetConfig::default());
            m.fit(black_box(&history)).unwrap();
            m
        });
    });
    // The service's per-minute refit: a one-day window.
    group.bench_function("prophet_fit_1440_minutes", |b| {
        b.iter(|| {
            let mut m = Prophet::new(ProphetConfig::default());
            m.fit(black_box(&history[1440..])).unwrap();
            m
        });
    });
    let mut fitted = Prophet::new(ProphetConfig::default());
    fitted.fit(&history).unwrap();
    let horizon: Vec<i64> = (2881..2941).map(|i| i * 60_000).collect();
    group.bench_function("prophet_predict_60_minutes", |b| {
        b.iter(|| fitted.predict(black_box(&horizon)).unwrap());
    });
    group.finish();
}

fn bench_tsdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsdb");
    let samples: Vec<Sample> = (0..1000)
        .map(|i| Sample::new(i * 60_000, 1.0e6 + (i % 13) as f64))
        .collect();
    group.bench_function("gorilla_compress_1000", |b| {
        b.iter(|| compress(black_box(&samples)));
    });
    let block = compress(&samples);
    group.bench_function("gorilla_decompress_1000", |b| {
        b.iter(|| decompress(black_box(&block)).unwrap());
    });
    // What the simulator records: one sealed chunk (240 minutes) of a
    // rate under the engine's default 0.4 % metric noise, which XORs to
    // ~50 meaningful bits a sample where the values above cost 2-4.
    let mut rng = StdRng::seed_from_u64(240);
    let noisy: Vec<Sample> = (0..240)
        .map(|i| Sample::new(i * 60_000, 8.0e6 * (1.0 + rng.random_range(-0.004..0.004))))
        .collect();
    group.bench_function("gorilla_compress_noisy_240", |b| {
        b.iter(|| compress(black_box(&noisy)));
    });
    let noisy_block = compress(&noisy);
    group.bench_function("gorilla_decompress_noisy_240", |b| {
        b.iter(|| decompress(black_box(&noisy_block)).unwrap());
    });
    group.bench_function("ingest_1000_samples", |b| {
        b.iter(|| {
            let db = MetricsDb::new();
            let key = SeriesKey::new("m").with_tag("component", "splitter");
            for s in &samples {
                db.write(&key, s.ts, s.value);
            }
            db
        });
    });
    // Per-sample vs batched ingest over the engine's flush shape: 104
    // series (13 instances x 8 metrics), one value per series per minute.
    let keys: Vec<SeriesKey> = (0..104)
        .map(|i| {
            SeriesKey::new("execute-count")
                .with_tag("topology", "wc")
                .with_tag("component", "splitter")
                .with_tag("instance", i.to_string())
        })
        .collect();
    group.bench_function("ingest_per_sample_104x60", |b| {
        b.iter(|| {
            let db = MetricsDb::new();
            for minute in 0..60i64 {
                for key in &keys {
                    db.write(black_box(key), minute * 60_000, 1.0);
                }
            }
            db
        });
    });
    group.bench_function("ingest_batch_104x60", |b| {
        b.iter(|| {
            let db = MetricsDb::new();
            let handles: Vec<_> = keys.iter().map(|k| db.register(k)).collect();
            let mut batch = MetricBatch::with_capacity(0, handles.len());
            for minute in 0..60i64 {
                batch.reset(minute * 60_000);
                for h in &handles {
                    batch.push(black_box(h), 1.0);
                }
                db.ingest_batch(&batch);
            }
            db
        });
    });
    let db = MetricsDb::new();
    for inst in 0..8 {
        let key = SeriesKey::new("execute-count")
            .with_tag("component", "splitter")
            .with_tag("instance", inst.to_string());
        db.append_series(&db.register(&key), &samples);
    }
    let filters = [TagFilter::eq("component", "splitter")];
    group.bench_function("aggregate_8_series_x_1000", |b| {
        b.iter(|| {
            db.aggregate(
                "execute-count",
                black_box(&filters),
                0,
                i64::MAX,
                60_000,
                caladrius_tsdb::Aggregation::Sum,
                caladrius_tsdb::Aggregation::Sum,
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    // A source-rate sweep with linear and saturated legs, mirroring the
    // core service test fixture.
    let parallelism = WordCountParallelism {
        spout: 8,
        splitter: 2,
        counter: 3,
    };
    let metrics = heron_sim::metrics::SimMetrics::new("wordcount");
    for (leg, rate) in [6.0e6, 12.0e6, 18.0e6, 26.0e6].into_iter().enumerate() {
        let topo = wordcount_topology(parallelism, rate);
        let mut sim = Simulation::new(
            topo,
            SimConfig {
                metric_noise: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        sim.skip_to_minute(leg as u64 * 60);
        sim.warmup_minutes(25);
        sim.run_minutes_into(10, &metrics);
    }
    let tracker = StaticTracker::new().with(wordcount_topology(parallelism, 20.0e6));
    let caladrius = Caladrius::new(
        std::sync::Arc::new(SimMetricsProvider::new(metrics)),
        std::sync::Arc::new(tracker),
    );
    let none = HashMap::new();
    let source = SourceRateSpec::Fixed(30.0e6);
    group.bench_function("evaluate_cold", |b| {
        b.iter(|| {
            caladrius.invalidate_model_cache(None);
            caladrius
                .evaluate(black_box("wordcount"), &none, &source)
                .unwrap()
        });
    });
    caladrius.evaluate("wordcount", &none, &source).unwrap();
    group.bench_function("evaluate_cached", |b| {
        b.iter(|| {
            caladrius
                .evaluate(black_box("wordcount"), &none, &source)
                .unwrap()
        });
    });
    // The front door alone: connect, one GET, a trivial handler, close.
    let handler: Handler = std::sync::Arc::new(|_| Response::json("{}"));
    let server = HttpServer::serve("127.0.0.1:0", 1, handler).unwrap();
    let client = HttpClient::new(server.local_addr());
    group.bench_function("http_roundtrip", |b| {
        b.iter(|| client.get(black_box("/health")).unwrap());
    });
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    let spec = LogicalSpec::new("wide")
        .component("spout", 8)
        .component("a", 16)
        .component("b", 16)
        .component("sink", 8)
        .edge("spout", "a", "shuffle")
        .edge("a", "b", "fields")
        .edge("b", "sink", "shuffle");
    group.bench_function("build_logical", |b| {
        b.iter(|| build_logical(black_box(&spec)).unwrap());
    });
    group.bench_function("instance_path_count", |b| {
        b.iter(|| instance_path_count(black_box(&spec)).unwrap());
    });
    let logical = build_logical(&spec).unwrap();
    group.bench_function("source_sink_paths", |b| {
        b.iter(|| algo::source_sink_paths(black_box(&logical.graph)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_models,
    bench_forecast,
    bench_tsdb,
    bench_service,
    bench_graph
);
criterion_main!(benches);
