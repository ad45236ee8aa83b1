//! Ingest racing retention: `MetricsDb::truncate_before` recomputes the
//! watermark from the surviving data while another thread appends. On
//! every interleaving the watermark must end at the newest stored sample,
//! never below it.

use caladrius_tsdb::{MetricsDb, Sample, SeriesKey};
use std::sync::{Arc, Barrier};
use std::thread;

const SERIES: usize = 512;
const SAMPLES: i64 = 300;
const TRIALS: usize = 400;
const CUTOFF: i64 = 60_000;
/// Timestamp of the racing append to series `k`: `FRESH + k`, far above
/// the cutoff, so every racing sample survives the truncation.
const FRESH: i64 = 100_000_000;

#[test]
fn an_append_during_truncation_never_leaves_the_watermark_behind() {
    let history: Vec<Sample> = (0..SAMPLES)
        .map(|k| Sample::new(k * 1_000, k as f64))
        .collect();
    for trial in 0..TRIALS {
        let db = Arc::new(MetricsDb::new());
        let handles: Vec<_> = (0..SERIES)
            .map(|i| db.register(&SeriesKey::new("m").with_tag("series", i.to_string())))
            .collect();
        for handle in &handles {
            db.append_series(handle, &history);
        }
        let start = Arc::new(Barrier::new(2));
        let appender = {
            let (db, start) = (Arc::clone(&db), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for (k, handle) in handles.iter().enumerate() {
                    db.append(handle, FRESH + k as i64, 0.0);
                }
            })
        };
        start.wait();
        db.truncate_before(CUTOFF).unwrap();
        appender.join().unwrap();
        // The newest stored sample is the last racing append.
        assert_eq!(
            db.watermark(),
            Some(FRESH + SERIES as i64 - 1),
            "trial {trial}"
        );
    }
}
