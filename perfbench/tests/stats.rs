//! The statistics helpers: the percentile rule and failure accounting.

use perfbench::stats::{percentile, samples_beyond, tail, windows, Outcome, Record, Tally};

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    // 1000 samples: p99 is rank 990, leaving exactly ten beyond.
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(tail(&ascending(1000)), Some((99.0, 990.0)));
    // 999 samples leave only nine beyond p99: fall back to p98.
    assert_eq!(tail(&ascending(999)), Some((98.0, 980.0)));
    // 10 000 samples support p99.9.
    assert_eq!(tail(&ascending(10_000)), Some((99.9, 9990.0)));
    // 200 samples: p95 has ten beyond.
    assert_eq!(tail(&ascending(200)), Some((95.0, 190.0)));
    // Fewer than twenty samples support nothing, not even the median.
    assert_eq!(tail(&ascending(19)), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let v = ascending(4);
    assert_eq!(percentile(&v, 50.0), 2.0);
    assert_eq!(percentile(&v, 75.0), 3.0);
    assert_eq!(percentile(&v, 100.0), 4.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
}

fn record(outcome: Outcome, latency_ms: Option<f64>) -> Record {
    Record {
        outcome,
        latency_ms,
        deadline_ms: None,
        start_s: 0.0,
    }
}

const RIGHT: Outcome = Outcome::Answered {
    correct: true,
    stopped: false,
    exits: 3,
};

#[test]
fn failures_count_as_misses_in_slo_and_accuracy() {
    let records = [
        record(RIGHT, Some(1.0)),
        record(RIGHT, Some(50.0)), // verified and correct, but too late
        record(
            Outcome::Answered {
                correct: false,
                stopped: false,
                exits: 1,
            },
            Some(1.0),
        ),
        record(Outcome::Refused { stopped: false }, Some(0.5)),
        record(Outcome::Missing, None),
        record(Outcome::Malformed, Some(1.0)),
        record(Outcome::Mismatch, Some(1.0)),
        record(RIGHT, Some(2.0)),
    ];
    let t = Tally::new(&records, Some(10.0));
    assert_eq!(t.sent, 8);
    assert_eq!(
        t.failed, 3,
        "missing, malformed and mismatched replies fail"
    );
    assert_eq!(t.answered, 4);
    assert_eq!(t.in_slo, 3);
    assert_eq!(t.slo_frac(), 3.0 / 8.0);
    assert_eq!(
        t.accuracy(),
        3.0 / 8.0,
        "only correct verified answers count"
    );
    // Without a limit every verified answer is in time.
    assert_eq!(Tally::new(&records, None).slo_frac(), 4.0 / 8.0);
}

#[test]
fn overshoot_covers_every_deadline_stop() {
    let stopped = |outcome, latency| Record {
        outcome,
        latency_ms: Some(latency),
        deadline_ms: Some(2.0),
        start_s: 0.0,
    };
    let t = Tally::new(
        &[
            stopped(
                Outcome::Answered {
                    correct: true,
                    stopped: true,
                    exits: 2,
                },
                2.5,
            ),
            stopped(Outcome::Refused { stopped: true }, 3.0),
            stopped(Outcome::Refused { stopped: false }, 9.0),
            stopped(RIGHT, 1.0),
        ],
        None,
    );
    assert_eq!(t.overshoots, vec![0.5, 1.0]);
    assert_eq!(t.stopped, 1);
}

#[test]
fn windows_split_in_order_and_keep_the_remainder() {
    let records: Vec<Record> = (0..25).map(|i| record(RIGHT, Some(i as f64))).collect();
    let w = windows(&records, 10, None);
    assert_eq!(w.iter().map(|t| t.sent).collect::<Vec<_>>(), vec![10, 15]);
    assert_eq!(windows(&records[..4], 10, None).len(), 1);
}
