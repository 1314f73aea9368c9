//! Median, percentile and segment arithmetic.

use pochoir_benchmark::stats::{
    iqr_share, median, percentile, quartiles, samples_needed, Op, OpLog, LATENCY_SAMPLE,
};

fn op(start: f64, end: f64, updates: u64) -> Op {
    Op {
        start,
        end,
        updates,
        ok: true,
    }
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_needed(0.90), 100);
    assert_eq!(samples_needed(0.99), 1000);
    let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(percentile(&ninety_nine, 0.90), None, "99 ops: no p90");
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&hundred, 0.90), Some(90.0), "nearest rank");
    assert_eq!(percentile(&hundred, 0.99), None, "p99 needs 1000");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn an_op_is_credited_to_the_segments_it_spans() {
    let mut log = OpLog::new(10.0, 5);
    log.push(op(0.0, 2.0, 200)); // exactly segment 0
    log.push(op(3.0, 5.0, 100)); // half in segment 1, half in segment 2
    log.push(op(9.0, 11.0, 100)); // half inside the region, half after it
    assert_eq!(log.segment_rates(), vec![100.0, 25.0, 25.0, 0.0, 25.0]);
    assert_eq!((log.count, log.failed), (3, 0));
    assert_eq!(log.latencies, vec![2.0, 2.0, 2.0]);
}

#[test]
fn a_failed_op_counts_but_computes_nothing() {
    let mut log = OpLog::new(4.0, 2);
    log.push(Op {
        ok: false,
        ..op(0.0, 1.0, 1000)
    });
    log.push(op(1.0, 2.0, 10));
    assert_eq!(log.segment_rates(), vec![5.0, 0.0]);
    assert_eq!((log.count, log.failed), (2, 1));
}

#[test]
fn an_instant_op_is_credited_where_it_ends() {
    let mut log = OpLog::new(2.0, 2);
    log.push(op(1.5, 1.5, 8));
    assert_eq!(log.segment_rates(), vec![0.0, 8.0]);
}

#[test]
fn the_latency_sample_is_bounded_and_repeatable() {
    let fill = || {
        let mut log = OpLog::new(1.0, 1);
        for i in 0..(LATENCY_SAMPLE + 5000) {
            log.push(op(0.0, 1.0 + i as f64, 1));
        }
        log
    };
    let (a, b) = (fill(), fill());
    assert_eq!(a.count, LATENCY_SAMPLE + 5000);
    assert_eq!(a.latencies.len(), LATENCY_SAMPLE);
    assert_eq!(a.latencies, b.latencies, "same ops, same sample");
    assert!(
        a.latencies.iter().any(|&l| l > LATENCY_SAMPLE as f64 + 1.0),
        "late ops replace early ones"
    );
}
