//! Span self-time: a call's duration minus what its children cover.

use pochoir_benchmark::spans::{self, durations, layer_self_seconds, self_seconds, Layer, Span};

fn span(id: u32, parent: Option<u32>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "call",
        layer,
        start_ns,
        end_ns,
        op_id: 0,
    }
}

const SECOND: u64 = 1_000_000_000;

#[test]
fn nested_children_are_subtracted_once_per_level() {
    // op [0, 10) > drain [1, 9) > run [2, 5)
    let spans = [
        span(0, None, Layer::Harness, 0, 10 * SECOND),
        span(1, Some(0), Layer::Serving, SECOND, 9 * SECOND),
        span(2, Some(1), Layer::Solve, 2 * SECOND, 5 * SECOND),
    ];
    assert_eq!(self_seconds(&spans), vec![2.0, 5.0, 3.0]);
    let by_layer = layer_self_seconds(&spans);
    assert_eq!(by_layer[Layer::Harness as usize], 2.0);
    assert_eq!(by_layer[Layer::Serving as usize], 5.0);
    assert_eq!(by_layer[Layer::Solve as usize], 3.0);
    assert_eq!(
        by_layer.iter().sum::<f64>(),
        10.0,
        "self times tile the root"
    );
}

#[test]
fn sibling_children_add_up() {
    // op [0, 10) > submit [0, 2), wait [2, 7), fetch [7, 9)
    let spans = [
        span(0, None, Layer::Harness, 0, 10 * SECOND),
        span(1, Some(0), Layer::Wire, 0, 2 * SECOND),
        span(2, Some(0), Layer::Wire, 2 * SECOND, 7 * SECOND),
        span(3, Some(0), Layer::Wire, 7 * SECOND, 9 * SECOND),
    ];
    assert_eq!(self_seconds(&spans), vec![1.0, 2.0, 5.0, 2.0]);
    assert_eq!(layer_self_seconds(&spans)[Layer::Wire as usize], 9.0);
}

#[test]
fn two_roots_on_two_threads_do_not_mix() {
    let spans = [
        span(0, None, Layer::Wire, 0, 4 * SECOND),
        span(1, None, Layer::Wire, 0, 6 * SECOND),
        span(2, Some(1), Layer::Harness, SECOND, 2 * SECOND),
    ];
    assert_eq!(self_seconds(&spans), vec![4.0, 5.0, 1.0]);
}

/// The one test that touches the process-wide recorder.
#[test]
fn recorded_spans_nest_by_thread_and_carry_their_op() {
    assert!(spans::take().is_empty());
    {
        let _ignored = spans::span("off", Layer::Harness);
    }
    assert!(spans::take().is_empty(), "nothing is recorded while off");

    spans::set_enabled(true);
    spans::set_op(7);
    {
        let _outer = spans::span("outer", Layer::Serving);
        spans::in_span("inner", Layer::Solve, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _other = spans::span("elsewhere", Layer::Wire);
            });
        });
    }
    spans::set_enabled(false);
    let recorded = spans::take();
    let find = |name: &str| recorded.iter().find(|s| s.name == name).expect(name);
    let (outer, inner, elsewhere) = (find("outer"), find("inner"), find("elsewhere"));
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(outer.parent, None);
    assert_eq!(elsewhere.parent, None, "another thread starts its own tree");
    assert_eq!((outer.op_id, inner.op_id, elsewhere.op_id), (7, 7, 0));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    assert!(durations(&recorded, "inner")[0] >= 0.002);
    let json = spans::to_json(&recorded);
    assert!(json.contains("\"name\": \"inner\"") && json.contains("\"layer\": \"solve\""));
}
