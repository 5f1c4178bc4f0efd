//! A traced run is well formed, and what the benchmark emits is what
//! `BENCHMARK.json` declares.

use std::sync::OnceLock;

use utps_benchmark::cells::{Cell, CELLS};
use utps_benchmark::report::END_TO_END;
use utps_benchmark::runner::{run_cell, RunOpts, RunReport};
use utps_benchmark::spans::self_times_ns;

/// One traced run of the tier cell (the one that touches every layer) at
/// unit-test scale, shared by the tests below.
fn traced() -> &'static RunReport {
    static REPORT: OnceLock<RunReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let cell = Cell::by_name("utps_tree_a_tier").expect("tier cell");
        let opts = RunOpts {
            seed: 42,
            seconds: 0.0,
            trace: true,
        };
        run_cell(cell, &cell.tiny_config(opts.seed), opts)
    })
}

/// The text of every object in the array at `"key": [ … ]`.
fn objects<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    let open = format!("\"{key}\": [");
    let start = doc.find(&open).unwrap_or_else(|| panic!("no {key}")) + open.len();
    let body = &doc[start..start + doc[start..].find(']').expect("array closes")];
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .collect()
}

/// The string value of `"field"` in `obj`.
fn field(obj: &str, field: &str) -> String {
    let tag = format!("\"{field}\": \"");
    let at = obj
        .find(&tag)
        .unwrap_or_else(|| panic!("no {field} in {obj}"));
    let rest = &obj[at + tag.len()..];
    rest[..rest.find('"').expect("string closes")].to_string()
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(doc: &str, key: &str) -> Vec<(String, String)> {
    objects(doc, key)
        .into_iter()
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

#[test]
fn the_run_is_correct() {
    let r = traced();
    assert!(r.correct(), "breaches: {:?}", r.breaches);
    assert!(r.attempted > 0 && r.failed == 0);
}

#[test]
fn trace_is_well_formed() {
    let spans = &traced().spans;
    assert!(!spans.is_empty());
    for (i, s) in spans.iter().enumerate() {
        assert!(s.start_ns <= s.end_ns, "{} ends before it starts", s.name);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(p < i, "{} precedes its parent", s.name);
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} [{}, {}] leaves its parent {} [{}, {}]",
                s.name,
                s.start_ns,
                s.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            );
            assert_eq!(s.run, parent.run, "{} changed run id", s.name);
        }
    }
    // Validation, the traced rep and the probes: one root, one id each.
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let names: Vec<_> = roots.iter().map(|s| s.name).collect();
    assert_eq!(names, ["oracle.validate", "rep", "probes"]);
    let own = self_times_ns(spans);
    for root in roots {
        let wall = root.end_ns - root.start_ns;
        let summed: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.run == root.run)
            .map(|(_, own_ns)| own_ns)
            .sum();
        let off = (summed as f64 - wall as f64).abs() / wall as f64;
        assert!(
            off <= 0.01,
            "{}: self times sum to {summed}, wall {wall}",
            root.name
        );
    }
    let rep: Vec<_> = spans
        .iter()
        .filter(|s| s.run == 2)
        .map(|s| s.name)
        .collect();
    assert_eq!(
        rep,
        [
            "rep",
            "core.build_world",
            "core.spawn",
            "sim.engine.warmup",
            "sim.engine.measure",
            "core.extract",
            "core.drop_world"
        ]
    );
}

#[test]
fn emitted_metrics_are_the_declared_ones() {
    let doc = benchmark_json();
    let emitted = |metrics: &[utps_benchmark::report::Metric]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(emitted(&traced().per_layer), declared(&doc, "per_layer"));
    assert_eq!(emitted(&traced().end_to_end), declared(&doc, "end_to_end"));
    for (def, obj) in END_TO_END.iter().zip(objects(&doc, "end_to_end")) {
        let better = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(obj, "name"), def.name);
        assert_eq!(field(obj, "unit"), def.unit);
        assert_eq!(field(obj, "better"), better, "{}", def.name);
        let bound = format!("\"bound\": {}", def.bound);
        assert!(
            obj.trim_end().ends_with(&bound),
            "{}: no {bound} in {obj}",
            def.name
        );
    }
    for (cell, obj) in CELLS.iter().zip(objects(&doc, "workloads")) {
        assert_eq!(field(obj, "name"), cell.name);
        assert_eq!(field(obj, "why"), cell.why);
    }
    assert_eq!(objects(&doc, "workloads").len(), CELLS.len());
    assert_eq!(objects(&doc, "end_to_end").len(), END_TO_END.len());
}

#[test]
fn every_traced_metric_is_a_number() {
    for m in &traced().per_layer {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    // The tier cell exercises the durable path: its counters are live.
    let live = |name: &str| {
        let m = traced().per_layer.iter().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("no {name}")).value > 0.0
    };
    for name in [
        "wal.records_per_group",
        "sim.device.writes",
        "core.tier.compactions",
        "core.hotcache.hit_rate",
        "sim.engine.steps",
        "probe.index.ns_per_put",
    ] {
        assert!(live(name), "{name} reads 0 on the tier cell");
    }
}
