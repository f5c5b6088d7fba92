//! The metric catalogue, mirroring `BENCHMARK.json`: every untraced run
//! prints every end-to-end metric, every traced run every per-layer metric.

/// A metric: name, unit, and which direction is better.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: [Metric; 6] = [
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("accuracy", "fraction", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer that
/// the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 38] = [
    ("gen.generate_s", "s", "lower"),
    ("noise.make_instance_s", "s", "lower"),
    ("datasets.stream.write_s", "s", "lower"),
    ("datasets.stream.build_s", "s", "lower"),
    ("datasets.stream.bytes", "bytes", "lower"),
    ("core.similarity_s.IsoRank", "s", "lower"),
    ("core.similarity_s.GRAAL", "s", "lower"),
    ("core.similarity_s.NSD", "s", "lower"),
    ("core.similarity_s.LREA", "s", "lower"),
    ("core.similarity_s.REGAL", "s", "lower"),
    ("core.similarity_s.GWL", "s", "lower"),
    ("core.similarity_s.S-GWL", "s", "lower"),
    ("core.similarity_s.CONE", "s", "lower"),
    ("core.similarity_s.GRASP", "s", "lower"),
    ("core.similarity_s.FPROP", "s", "lower"),
    ("core.features_s", "s", "lower"),
    ("linalg.matmuls", "count", "lower"),
    ("linalg.sinkhorn_sweeps", "count", "lower"),
    ("linalg.allocs_saved", "count", "higher"),
    ("linalg.densifications", "count", "lower"),
    ("linalg.densified_bytes", "bytes", "lower"),
    ("assignment.assign_s.NN", "s", "lower"),
    ("assignment.assign_s.SG", "s", "lower"),
    ("assignment.assign_s.JV", "s", "lower"),
    ("assignment.topk_s", "s", "lower"),
    ("assignment.topk_pairs_per_s", "1/s", "higher"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.accuracy_k10", "fraction", "higher"),
    ("serve.upload_s", "s", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.poll_s", "s", "lower"),
    ("serve.polls_per_request", "count", "lower"),
    ("serve.overhead_s", "s", "lower"),
    ("serve.cache.hit_ratio", "fraction", "higher"),
    ("serve.cache.useful_miss_ratio", "fraction", "higher"),
    ("serve.rejected_429", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["dense-grid", "sparse-regular", "sparse-skewed", "serve-mix"];

#[cfg(test)]
mod tests {
    use super::*;
    use graphalign_json::Json;
    use std::path::Path;

    fn load(rel: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        graphalign_json::from_str(&text).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = load("../BENCHMARK.json");
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn plan_maps_every_layer_metric_to_an_end_to_end_metric() {
        let plan = load("plan.json");
        let map = plan.get("layer_to_end_to_end").expect("layer_to_end_to_end");
        let Json::Obj(entries) = map else { panic!("layer_to_end_to_end is an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(keys, names);
        for (layer, target) in entries {
            let moves = target.get("moves").and_then(Json::as_array).expect("moves");
            assert!(!moves.is_empty(), "{layer} moves nothing");
            for e2e in moves {
                let e2e = e2e.as_str().expect("metric name");
                // `failed` is the result line's failure count.
                let known = e2e == "failed" || END_TO_END.iter().any(|m| m.0 == e2e);
                assert!(known, "{layer} moves unknown {e2e}");
            }
            let on = target.get("on").and_then(Json::as_array).expect("on");
            assert!(!on.is_empty(), "{layer} names no workload");
            for w in on {
                assert!(WORKLOADS.contains(&w.as_str().expect("workload name")), "{layer}: {w:?}");
            }
        }
    }
}
