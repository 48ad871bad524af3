//! The metric names, units, directions and bounds — the same table
//! `BENCHMARK.json` holds (a test keeps the two equal).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the served system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// A count the program makes: equal inputs must give the equal value.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, exact: false },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10, exact: false },
    EndToEnd {
        name: "sim_cycles_per_kb",
        unit: "cycles/KB",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
    },
];

/// A metric of one layer, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a layer metric's direction; the test
    /// below reads this.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// A count (or a ratio of counts) the program makes: equal inputs
    /// must give the equal value. Everything else is a time.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better, exact: true }
}

/// The four passes the ledger carries: the pass's own name, then the
/// names of its time and op-count metrics.
pub const PASSES: [(&str, &str, &str); 4] = [
    (
        "regex-canonicalize",
        "core.pass.regex-canonicalize_us",
        "core.pass.regex-canonicalize_ops_after",
    ),
    (
        "regex-factorize-alternations",
        "core.pass.regex-factorize-alternations_us",
        "core.pass.regex-factorize-alternations_ops_after",
    ),
    (
        "regex-shortest-match-reduction",
        "core.pass.regex-shortest-match-reduction_us",
        "core.pass.regex-shortest-match-reduction_ops_after",
    ),
    (
        "cicero-jump-simplification",
        "core.pass.cicero-jump-simplification_us",
        "core.pass.cicero-jump-simplification_ops_after",
    ),
];

pub const PER_LAYER: [Layer; 40] = [
    time("frontend.parse_us", "us"),
    time("core.compile_set_us", "us"),
    time("core.pass.regex-canonicalize_us", "us"),
    count("core.pass.regex-canonicalize_ops_after", "count", Better::Lower),
    time("core.pass.regex-factorize-alternations_us", "us"),
    count("core.pass.regex-factorize-alternations_ops_after", "count", Better::Lower),
    time("core.pass.regex-shortest-match-reduction_us", "us"),
    count("core.pass.regex-shortest-match-reduction_ops_after", "count", Better::Lower),
    time("core.pass.cicero-jump-simplification_us", "us"),
    count("core.pass.cicero-jump-simplification_ops_after", "count", Better::Lower),
    count("core.code_size_insns", "count", Better::Lower),
    count("core.d_offset", "count", Better::Lower),
    time("isa.run_all_ns_per_byte", "ns/B"),
    time("hostexec.lower_us", "us"),
    count("hostexec.states", "count", Better::Lower),
    count("hostexec.byte_classes", "count", Better::Lower),
    time("hostexec.run_ns_per_byte", "ns/B"),
    time("hostexec.run_all_ns_per_byte", "ns/B"),
    count("hostexec.early_exit_share", "share", Better::Higher),
    count("sim.cycles_per_request", "count", Better::Lower),
    time("sim.host_ns_per_cycle", "ns"),
    count("sim.icache_miss_rate", "share", Better::Lower),
    time("runtime.cache_hit_us", "us"),
    time("runtime.cache_miss_us", "us"),
    count("runtime.cache_hit_rate", "share", Better::Higher),
    time("runtime.run_batch_us", "us"),
    time("runtime.dispatch_us", "us"),
    time("server.http_read_us", "us"),
    time("server.json_parse_us", "us"),
    time("server.registry_pin_us", "us"),
    time("server.response_write_us", "us"),
    time("server.loopback_p50_us", "us"),
    time("server.inprocess_p50_us", "us"),
    time("server.unattributed_us", "us"),
    count("server.rejected", "count", Better::Lower),
    count("server.requests", "count", Better::Higher),
    time("telemetry.counter_add_ns", "ns"),
    time("telemetry.observe_ns", "ns"),
    time("trace.residual_share", "share"),
    time("trace.overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SPECS;
    use crate::json::Value;

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key:?} is {other:?}"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads and this table is what the
    /// program prints; they must say the same thing.
    #[test]
    fn benchmark_json_holds_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = crate::layers::parse_json(&text).expect("BENCHMARK.json parses");

        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        let named: Vec<(&str, &str)> =
            workloads.iter().map(|w| (str_of(w, "name"), str_of(w, "why"))).collect();
        assert_eq!(named, SPECS.map(|s| (s.name, s.why)));

        let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(str_of(json, "name"), metric.name);
            assert_eq!(str_of(json, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(str_of(json, "better"), metric.better.as_str(), "{}", metric.name);
            assert_eq!(json.get("bound").and_then(Value::as_f64), Some(metric.bound));
        }

        let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(str_of(json, "name"), metric.name);
            assert_eq!(str_of(json, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(str_of(json, "better"), metric.better.as_str(), "{}", metric.name);
        }
    }
}
