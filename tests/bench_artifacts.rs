//! Every exported `crates/bench/BENCH_*.json` is a number someone may
//! quote, so each must say where it came from: valid JSON carrying the
//! envelope's `bench`, `host_cpus`, `scale` and `notes`, with `bench`
//! naming a `[[bench]]` target that still exists (no orphan artifact).

use cicero::server::json::{self, Json};

#[test]
fn every_bench_artifact_is_stamped_and_names_a_live_bench_target() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench");
    let manifest = std::fs::read_to_string(format!("{dir}/Cargo.toml")).expect("bench manifest");
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|entry| entry.split_once("name = \"")?.1.split('"').next())
        .collect();
    assert!(targets.contains(&"sim_speed"), "no [[bench]] names parsed from {targets:?}");

    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("crates/bench") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("artifact is readable");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name} is not JSON: {e}"));
        let bench = doc.get("bench").and_then(Json::as_str).unwrap_or_default();
        assert!(targets.contains(&bench), "{name}: \"bench\": {bench:?} is not in {targets:?}");
        assert!(doc.get("host_cpus").and_then(Json::as_u64) >= Some(1), "{name}: host_cpus");
        let scale = doc.get("scale").and_then(Json::as_str);
        assert!(matches!(scale, Some("quick" | "default" | "full")), "{name}: scale {scale:?}");
        assert_eq!(name.ends_with("_quick.json"), scale == Some("quick"), "{name}: {scale:?}");
        assert!(doc.get("notes").and_then(Json::as_str).is_some(), "{name}: notes");
    }
    assert!(seen >= 5, "expected the five committed artifacts, found {seen}");
}
