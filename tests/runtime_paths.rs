//! The runtime has one way to run a program; this pins it across the
//! axes a request can vary: backend × worker count × traced/untraced,
//! batch and stream.

use cicero::prelude::*;
use cicero::telemetry::{RequestTrace, TraceContext};

const PATTERN: &str = "(abcd|bcda|cdab|dabc)";

fn chunks() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..9).map(|i| vec![b'x'; 30 + i]).collect();
    inputs[2] = b"xxxabcdxxx".to_vec();
    inputs[5] = b"bcda".to_vec();
    inputs[8] = Vec::new();
    inputs
}

fn runtime(jobs: usize) -> Runtime {
    Runtime::new(RuntimeOptions { jobs, ..RuntimeOptions::default() })
}

/// One root, every parent resolves, every span closed.
fn assert_connected(trace: &RequestTrace) {
    assert_eq!(trace.spans.iter().filter(|s| s.parent.is_none()).count(), 1);
    for span in &trace.spans {
        assert!(span.closed, "{} still open", span.name);
        if let Some(parent) = span.parent {
            assert!((parent as usize) < trace.spans.len(), "{} is orphaned", span.name);
        }
    }
}

#[test]
fn every_backend_worker_count_and_trace_mode_agrees_with_its_reference() {
    let config = ArchConfig::new_organization(8, 1);
    let inputs = chunks();
    let program = compile(PATTERN).unwrap().into_program();
    let sequential: Vec<MatchOutcome> = simulate_batch(&program, &inputs, &config)
        .into_iter()
        .map(MatchOutcome::Complete)
        .collect();
    let oracle = Oracle::new(PATTERN).unwrap();

    for backend in [Backend::Sim, Backend::Host] {
        for jobs in 1..=4 {
            let runtime = runtime(jobs).with_backend(backend);
            let program = runtime.compile(PATTERN).unwrap();
            let untraced =
                runtime.run_batch_guarded(&program, &inputs, &config, &Budget::UNLIMITED);
            match backend {
                Backend::Sim => assert_eq!(untraced.outcomes, sequential, "sim jobs={jobs}"),
                Backend::Host => {
                    for (input, outcome) in inputs.iter().zip(&untraced.outcomes) {
                        let MatchOutcome::Complete(report) = outcome else {
                            panic!("host jobs={jobs}: {outcome:?} on {input:?}");
                        };
                        assert_eq!(report.accepted, oracle.is_match(input), "host jobs={jobs}");
                        assert_eq!(report.match_position, oracle.match_end(input));
                    }
                }
            }

            // Tracing observes; it changes no outcome.
            let ctx = TraceContext::new("runtime-paths");
            let root = ctx.root_span("request");
            let traced = runtime.with_trace(&root);
            traced.compile(PATTERN).unwrap();
            let batch = traced.run_batch_guarded(&program, &inputs, &config, &Budget::UNLIMITED);
            drop(root);
            assert_eq!(batch.outcomes, untraced.outcomes, "{backend} jobs={jobs}");

            let trace = ctx.finish();
            assert_connected(&trace);
            let request = trace.span("request").unwrap();
            let compile = trace.span("compile").expect("compile span");
            assert_eq!(compile.parent, Some(request.id));
            let execute = trace.span("execute").expect("execute span");
            assert_eq!(execute.parent, Some(request.id));
            let workers = trace.spans_with_prefix(&format!("{backend}.worker-"));
            assert_eq!(workers.len(), batch.jobs, "{backend} jobs={jobs}");
            assert!(workers.iter().all(|w| w.parent == Some(execute.id)));
        }
    }
}

#[test]
fn both_backends_share_one_cache_entry() {
    let runtime = runtime(2);
    let config = ArchConfig::old_organization(1);
    let sim = runtime.match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED).unwrap();
    let host = runtime
        .with_backend(Backend::Host)
        .match_batch_guarded(PATTERN, &chunks(), &config, &Budget::UNLIMITED)
        .unwrap();
    assert!(!sim.cache_hit);
    assert!(host.cache_hit, "the host request must reuse the sim request's entry");
    let stats = runtime.cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    assert_eq!(host.matches(), sim.matches());
}

#[test]
fn a_one_chunk_stream_equals_the_batch_result() {
    let config = ArchConfig::new_organization(8, 1);
    for backend in [Backend::Sim, Backend::Host] {
        let runtime = runtime(1).with_backend(backend);
        let program = runtime.compile(PATTERN).unwrap();
        for input in chunks() {
            let batch = runtime.run_batch_guarded(
                &program,
                std::slice::from_ref(&input),
                &config,
                &Budget::UNLIMITED,
            );
            let options = StreamOptions { chunk_size: input.len().max(1), ..Default::default() };
            let stream = runtime.scan_stream(&program, &input[..], &config, &options).unwrap();
            assert_eq!(stream.chunks, u64::from(!input.is_empty()));
            match backend {
                Backend::Host => assert_eq!(stream.outcome, batch.outcomes[0], "on {input:?}"),
                // A session starts on a cold machine while the pool
                // prefetches the i-cache before every input, so the
                // timing-dependent counters differ; the verdict does not.
                Backend::Sim => {
                    assert!(stream.outcome.is_complete());
                    let (stream, batch) =
                        (stream.outcome.report().unwrap(), batch.outcomes[0].report().unwrap());
                    assert_eq!(
                        (stream.accepted, stream.match_position, stream.matched_id),
                        (batch.accepted, batch.match_position, batch.matched_id),
                        "on {input:?}"
                    );
                }
            }
        }
    }
}
