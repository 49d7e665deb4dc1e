//! A long-lived daemon's process-global collector must not hoard the
//! spans of the requests it serves.
//!
//! `icdiag serve` installs one `Collector` for the daemon's whole life
//! and only ever reads its metrics snapshot. Every request's spans are
//! recorded into that request's own trace, so the collector's span store
//! must stay free of request spans however many requests arrive, while
//! its counters and stage histograms still see every request.
//!
//! This file holds exactly one test: the collector is installed
//! process-wide, so its binary must run no other instrumented code.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use icd_bench::flow::ExperimentContext;
use icd_engine::{synthesize_batch, BatchConfig, Collector};
use icd_faultsim::datalog_text;
use icd_netlist::generator;
use icd_server::{Client, DrainOutcome, Server, ServerConfig};

const REQUESTS: usize = 20;

#[test]
fn daemon_collector_keeps_metrics_but_no_request_spans() {
    let ctx = ExperimentContext::from_preset(&generator::circuit_a(), 4, 16)
        .expect("scaled circuit A builds")
        .into_shared();
    let batch = synthesize_batch(&ctx, &BatchConfig::new(4, 0x5eed)).expect("batch synthesizes");
    assert!(!batch.is_empty());
    let texts: Vec<String> = batch.iter().map(datalog_text::write).collect();

    let collector = Collector::new();
    let _guard = collector.install();
    let config = ServerConfig {
        workers: 2,
        queue_capacity: 32,
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&ctx), config).expect("binds loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run().expect("run returns"));

    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connects");
    for i in 0..REQUESTS {
        client
            .submit(&texts[i % texts.len()], 0)
            .expect("request answered");
    }
    let devices: Vec<(String, String)> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| (format!("device-{i:03}.log"), text.clone()))
        .collect();
    client
        .submit_volume(&devices, 0)
        .expect("volume request answered");
    drop(client);
    handle.shutdown();
    assert_eq!(join.join().expect("server thread"), DrainOutcome::Clean);

    let roots: Vec<&str> = collector.span_forest().iter().map(|n| n.name).collect();
    for request_root in [
        "server.request",
        "server.volume",
        "batch.front",
        "batch.suspect",
    ] {
        assert!(
            !roots.contains(&request_root),
            "the daemon's collector stored a {request_root} span (roots: {roots:?})"
        );
    }
    let snapshot = collector.snapshot();
    assert_eq!(
        snapshot.counters["server.requests_total"].0,
        REQUESTS as u64 + 1,
        "every request and the volume request are counted"
    );
    let intercell = snapshot
        .histograms
        .get("flow.intercell")
        .expect("stage histograms still reach the collector");
    assert!(
        intercell.count >= REQUESTS as u64,
        "flow.intercell sampled {} times",
        intercell.count
    );
}
