//! The front end under concurrent load: several client connections
//! drive generated programs across every engine regime in the three
//! submission modes — unary, window-deep pipelined, batched — against a
//! traced server, with deadline probes behind them. Every reply is
//! verified against the reference interpreter, and the run checks what
//! the front end claims: batching clones fewer proto machines per
//! request than unary submission, the combined metrics page lints
//! clean, the JSON document carries both layers, no connection leaks,
//! and both flight recorders and the incident log captured the run.

mod util;

use std::time::Duration;

use stackcache_net::{Client, NetConfig, NetServer, ReplyStatus, WireRequest};
use stackcache_obs::prometheus_lint;
use stackcache_svc::{Service, ServiceConfig, TraceConfig};
use util::{check, generated_cases, nth_request, on_connections, pipeline, Case};

const CONNECTIONS: usize = 2;
const WINDOW: u32 = 8;
const BATCH: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Unary,
    Pipelined,
    Batched,
}

/// One connection's share of a phase: requests `range` of the load.
fn drive(
    client: &Client,
    cases: &[Case],
    mode: Mode,
    range: std::ops::Range<usize>,
) -> Vec<String> {
    let mut divergences = Vec::new();
    match mode {
        Mode::Unary => {
            for i in range {
                let (case, request) = nth_request(cases, i);
                divergences.extend(check(
                    case,
                    &request,
                    &client.call(&request).expect("reply"),
                ));
            }
        }
        Mode::Pipelined => divergences = pipeline(client, cases, range),
        Mode::Batched => {
            let picks: Vec<_> = range.map(|i| nth_request(cases, i)).collect();
            for chunk in picks.chunks(BATCH) {
                let requests: Vec<WireRequest> = chunk.iter().map(|(_, r)| r.clone()).collect();
                let pending = client.submit_batch(&requests).expect("batch");
                for ((case, request), p) in chunk.iter().zip(pending) {
                    divergences.extend(check(case, request, &p.wait().expect("reply")));
                }
            }
        }
    }
    divergences
}

/// Run one phase on `CONNECTIONS` concurrent clients; returns the
/// proto-machine clones the service made and saved during it.
fn phase(server: &NetServer, cases: &[Case], mode: Mode, per_conn: usize) -> (u64, u64) {
    let before = server.service_metrics();
    let divergences = on_connections(server.addr(), CONNECTIONS, WINDOW, |client, conn| {
        drive(client, cases, mode, conn * per_conn..(conn + 1) * per_conn)
    });
    assert!(
        divergences.is_empty(),
        "{mode:?}: {} divergences, first: {}",
        divergences.len(),
        divergences[0]
    );
    let after = server.service_metrics();
    (
        after.proto_clones - before.proto_clones,
        after.proto_clones_saved - before.proto_clones_saved,
    )
}

#[test]
fn three_submission_modes_verify_and_keep_their_promises() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 512,
        trace: Some(TraceConfig::default()),
        ..ServiceConfig::default()
    });
    let server = NetServer::start(
        service,
        NetConfig {
            max_window: WINDOW,
            trace: true,
            trace_capacity: 4096,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback server");
    let cases = generated_cases(0x0E7_10AD, 4, 1_000_000);

    let (unary_requests, batched_requests) = (60, 64);
    let (unary_clones, _) = phase(&server, &cases, Mode::Unary, unary_requests);
    phase(&server, &cases, Mode::Pipelined, 240);
    let (batched_clones, batched_saved) = phase(&server, &cases, Mode::Batched, batched_requests);
    // batching amortizes the proto-machine clone: a lower clone rate
    // per request than unary submission, and clones reported saved
    assert!(
        batched_clones * (unary_requests as u64) < unary_clones * (batched_requests as u64),
        "batched cloned {batched_clones} for {batched_requests} requests per connection, \
         unary {unary_clones} for {unary_requests}"
    );
    assert!(batched_saved > 0, "batched phase reports zero clones saved");

    // a 1ns deadline expires in the queue: the only correct answer is
    // a typed DeadlineExpired reply
    let client = Client::connect(server.addr(), WINDOW).expect("connect");
    for i in 0..8 {
        let (_, request) = nth_request(&cases, i);
        let reply = client
            .call(&request.deadline(Duration::from_nanos(1)))
            .expect("probe reply");
        assert_eq!(reply.status, ReplyStatus::DeadlineExpired, "probe {i}");
    }
    client.goodbye().expect("drain");

    prometheus_lint(&server.prometheus()).expect("the combined page lints clean");
    let json = server.json();
    assert!(
        json.contains("\"svc\"") && json.contains("\"net\""),
        "json document missing svc or net section: {json}"
    );
    assert!(
        server.flight_dump().is_some_and(|d| !d.is_empty()),
        "front-end flight recorder captured nothing"
    );
    assert!(
        server.service_flight_dump().is_some_and(|d| !d.is_empty()),
        "service flight recorder captured nothing"
    );
    assert!(
        !server.incident_reports().is_empty(),
        "no incident reports despite deadline probes"
    );
    let (_, net) = server.shutdown();
    assert_eq!(
        net.connections_opened, net.connections_closed,
        "a connection leaked"
    );
}
