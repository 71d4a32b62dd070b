//! The cluster tier over live loopback sockets: a consistent-hash
//! router in front of two real `NetServer` nodes. Every reply that
//! comes back through the proxy is verified against the reference
//! interpreter; routing locality (all regimes of one program on one
//! node) and cross-node coalescing economics are asserted from the
//! nodes' own metrics.

mod util;

use std::sync::Arc;
use std::time::Duration;

use stackcache_core::EngineRegime;
use stackcache_net::{
    Client, NetConfig, NetProxy, NetServer, ProxyConfig, ReplyStatus, WireRequest,
};
use stackcache_svc::{Service, ServiceConfig};
use util::{quick_program, reference_outcome, slow_program};

/// A two-node cluster plus router, all in-process over loopback.
fn start_cluster(coalesce: bool) -> (Vec<NetServer>, NetProxy) {
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let mut svc = ServiceConfig {
            workers: 1,
            queue_capacity: 256,
            ..ServiceConfig::default()
        };
        if coalesce {
            svc = svc.coalescing();
        }
        let server =
            NetServer::start(Service::start(svc), NetConfig::default()).expect("bind node");
        addrs.push(server.addr().to_string());
        nodes.push(server);
    }
    let proxy = NetProxy::start(ProxyConfig {
        nodes: addrs,
        ..ProxyConfig::default()
    })
    .expect("start proxy");
    (nodes, proxy)
}

fn shut_down(nodes: Vec<NetServer>, proxy: NetProxy) {
    let _ = proxy.shutdown();
    for node in nodes {
        let _ = node.shutdown();
    }
}

#[test]
fn routed_replies_are_verified_and_both_nodes_carry_traffic() {
    let (nodes, proxy) = start_cluster(false);
    let client = Client::connect(proxy.addr(), 16).expect("connect");

    // At least 16 distinct programs across every regime, and more until
    // both ring arcs are hit: the ring is built from the nodes' ephemeral
    // ports, so where a fixed set of programs lands changes per run.
    const MIN_PROGRAMS: i64 = 16;
    const MAX_PROGRAMS: i64 = 512;
    let mut submitted = 0u64;
    for k in 2..2 + MAX_PROGRAMS {
        if k >= 2 + MIN_PROGRAMS && proxy.metrics().forwarded.iter().all(|&n| n > 0) {
            break;
        }
        for regime in EngineRegime::ALL {
            let request = WireRequest::new(quick_program(k), regime).fuel(100_000);
            let reply = client.call(&request).expect("reply through the router");
            assert_eq!(reply.status, ReplyStatus::Ok, "k={k} regime={regime:?}");
            assert_eq!(
                reply.differs_from(&reference_outcome(&request)),
                None,
                "divergence through the router: k={k} regime={regime:?}"
            );
            submitted += 1;
        }
    }

    let snap = proxy.metrics();
    assert_eq!(snap.forwarded_total(), submitted);
    assert_eq!(snap.replies, submitted);
    assert_eq!(snap.upstream_errors, 0);
    assert!(
        snap.forwarded.iter().all(|&n| n > 0),
        "the ring left a node idle: {:?}",
        snap.forwarded
    );
    client.goodbye().expect("drain");
    shut_down(nodes, proxy);
}

#[test]
fn every_regime_of_one_program_lands_on_one_node() {
    let (nodes, proxy) = start_cluster(false);
    let client = Client::connect(proxy.addr(), 16).expect("connect");

    // one program, all regimes, both peephole settings: cache locality
    // demands a single node sees all of it
    let program = quick_program(12);
    for regime in EngineRegime::ALL {
        for peephole in [false, true] {
            let request = WireRequest::new(Arc::clone(&program), regime)
                .fuel(100_000)
                .peephole(peephole);
            let reply = client.call(&request).expect("reply");
            assert_eq!(reply.status, ReplyStatus::Ok);
        }
    }
    client.goodbye().expect("drain");

    let proxy_snap = proxy.shutdown();
    let busy: Vec<bool> = nodes.iter().map(|n| n.metrics().submits > 0).collect();
    assert_eq!(
        busy.iter().filter(|&&b| b).count(),
        1,
        "all regimes of one program must share one node (submits per node: {busy:?}, \
         forwarded: {:?})",
        proxy_snap.forwarded
    );
    for node in nodes {
        let _ = node.shutdown();
    }
}

#[test]
fn batch_items_are_unbundled_and_routed_independently() {
    let (nodes, proxy) = start_cluster(false);
    let client = Client::connect(proxy.addr(), 32).expect("connect");

    // a batch of distinct programs: items may land on different nodes,
    // but each must answer under its own correlation id
    let requests: Vec<WireRequest> = (2..14)
        .map(|k| WireRequest::new(quick_program(k), EngineRegime::Tos).fuel(100_000))
        .collect();
    let pending = client.submit_batch(&requests).expect("batch");
    for (request, p) in requests.iter().zip(pending) {
        let reply = p.wait().expect("batch item reply");
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.differs_from(&reference_outcome(request)), None);
    }

    let snap = proxy.metrics();
    assert_eq!(snap.forwarded_total(), 12);
    assert_eq!(snap.replies, 12);
    client.goodbye().expect("drain");
    shut_down(nodes, proxy);
}

#[test]
fn identical_submissions_through_the_router_coalesce_on_their_node() {
    let (nodes, proxy) = start_cluster(true);
    let client = Client::connect(proxy.addr(), 32).expect("connect");

    // a burst of identical slow submissions: the ring sends all of them
    // to one node, whose service runs the program once and fans the
    // result out — the replies must still be byte-identical
    let request =
        WireRequest::new(slow_program(200_000), EngineRegime::Reference).fuel(1_000_000_000);
    let pending: Vec<_> = (0..8)
        .map(|_| client.submit(&request).expect("submit"))
        .collect();
    let replies: Vec<_> = pending
        .into_iter()
        .map(|p| p.wait().expect("reply"))
        .collect();
    for reply in &replies {
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.differs_from(&reference_outcome(&request)), None);
        // request ids differ per submission, but the execution payload
        // must be byte-identical to the leader's
        assert_eq!(reply.memory_hash, replies[0].memory_hash);
        assert_eq!(reply.output, replies[0].output);
        assert_eq!(reply.executed, replies[0].executed);
    }
    client.goodbye().expect("drain");

    let _ = proxy.shutdown();
    let saved: u64 = nodes
        .iter()
        .map(|n| n.service_metrics().coalesced_executions_saved)
        .sum();
    assert!(
        saved > 0,
        "an 8-wide identical burst through the router must coalesce on its node"
    );
    for node in nodes {
        let _ = node.shutdown();
    }
}

#[test]
fn router_survives_node_loss_with_typed_replies() {
    let (mut nodes, proxy) = start_cluster(false);
    let client = Client::connect(proxy.addr(), 16).expect("connect");

    // warm path works
    let request = WireRequest::new(quick_program(3), EngineRegime::Tos).fuel(100_000);
    assert_eq!(
        client.call(&request).expect("reply").status,
        ReplyStatus::Ok
    );

    // kill both nodes out from under the router
    for node in nodes.drain(..) {
        let _ = node.shutdown();
    }
    std::thread::sleep(Duration::from_millis(100));

    // subsequent submissions answer with a typed ShutDown status (the
    // connection stays usable), never a hang or a protocol error
    let mut saw_shutdown = false;
    for k in 2..10 {
        let request = WireRequest::new(quick_program(k), EngineRegime::Tos).fuel(100_000);
        match client.call(&request) {
            Ok(reply) => {
                assert_eq!(reply.status, ReplyStatus::ShutDown, "k={k}");
                saw_shutdown = true;
            }
            Err(_) => break, // router itself may be tearing down late
        }
    }
    assert!(
        saw_shutdown,
        "node loss must surface as typed ShutDown replies"
    );
    let _ = proxy.shutdown();
}
