//! Distributed tracing over live loopback sockets: feature
//! negotiation, traced submissions and their span summaries, the
//! in-protocol scrape frames, tail-sampling at the cluster tier — and
//! the golden-compatibility guarantee that a legacy v1 client sees
//! byte-identical frames from a trace-enabled server.

mod util;

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use stackcache_core::EngineRegime;
use stackcache_net::{
    Client, Frame, NetConfig, NetProxy, NetServer, ProxyConfig, ReplyStatus, WireRequest,
    FEATURE_TRACE, HEADER_LEN, METRICS_FORMAT_JSON, METRICS_FORMAT_PROMETHEUS,
};
use stackcache_obs::{prometheus_lint, SpanIdGen, SpanKind, TraceAssembler, TraceTree};
use stackcache_svc::{Service, ServiceConfig};
use stackcache_vm::{program_of, Inst};
use util::{quick_program, reference_outcome, slow_program};

fn traced_node(label: &str) -> NetServer {
    traced_node_with(label, ServiceConfig::default())
}

fn traced_node_with(label: &str, service: ServiceConfig) -> NetServer {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 256,
        ..service
    });
    NetServer::start(
        service,
        NetConfig {
            node: label.to_string(),
            ..NetConfig::default()
        },
    )
    .expect("bind node")
}

#[test]
fn traced_submission_returns_spans_that_assemble() {
    let node = traced_node("node-a");
    let client = Client::connect_traced(node.addr(), 8).expect("connect");
    assert_eq!(client.features() & FEATURE_TRACE, FEATURE_TRACE);

    let ids = SpanIdGen::new("test-root");
    let trace_id = ids.next_id();
    let root_id = ids.next_id();
    let request = WireRequest::new(quick_program(7), EngineRegime::Tos).fuel(100_000);
    let (reply, trace) = client
        .submit_traced(&request, trace_id, root_id)
        .expect("submit")
        .wait_traced()
        .expect("reply");
    assert_eq!(reply.status, ReplyStatus::Ok);
    assert_eq!(reply.differs_from(&reference_outcome(&request)), None);

    let trace = trace.expect("a negotiated connection answers ReplyTraced");
    let kinds: Vec<SpanKind> = trace.spans.iter().map(|s| s.kind).collect();
    for want in [
        SpanKind::Queue,
        SpanKind::Cache,
        SpanKind::Admit,
        SpanKind::Exec,
    ] {
        assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
    }
    for span in &trace.spans {
        assert_eq!(span.trace_id, trace_id);
        assert_eq!(span.parent_span_id, root_id);
        assert_ne!(span.span_id, 0);
        assert_eq!(span.node_str(), "svc", "worker spans keep the svc label");
        assert!(span.end_nanos >= span.start_nanos);
    }
    let queue = trace
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Queue)
        .expect("queue span");
    assert_eq!(queue.duration_nanos(), trace.queue_wait_nanos);

    // the caller owns the root: with it added, the spans stitch into
    // exactly one rooted tree
    let mut asm = TraceAssembler::new();
    asm.add(stackcache_obs::SpanRecord {
        trace_id,
        span_id: root_id,
        parent_span_id: 0,
        kind: SpanKind::Root,
        start_nanos: 0,
        end_nanos: u64::MAX,
        node: stackcache_obs::node_label("test-root"),
        attr: 0,
        request: 0,
    });
    for s in &trace.spans {
        asm.add(*s);
    }
    let tree = asm.assemble(trace_id).expect("one rooted tree");
    assert_eq!(tree.span_count, 1 + trace.spans.len());

    client.goodbye().expect("drain");
    let _ = node.shutdown();
}

#[test]
fn duplicate_submissions_keep_distinct_span_ids() {
    let node = traced_node("node-a");
    let client = Client::connect_traced(node.addr(), 8).expect("connect");
    let ids = SpanIdGen::new("test-root");
    let trace_id = ids.next_id();
    let root_id = ids.next_id();
    let request = WireRequest::new(quick_program(5), EngineRegime::Static(2)).fuel(100_000);

    let mut seen = std::collections::HashSet::new();
    for _ in 0..4 {
        let (reply, trace) = client
            .submit_traced(&request, trace_id, root_id)
            .expect("submit")
            .wait_traced()
            .expect("reply");
        assert_eq!(reply.status, ReplyStatus::Ok);
        for span in trace.expect("traced reply").spans {
            assert!(
                seen.insert(span.span_id),
                "span id {:#x} reused across replies",
                span.span_id
            );
        }
    }
    client.goodbye().expect("drain");
    let _ = node.shutdown();
}

#[test]
fn trace_and_metrics_fetch_answer_in_protocol() {
    let node = traced_node("node-a");
    let client = Client::connect_traced(node.addr(), 8).expect("connect");

    let ids = SpanIdGen::new("test-root");
    let request = WireRequest::new(quick_program(9), EngineRegime::Tos).fuel(100_000);
    let (reply, _) = client
        .submit_traced(&request, ids.next_id(), ids.next_id())
        .expect("submit")
        .wait_traced()
        .expect("reply");
    assert_eq!(reply.status, ReplyStatus::Ok);

    let spans = client.fetch_trace().expect("trace fetch");
    assert!(
        spans.contains("\"spans\":[") && spans.contains("\"exec\""),
        "span dump must carry the exec span: {spans}"
    );

    let page = client
        .fetch_metrics(METRICS_FORMAT_PROMETHEUS)
        .expect("metrics fetch");
    prometheus_lint(&page).expect("in-protocol scrape page must lint clean");
    assert!(page.contains("net_traced_submits_total 1\n"));

    let doc = client
        .fetch_metrics(METRICS_FORMAT_JSON)
        .expect("json fetch");
    assert!(doc.starts_with('{') && doc.contains("\"svc\""));

    client.goodbye().expect("drain");
    let _ = node.shutdown();
}

/// The golden-compatibility satellite: a pure-v1 client (raw bytes,
/// no extended Hello) must see byte-identical v1 frames from a
/// trace-enabled server — negotiation is opt-in, never ambient.
#[test]
fn legacy_client_sees_byte_identical_v1_frames() {
    let node = traced_node("node-a");
    let mut sock = TcpStream::connect(node.addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let read_exact_frame = |sock: &mut TcpStream| -> Vec<u8> {
        let mut header = [0u8; HEADER_LEN];
        sock.read_exact(&mut header).expect("frame header");
        let len = u32::from_le_bytes(header[16..20].try_into().expect("len")) as usize;
        let mut body = vec![0u8; len];
        sock.read_exact(&mut body).expect("frame body");
        let mut all = header.to_vec();
        all.extend_from_slice(&body);
        all
    };

    // legacy Hello: the reply must be the legacy 8-byte HelloOk image,
    // not the extended 12-byte one
    sock.write_all(&Frame::Hello { window: 4 }.encode())
        .expect("hello");
    let hello_ok = read_exact_frame(&mut sock);
    assert_eq!(
        hello_ok,
        Frame::HelloOk {
            window: 4,
            max_frame: 1 << 20,
        }
        .encode(),
        "legacy handshake must stay byte-identical"
    );

    // legacy Ping: byte-identical Pong
    sock.write_all(&Frame::Ping { corr: 0xAB }.encode())
        .expect("ping");
    assert_eq!(
        read_exact_frame(&mut sock),
        Frame::Pong { corr: 0xAB }.encode()
    );

    // legacy Submit: the reply frame must be kind 9 (Reply), never
    // ReplyTraced, and decode as plain v1
    let request = WireRequest::new(quick_program(3), EngineRegime::Tos).fuel(100_000);
    sock.write_all(&Frame::Submit { corr: 7, request }.encode())
        .expect("submit");
    let reply_bytes = read_exact_frame(&mut sock);
    assert_eq!(reply_bytes[6], 9, "legacy submit must answer kind 9 Reply");
    match stackcache_net::decode_frame(&reply_bytes, 1 << 20).expect("decode") {
        Frame::Reply { corr, reply } => {
            assert_eq!(corr, 7);
            assert_eq!(reply.status, ReplyStatus::Ok);
        }
        other => panic!("expected Reply, got {:?}", other.kind()),
    }

    drop(sock);
    let _ = node.shutdown();
}

#[test]
fn unnegotiated_trace_frames_end_the_connection_with_a_typed_error() {
    let node = traced_node("node-a");
    let mut sock = TcpStream::connect(node.addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    sock.write_all(&Frame::Hello { window: 4 }.encode())
        .expect("hello");
    let mut hello_ok = vec![0u8; HEADER_LEN + 8];
    sock.read_exact(&mut hello_ok).expect("hello ok");

    // TraceFetch without negotiation: one ProtoError frame, then close
    sock.write_all(&Frame::TraceFetch { corr: 1 }.encode())
        .expect("trace fetch");
    let mut header = [0u8; HEADER_LEN];
    sock.read_exact(&mut header).expect("error header");
    assert_eq!(header[6], 10, "expected a ProtoError frame");
    let len = u32::from_le_bytes(header[16..20].try_into().expect("len")) as usize;
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body).expect("error body");
    assert_eq!(
        body[0],
        stackcache_net::ERR_UNEXPECTED_FRAME,
        "un-negotiated trace frames earn ERR_UNEXPECTED_FRAME"
    );

    let _ = node.shutdown();
}

/// A tail-sampled tree is rooted at the proxy, with one forward hop
/// naming a ring node and that node's stage spans — queue and exec
/// among them — parented under the hop: no orphans. `labels[i]` is the
/// service label of ring node `i`; every span under a hop must carry
/// the label of the node the hop names.
fn assert_rooted(tree: &TraceTree, labels: &[&str]) {
    assert_eq!(tree.root.span.kind, SpanKind::Root);
    assert_eq!(tree.root.span.parent_span_id, 0);
    assert_eq!(tree.root.span.node_str(), "proxy");
    assert_eq!(tree.root.children.len(), 1, "one forward hop per request");
    let forward = &tree.root.children[0];
    assert_eq!(forward.span.kind, SpanKind::Forward);
    let node = forward.span.attr as usize;
    assert!(
        node < labels.len(),
        "hop names node {node} of {}",
        labels.len()
    );
    for want in [SpanKind::Queue, SpanKind::Exec] {
        assert!(
            forward.children.iter().any(|c| c.span.kind == want),
            "{want:?} stage span missing under the hop"
        );
    }
    for child in &forward.children {
        assert_eq!(
            child.span.node_str(),
            labels[node],
            "{:?} span hangs under the hop to node {node}",
            child.span.kind
        );
    }
}

/// The labels of the two-node rings below, in ring order.
const RING: [&str; 2] = ["node-a", "node-b"];

/// A ring node whose service stamps its spans with the node's own
/// label, so a tree can tell which node's spans hang under a hop.
fn labelled_node(label: &str, service: ServiceConfig) -> NetServer {
    traced_node_with(
        label,
        ServiceConfig {
            node: label.to_string(),
            ..service
        },
    )
}

#[test]
fn cluster_tail_sampling_assembles_rooted_trees() {
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    for label in RING {
        let node = labelled_node(label, ServiceConfig::default());
        addrs.push(node.addr().to_string());
        nodes.push(node);
    }
    let proxy = NetProxy::start(ProxyConfig {
        nodes: addrs,
        node: "proxy".to_string(),
        // sample everything: every request is "slow" at threshold zero
        slow_threshold: Duration::ZERO,
        trace_store_capacity: 256,
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    // a plain v1 client: the proxy originates every trace at ingress
    let client = Client::connect(proxy.addr(), 16).expect("connect");
    let mut submitted = 0usize;
    for k in 2..14 {
        for regime in [EngineRegime::Tos, EngineRegime::Static(2)] {
            let request = WireRequest::new(quick_program(k), regime).fuel(100_000);
            let reply = client.call(&request).expect("reply");
            assert_eq!(reply.status, ReplyStatus::Ok);
            assert_eq!(reply.differs_from(&reference_outcome(&request)), None);
            submitted += 1;
        }
    }
    client.goodbye().expect("drain");

    let trees = proxy.sampled_traces();
    assert_eq!(
        trees.len(),
        submitted,
        "threshold zero must tail-sample every request"
    );
    let snap = proxy.metrics();
    assert_eq!(snap.sampled_traces, submitted as u64);
    assert_eq!(
        snap.assembly_failures, 0,
        "every sampled trace must assemble into one rooted tree"
    );
    // the proxy propagated every sampled trace's context upstream
    let traced_submits: u64 = nodes.iter().map(|n| n.metrics().traced_submits).sum();
    assert!(
        traced_submits >= snap.sampled_traces,
        "nodes saw {traced_submits} traced submits for {} sampled traces",
        snap.sampled_traces
    );
    let mut saw_node = [false, false];
    for tree in &trees {
        assert_rooted(tree, &RING);
        let forward = &tree.root.children[0];
        saw_node[forward.span.attr as usize] = true;
        assert_eq!(
            tree.span_count, 6,
            "root + forward + the node's four stage spans"
        );
        assert_eq!(forward.children.len(), 4);
        let text = tree.render_text();
        assert!(text.contains("root") && text.contains("exec"), "{text}");
    }
    assert!(
        saw_node[0] && saw_node[1],
        "both nodes must appear across the sampled traces"
    );

    // the sampled trees are fetchable in-protocol
    let fetcher = Client::connect_traced(proxy.addr(), 4).expect("connect traced");
    let json = fetcher.fetch_trace().expect("trace fetch");
    assert!(json.starts_with('[') && json.contains("\"root\""));
    let page = fetcher
        .fetch_metrics(METRICS_FORMAT_PROMETHEUS)
        .expect("metrics fetch");
    prometheus_lint(&page).expect("proxy scrape page must lint clean");
    fetcher.goodbye().expect("drain");

    let _ = proxy.shutdown();
    for node in nodes {
        let _ = node.shutdown();
    }
}

/// The tail in tail sampling: with the slow threshold out of reach,
/// healthy quick requests leave nothing in the store while every
/// trapping request is captured as a rooted tree.
#[test]
fn tail_sampling_keeps_exactly_the_traps() {
    const OK: usize = 8;
    const TRAPS: usize = 4;
    let node = traced_node("node-a");
    let proxy = NetProxy::start(ProxyConfig {
        nodes: vec![node.addr().to_string()],
        node: "proxy".to_string(),
        slow_threshold: Duration::from_secs(3600),
        trace_store_capacity: OK + TRAPS,
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    let client = Client::connect(proxy.addr(), 8).expect("connect");
    for k in 0..OK {
        let request = WireRequest::new(quick_program(k as i64), EngineRegime::Tos).fuel(100_000);
        let reply = client.call(&request).expect("reply");
        assert_eq!(reply.differs_from(&reference_outcome(&request)), None);
    }
    // a fetch far past the memory image passes static analysis but
    // traps at runtime inside a worker: the unhappy-status trigger,
    // with real stage spans behind it
    let trap = WireRequest::new(
        Arc::new(program_of(&[Inst::Lit(1 << 40), Inst::Fetch])),
        EngineRegime::Tos,
    )
    .fuel(100_000);
    for _ in 0..TRAPS {
        let reply = client.call(&trap).expect("reply");
        assert_eq!(reply.status, ReplyStatus::Trap);
        assert_eq!(reply.differs_from(&reference_outcome(&trap)), None);
    }
    client.goodbye().expect("drain");

    let trees = proxy.sampled_traces();
    assert_eq!(trees.len(), TRAPS, "exactly the traps are sampled");
    for tree in &trees {
        assert_rooted(tree, &["svc"]);
    }
    let snap = proxy.shutdown();
    assert_eq!(snap.sampled_traces, TRAPS as u64);
    assert_eq!(snap.assembly_failures, 0);
    let _ = node.shutdown();
}

/// A coalesced fanout is recorded on the exec span of every sampled
/// tree it answered, and each of those trees is still rooted.
#[test]
fn sampled_trees_record_a_coalesced_fanout() {
    let mut nodes = Vec::new();
    let mut addrs = Vec::new();
    for label in RING {
        let node = labelled_node(label, ServiceConfig::default().coalescing());
        addrs.push(node.addr().to_string());
        nodes.push(node);
    }
    let proxy = NetProxy::start(ProxyConfig {
        nodes: addrs,
        node: "proxy".to_string(),
        slow_threshold: Duration::ZERO,
        trace_store_capacity: 64,
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    let client = Client::connect(proxy.addr(), 16).expect("connect");
    let request =
        WireRequest::new(slow_program(150_000), EngineRegime::Reference).fuel(1_000_000_000);
    let expected = reference_outcome(&request);
    let pending: Vec<_> = (0..8)
        .map(|_| client.submit(&request).expect("submit"))
        .collect();
    for p in pending {
        assert_eq!(p.wait().expect("reply").differs_from(&expected), None);
    }
    client.goodbye().expect("drain");

    let trees = proxy.sampled_traces();
    assert_eq!(trees.len(), 8, "threshold zero samples every request");
    for tree in &trees {
        assert_rooted(tree, &RING);
    }
    assert!(
        trees.iter().any(|t| t.root.children[0]
            .children
            .iter()
            .any(|c| c.span.kind == SpanKind::Exec && c.span.attr > 0)),
        "no sampled tree records a coalesced fanout"
    );
    let snap = proxy.shutdown();
    assert_eq!(snap.assembly_failures, 0);
    let traced_submits: u64 = nodes.iter().map(|n| n.metrics().traced_submits).sum();
    assert!(traced_submits >= snap.sampled_traces);
    for node in nodes {
        let _ = node.shutdown();
    }
}

#[test]
fn caller_traced_requests_pass_their_context_through_the_proxy() {
    let node = traced_node("node-a");
    let proxy = NetProxy::start(ProxyConfig {
        nodes: vec![node.addr().to_string()],
        node: "proxy".to_string(),
        slow_threshold: Duration::from_secs(3600),
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    let client = Client::connect_traced(proxy.addr(), 8).expect("connect");
    let ids = SpanIdGen::new("caller");
    let trace_id = ids.next_id();
    let root_id = ids.next_id();
    let request = WireRequest::new(quick_program(11), EngineRegime::Tos).fuel(100_000);
    let (reply, trace) = client
        .submit_traced(&request, trace_id, root_id)
        .expect("submit")
        .wait_traced()
        .expect("reply");
    assert_eq!(reply.status, ReplyStatus::Ok);
    let trace = trace.expect("traced reply through the proxy");

    // the caller owns the root: the proxy's spans parent into the
    // caller's span, the node's spans into the proxy's forward span
    let mut asm = TraceAssembler::new();
    asm.add(stackcache_obs::SpanRecord {
        trace_id,
        span_id: root_id,
        parent_span_id: 0,
        kind: SpanKind::Root,
        start_nanos: 0,
        end_nanos: u64::MAX,
        node: stackcache_obs::node_label("caller"),
        attr: 0,
        request: 0,
    });
    for s in &trace.spans {
        assert_eq!(s.trace_id, trace_id);
        asm.add(*s);
    }
    let tree = asm.assemble(trace_id).expect("caller-rooted tree");
    assert_eq!(tree.span_count, 1 + trace.spans.len());
    let hops: Vec<String> = trace.spans.iter().map(|s| s.node_str()).collect();
    assert!(hops.iter().any(|n| n == "proxy"), "{hops:?}");
    assert!(hops.iter().any(|n| n == "svc"), "{hops:?}");

    // nothing tail-sampled: the caller owns this trace's root
    assert!(proxy.sampled_traces().is_empty());

    client.goodbye().expect("drain");
    let _ = proxy.shutdown();
    let _ = node.shutdown();
}

/// Head sampling captures healthy traffic at the requested rate: with
/// tail triggers out of reach (hour-long slow threshold, all-Ok
/// replies), a `sample_ppm` proxy stores each request exactly when the
/// deterministic sampler stream accepts it — so a single-connection run
/// reproduces the accept count computable from [`SAMPLER_SEED`], and
/// that count sits near `requests * ppm / 1e6`.
#[test]
fn head_sampling_captures_healthy_traffic_at_the_requested_rate() {
    use stackcache_net::proxy::SAMPLER_SEED;
    use stackcache_vm::Rng;

    const PPM: u32 = 400_000; // 40%
    const REQUESTS: usize = 200;

    let node = traced_node("node-a");
    let proxy = NetProxy::start(ProxyConfig {
        nodes: vec![node.addr().to_string()],
        node: "proxy".to_string(),
        // tail triggers can't fire: nothing is slow, nothing traps
        slow_threshold: Duration::from_secs(3600),
        sample_ppm: PPM,
        trace_store_capacity: REQUESTS,
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    // one synchronous client: ingress order is submission order, so
    // the proxy's sampler draws line up one-to-one with our requests
    let client = Client::connect(proxy.addr(), 4).expect("connect");
    for i in 0..REQUESTS {
        let k = 2 + (i as i64 % 12);
        let request = WireRequest::new(quick_program(k), EngineRegime::Tos).fuel(100_000);
        let reply = client.call(&request).expect("reply");
        assert_eq!(reply.status, ReplyStatus::Ok, "request {i}");
    }
    client.goodbye().expect("drain");

    // replay the decision stream the proxy used
    let mut rng = Rng::new(SAMPLER_SEED);
    let expected = (0..REQUESTS)
        .filter(|_| rng.below(1_000_000) < u64::from(PPM))
        .count();

    let snap = proxy.metrics();
    assert_eq!(snap.head_sampled, expected as u64, "deterministic accepts");
    assert_eq!(snap.sampled_traces, expected as u64);
    assert_eq!(proxy.sampled_traces().len(), expected);

    // and the deterministic count honours the requested rate
    let observed = expected as f64 / REQUESTS as f64;
    let requested = f64::from(PPM) / 1e6;
    assert!(
        (observed - requested).abs() < 0.10,
        "observed rate {observed:.3} vs requested {requested:.3}"
    );

    let _ = proxy.shutdown();
    let _ = node.shutdown();
}

/// Satellite: traced batch unbundling stamps one shared batch parent
/// span. Every item's reply carries a copy of the batch span (same span
/// id, `attr` = batch size), the item's whole-request span parents to
/// it, and each item's trace still assembles into one caller-rooted
/// tree with the batch span on the path.
#[test]
fn traced_batches_share_one_batch_parent_span() {
    let node = traced_node("node-a");
    let proxy = NetProxy::start(ProxyConfig {
        nodes: vec![node.addr().to_string()],
        node: "proxy".to_string(),
        slow_threshold: Duration::from_secs(3600),
        ..ProxyConfig::default()
    })
    .expect("start proxy");

    let client = Client::connect_traced(proxy.addr(), 8).expect("connect");
    let ids = SpanIdGen::new("caller");
    let items: Vec<(WireRequest, u64, u64)> = (0..3)
        .map(|i| {
            (
                WireRequest::new(quick_program(3 + i), EngineRegime::Tos).fuel(100_000),
                ids.next_id(),
                ids.next_id(),
            )
        })
        .collect();
    let replies: Vec<_> = client
        .submit_batch_traced(&items)
        .expect("batch submit")
        .into_iter()
        .map(|p| p.wait_traced().expect("reply"))
        .collect();

    let mut batch_span_ids = Vec::new();
    for ((request, trace_id, parent_id), (reply, trace)) in items.iter().zip(&replies) {
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.differs_from(&reference_outcome(request)), None);
        let trace = trace.as_ref().expect("traced reply");

        let batch: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Batch)
            .collect();
        assert_eq!(batch.len(), 1, "exactly one batch span per item reply");
        let batch = batch[0];
        assert_eq!(batch.trace_id, *trace_id);
        assert_eq!(batch.parent_span_id, *parent_id);
        assert_eq!(batch.attr, items.len() as u64);
        assert_eq!(batch.node_str(), "proxy");
        batch_span_ids.push(batch.span_id);

        // the item's whole-request span hangs off the batch span, and
        // the forward chain hangs off the item span
        let item_span = trace
            .spans
            .iter()
            .find(|s| s.parent_span_id == batch.span_id)
            .expect("item span parented to the batch span");
        assert_eq!(item_span.kind, SpanKind::Forward);
        assert!(
            trace
                .spans
                .iter()
                .any(|s| s.parent_span_id == item_span.span_id),
            "forward chain hangs off the item span"
        );

        // with the caller's root added, the spans are one rooted tree
        let mut asm = TraceAssembler::new();
        asm.add(stackcache_obs::SpanRecord {
            trace_id: *trace_id,
            span_id: *parent_id,
            parent_span_id: 0,
            kind: SpanKind::Root,
            start_nanos: 0,
            end_nanos: u64::MAX,
            node: stackcache_obs::node_label("caller"),
            attr: 0,
            request: 0,
        });
        for s in &trace.spans {
            assert_eq!(s.trace_id, *trace_id);
            asm.add(*s);
        }
        let tree = asm.assemble(*trace_id).expect("caller-rooted tree");
        assert_eq!(tree.span_count, 1 + trace.spans.len());
    }

    // one batch: every sibling saw the *same* batch span id
    batch_span_ids.dedup();
    assert_eq!(batch_span_ids.len(), 1, "siblings share one batch span");

    // a second batch gets a fresh batch span
    let again: Vec<(WireRequest, u64, u64)> = (0..2)
        .map(|i| {
            (
                WireRequest::new(quick_program(9 + i), EngineRegime::Tos).fuel(100_000),
                ids.next_id(),
                ids.next_id(),
            )
        })
        .collect();
    let reply = client.submit_batch_traced(&again).expect("batch submit");
    let (_, trace) = reply
        .into_iter()
        .next()
        .expect("first reply")
        .wait_traced()
        .expect("reply");
    let second = trace
        .expect("traced reply")
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Batch)
        .map(|s| s.span_id)
        .expect("batch span");
    assert_ne!(second, batch_span_ids[0]);

    client.goodbye().expect("drain");
    let _ = proxy.shutdown();
    let _ = node.shutdown();
}
