//! End-to-end tests of the daemon over real loopback sockets: hierarchy
//! cache semantics (a warm request is bit-identical to its cold run and
//! to the library), and protocol robustness (the malformed-graph corpus
//! over the wire returns typed errors and never kills the daemon or
//! poisons the cache).

use mcgp_check::corpus::{ExpectedError, MALFORMED_GRAPHS, MALFORMED_GRAPH_BYTES};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::mrng_like;
use mcgp_graph::io::write_metis;
use mcgp_graph::{synthetic, Graph};
use mcgp_runtime::net::{http_request, ClientResponse, Limits, NetClient};
use mcgp_runtime::Json;
use mcgp_serve::server::{ServeConfig, Server};
use mcgp_serve::ServerHandle;
use std::io::{Read, Write};
use std::time::Duration;

type ServerThread = std::thread::JoinHandle<std::io::Result<()>>;

fn start(config: ServeConfig) -> (String, ServerHandle, ServerThread) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

fn start_default() -> (String, ServerHandle, ServerThread) {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
}

fn stop(handle: &ServerHandle, thread: ServerThread) {
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

fn metis_bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    write_metis(g, &mut out).unwrap();
    out
}

fn post(addr: &str, target: &str, body: &[u8]) -> ClientResponse {
    http_request(addr, "POST", target, &[], body, Some(Duration::from_secs(120))).unwrap()
}

fn get(addr: &str, target: &str) -> ClientResponse {
    http_request(addr, "GET", target, &[], b"", Some(Duration::from_secs(30))).unwrap()
}

/// Parses a success body into (meta, assignment, done).
fn parse_body(text: &str) -> (Json, Vec<u32>, Json) {
    let mut lines = text.lines();
    let meta = Json::parse(lines.next().expect("meta line")).unwrap();
    assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
    let mut parts: Vec<u32> = Vec::new();
    let mut done = None;
    for line in lines {
        let doc = Json::parse(line).unwrap();
        match doc.get("type").unwrap().as_str().unwrap() {
            "part" => {
                let offset = doc.get("offset").unwrap().as_i64().unwrap() as usize;
                assert_eq!(offset, parts.len(), "part lines in order");
                parts.extend(
                    doc.get("parts")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|p| p.as_i64().unwrap() as u32),
                );
            }
            "done" => done = Some(doc),
            other => panic!("unexpected body line type: {other}"),
        }
    }
    (meta, parts, done.expect("done line"))
}

#[test]
fn warm_requests_are_bit_identical_and_match_the_library() {
    let graph = synthetic::type1(&mrng_like(1500, 7), 2, 7);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Cold: pays coarsening.
    let cold = post(&addr, "/partition?k=4", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-mcgp-cache"), Some("miss"));
    assert!(cold.header("x-mcgp-trace-id").is_some());
    let cold_coarsen: u64 = cold.header("x-mcgp-coarsen-us").unwrap().parse().unwrap();
    assert!(cold_coarsen > 0, "cold run must pay coarsening");

    // Identical request: cache hit, zero coarsening, byte-identical body.
    let warm = post(&addr, "/partition?k=4", &body);
    assert_eq!(warm.header("x-mcgp-cache"), Some("hit"));
    let warm_coarsen: u64 = warm.header("x-mcgp-coarsen-us").unwrap().parse().unwrap();
    assert_eq!(warm_coarsen, 0, "warm run must not coarsen");
    assert_eq!(cold.body, warm.body, "responses must be byte-identical");

    // Same fingerprint, different (k, ε): still a hit, and bit-identical
    // to what the library computes cold.
    let other = post(&addr, "/partition?k=8&tol=0.2", &body);
    assert_eq!(other.status, 200, "{}", other.text());
    assert_eq!(other.header("x-mcgp-cache"), Some("hit"));
    let (meta, parts, done) = parse_body(&other.text());
    assert_eq!(meta.get("k").unwrap().as_i64(), Some(8));
    let lib_cfg = PartitionConfig {
        imbalance_tol: 0.2,
        ..PartitionConfig::default()
    };
    let lib = partition_kway(&graph, 8, &lib_cfg);
    assert_eq!(parts, lib.partition.assignment(), "served != library");
    assert_eq!(
        done.get("edge_cut").unwrap().as_i64(),
        Some(lib.quality.edge_cut)
    );
    assert_eq!(
        meta.get("levels").unwrap().as_i64().unwrap() as usize,
        lib.coarsen_levels
    );

    // A different seed is a different fingerprint: cold again.
    let reseeded = post(&addr, "/partition?k=4&seed=9", &body);
    assert_eq!(reseeded.header("x-mcgp-cache"), Some("miss"));

    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(metrics.text().trim()).unwrap();
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_i64(), Some(2));
    assert_eq!(cache.get("misses").unwrap().as_i64(), Some(2));
    assert_eq!(cache.get("entries").unwrap().as_i64(), Some(2));
    assert_eq!(doc.get("errors").unwrap().as_i64(), Some(0));

    stop(&handle, thread);
}

#[test]
fn json_and_metis_ingest_agree_on_the_same_graph() {
    let graph = mrng_like(600, 3);
    let metis = metis_bytes(&graph);
    let json_body = Json::obj([
        (
            "xadj",
            Json::Arr(graph.xadj().iter().map(|&x| Json::UInt(x as u64)).collect()),
        ),
        (
            "adjncy",
            Json::Arr(
                graph
                    .adjncy()
                    .iter()
                    .map(|&x| Json::UInt(x as u64))
                    .collect(),
            ),
        ),
        (
            "adjwgt",
            Json::Arr(
                graph
                    .adjwgt()
                    .iter()
                    .map(|&x| Json::Int(x))
                    .collect(),
            ),
        ),
        (
            "vwgt",
            Json::Arr(graph.vwgt_flat().iter().map(|&x| Json::Int(x)).collect()),
        ),
        ("ncon", Json::UInt(graph.ncon() as u64)),
    ])
    .to_string();
    let (addr, handle, thread) = start_default();

    let via_metis = post(&addr, "/partition?k=6", &metis);
    assert_eq!(via_metis.status, 200, "{}", via_metis.text());
    let via_json = http_request(
        &addr,
        "POST",
        "/partition?k=6",
        &[("Content-Type", "application/json")],
        json_body.as_bytes(),
        Some(Duration::from_secs(120)),
    )
    .unwrap();
    assert_eq!(via_json.status, 200, "{}", via_json.text());
    // Different wire bytes → different fingerprints → both cold ...
    assert_eq!(via_json.header("x-mcgp-cache"), Some("miss"));
    // ... but the same graph, seed, and knobs → the same partition.
    let (_, parts_m, done_m) = parse_body(&via_metis.text());
    let (_, parts_j, done_j) = parse_body(&via_json.text());
    assert_eq!(parts_m, parts_j);
    assert_eq!(
        done_m.get("edge_cut").unwrap().as_i64(),
        done_j.get("edge_cut").unwrap().as_i64()
    );

    stop(&handle, thread);
}

#[test]
fn malformed_corpus_over_the_wire_yields_typed_errors_not_a_dead_daemon() {
    let (addr, handle, thread) = start_default();

    for (label, text, expected) in MALFORMED_GRAPHS {
        let resp = post(&addr, "/partition?k=4", text.as_bytes());
        assert!(
            resp.status == 400 || resp.status == 413,
            "{label}: expected a 4xx, got {} ({})",
            resp.status,
            resp.text()
        );
        let doc = Json::parse(resp.text().trim())
            .unwrap_or_else(|e| panic!("{label}: error body is not JSON: {e}"));
        assert_eq!(doc.get("type").unwrap().as_str(), Some("error"), "{label}");
        let kind = doc.get("kind").unwrap().as_str().unwrap().to_string();
        let allowed: &[&str] = match expected {
            ExpectedError::Parse => &["parse"],
            ExpectedError::Overflow => &["overflow"],
            ExpectedError::Structure => &["malformed", "not_undirected", "invariant"],
        };
        assert!(
            allowed.contains(&kind.as_str()),
            "{label}: kind '{kind}' not in {allowed:?}"
        );
        assert!(!doc.get("detail").unwrap().as_str().unwrap().is_empty());
    }

    // The daemon survived the whole corpus, cached nothing from it, and
    // still partitions a valid graph.
    assert_eq!(get(&addr, "/healthz").status, 200);
    let metrics = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    assert_eq!(
        metrics.get("cache").unwrap().get("entries").unwrap().as_i64(),
        Some(0),
        "malformed inputs must not populate the cache"
    );
    assert_eq!(
        metrics.get("errors").unwrap().as_i64(),
        Some(MALFORMED_GRAPHS.len() as i64)
    );
    let ok = post(&addr, "/partition?k=2", &metis_bytes(&mrng_like(300, 1)));
    assert_eq!(ok.status, 200, "{}", ok.text());

    stop(&handle, thread);
}

#[test]
fn invalid_utf8_bodies_are_positioned_parse_errors() {
    // The METIS reader scans bytes, so a body that is not UTF-8 fails the
    // token it lands in: kind `parse` with a line and token, not `io`.
    let (addr, handle, thread) = start_default();
    for (label, bytes, _) in MALFORMED_GRAPH_BYTES {
        let resp = post(&addr, "/partition?k=2", bytes);
        assert_eq!(resp.status, 400, "{label}: {}", resp.text());
        let doc = Json::parse(resp.text().trim()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("parse"), "{label}");
        let detail = doc.get("detail").unwrap().as_str().unwrap();
        assert!(detail.contains("at line 2, token"), "{label}: {detail}");
    }
    assert_eq!(get(&addr, "/healthz").status, 200);
    stop(&handle, thread);
}

#[test]
fn protocol_errors_are_typed_and_survivable() {
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..ServeConfig::default()
    });
    let small = metis_bytes(&mrng_like(30, 1));

    // Raw non-HTTP bytes: typed 400, connection handled.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GARBAGE FRAME\r\n\r\n").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("bad_request"), "{answer}");

    // Routing errors.
    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(get(&addr, "/partition").status, 405);
    assert_eq!(
        http_request(&addr, "DELETE", "/healthz", &[], b"", None)
            .unwrap()
            .status,
        405
    );

    // Parameter errors.
    for target in [
        "/partition",            // k missing
        "/partition?k=0",        // k out of range
        "/partition?k=4&tol=-1", // tol out of range
        "/partition?k=4&threads=0",
    ] {
        let resp = post(&addr, target, &small);
        assert_eq!(resp.status, 400, "{target}");
        let doc = Json::parse(resp.text().trim()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("invalid_param"));
    }
    // k larger than the graph: typed, and the graph stays cached.
    let resp = post(&addr, "/partition?k=500", &small);
    assert_eq!(resp.status, 400);
    let doc = Json::parse(resp.text().trim()).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("invalid_param"));
    let ok = post(&addr, "/partition?k=4", &small);
    assert_eq!(ok.status, 200);
    assert_eq!(
        ok.header("x-mcgp-cache"),
        Some("hit"),
        "rejected k must not evict the hierarchy it looked up"
    );

    // Empty body.
    let resp = post(&addr, "/partition?k=4", b"");
    assert_eq!(resp.status, 400);

    // Body over the configured limit: 413.
    let resp = post(&addr, "/partition?k=4", &vec![b'1'; 4096]);
    assert_eq!(resp.status, 413);
    assert!(resp.text().contains("too_large"), "{}", resp.text());

    assert_eq!(get(&addr, "/healthz").status, 200);
    stop(&handle, thread);
}

#[test]
fn slow_client_gets_a_request_timeout() {
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        io_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    // An incomplete head, never finished: the daemon's read times out.
    s.write_all(b"POST /partition?k=4 HTTP/1.1\r\nContent-Len").unwrap();
    let mut answer = String::new();
    s.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");
    assert!(answer.contains("timeout"), "{answer}");
    stop(&handle, thread);
}

#[test]
fn prom_metrics_validate_and_report_windowed_quantiles() {
    let graph = mrng_like(800, 5);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // One cold build, then enough identical hits to dominate the window.
    for _ in 0..12 {
        let resp = post(&addr, "/partition?k=4", &body);
        assert_eq!(resp.status, 200, "{}", resp.text());
    }

    // Explicit format=prom query.
    let prom = get(&addr, "/metrics?format=prom");
    assert_eq!(prom.status, 200);
    assert_eq!(
        prom.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = prom.text();
    let samples =
        mcgp_runtime::metrics::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(samples >= 20, "only {samples} sample lines:\n{text}");
    for needle in [
        "# TYPE mcgp_requests_total counter",
        "mcgp_requests_total{route=\"partition\",outcome=\"hit\"} 11",
        "mcgp_requests_total{route=\"partition\",outcome=\"miss\"} 1",
        "# TYPE mcgp_cache_hit_ratio gauge",
        "# TYPE mcgp_request_latency_seconds histogram",
        "mcgp_request_latency_window_seconds{quantile=\"0.5\"}",
        "mcgp_request_latency_window_seconds{quantile=\"0.99\"}",
        "mcgp_cache_lookups_total{result=\"hit\"} 11",
        "mcgp_cache_evictions_total 0",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // With warm traffic dominating, the windowed p50 must sit at
    // steady-warm latency: far below the lifetime max (the cold build).
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let window = json.get("latency_window_us").unwrap();
    let lifetime = json.get("latency_us").unwrap();
    let wp50 = window.get("p50").unwrap().as_i64().unwrap();
    let life_max = lifetime.get("max").unwrap().as_i64().unwrap();
    let wins: i64 = window.get("count").unwrap().as_i64().unwrap();
    assert!(wins >= 12, "window holds all recent samples: {wins}");
    assert!(
        wp50 <= life_max,
        "windowed p50 {wp50} vs lifetime max {life_max}"
    );
    assert_eq!(json.get("cache").unwrap().get("hits").unwrap().as_i64(), Some(11));
    let ratio = json
        .get("cache")
        .unwrap()
        .get("hit_ratio")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((ratio - 11.0 / 12.0).abs() < 1e-9, "hit_ratio {ratio}");
    let routes = json.get("routes").unwrap();
    assert_eq!(routes.get("partition.hit").unwrap().as_i64(), Some(11));
    assert_eq!(routes.get("partition.miss").unwrap().as_i64(), Some(1));

    // Accept-header negotiation reaches the same exposition.
    let negotiated = http_request(
        &addr,
        "GET",
        "/metrics",
        &[("Accept", "text/plain")],
        b"",
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    assert_eq!(
        negotiated.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(mcgp_runtime::metrics::validate_prometheus(&negotiated.text()).is_ok());

    stop(&handle, thread);
}

#[test]
fn profile_endpoint_returns_valid_collapsed_stacks() {
    let graph = mrng_like(2000, 9);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Sample while a background thread keeps the daemon partitioning, so
    // the profiler has spans to observe.
    let load_addr = addr.clone();
    let load_body = body.clone();
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_load = stop_flag.clone();
    let loader = std::thread::spawn(move || {
        let mut seed = 0u64;
        while !stop_load.load(std::sync::atomic::Ordering::Relaxed) {
            seed += 1;
            let target = format!("/partition?k=4&seed={seed}");
            let _ = http_request(
                &load_addr,
                "POST",
                &target,
                &[],
                &load_body,
                Some(Duration::from_secs(30)),
            );
        }
    });

    let prof = http_request(
        &addr,
        "GET",
        "/profile?seconds=0.6&hz=1500",
        &[],
        b"",
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    loader.join().unwrap();
    assert_eq!(prof.status, 200, "{}", prof.text());
    let folded = prof.text();
    let stacks = mcgp_runtime::profile::validate_collapsed(&folded)
        .unwrap_or_else(|e| panic!("{e}\n{folded}"));
    assert!(stacks >= 1, "profiler saw no samples:\n{folded}");
    assert!(
        folded.contains("hierarchy_build") || folded.contains("serve_request"),
        "expected partition spans in:\n{folded}"
    );
    // Profiling is off again after the session: spans are free once more.
    assert!(!mcgp_runtime::profile::enabled());

    // Non-finite durations must not panic the worker: `parse::<f64>("nan")`
    // succeeds and NaN survives `clamp`, so an unsanitized value would reach
    // `Duration::from_secs_f64` and kill the thread. The request falls back
    // to defaults-with-a-tiny-window and the daemon keeps serving.
    for bad in ["nan", "inf"] {
        let target = format!("/profile?seconds={bad}&hz=1500");
        let prof = http_request(&addr, "GET", &target, &[], b"", Some(Duration::from_secs(30)))
            .unwrap_or_else(|e| panic!("seconds={bad} hung or died: {e}"));
        assert_eq!(prof.status, 200, "seconds={bad}: {}", prof.text());
    }
    let alive = http_request(&addr, "GET", "/healthz", &[], b"", Some(Duration::from_secs(5)))
        .expect("daemon must survive non-finite profile params");
    assert_eq!(alive.status, 200);

    stop(&handle, thread);
}

#[test]
fn threaded_requests_are_deterministic_and_surfaced_in_metrics() {
    let graph = synthetic::type1(&mrng_like(1200, 3), 2, 3);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // threads=2 over the wire: the fingerprint includes the thread count,
    // so this is its own cache entry, and reruns are byte-identical.
    let first = post(&addr, "/partition?k=4&threads=2", &body);
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-mcgp-cache"), Some("miss"));
    let rerun = post(&addr, "/partition?k=4&threads=2", &body);
    assert_eq!(rerun.header("x-mcgp-cache"), Some("hit"));
    assert_eq!(first.body, rerun.body, "threaded rerun must be bit-identical");

    // And the served result matches the library at the same (seed, threads).
    let (_, parts, done) = parse_body(&first.text());
    let lib_cfg = PartitionConfig {
        nthreads: 2,
        ..PartitionConfig::default()
    };
    let lib = partition_kway(&graph, 4, &lib_cfg);
    assert_eq!(parts, lib.partition.assignment(), "served != library at t2");
    assert_eq!(
        done.get("edge_cut").unwrap().as_i64(),
        Some(lib.quality.edge_cut)
    );

    // One serial request rides along so both buckets show up.
    assert_eq!(post(&addr, "/partition?k=4", &body).status, 200);

    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let by_threads = json.get("partition_threads").unwrap();
    assert_eq!(by_threads.get("t2").unwrap().as_i64(), Some(2));
    assert_eq!(by_threads.get("t1").unwrap().as_i64(), Some(1));

    let prom = get(&addr, "/metrics?format=prom");
    let text = prom.text();
    mcgp_runtime::metrics::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for needle in [
        "mcgp_partition_threads_total{threads=\"2\"} 2",
        "mcgp_partition_threads_total{threads=\"1\"} 1",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    stop(&handle, thread);
}

#[test]
fn shutdown_endpoint_drains_and_run_returns() {
    let (addr, _handle, thread) = start_default();
    let resp = post(&addr, "/shutdown", b"");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));
    // run() returns on its own — no handle.shutdown() here.
    thread.join().unwrap().unwrap();
}

/// A scratch directory under the system temp dir, unique per test.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mcgp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// De-frames a chunked transfer-encoded body back to its payload bytes.
fn dechunk(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[..line_end]).unwrap().trim(),
            16,
        )
        .expect("hex chunk size");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        assert_eq!(&body[size..size + 2], b"\r\n", "chunk terminator");
        body = &body[size + 2..];
    }
}

/// Splits one raw HTTP response off the front of `bytes`: returns
/// (head text, de-framed payload, rest). Supports the three server
/// framings: `Transfer-Encoding: chunked`, `Content-Length`, and
/// close-delimited (everything to EOF).
fn split_response(bytes: &[u8]) -> (String, Vec<u8>, &[u8]) {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head")
        + 4;
    let head = String::from_utf8(bytes[..head_end].to_vec()).unwrap();
    let rest = &bytes[head_end..];
    let lower = head.to_ascii_lowercase();
    if lower.contains("transfer-encoding: chunked") {
        let term = rest
            .windows(5)
            .position(|w| w == b"0\r\n\r\n")
            .expect("chunked terminator")
            + 5;
        (head, dechunk(&rest[..term]), &rest[term..])
    } else if let Some(len) = lower
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
    {
        let len: usize = len.trim().parse().unwrap();
        (head, rest[..len].to_vec(), &rest[len..])
    } else {
        // Close-delimited: the payload runs to the end of the stream.
        (head, rest.to_vec(), &rest[rest.len()..])
    }
}

#[test]
fn pipelined_keepalive_requests_are_byte_stable_on_one_socket() {
    let graph = mrng_like(400, 11);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Reference response over a throwaway connection (close-delimited).
    let reference = post(&addr, "/partition?k=4", &body);
    assert_eq!(reference.status, 200, "{}", reference.text());

    // Three identical requests written back to back in one burst — the
    // third asks the server to close so the socket drains cleanly.
    let mut burst = Vec::new();
    for i in 0..3 {
        let close = if i == 2 { "Connection: close\r\n" } else { "" };
        burst.extend_from_slice(
            format!(
                "POST /partition?k=4 HTTP/1.1\r\nHost: {addr}\r\n{close}Content-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        burst.extend_from_slice(&body);
    }
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(&burst).unwrap();
    let mut all = Vec::new();
    s.read_to_end(&mut all).unwrap();

    let mut rest: &[u8] = &all;
    for i in 0..3 {
        let (head, payload, after) = split_response(rest);
        rest = after;
        assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
        let lower = head.to_ascii_lowercase();
        if i < 2 {
            assert!(lower.contains("connection: keep-alive"), "{head}");
            assert!(lower.contains("transfer-encoding: chunked"), "{head}");
            // Pipelined follow-ups are warm: the first request on this
            // socket already built the hierarchy (the reference request
            // built it even earlier).
            assert!(lower.contains("x-mcgp-cache: hit"), "response {i}: {head}");
        } else {
            assert!(lower.contains("connection: close"), "{head}");
        }
        assert_eq!(
            payload, reference.body,
            "response {i} payload differs from the per-connection reference"
        );
    }
    assert!(rest.is_empty(), "{} stray bytes after responses", rest.len());

    // The whole burst rode one connection; with the reference request
    // that's 2 accepted sockets for 4 served partitions (the /metrics
    // connection is counted on accept, but its request snapshot is taken
    // before it records itself).
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    assert_eq!(json.get("connections").unwrap().as_i64(), Some(3));
    assert_eq!(json.get("requests").unwrap().as_i64(), Some(4));

    stop(&handle, thread);
}

#[test]
fn net_client_reuse_matches_per_connection_responses() {
    let graph = mrng_like(500, 13);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    let reference = post(&addr, "/partition?k=3", &body);
    assert_eq!(reference.status, 200, "{}", reference.text());

    let mut net = NetClient::new(&addr, Some(Duration::from_secs(60)));
    for i in 0..4 {
        let resp = net.request_on("POST", "/partition?k=3", &[], &body).unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.header("x-mcgp-cache"), Some("hit"), "request {i}");
        assert_eq!(resp.body, reference.body, "request {i} body differs");
    }
    assert_eq!(net.connects(), 1, "client must have reused one socket");

    stop(&handle, thread);
}

#[test]
fn slowloris_second_request_is_reaped_on_the_idle_deadline() {
    let graph = mrng_like(300, 17);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        io_timeout: Duration::from_secs(10),
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });

    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "POST /partition?k=2 HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    s.write_all(&body).unwrap();
    let mut buf = vec![0u8; 1 << 20];
    // Read the first (chunked) response to its terminator.
    let mut got = Vec::new();
    while !got.windows(5).any(|w| w == b"0\r\n\r\n") {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before finishing the first response");
        got.extend_from_slice(&buf[..n]);
    }
    assert!(got.starts_with(b"HTTP/1.1 200"), "first response must succeed");

    // Drip the second request a few bytes at a time, slower than the idle
    // deadline allows. Re-arming reads must not extend the deadline: the
    // worker reaps the connection with a 408 instead of staying pinned.
    let t0 = std::time::Instant::now();
    let mut tail = Vec::new();
    for piece in ["POST /par", "tition?k=2 ", "HTTP/1.1\r\nCon"] {
        if s.write_all(piece.as_bytes()).is_err() {
            break; // server already closed on us — also a pass
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    let _ = s.read_to_end(&mut tail);
    let answer = String::from_utf8_lossy(&tail);
    assert!(
        answer.contains("HTTP/1.1 408") || answer.is_empty(),
        "expected 408 or close, got: {answer}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drip-fed request pinned the worker for {:?}",
        t0.elapsed()
    );

    stop(&handle, thread);
}

#[test]
fn warm_restart_from_cache_dir_serves_disk_hits_with_zero_coarsening() {
    let graph = synthetic::type1(&mrng_like(900, 21), 2, 21);
    let body = metis_bytes(&graph);
    let dir = tempdir("warm-restart");

    // First daemon lifetime: a cold build, spilled on graceful drain.
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let cold = post(&addr, "/partition?k=5", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-mcgp-cache"), Some("miss"));
    stop(&handle, thread);
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "shutdown must spill resident hierarchies to the cache dir"
    );

    // Second daemon lifetime, same directory: the first request reloads
    // the hierarchy from disk — no coarsening, byte-identical body.
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let warm = post(&addr, "/partition?k=5", &body);
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(warm.header("x-mcgp-cache"), Some("disk"));
    assert_eq!(
        warm.header("x-mcgp-coarsen-us").unwrap().parse::<u64>().unwrap(),
        0,
        "a disk reload must not coarsen"
    );
    assert_eq!(cold.body, warm.body, "cold and disk-warm responses differ");
    // Once resident, repeats are plain RAM hits.
    let again = post(&addr, "/partition?k=5", &body);
    assert_eq!(again.header("x-mcgp-cache"), Some("hit"));
    assert_eq!(cold.body, again.body);

    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let cache = json.get("cache").unwrap();
    assert_eq!(cache.get("disk_hits").unwrap().as_i64(), Some(1));
    assert_eq!(cache.get("hits").unwrap().as_i64(), Some(1));
    let prom = get(&addr, "/metrics?format=prom").text();
    assert!(
        prom.contains("mcgp_cache_lookups_total{result=\"disk\"} 1"),
        "missing disk lookup counter in:\n{prom}"
    );

    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_spill_files_fall_back_to_a_cold_build() {
    let graph = mrng_like(700, 23);
    let body = metis_bytes(&graph);
    let dir = tempdir("corrupt-spill");

    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let cold = post(&addr, "/partition?k=4", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    stop(&handle, thread);

    // Flip bytes in the middle of every spill file.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
    }

    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let rebuilt = post(&addr, "/partition?k=4", &body);
    assert_eq!(rebuilt.status, 200, "{}", rebuilt.text());
    // Corruption is a clean miss (rebuild), never a panic or a bad reload.
    assert_eq!(rebuilt.header("x-mcgp-cache"), Some("miss"));
    assert_eq!(cold.body, rebuilt.body, "rebuild must match the original");

    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_default_threads_apply_when_the_request_does_not_pin() {
    let graph = synthetic::type1(&mrng_like(1000, 29), 2, 29);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        default_threads: 2,
        ..ServeConfig::default()
    });

    // No threads= parameter: the daemon's default width (2) applies, so
    // the response must match the library at nthreads=2 ...
    let served = post(&addr, "/partition?k=4", &body);
    assert_eq!(served.status, 200, "{}", served.text());
    let (meta, parts, _) = parse_body(&served.text());
    assert_eq!(meta.get("threads").unwrap().as_i64(), Some(2));
    let lib = partition_kway(
        &graph,
        4,
        &PartitionConfig {
            nthreads: 2,
            ..PartitionConfig::default()
        },
    );
    assert_eq!(parts, lib.partition.assignment(), "served != library at t2");

    // ... an explicit threads=1 still wins ...
    let pinned = post(&addr, "/partition?k=4&threads=1", &body);
    assert_eq!(pinned.status, 200, "{}", pinned.text());
    let (meta1, parts1, _) = parse_body(&pinned.text());
    assert_eq!(meta1.get("threads").unwrap().as_i64(), Some(1));
    let lib1 = partition_kway(&graph, 4, &PartitionConfig::default());
    assert_eq!(parts1, lib1.partition.assignment());

    // ... and the threads metric proves the parallel pipeline served the
    // defaulted request end to end.
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let by_threads = json.get("partition_threads").unwrap();
    assert_eq!(by_threads.get("t2").unwrap().as_i64(), Some(1));
    assert_eq!(by_threads.get("t1").unwrap().as_i64(), Some(1));

    stop(&handle, thread);
}

#[test]
fn metrics_registry_is_populated_with_tracing_off() {
    assert!(!mcgp_runtime::trace::enabled());
    let graph = synthetic::type1(&mrng_like(1500, 7), 2, 7);
    let (addr, handle, thread) = start_default();
    let resp = post(&addr, "/partition?k=4", &metis_bytes(&graph));
    assert_eq!(resp.status, 200, "{}", resp.text());

    let doc = Json::parse(&get(&addr, "/metrics").text()).unwrap();
    let registry = doc.get("registry").expect("registry section");
    let counter = |name: &str| {
        registry.get("counters").unwrap().get(name).unwrap().as_i64().unwrap()
    };
    let moves = counter("moves_committed");
    assert!(moves > 0, "no refinement moves recorded: {registry}");
    let gains = registry.get("histograms").unwrap().get("kway_gain").unwrap();
    assert_eq!(gains.get("count").unwrap().as_i64(), Some(moves), "one gain per move");
    let boundary = registry.get("gauges").unwrap().get("boundary_size").unwrap();
    assert!(boundary.as_i64().unwrap() > 0, "{registry}");
    let phases = doc.get("phases").expect("phases section");
    assert_eq!(phases.get("moves_committed").unwrap().as_i64(), Some(moves));
    assert!(phases.get("coarsen_s").unwrap().as_f64().unwrap() > 0.0);
    stop(&handle, thread);
}
