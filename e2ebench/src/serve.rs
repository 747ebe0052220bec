//! `serve-cold` and `serve-warm`: an in-process daemon with the default
//! configuration (2 workers, threads unpinned, 256 MB cache), driven by
//! two closed-loop clients that each hold one keep-alive connection and
//! send their next request as soon as the previous reply has arrived.
//!
//! `serve-cold` sends every request with a fresh seed on the 200k mesh,
//! so every request misses the cache, parses, checks and coarsens, and
//! the cache evicts once its budget fills. `serve-warm` primes the cache
//! in set-up and then only hits: the mesh at k 4, 16 and 64 plus an
//! R-MAT graph at k 16.

use crate::check::{parse_response, verify, Measured};
use crate::decompose::{self, Layers};
use crate::inputs::{derive, metis_body, rmat, rng, type1_mesh, INSTANCE_SEED};
use crate::perlayer::PerLayer;
use crate::report::mean;
use crate::spans::Recorder;
use crate::{end_to_end, repeated_setup, Args, Op, Outcome, Window, Workload};
use mcgp_graph::Graph;
use mcgp_runtime::net::{ClientResponse, NetClient};
use mcgp_serve::{ServeConfig, Server, ServerHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const NCON: usize = 3;
const TOL: f64 = 0.05;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Cold requests cycle through these `k` (in a seed-derived order).
const COLD_KS: [usize; 3] = [8, 16, 32];
/// The first requests of a cold run are its distinct instances for the
/// quality metrics: a fixed set, so `edge_cut` repeats at a fixed seed.
const COLD_INSTANCES: usize = 24;

/// Warm request classes: (body, k). Body 0 is the mesh, body 1 R-MAT.
const WARM_CLASSES: [(usize, usize); 4] = [(0, 4), (0, 16), (0, 64), (1, 16)];
/// Requests of each warm class per 20. Sorted by cost the classes are
/// k4 < k16 < k64 < R-MAT, so the cumulative shares are 20 %, 65 %, 80 %
/// and 100 %: p50 falls inside k16 and p90 inside R-MAT, each 10 points
/// or more from a class boundary.
const WARM_SLOTS: [usize; 4] = [4, 9, 3, 4];

struct Body {
    graph: Graph,
    bytes: Vec<u8>,
    /// Request seed of every warm request on this body. Fixed, not drawn
    /// from the workload seed: a hit's cost depends on the hierarchy its
    /// seed built, by about 10 % from seed to seed, and the 256 MB cache
    /// holds only three 67 MB hierarchies, too few to average over.
    seed: u64,
}

/// One request of the deterministic sequence.
#[derive(Clone, Copy, Debug)]
struct Req {
    class: usize,
    body: usize,
    k: usize,
    seed: u64,
}

struct Daemon {
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread: Some(thread),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

struct Setup {
    bodies: Vec<Body>,
    daemon: Daemon,
    /// Warm: each class's validated reference response, or why it failed.
    refs: Vec<Result<(Vec<u8>, Measured), String>>,
    /// Cold: `k` of each class.
    cold_ks: Vec<usize>,
    /// Warm: class of each slot of the repeating 20-request pattern.
    warm_pattern: Vec<usize>,
}

impl Setup {
    fn request(&self, workload: Workload, seed: u64, i: usize) -> Req {
        if workload == Workload::ServeCold {
            let class = i % self.cold_ks.len();
            Req {
                class,
                body: 0,
                k: self.cold_ks[class],
                seed: derive(seed, 1000 + i as u64),
            }
        } else {
            let class = self.warm_pattern[i % self.warm_pattern.len()];
            let (body, k) = WARM_CLASSES[class];
            Req {
                class,
                body,
                k,
                seed: self.bodies[body].seed,
            }
        }
    }

    fn class_body(&self, workload: Workload, class: usize) -> usize {
        if workload == Workload::ServeCold {
            0
        } else {
            WARM_CLASSES[class].0
        }
    }

    /// Length of the repeating request pattern.
    fn cycle(&self, workload: Workload) -> usize {
        if workload == Workload::ServeCold {
            self.cold_ks.len()
        } else {
            self.warm_pattern.len()
        }
    }

    fn nclasses(&self, workload: Workload) -> usize {
        if workload == Workload::ServeCold {
            self.cold_ks.len()
        } else {
            WARM_CLASSES.len()
        }
    }
}

fn send(client: &mut NetClient, setup: &Setup, req: &Req) -> std::io::Result<ClientResponse> {
    let target = format!("/partition?k={}&seed={}", req.k, req.seed);
    client.request_on("POST", &target, &[], &setup.bodies[req.body].bytes)
}

/// The daemon's own clock for a request (`X-Mcgp-Total-Us`), in seconds.
fn server_seconds(resp: &ClientResponse) -> f64 {
    resp.header("x-mcgp-total-us")
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |us| us / 1e6)
}

/// Parses a response and checks it against the request and the
/// benchmark's own copy of the graph.
fn validate(setup: &Setup, req: &Req, resp: &ClientResponse) -> Result<Measured, String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text().trim()));
    }
    let served = parse_response(&resp.body)?;
    if served.k != req.k || served.seed != req.seed {
        return Err(format!(
            "answered k={} seed={} to k={} seed={}",
            served.k, served.seed, req.k, req.seed
        ));
    }
    verify(
        &setup.bodies[req.body].graph,
        &served.assignment,
        req.k,
        &served.reported,
    )
}

fn setup(args: &Args) -> Result<Setup, String> {
    let mesh = type1_mesh(args.size.mesh_nvtxs(), NCON);
    let mut bodies = vec![Body {
        bytes: metis_body(&mesh),
        graph: mesh,
        seed: derive(INSTANCE_SEED, 20),
    }];
    let mut cold_ks = COLD_KS.to_vec();
    rng(args.seed, 21).shuffle(&mut cold_ks);
    let mut warm_pattern: Vec<usize> = WARM_SLOTS
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .collect();
    rng(args.seed, 22).shuffle(&mut warm_pattern);
    if args.workload == Workload::ServeWarm {
        let g = rmat(args.size.rmat_scale());
        bodies.push(Body {
            bytes: metis_body(&g),
            graph: g,
            seed: derive(INSTANCE_SEED, 23),
        });
    }
    let daemon = Daemon::start()?;
    let mut s = Setup {
        bodies,
        daemon,
        refs: Vec::new(),
        cold_ks,
        warm_pattern,
    };
    if args.workload == Workload::ServeWarm {
        // Priming: one request per class fills the cache and records the
        // reference every later response must match byte for byte.
        let mut client = NetClient::new(&s.daemon.addr, Some(CLIENT_TIMEOUT));
        for (class, &(body, k)) in WARM_CLASSES.iter().enumerate() {
            let req = Req {
                class,
                body,
                k,
                seed: s.bodies[body].seed,
            };
            let r = send(&mut client, &s, &req)
                .map_err(|e| format!("priming request failed: {e}"))
                .and_then(|resp| validate(&s, &req, &resp).map(|m| (resp.body, m)));
            s.refs.push(r);
        }
    }
    Ok(s)
}

/// One finished request as the client saw it.
struct Sample {
    i: usize,
    req: Req,
    latency_s: f64,
    /// `X-Mcgp-Total-Us`, in seconds.
    server_s: f64,
    verdict: String,
    /// Passed every output check.
    ok: bool,
    /// Cold: the benchmark's own measurement of the reply. Err: why the
    /// request failed or its reply failed a check.
    checked: Result<Option<Measured>, String>,
}

struct WindowRun {
    window: Window,
    samples: Vec<Sample>,
    connects: u64,
}

/// `CLIENTS` closed-loop clients for `secs`. Request indices come from
/// `next`, so every index below the final value completes and the
/// request sequence is the same whichever client sends it.
fn window(
    args: &Args,
    setup: &Setup,
    next: &AtomicUsize,
    min_requests: usize,
    secs: f64,
    recs: &mut [Recorder],
) -> WindowRun {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let per_client: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = recs
            .iter_mut()
            .map(|rec| {
                scope.spawn(move || {
                    let mut client = NetClient::new(&setup.daemon.addr, Some(CLIENT_TIMEOUT));
                    let mut out = Vec::new();
                    while Instant::now() < deadline || next.load(Ordering::SeqCst) < min_requests {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let req = setup.request(args.workload, args.seed, i);
                        let span = rec.begin(i as u64, None, "client.request");
                        let t = Instant::now();
                        let resp = send(&mut client, setup, &req);
                        let latency_s = t.elapsed().as_secs_f64();
                        rec.end(span);
                        // Checked after the latency is taken: the check is
                        // the client's think time.
                        let checked = match &resp {
                            Err(e) => Err(format!("request error: {e}")),
                            Ok(r) if args.workload == Workload::ServeCold => {
                                validate(setup, &req, r).map(Some)
                            }
                            Ok(r) => match &setup.refs[req.class] {
                                Ok((body, _)) if *body == r.body => Ok(None),
                                Ok(_) => Err("reply differs from the primed reference".into()),
                                Err(_) => Err("the class reference failed its check".into()),
                            },
                        };
                        let sample = Sample {
                            i,
                            req,
                            latency_s,
                            server_s: resp.as_ref().map_or(0.0, server_seconds),
                            verdict: resp
                                .as_ref()
                                .ok()
                                .and_then(|r| r.header("x-mcgp-cache"))
                                .unwrap_or("")
                                .to_string(),
                            ok: checked.is_ok(),
                            checked,
                        };
                        out.push(sample);
                    }
                    (out, client.connects())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut connects = 0;
    for (s, c) in per_client {
        samples.extend(s);
        connects += c;
    }
    samples.sort_by_key(|s| s.i);
    WindowRun {
        window: Window {
            elapsed_s,
            ..Window::new(setup.cycle(args.workload))
        },
        samples,
        connects,
    }
}

/// Finishes a window: collects cold measurements and failures, and
/// fills the ops.
fn settle(
    run: &mut WindowRun,
    cold_measured: &mut Vec<(usize, Measured)>,
    notes: &mut Vec<String>,
) {
    for s in &run.samples {
        match &s.checked {
            Ok(Some(m)) => cold_measured.push((s.i, *m)),
            Ok(None) => {}
            Err(e) => notes.push(format!("request {}: {e}", s.i)),
        }
        run.window.ops.push(Op {
            class: s.req.class,
            latency_s: s.latency_s,
            ok: s.ok,
        });
    }
}

pub fn run(args: &Args) -> Result<(Outcome, Recorder), String> {
    let (setup, setup_s) = repeated_setup(|| setup(args))?;
    let cold = args.workload == Workload::ServeCold;
    let mut notes = Vec::new();
    for (class, r) in setup.refs.iter().enumerate() {
        if let Err(e) = r {
            notes.push(format!("warm class {class} failed its output check: {e}"));
        }
    }
    let epoch = Instant::now();
    let next = AtomicUsize::new(0);
    let min_requests = if cold { COLD_INSTANCES } else { 0 };
    let mut cold_measured = Vec::new();
    let mut rec = Recorder::new(args.trace, epoch);

    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut quiet: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(false, epoch)).collect();
    let mut plain = window(args, &setup, &next, min_requests, secs, &mut quiet);
    settle(&mut plain, &mut cold_measured, &mut notes);

    let instances: Vec<Measured> = if cold {
        cold_measured.sort_by_key(|(i, _)| *i);
        cold_measured
            .iter()
            .filter(|(i, _)| *i < COLD_INSTANCES)
            .map(|(_, m)| *m)
            .collect()
    } else {
        setup
            .refs
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|(_, m)| *m)
            .collect()
    };

    let mut attempted = plain.window.ops.len() as u64;
    let mut failed = plain.window.failed();
    let metrics = if !args.trace {
        end_to_end(&setup_s, &plain.window, &instances, TOL, &mut notes)?
    } else {
        let evictions_before = setup.daemon.handle.cache_stats().evictions;
        let mut recs: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(true, epoch)).collect();
        let mut traced = window(args, &setup, &next, 0, secs, &mut recs);
        let evictions = setup.daemon.handle.cache_stats().evictions - evictions_before;
        for r in recs {
            rec.absorb(r);
        }
        settle(&mut traced, &mut cold_measured, &mut notes);

        // Uncontended probes, one per class, then the same requests
        // decomposed in-process.
        let nclasses = setup.nclasses(args.workload);
        let mut client = NetClient::new(&setup.daemon.addr, Some(CLIENT_TIMEOUT));
        let mut probe_server = vec![0.0; nclasses];
        let mut layers: Vec<Layers> = Vec::new();
        for class in 0..nclasses {
            let req = if cold {
                // The next fresh index of this class.
                let mut i = next.fetch_add(1, Ordering::SeqCst);
                while i % nclasses != class {
                    i = next.fetch_add(1, Ordering::SeqCst);
                }
                setup.request(args.workload, args.seed, i)
            } else {
                let (body, k) = WARM_CLASSES[class];
                Req {
                    class,
                    body,
                    k,
                    seed: setup.bodies[body].seed,
                }
            };
            let resp = send(&mut client, &setup, &req).map_err(|e| format!("probe: {e}"))?;
            probe_server[class] = server_seconds(&resp);
            let body = &setup.bodies[req.body].bytes;
            let l = decompose::served(
                body,
                req.k,
                req.seed,
                cold,
                &mut rec,
                1 << 40 | class as u64,
            )?;
            if l.body != resp.body {
                notes.push(format!(
                    "class {class}: decomposition replay differs from the daemon's reply"
                ));
                traced
                    .window
                    .ops
                    .iter_mut()
                    .filter(|o| o.class == class)
                    .for_each(|o| o.ok = false);
            }
            layers.push(l);
        }
        drop(client);

        let b = &traced.window;
        attempted += b.ops.len() as u64;
        failed += b.failed();
        let ok: Vec<&Sample> = traced.samples.iter().filter(|s| s.ok).collect();
        let weights = b.class_weights(nclasses);
        let class_server = |c: usize| {
            mean(
                &ok.iter()
                    .filter(|s| s.req.class == c)
                    .map(|s| s.server_s)
                    .collect::<Vec<_>>(),
            )
        };
        let mut pl = PerLayer {
            op_mean_s: mean(&b.ok_latencies()),
            io_body_mb: (0..nclasses)
                .map(|c| {
                    weights[c] * setup.bodies[setup.class_body(args.workload, c)].bytes.len() as f64
                })
                .sum::<f64>()
                / 1e6,
            cache_lookups: ok.len() as f64,
            cache_hits: ok.iter().filter(|s| s.verdict == "hit").count() as f64,
            cache_waits: ok.iter().filter(|s| s.verdict == "wait").count() as f64,
            cache_evictions: evictions as f64,
            server_total_s: mean(&ok.iter().map(|s| s.server_s).collect::<Vec<_>>()),
            server_contention_s: (0..nclasses)
                .map(|c| weights[c] * (class_server(c) - probe_server[c]))
                .sum(),
            net_requests_per_conn: (plain.samples.len() + traced.samples.len()) as f64
                / (plain.connects + traced.connects).max(1) as f64,
            untraced_ops_per_s: plain.window.throughput(),
            traced_ops_per_s: b.throughput(),
            ..PerLayer::default()
        };
        let weighted: Vec<(f64, &Layers)> = weights.iter().copied().zip(layers.iter()).collect();
        pl.add_layers(&weighted);
        // Socket and queue time outside the daemon's clock, net of the
        // response serialisation that the layers already count.
        pl.net_outside_s = mean(
            &ok.iter()
                .map(|s| s.latency_s - s.server_s)
                .collect::<Vec<_>>(),
        ) - pl.protocol_serialize_s;
        pl.metrics()
    };
    Ok((
        Outcome {
            attempted,
            failed,
            metrics,
            notes,
        },
        rec,
    ))
}
