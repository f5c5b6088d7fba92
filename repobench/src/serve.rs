//! `serve-mix`: closed-loop clients against a fresh in-process server.
//!
//! Set-up generates six noisy powerlaw-cluster pairs, starts the server
//! with its default configuration and uploads the twelve graphs. An
//! episode then sends a seeded request sequence from two closed-loop
//! clients: pairs Zipf-skewed, algorithm uniform over REGAL, GRASP and
//! IsoRank, assignment 45% NN, 45% SG and 10% JV (exact shares, seeded
//! order). A unit is one request, timed from `POST /jobs` to the first poll
//! that reports a terminal state; a failed request still counts, with its
//! class. Every episode runs on a fresh server, so its first touch of each
//! (pair, algorithm) misses the similarity cache and the rest hit it.
//!
//! Request latencies are wall clock: they are what a client waits. The
//! throughput and the set-up are timed in process CPU time (server and
//! clients together), like the batch workloads' units: on a shared 2-vCPU
//! virtual machine, 5% of hypervisor steal cost 13% of wall-clock throughput.
//! `throughput_per_s` is the median over episodes of requests per CPU
//! second; the latencies pool the requests of every untraced episode.

use crate::common::{check_mapping, hits, overhead_frac, Ctx, Ops, Report, Scale, UNIT_TIMEOUT};
use crate::cpu;
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use graphalign_json::Json;
use graphalign_noise::{make_instance, NoiseConfig, NoiseModel};
use graphalign_serve::{http, start, ServeConfig, ServerHandle};
use rand::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Uploaded graph pairs.
const PAIRS: usize = 6;
/// Algorithms requested, uniformly.
const ALGOS: [&str; 3] = ["REGAL", "GRASP", "IsoRank"];
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// One-way edge-removal noise of each target.
const NOISE: f64 = 0.05;
/// First poll delay; it doubles up to [`POLL_CAP`]. Each sleep is jittered
/// by a factor in [0.5, 1.5), so latencies do not bunch on the schedule.
const POLL_START: Duration = Duration::from_millis(1);
/// Longest poll delay.
const POLL_CAP: Duration = Duration::from_millis(8);

/// Nodes per graph and requests per episode.
fn shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (512, 200),
        Scale::Smoke => (40, 24),
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    pair: usize,
    algo: usize,
    /// Assignment label as the protocol spells it.
    method: &'static str,
}

/// `len` items holding `0..weights.len()` in proportion to `weights`
/// (largest remainders round up), in seeded order.
fn shuffled_shares(weights: &[f64], len: usize, rng: &mut StdRng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder.iter().take(len - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    let mut items: Vec<usize> =
        counts.iter().enumerate().flat_map(|(i, &c)| std::iter::repeat_n(i, c)).collect();
    items.shuffle(rng);
    items
}

/// The seeded request sequence.
fn sequence(seed: u64, len: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e2e_11ec);
    let zipf: Vec<f64> = (1..=PAIRS).map(|k| 1.0 / k as f64).collect();
    let pairs = shuffled_shares(&zipf, len, &mut rng);
    let algos = shuffled_shares(&[1.0; ALGOS.len()], len, &mut rng);
    let methods = shuffled_shares(&[0.45, 0.45, 0.1], len, &mut rng);
    (0..len)
        .map(|i| Request { pair: pairs[i], algo: algos[i], method: ["nn", "sg", "jv"][methods[i]] })
        .collect()
}

struct Pair {
    source: String,
    target: String,
    truth: Vec<usize>,
    rows: usize,
    cols: usize,
}

struct Server {
    handle: ServerHandle,
    addr: String,
    pairs: Vec<Pair>,
}

impl Server {
    /// Shuts the server down and waits for its threads; returns the pairs.
    fn stop(self) -> Vec<Pair> {
        self.handle.shutdown();
        self.handle.wait();
        self.pairs
    }
}

/// Uploads `g` as an edge list. Returns the graph id and, for each node id
/// of the server's copy, the node of `g` it stands for: the server numbers
/// nodes in order of first appearance, as `graph::io` parses the list.
fn upload(
    addr: &str,
    g: &graphalign_graph::Graph,
    tracer: &mut Tracer,
) -> Result<(String, Vec<usize>), String> {
    let mut text = Vec::new();
    graphalign_graph::io::write_edge_list(g, &mut text).map_err(|e| format!("edge list: {e}"))?;
    let resp = tracer.span("serve.upload", 0, |_| http::request(addr, "POST", "/graphs", &text))?;
    if resp.status != 200 {
        return Err(format!("POST /graphs answered {}: {}", resp.status, resp.body));
    }
    let body = graphalign_json::from_str(&resp.body).map_err(|e| format!("{e:?}"))?;
    let id = body.get("id").and_then(Json::as_str).ok_or("no graph id")?.to_string();
    let text = String::from_utf8(text).map_err(|e| e.to_string())?;
    let parsed = graphalign_graph::io::parse_edge_list(&text).map_err(|e| e.to_string())?;
    Ok((id, parsed.original_ids.iter().map(|&v| v as usize).collect()))
}

/// Generates the pairs of episode `round`, starts a server and uploads them.
fn setup(ctx: &Ctx, round: u64, tracer: &mut Tracer) -> Result<Server, String> {
    let (n, _) = shape(ctx.scale);
    // Connectivity is kept because an edge list cannot carry an isolated
    // node: a target that lost one would upload one node short, and every
    // query on the pair would be refused as infeasible.
    let noise = NoiseConfig { keep_connected: true, ..NoiseConfig::new(NoiseModel::OneWay, NOISE) };
    let instances: Vec<_> = (0..PAIRS as u64)
        .map(|k| {
            let seed = ctx.round_seed(round).wrapping_add(k << 32);
            let g = tracer
                .span("gen.generate", 0, |_| graphalign_gen::powerlaw_cluster(n, 5, 0.5, seed));
            tracer.span("noise.make_instance", 0, |_| make_instance(&g, &noise, seed ^ 0x006e_015e))
        })
        .collect();
    let handle = start(ServeConfig::default()).map_err(|e| format!("start server: {e}"))?;
    let addr = handle.addr().to_string();
    let mut pairs = Vec::new();
    for inst in instances {
        let uploaded = upload(&addr, &inst.source, tracer)
            .and_then(|source| Ok((source, upload(&addr, &inst.target, tracer)?)));
        match uploaded {
            Ok(((source, source_nodes), (target, target_nodes))) => {
                let mut server_id = vec![usize::MAX; inst.target.node_count()];
                for (i, &v) in target_nodes.iter().enumerate() {
                    server_id[v] = i;
                }
                let truth = source_nodes.iter().map(|&u| server_id[inst.ground_truth[u]]).collect();
                pairs.push(Pair {
                    source,
                    target,
                    rows: source_nodes.len(),
                    cols: target_nodes.len(),
                    truth,
                });
            }
            Err(e) => {
                Server { handle, addr, pairs }.stop();
                return Err(e);
            }
        }
    }
    Ok(Server { handle, addr, pairs })
}

/// A completed job as its final poll reports it.
struct Done {
    mapping: Vec<usize>,
    similarity_s: f64,
    assignment_s: f64,
    features_s: f64,
    cache_hit: bool,
    ops: Ops,
}

struct Outcome {
    index: usize,
    latency: f64,
    result: Result<Done, (String, String)>,
}

fn parse_done(body: &Json) -> Result<Done, String> {
    let mapping = body
        .get("mapping")
        .and_then(Json::as_array)
        .ok_or("done job without a mapping")?
        .iter()
        .map(|v| v.as_f64().map(|x| x as usize).ok_or("non-numeric mapping entry"))
        .collect::<Result<Vec<_>, _>>()?;
    let telemetry = body.get("telemetry");
    let phase = |name: &str| {
        telemetry
            .and_then(|t| t.get("phases"))
            .and_then(|p| p.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let op = |name: &str| {
        telemetry
            .and_then(|t| t.get("ops"))
            .and_then(|o| o.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    Ok(Done {
        mapping,
        similarity_s: phase("similarity"),
        assignment_s: phase("assignment"),
        features_s: phase("features"),
        cache_hit: op("cache_hits") > 0,
        ops: Ops {
            matmuls: op("matmuls"),
            sinkhorn_sweeps: op("sinkhorn_sweeps"),
            allocs_saved: op("allocs_saved"),
            densifications: op("densifications"),
            densified_bytes: op("densified_bytes"),
        },
    })
}

/// Submits one job and polls it to a terminal state.
fn run_request(
    addr: &str,
    body: &str,
    tracer: &mut Tracer,
    unit: u64,
    jitter: &mut StdRng,
) -> (f64, Result<Done, (String, String)>) {
    let t0 = Instant::now();
    let result = tracer.span("serve.request", unit, |tr| {
        let io = |e: String| ("io".to_string(), e);
        let resp = tr
            .span("serve.submit", unit, |_| http::request(addr, "POST", "/jobs", body.as_bytes()))
            .map_err(io)?;
        if resp.status != 200 {
            return Err((format!("http_{}", resp.status), resp.body));
        }
        let submitted = graphalign_json::from_str(&resp.body).map_err(|e| io(format!("{e:?}")))?;
        let id =
            submitted.get("job").and_then(Json::as_f64).ok_or_else(|| io("no job id".into()))?
                as usize;
        let mut delay = POLL_START;
        loop {
            if t0.elapsed() > UNIT_TIMEOUT {
                let _ = http::request(addr, "POST", &format!("/jobs/{id}/cancel"), b"");
                return Err(("timeout".to_string(), format!("job {id} outlived {UNIT_TIMEOUT:?}")));
            }
            let resp = tr
                .span("serve.poll", unit, |_| {
                    http::request(addr, "GET", &format!("/jobs/{id}"), b"")
                })
                .map_err(io)?;
            if resp.status != 200 {
                return Err((format!("http_{}", resp.status), resp.body));
            }
            let body = graphalign_json::from_str(&resp.body).map_err(|e| io(format!("{e:?}")))?;
            match body.get("status").and_then(Json::as_str) {
                Some("queued" | "running") => {
                    std::thread::sleep(delay.mul_f64(jitter.random_range(0.5..1.5)));
                    delay = (delay * 2).min(POLL_CAP);
                }
                Some("done") => return parse_done(&body).map_err(io),
                other => {
                    let class = body
                        .get("error_class")
                        .and_then(Json::as_str)
                        .or(other)
                        .unwrap_or("unknown");
                    return Err((class.to_string(), resp.body));
                }
            }
        }
    });
    (t0.elapsed().as_secs_f64(), result)
}

/// Runs the requests from `CLIENTS` closed-loop threads; outcomes come back
/// in request order.
fn episode(
    server: &Server,
    requests: &[Request],
    tracer: &mut Tracer,
    first_unit: u64,
    seed: u64,
) -> Vec<Outcome> {
    let bodies: Vec<String> = requests
        .iter()
        .map(|r| {
            let p = &server.pairs[r.pair];
            format!(
                "{{\"source\":{:?},\"target\":{:?},\"algorithm\":{:?},\"assignment\":{:?}}}",
                p.source, p.target, ALGOS[r.algo], r.method
            )
        })
        .collect();
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Tracer, Vec<Outcome>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut tr = tracer.fork();
                let mut jitter = StdRng::seed_from_u64(seed ^ client as u64);
                let (next, bodies, addr) = (&next, &bodies, &server.addr);
                s.spawn(move || {
                    let mut outcomes = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(index) else { break };
                        let (latency, result) = run_request(
                            addr,
                            body,
                            &mut tr,
                            first_unit + index as u64,
                            &mut jitter,
                        );
                        outcomes.push(Outcome { index, latency, result });
                    }
                    (tr, outcomes)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });
    let mut outcomes = Vec::new();
    for (tr, mut outs) in per_client {
        tracer.absorb(tr);
        outcomes.append(&mut outs);
    }
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

/// Cache and resilience counters from `GET /stats`.
fn server_stats(addr: &str) -> Result<BTreeMap<&'static str, f64>, String> {
    let resp = http::request(addr, "GET", "/stats", b"")?;
    let body = graphalign_json::from_str(&resp.body).map_err(|e| format!("{e:?}"))?;
    let read = |section: &str, key: &str| {
        body.get(section).and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    Ok(BTreeMap::from([
        ("hits", read("cache", "hits")),
        ("misses", read("cache", "misses")),
        ("retries", read("resilience", "retries")),
        ("rejected_429", read("resilience", "rejected_429")),
    ]))
}

/// Per-layer figures of one traced episode.
#[derive(Default)]
struct Layers {
    similarity: BTreeMap<&'static str, Vec<f64>>,
    assignment: BTreeMap<String, Vec<f64>>,
    overhead: Vec<f64>,
    features: f64,
    ops: Ops,
    stats: BTreeMap<&'static str, f64>,
    distinct_keys: usize,
}

/// Runs the workload.
///
/// # Errors
/// Server start-up, upload and `/stats` failures.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (_, len) = shape(ctx.scale);
    let mut report = Report::default();
    let mut tracer = Tracer::new(ctx.trace, Instant::now());
    let mut setup_secs = Vec::new();
    let mut first_mapping: BTreeMap<(usize, usize, usize, &str), Vec<usize>> = BTreeMap::new();
    let (mut latencies, mut accuracy) = (vec![], vec![]);
    let (mut traced_throughput, mut plain_throughput) = (vec![], vec![]);
    let mut layers: Option<Layers> = None;
    let started = Instant::now();
    let mut round = 0;
    while ctx.more_rounds(round, started.elapsed().as_secs_f64()) {
        tracer.set_enabled(ctx.trace);
        let t = cpu::process_seconds();
        let server = setup(ctx, round as u64, &mut tracer)?;
        setup_secs.push(cpu::process_seconds() - t);
        let requests = sequence(ctx.round_seed(round as u64), len);

        let traced = ctx.traced_round(round);
        tracer.set_enabled(traced);
        let t = cpu::process_seconds();
        let outcomes = episode(
            &server,
            &requests,
            &mut tracer,
            report.attempted,
            ctx.round_seed(round as u64),
        );
        let cpu_secs = cpu::process_seconds() - t;
        let stats = server_stats(&server.addr);
        let pairs = server.stop();
        let stats = stats?;
        report.attempted += outcomes.len() as u64;

        let mut episode_layers = Layers { stats, ..Layers::default() };
        let mut keys = BTreeSet::new();
        for o in outcomes {
            let r = requests[o.index];
            let pair = &pairs[r.pair];
            let checked = o.result.and_then(|done| {
                let what = format!(
                    "request {} ({} {} on pair {})",
                    o.index, ALGOS[r.algo], r.method, r.pair
                );
                let injective = r.method != "nn";
                check_mapping(&done.mapping, pair.rows, pair.cols, injective)
                    .map_err(|e| ("violation".to_string(), format!("{what}: {e}")))?;
                let first = first_mapping
                    .entry((round, r.pair, r.algo, r.method))
                    .or_insert_with(|| done.mapping.clone());
                if *first != done.mapping {
                    let e = "differs from the first mapping returned for the same query";
                    return Err(("violation".to_string(), format!("{what}: {e}")));
                }
                Ok(done)
            });
            let score = match checked {
                Ok(done) => {
                    keys.insert((r.pair, r.algo));
                    if traced {
                        if !done.cache_hit {
                            episode_layers
                                .similarity
                                .entry(ALGOS[r.algo])
                                .or_default()
                                .push(done.similarity_s);
                        }
                        let label = r.method.to_ascii_uppercase();
                        episode_layers.assignment.entry(label).or_default().push(done.assignment_s);
                        episode_layers
                            .overhead
                            .push(o.latency - done.similarity_s - done.assignment_s);
                        episode_layers.features += done.features_s;
                        episode_layers.ops.merge(done.ops);
                    }
                    hits(&done.mapping, &pair.truth)
                }
                Err((class, detail)) if class == "violation" => {
                    report.violate(detail);
                    0.0
                }
                Err((class, detail)) => {
                    report.fail(&class, &format!("request {}: {detail}", o.index));
                    0.0
                }
            };
            if !traced {
                latencies.push(o.latency);
                accuracy.push(score);
            }
        }
        episode_layers.distinct_keys = keys.len();
        let throughput = requests.len() as f64 / cpu_secs.max(f64::MIN_POSITIVE);
        if traced {
            traced_throughput.push(throughput);
            layers.get_or_insert(episode_layers);
        } else {
            plain_throughput.push(throughput);
        }
        round += 1;
    }
    report.set("throughput_per_s", median(&plain_throughput));
    report.set("latency_p50_s", median(&latencies));
    if let Some(t) = tail(&latencies) {
        report.set("latency_tail_s", t.value);
        report.notes.push(format!(
            "latency_tail_s is p{} of {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        ));
    }
    report.set("accuracy", mean(&accuracy));
    report.set_common(&setup_secs);

    let l = layers.unwrap_or_default();
    report.set("gen.generate_s", median(&tracer.durations("gen.generate")));
    report.set("noise.make_instance_s", median(&tracer.durations("noise.make_instance")));
    report.set("serve.upload_s", median(&tracer.durations("serve.upload")));
    for (algo, secs) in &l.similarity {
        report.set(&format!("core.similarity_s.{algo}"), median(secs));
    }
    for (method, secs) in &l.assignment {
        report.set(&format!("assignment.assign_s.{method}"), median(secs));
    }
    report.set("core.features_s", l.features);
    l.ops.report(&mut report);
    let requests_traced = tracer.durations("serve.request").len();
    report.set("serve.submit_s", median(&tracer.durations("serve.submit")));
    report.set("serve.poll_s", median(&tracer.durations("serve.poll")));
    report.set(
        "serve.polls_per_request",
        tracer.durations("serve.poll").len() as f64 / requests_traced.max(1) as f64,
    );
    report.set("serve.overhead_s", median(&l.overhead));
    let stat = |k: &str| l.stats.get(k).copied().unwrap_or(0.0);
    let lookups = stat("hits") + stat("misses");
    report.set("serve.cache.hit_ratio", if lookups > 0.0 { stat("hits") / lookups } else { 0.0 });
    report.set(
        "serve.cache.useful_miss_ratio",
        if stat("misses") > 0.0 { l.distinct_keys as f64 / stat("misses") } else { 0.0 },
    );
    report.set("serve.rejected_429", stat("rejected_429"));
    report.set("serve.retries", stat("retries"));
    report.set(
        "trace.overhead_frac",
        overhead_frac(median(&plain_throughput), median(&traced_throughput)),
    );
    report.tracer = Some(tracer);
    Ok(report)
}
