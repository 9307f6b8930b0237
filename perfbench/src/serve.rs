//! `serve-mixed`: an in-process `droplet-serve` over loopback HTTP with a
//! fresh store, driven by two client connections in a closed loop (each
//! waits for its reply before sending again). The seed fixes the request
//! sequence: about one request in four is a spec never sent before (an
//! engine run plus a store write), the rest repeat an earlier spec (a
//! store read, or a join of the run still in flight). HTTP, JSON, spec
//! parsing, dedupe and the store carry the time.
//!
//! A job here is a round of [`BLOCK`] consecutive requests of the
//! sequence, so that every job carries the whole mix: `job_p50_rel`
//! moves with engine runs and store writes as much as with store reads.
//! The per-request figures (`job_p50_ms`, `jobs_per_s` and the spread)
//! stay per request.

use crate::host::nproc;
use crate::inputs::{derive_seed, fill_matrix, FillTimes};
use crate::report::{Metrics, Tally};
use crate::timing::{
    put_end_to_end, put_spread, put_trace_overhead, repeated_setup, JobLoop, Stopwatch,
};
use crate::{stats, Args, Outcome, SETUP_REPEATS};
use droplet::gap::TraceBundle;
use droplet::graph::rng::SimRng;
use droplet::graph::DatasetScale;
use droplet::obs::fnv1a;
use droplet::{run_workload, WorkloadSpec};
use droplet_serve::{spawn, RunSpec, ServerHandle, ServerOptions};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Trace ops per workload. Small, so an engine run costs a few
/// milliseconds and the closed loop completes thousands of requests.
const BUDGET: u64 = 50_000;
/// Client connections in the closed loop.
const CLIENTS: usize = 2;
/// One request in `FRESH_ONE_IN` is a fresh spec: exactly one in each
/// aligned group of that many, at a seeded place in the group.
const FRESH_ONE_IN: u32 = 4;
/// Requests per job: whole groups, so every round holds the same number
/// of fresh specs.
const BLOCK: usize = 256;
/// Fresh specs whose served digest is compared with a direct run.
const DIRECT_SAMPLES: usize = 8;
/// Calls per entry-point probe of the traced run.
const PROBE_CALLS: usize = 200;

const PREFETCHERS: [&str; 7] = [
    "none",
    "ghb",
    "vldp",
    "stream",
    "streammpp1",
    "droplet",
    "mono",
];
const POLICIES: [&str; 5] = ["lru", "srrip", "brrip", "drrip", "ship"];

/// Every distinct spec: 25 workloads × 7 prefetchers × 5³ policy
/// triples, far more than a run can send.
fn fresh_space() -> usize {
    25 * PREFETCHERS.len() * POLICIES.len().pow(3)
}

/// The request body of spec `i` of the fresh space.
fn spec_body(i: usize) -> String {
    let matrix = WorkloadSpec::matrix(DatasetScale::Tiny);
    let mut rest = i;
    let mut take = |n: usize| {
        let d = rest % n;
        rest /= n;
        d
    };
    let w = matrix[take(matrix.len())];
    let pf = PREFETCHERS[take(PREFETCHERS.len())];
    let p1 = POLICIES[take(POLICIES.len())];
    let p2 = POLICIES[take(POLICIES.len())];
    let p3 = POLICIES[take(POLICIES.len())];
    format!(
        "{{\"algo\": \"{}\", \"dataset\": \"{}\", \"scale\": \"tiny\", \"prefetcher\": \"{pf}\", \
         \"budget\": {BUDGET}, \"l1_policy\": \"{p1}\", \"l2_policy\": \"{p2}\", \"l3_policy\": \"{p3}\"}}",
        w.algorithm.name().to_ascii_lowercase(),
        w.dataset.name(),
    )
}

/// The seeded request sequence. Request `n` is the same for a seed
/// however the clients interleave: which client sends it is timing, what
/// it is is not.
struct Mix {
    rng: SimRng,
    /// Fresh specs in the order they are first sent.
    order: Vec<usize>,
    sent: usize,
    sent_fresh: usize,
    /// Place of the fresh request in the current group.
    fresh_at: u32,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, 0x006d_6978));
        let mut order: Vec<usize> = (0..fresh_space()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(u32::try_from(i + 1).expect("fresh space fits in u32")) as usize;
            order.swap(i, j);
        }
        Mix {
            rng,
            order,
            sent: 0,
            sent_fresh: 0,
            fresh_at: 0,
        }
    }

    /// The next request: `(spec index, fresh)`.
    ///
    /// # Panics
    ///
    /// Panics if the fresh space is exhausted; [`fresh_space`] is sized so
    /// that no run gets near it.
    fn next(&mut self) -> (usize, bool) {
        let slot = u32::try_from(self.sent % FRESH_ONE_IN as usize).expect("fits");
        if slot == 0 && self.sent > 0 {
            // The first group opens with its fresh spec, so every repeat
            // has an earlier spec to repeat.
            self.fresh_at = self.rng.below(FRESH_ONE_IN);
        }
        self.sent += 1;
        if slot == self.fresh_at {
            assert!(self.sent_fresh < self.order.len(), "fresh specs exhausted");
            self.sent_fresh += 1;
            (self.order[self.sent_fresh - 1], true)
        } else {
            let pick =
                self.rng
                    .below(u32::try_from(self.sent_fresh).expect("fits")) as usize;
            (self.order[pick], false)
        }
    }
}

/// A reply as the client saw it.
struct Reply {
    status: u16,
    source: String,
    body: String,
}

/// What a stretch keeps of a reply: the body only as its hash and
/// digest, so memory does not grow with the number of requests served.
struct Served {
    status: u16,
    source: String,
    body_hash: u64,
    digest: Option<u64>,
}

impl From<Reply> for Served {
    fn from(r: Reply) -> Served {
        Served {
            status: r.status,
            body_hash: fnv1a(r.body.as_bytes()),
            digest: body_digest(&r.body),
            source: r.source,
        }
    }
}

/// Closes `stream` with a reset instead of a FIN (`SO_LINGER` 0), so
/// neither end of the connection lingers in `TIME_WAIT` after the run.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn close_with_reset(stream: TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is an open socket owned by `stream`, which
    // outlives the call; the value points to a live `struct linger` and
    // the length passed is its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    debug_assert_eq!(rc, 0, "setsockopt(SO_LINGER) failed");
    drop(stream);
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn close_with_reset(stream: TcpStream) {
    drop(stream);
}

/// One HTTP/1.1 exchange (`Connection: close`), read to the server's EOF.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    close_with_reset(stream);
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply has no header end"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut source = String::new();
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("x-droplet-source") {
                source = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    if length != Some(body.len()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "truncated reply",
        ));
    }
    Ok(Reply {
        status,
        source,
        body: body.to_string(),
    })
}

/// The hex `"digest"` field of a result body.
fn body_digest(body: &str) -> Option<u64> {
    let tail = body.split("\"digest\": \"").nth(1)?;
    u64::from_str_radix(tail.get(..16)?, 16).ok()
}

/// An unsigned counter field of a `GET /stats` body.
fn stats_field(body: &str, field: &str) -> Option<u64> {
    let tail = body.split(&format!("\"{field}\": ")).nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A booted server with its traces pre-filled.
struct Service {
    server: ServerHandle,
    bundles: HashMap<WorkloadSpec, Arc<TraceBundle>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupLayers {
    boot_s: f64,
    fill: FillTimes,
}

fn boot(seed: u64, store: &Path) -> (Service, SetupLayers) {
    let sw = Stopwatch::start();
    let server = spawn(ServerOptions {
        store_dir: Some(store.to_path_buf()),
        threads: Some(nproc()),
        ..ServerOptions::default()
    })
    .expect("server binds a loopback port");
    let boot_s = sw.secs();
    let (bundles, fill) = fill_matrix(&server.state().traces, seed, BUDGET);
    let service = Service {
        server,
        bundles: bundles.into_iter().collect(),
    };
    (service, SetupLayers { boot_s, fill })
}

/// One request of a closed-loop stretch.
struct Sent {
    /// Position in the seeded sequence.
    seq: usize,
    spec: usize,
    fresh: bool,
    ms: f64,
    /// Host time of the client-side `RunSpec::parse` wrapper (traced
    /// stretches only).
    parse_us: f64,
    reply: Option<Served>,
}

/// A closed-loop stretch in rounds of [`BLOCK`] requests of the seeded
/// sequence: in each round `CLIENTS` connections send the round's
/// requests, each waiting for its reply before sending again, and a
/// yardstick reading follows the round. Rounds repeat until `seconds`
/// pass. Returns the requests in sequence order and the rounds as jobs.
fn closed_loop(addr: SocketAddr, seed: u64, seconds: f64, traced: bool) -> (Vec<Sent>, JobLoop) {
    let mix = Mutex::new((Mix::new(seed), 0usize));
    let mut sent: Vec<Sent> = Vec::new();
    let mut round_end = 0;
    let rounds = JobLoop::run(seconds, || {
        round_end += BLOCK;
        let round: Vec<Sent> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let mix = &mix;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let (seq, (spec, fresh)) = {
                                let mut guard =
                                    mix.lock().expect("no client panics holding the mix");
                                let seq = guard.1;
                                if seq >= round_end {
                                    break;
                                }
                                guard.1 += 1;
                                (seq, guard.0.next())
                            };
                            let body = spec_body(spec);
                            let sw = Stopwatch::start();
                            let mut parse_us = 0.0;
                            if traced {
                                let p = Stopwatch::start();
                                let parsed = RunSpec::parse(&body, DatasetScale::Tiny);
                                parse_us = p.secs() * 1e6;
                                assert!(parsed.is_ok(), "generated spec parses: {body}");
                            }
                            let reply = exchange(addr, "POST", "/run", &body);
                            let ms = sw.ms();
                            out.push(Sent {
                                seq,
                                spec,
                                fresh,
                                ms,
                                parse_us,
                                reply: reply.ok().map(Served::from),
                            });
                        }
                        out
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        sent.extend(round);
        // Replies are checked once the stretch ends.
        true
    });
    sent.sort_by_key(|s| s.seq);
    (sent, rounds)
}

/// Output checks of a stretch: a non-2xx reply fails its request, and so
/// does a body that differs from the first body served for its spec
/// (bodies are canonical, whatever their source). Returns the tally and
/// each spec's body hash.
fn check_replies(sent: &[Sent]) -> (Tally, HashMap<usize, u64>) {
    let mut tally = Tally::default();
    let mut first: HashMap<usize, u64> = HashMap::new();
    for s in sent {
        let ok = match &s.reply {
            Some(r) if (200..300).contains(&r.status) => {
                *first.entry(s.spec).or_insert(r.body_hash) == r.body_hash
            }
            _ => false,
        };
        tally.record(ok);
    }
    (tally, first)
}

/// Compares the served digest of the first [`DIRECT_SAMPLES`] fresh
/// specs with a direct `run_workload` of the same spec.
fn direct_checks(service: &Service, sent: &[Sent], tally: &mut Tally) {
    let state = service.server.state();
    for s in sent.iter().filter(|s| s.fresh).take(DIRECT_SAMPLES) {
        let Some(reply) = s.reply.as_ref().filter(|r| r.status == 200) else {
            continue; // already counted failed
        };
        let spec =
            RunSpec::parse(&spec_body(s.spec), DatasetScale::Tiny).expect("generated specs parse");
        let bundle = &service.bundles[&spec.workload()];
        let cfg = spec.config(state.base_for(spec.scale));
        let direct = run_workload(bundle, &cfg, spec.warmup()).digest();
        tally.check(reply.digest == Some(direct));
    }
}

fn p50_of(sent: &[Sent], source: &str) -> f64 {
    let ms: Vec<f64> = sent
        .iter()
        .filter(|s| s.reply.as_ref().is_some_and(|r| r.source == source))
        .map(|s| s.ms)
        .collect();
    if ms.is_empty() {
        0.0
    } else {
        stats::median(&ms)
    }
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..PROBE_CALLS).map(|_| f()).collect();
    stats::median(&samples)
}

pub fn run(args: &Args) -> Outcome {
    let mut boots = 0usize;
    let (service, setups, layers) = repeated_setup(SETUP_REPEATS, || {
        boots += 1;
        boot(args.seed, &args.workdir.join(format!("store-{boots}")))
    });
    let addr = service.server.addr;
    let (sent, rounds) = closed_loop(addr, args.seed, args.seconds, false);
    let (mut tally, hashes) = check_replies(&sent);
    direct_checks(&service, &sent, &mut tally);
    let stats_body = exchange(addr, "GET", "/stats", "")
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| r.body);
    tally.check(stats_body.is_some());
    let stats_body = stats_body.unwrap_or_default();
    // Every workload's trace was pre-filled; a lazily built one would
    // come from the library's fixed-seed datasets, not this run's seed.
    tally.check(stats_field(&stats_body, "len") == Some(service.bundles.len() as u64));

    let ms: Vec<f64> = sent.iter().map(|s| s.ms).collect();
    let mut m = Metrics::default();
    if !args.trace {
        put_end_to_end(&mut m, &rounds, &setups);
        service.server.shutdown();
        return Outcome { tally, metrics: m };
    }

    // The traced stretch replays the same sequence against a fresh
    // server and store, timing the spec parser on every request.
    let (traced_service, _) = boot(args.seed, &args.workdir.join("store-traced"));
    let traced_addr = traced_service.server.addr;
    let (traced_sent, traced_rounds) =
        closed_loop(traced_addr, args.seed, args.traced_seconds(), true);
    let (traced_tally, traced_hashes) = check_replies(&traced_sent);
    tally.add(traced_tally);
    for (spec, h) in &traced_hashes {
        if let Some(untraced) = hashes.get(spec) {
            tally.check(untraced == h);
        }
    }

    // Entry-point probes on one stored spec.
    let state = traced_service.server.state();
    let stored = traced_sent
        .iter()
        .find(|s| s.fresh && s.reply.as_ref().is_some_and(|r| r.status == 200))
        .map(|s| s.spec)
        .expect("the first request is fresh");
    let body = spec_body(stored);
    let spec = RunSpec::parse(&body, DatasetScale::Tiny).expect("generated specs parse");
    let key = spec.key(&spec.config(state.base_for(spec.scale)));
    let mut probe_ok = true;
    let store_get_us = median_of(|| {
        let sw = Stopwatch::start();
        probe_ok &= state.store.get(&key).is_some();
        sw.secs() * 1e6
    });
    let direct_store_ms = median_of(|| {
        let sw = Stopwatch::start();
        let (outcome, source) = state.submit_and_wait(&spec);
        probe_ok &= outcome.is_ok() && source == "store";
        sw.ms()
    });
    let http_store_ms = median_of(|| {
        let sw = Stopwatch::start();
        let reply = exchange(traced_addr, "POST", "/run", &body);
        probe_ok &= reply.is_ok_and(|r| r.status == 200 && r.source == "store");
        sw.ms()
    });
    tally.record(probe_ok);

    let count = |f: &str| stats_field(&stats_body, f).unwrap_or(0) as f64;
    let submissions = count("submissions").max(1.0);
    let fill_median =
        |f: &dyn Fn(&SetupLayers) -> f64| stats::median(&layers.iter().map(f).collect::<Vec<_>>());
    let kept = layers.last().expect("at least one set-up");
    m.put("graph.build_s", fill_median(&|l| l.fill.graph_s), "s");
    m.put("gap.trace_s", fill_median(&|l| l.fill.trace_s), "s");
    m.put("gap.ops", kept.fill.ops as f64, "count");
    m.put("trace_cache.fill_s", fill_median(&|l| l.fill.fill_s), "s");
    m.put("serve.boot_s", fill_median(&|l| l.boot_s), "s");
    m.put("trace_cache.misses", kept.fill.misses as f64, "count");
    m.put(
        "trace_cache.resident_bytes",
        service.server.state().traces.resident_bytes() as f64,
        "bytes",
    );
    m.put("serve.engine_ms_p50", p50_of(&sent, "engine"), "ms");
    m.put("serve.store_ms_p50", p50_of(&sent, "store"), "ms");
    m.put("serve.inflight_ms_p50", p50_of(&sent, "inflight"), "ms");
    m.put("serve.engine_runs", count("engine_runs"), "count");
    m.put("serve.store_hits", count("store_hits"), "count");
    m.put("serve.dedupe_hits", count("dedupe_hits"), "count");
    m.put("serve.rejects", count("rejects"), "count");
    m.put(
        "serve.engine_frac",
        count("engine_runs") / submissions,
        "ratio",
    );
    m.put(
        "serve.dedupe_frac",
        count("dedupe_hits") / submissions,
        "ratio",
    );
    let parse: Vec<f64> = traced_sent.iter().map(|s| s.parse_us).collect();
    m.put("serve.spec_parse_us", stats::median(&parse), "us");
    m.put("serve.store_get_us", store_get_us, "us");
    m.put("serve.direct_store_ms", direct_store_ms, "ms");
    m.put("serve.http_store_ms", http_store_ms, "ms");
    let traced_ms: Vec<f64> = traced_sent.iter().map(|s| s.ms).collect();
    m.put(
        "traced_wall_s",
        traced_ms.iter().sum::<f64>() / traced_ms.len() as f64 / 1e3,
        "s",
    );
    put_trace_overhead(&mut m, &traced_rounds, &rounds);
    let busy_s = rounds.ms.iter().sum::<f64>() / 1e3;
    put_spread(
        &mut m,
        &ms,
        ms.len() as f64 / busy_s,
        &rounds.yard_ms,
        &setups,
    );
    traced_service.server.shutdown();
    service.server.shutdown();
    Outcome { tally, metrics: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_follows_the_seed_and_stays_mostly_repeats() {
        let take = |seed| {
            let mut mix = Mix::new(seed);
            (0..4000).map(|_| mix.next()).collect::<Vec<_>>()
        };
        let a = take(1);
        assert_eq!(a, take(1));
        assert_ne!(a, take(2));
        // Exactly one fresh spec in every aligned group, so every block
        // of requests holds the same share.
        for group in a.chunks(FRESH_ONE_IN as usize) {
            assert_eq!(group.iter().filter(|(_, f)| *f).count(), 1);
        }
        assert!(a[0].1, "the sequence opens with a fresh spec");
        assert_eq!(BLOCK % FRESH_ONE_IN as usize, 0, "rounds hold whole groups");
        // A repeat names a spec sent fresh earlier in the sequence.
        let mut seen = std::collections::HashSet::new();
        for (spec, f) in a {
            assert_eq!(f, seen.insert(spec), "spec {spec}");
        }
    }

    #[test]
    fn every_generated_spec_parses() {
        for i in [0, 1, 24, 25, 174, 175, fresh_space() - 1] {
            let body = spec_body(i);
            let spec = RunSpec::parse(&body, DatasetScale::Tiny).expect(&body);
            assert_eq!(spec.budget, BUDGET);
        }
        // Distinct indices are distinct jobs.
        let a = RunSpec::parse(&spec_body(3), DatasetScale::Tiny).unwrap();
        let b = RunSpec::parse(&spec_body(3 + 25 * 7), DatasetScale::Tiny).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn served_results_match_direct_runs_and_failures_count() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_tmp")
            .join(format!("serve-test-{}", std::process::id()));
        let (service, _) = boot(9, &dir);
        let (sent, _) = closed_loop(service.server.addr, 9, 0.3, false);
        let (mut tally, _) = check_replies(&sent);
        direct_checks(&service, &sent, &mut tally);
        assert_eq!(tally.failed, 0);
        assert!(tally.attempted >= 2);
        // A reply that is not 2xx fails its request.
        let bad = exchange(service.server.addr, "POST", "/run", "{\"algo\": \"nope\"}").unwrap();
        assert_eq!(bad.status, 400);
        let (bad_tally, _) = check_replies(&[Sent {
            seq: 0,
            spec: 0,
            fresh: true,
            ms: 0.0,
            parse_us: 0.0,
            reply: Some(bad.into()),
        }]);
        assert_eq!(bad_tally.failed, 1);
        service.server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        // Shared with concurrent test binaries; removed once empty.
        let _ = std::fs::remove_dir(dir.parent().expect("has a parent"));
    }

    #[test]
    fn stats_fields_are_read() {
        let body = "{\"submissions\": 12, \"engine_runs\": 3, \"trace_cache\": {\"len\": 25}}";
        assert_eq!(stats_field(body, "submissions"), Some(12));
        assert_eq!(stats_field(body, "len"), Some(25));
        assert_eq!(stats_field(body, "missing"), None);
        assert_eq!(body_digest("{\"digest\": \"00000000000000ff\"}"), Some(255));
    }
}
