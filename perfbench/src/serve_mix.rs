//! `serve_mix`: a served batch over loopback.
//!
//! Every round starts an in-process `lgr_serve::serve` on
//! `127.0.0.1:0` with 2 workers and a fresh `Session` at sd=2^13 whose
//! per-cache byte budget is below the distinct working set, so
//! evictions and rebuilds happen beside hits. Set-up materializes both
//! datasets and warms the hot set. Then 2 closed-loop clients replay a
//! request stream generated from the seed:
//!
//! * Zipf-skewed repeats over the hot set, (`sd`|`kr`) ×
//!   (orig|dbg|sort|hubcluster) × (`pr`|`sssp`|`bc`);
//! * novel keys made with app knobs, so cold traced runs keep arriving;
//! * novel keys both clients send at once, so build coalescing runs;
//! * malformed or policy-refused lines, which must come back as errors;
//!
//! and one `{"stats":"true"}` closes the round. Every round replays the
//! same stream against a new server, so rounds are alike and every
//! response to one request line must be the same bytes.
//!
//! The mix is synthetic: no trace of real clients was available, so
//! each count below is chosen to exercise one path, not to match a
//! measured traffic (`RATIONALE.md` gives the measured cache shares).
//! `lgr_serve::serve` has no shutdown, so the servers and sessions of
//! earlier rounds stay alive, idle, until the process exits.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use lgr_engine::{DatasetSpec, Session, SessionConfig};
use lgr_serve::{serve, ServeOptions};

use crate::{median, percentile, Outcome, Params, Tracer};

/// Default scale exponent: `sd` gets 2^13 vertices.
pub const SCALE: u32 = 13;
/// Server connection workers and client connections.
pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
/// Byte budget of each session cache at the default scale: both
/// original graphs fit, the reordered graphs of the hot set do not.
pub const CACHE_BYTES: u64 = 6 << 20;
/// Fewest set-up samples in a run (each round gives one).
const SETUPS: usize = 5;
/// Requests per round, both clients together.
pub const REQUESTS: usize = 1200;
/// Zipf exponent of the hot-set repeats: a skew in which the top few
/// keys take most requests yet every hot key recurs within a round.
const ZIPF_S: f64 = 1.1;
/// Requests that must be refused: malformed, unknown names, or over a
/// limit the network policy enforces.
const BAD_LINES: [&str; 6] = [
    "{\"app\":\"pr\",\"dataset\":\"sd\"",
    "{\"app\":\"pr\",\"dataset\":\"sd\",\"technique\":\"nosuch\"}",
    "{\"app\":\"pr\",\"dataset\":\"sd:seed=9\"}",
    "{\"app\":\"pr:iters=5000\",\"dataset\":\"kr\"}",
    "{\"app\":\"nosuch\",\"dataset\":\"kr\"}",
    "{\"stats\":\"maybe\"}",
];
const ERRORS_PER_ROUND: usize = 12;

const DATASETS: [&str; 2] = ["sd", "kr"];
const HOT_TECHNIQUES: [Option<&str>; 4] = [None, Some("dbg"), Some("sort"), Some("hubcluster")];
const HOT_APPS: [&str; 3] = ["pr", "sssp", "bc"];
/// Knobbed apps behind the novel keys, one per dataset each; the seed
/// picks the technique and the order.
const NOVEL_APPS: [&str; 6] = [
    "pr:iters=4",
    "pr:iters=5",
    "pr:iters=6",
    "bc:roots=3",
    "bc:roots=4",
    "sssp:roots=3",
];
/// Novel keys both clients send at the same moment (coalesced).
const SHARED_APPS: [&str; 2] = ["pr:iters=7", "bc:roots=5"];
const NOVEL_TECHNIQUES: [&str; 3] = ["dbg", "sort", "hubcluster"];

/// How the generator meant a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Cold,
    Error,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Cold => "cold",
            Class::Error => "error",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub line: String,
    pub class: Class,
    /// Both clients send this request together (a barrier).
    pub sync: bool,
}

fn job_line(dataset: &str, technique: Option<&str>, app: &str) -> String {
    let technique = technique.map_or_else(String::new, |t| format!(",\"technique\":\"{t}\""));
    format!("{{\"app\":\"{app}\",\"dataset\":\"{dataset}\"{technique},\"canonical\":\"true\"}}")
}

/// The hot set, in a fixed order.
pub fn hot_set() -> Vec<String> {
    let mut keys = Vec::new();
    for ds in DATASETS {
        for tech in HOT_TECHNIQUES {
            for app in HOT_APPS {
                keys.push(job_line(ds, tech, app));
            }
        }
    }
    keys
}

/// Each client's request list for one round.
///
/// Cold requests come in pairs that both clients send together (a
/// barrier): the same knob, one client on each dataset. The server thus
/// always runs two cold jobs at once, and a pair lasts as long as its
/// `sd` job, whatever the order. Left to chance, how much the two
/// clients' cold jobs overlap, and so the round time, would change
/// with the seed. The shared keys open the round.
pub fn streams(seed: u64) -> [Vec<Request>; CLIENTS] {
    let mut rng = Rng::new(seed);
    let mut hot = hot_set();
    // The seed decides which keys are popular.
    shuffle(&mut hot, &mut rng);
    let weights: Vec<f64> = (1..=hot.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cold = |ds: &str, app: &str, sync: bool, rng: &mut Rng| Request {
        line: job_line(
            ds,
            Some(NOVEL_TECHNIQUES[rng.below(NOVEL_TECHNIQUES.len())]),
            app,
        ),
        class: Class::Cold,
        sync,
    };

    let shared: Vec<Request> = DATASETS
        .iter()
        .flat_map(|ds| SHARED_APPS.map(|app| (ds, app)))
        .map(|(ds, app)| cold(ds, app, true, &mut rng))
        .collect();
    let mut pairs: Vec<[Request; CLIENTS]> = NOVEL_APPS
        .iter()
        .enumerate()
        .map(|(j, app)| {
            let [a, b] = if j % 2 == 0 {
                DATASETS
            } else {
                [DATASETS[1], DATASETS[0]]
            };
            [cold(a, app, true, &mut rng), cold(b, app, true, &mut rng)]
        })
        .collect();
    shuffle(&mut pairs, &mut rng);

    // Pairs sit at the same, seed-chosen places in both lists.
    let body = REQUESTS / CLIENTS - shared.len();
    let mut places: Vec<usize> = (0..body).collect();
    shuffle(&mut places, &mut rng);
    let mut lists: [Vec<Option<Request>>; CLIENTS] = Default::default();
    for list in &mut lists {
        list.resize(body, None);
    }
    for (pair, &at) in pairs.into_iter().zip(&places) {
        for (list, req) in lists.iter_mut().zip(pair) {
            list[at] = Some(req);
        }
    }
    let free = &places[NOVEL_APPS.len()..];
    lists.map(|mut list| {
        let mut free = free.to_vec();
        shuffle(&mut free, &mut rng);
        for (bad, &at) in BAD_LINES
            .iter()
            .cycle()
            .zip(&free)
            .take(ERRORS_PER_ROUND / CLIENTS)
        {
            list[at] = Some(Request {
                line: (*bad).to_owned(),
                class: Class::Error,
                sync: false,
            });
        }
        let body = list.into_iter().map(|slot| {
            slot.unwrap_or_else(|| {
                let mut x = rng.unit() * total;
                let rank = weights
                    .iter()
                    .position(|w| {
                        x -= w;
                        x < 0.0
                    })
                    .unwrap_or(hot.len() - 1);
                Request {
                    line: hot[rank].clone(),
                    class: Class::Hit,
                    sync: false,
                }
            })
        });
        shared.iter().cloned().chain(body).collect()
    })
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One request as the client saw it.
struct Answer<'a> {
    req: &'a Request,
    rtt_ms: f64,
    /// `None` if the connection failed before a reply.
    response: Option<String>,
}

struct Round<'a> {
    setup_s: f64,
    wall_s: f64,
    window: (u64, u64),
    answers: Vec<Answer<'a>>,
    /// The `{"stats":"true"}` replies after warming and after the
    /// stream.
    warm_stats: String,
    stats: Option<String>,
}

fn session_config(p: &Params) -> SessionConfig {
    let scale = p.scale.unwrap_or(SCALE);
    let mut cfg = SessionConfig::default().with_scale_exp(scale);
    // Graph bytes halve with each step down in scale; so does the
    // budget, keeping the same share of the working set.
    cfg.cache_bytes = Some((CACHE_BYTES >> SCALE.saturating_sub(scale)).max(64 << 10));
    cfg
}

/// Starts a server on a fresh session, materializes the datasets and
/// warms the hot set. Returns the address, the set-up time and, taken
/// after the timed part, the cache counters of the warm session.
fn setup(p: &Params, tr: &Tracer) -> Result<(String, f64, String), String> {
    let t = Instant::now();
    let session = Arc::new(Session::new(session_config(p)));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let options = ServeOptions {
        workers: WORKERS,
        allow_files: false,
    };
    // The server's workers, and the session they share, live until
    // the process exits: `serve` has no shutdown.
    tr.span("serve.start", 0, || {
        serve(listener, Arc::clone(&session), options)
    })
    .map_err(|e| format!("serve: {e}"))?;
    for ds in DATASETS {
        let spec: DatasetSpec = ds.parse().map_err(|e| format!("{ds}: {e}"))?;
        tr.span("graph.build", 0, || session.try_graph(&spec))
            .map_err(|e| format!("{ds}: {e}"))?;
    }
    let mut conn = Conn::open(&addr)?;
    for line in hot_set() {
        let reply = tr.span("serve.warm", 0, || conn.ask(&line))?;
        if !reply.starts_with("{\"app\":") {
            return Err(format!("warming `{line}`: {reply}"));
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    let warm_stats = conn.ask(STATS)?;
    Ok((addr, setup_s, warm_stats))
}

const STATS: &str = "{\"stats\":\"true\"}";

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One round trip: a request line out, a response line back.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Replays one client's list. After a connection failure the client
/// still meets its barriers, so the other client never waits forever.
fn client<'a>(
    addr: &str,
    list: &'a [Request],
    base_id: u64,
    barrier: &Barrier,
    tr: &Tracer,
) -> Vec<Answer<'a>> {
    let mut conn = Conn::open(addr).ok();
    let mut answers = Vec::with_capacity(list.len());
    for (i, req) in list.iter().enumerate() {
        if req.sync {
            barrier.wait();
        }
        let id = base_id + i as u64;
        let t = Instant::now();
        let response = conn.as_mut().and_then(|c| {
            tr.span(&format!("serve.rtt.{}", req.class.name()), id, || {
                c.ask(&req.line)
            })
            .ok()
        });
        if response.is_none() {
            conn = None;
        }
        answers.push(Answer {
            req,
            rtt_ms: t.elapsed().as_secs_f64() * 1e3,
            response,
        });
    }
    answers
}

fn round<'a>(
    p: &Params,
    lists: &'a [Vec<Request>; CLIENTS],
    tr: &Tracer,
) -> Result<Round<'a>, String> {
    let (addr, setup_s, warm_stats) = setup(p, tr)?;
    let barrier = Barrier::new(CLIENTS);
    let from = tr.now_ns();
    let t = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let (addr, barrier) = (&addr, &barrier);
                scope.spawn(move || client(addr, list, (c * REQUESTS) as u64, barrier, tr))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let window = (from, tr.now_ns());
    let stats = Conn::open(&addr)
        .and_then(|mut c| tr.span("engine.cache_stats", 0, || c.ask(STATS)))
        .ok();
    Ok(Round {
        setup_s,
        wall_s,
        window,
        answers,
        warm_stats,
        stats,
    })
}

/// Reads one counter of one cache (`"total"` for the rollup) from a
/// stats line: `{"stats":{..,"runs":{"hits":..,"misses":..},..}}`.
fn counter(stats: &str, cache: &str, key: &str) -> Option<f64> {
    let at = stats.find(&format!("\"{cache}\":{{"))?;
    let object = &stats[at..stats[at..].find('}')? + at];
    let rest = &object[object.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What the session's caches did during one round's stream: the
/// change in the counters between the warm session and the end.
#[derive(Debug, Clone, Copy)]
struct CacheDelta {
    run_hits: f64,
    run_misses: f64,
    /// Relabeled graphs built, most of them again after an eviction.
    relabels: f64,
    evictions: f64,
}

impl CacheDelta {
    fn of(r: &Round) -> Option<CacheDelta> {
        let end = r.stats.as_deref()?;
        let delta =
            |cache, key| Some(counter(end, cache, key)? - counter(&r.warm_stats, cache, key)?);
        Some(CacheDelta {
            run_hits: delta("runs", "hits")?,
            run_misses: delta("runs", "misses")?,
            relabels: delta("reordered", "misses")?,
            evictions: delta("total", "evictions")?,
        })
    }

    fn run_hit_share(self) -> f64 {
        self.run_hits / (self.run_hits + self.run_misses).max(1.0)
    }
}

pub fn run(p: &Params, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(p, tr, &mut out) {
        out.checks.check(false, || e);
    }
    out
}

fn measure(p: &Params, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let lists = streams(p.seed);
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let mut rounds = vec![round(p, &lists, &untraced)?];
    while p.another_pass(rounds.len(), start) {
        rounds.push(round(p, &lists, &untraced)?);
    }
    let traced = if p.trace {
        Some(round(p, &lists, tr)?)
    } else {
        None
    };
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(setup(p, &untraced)?.1);
    }

    // Checks: expected errors are errors, everything else is a report,
    // and every response to one request line is the same bytes.
    if p.tamper {
        let last_hit = rounds
            .iter_mut()
            .flat_map(|r| r.answers.iter_mut())
            .filter(|a| a.req.class == Class::Hit)
            .last();
        if let Some(response) = last_hit.and_then(|a| a.response.as_mut()) {
            response.push('x');
        }
    }
    let mut seen: HashMap<&str, String> = HashMap::new();
    for r in rounds.iter().chain(&traced) {
        for a in &r.answers {
            let line = a.req.line.as_str();
            let Some(response) = &a.response else {
                out.checks.check(false, || format!("`{line}`: no response"));
                continue;
            };
            let ok = match a.req.class {
                Class::Error => response.starts_with("{\"error\":"),
                Class::Hit | Class::Cold => {
                    response.starts_with("{\"app\":")
                        && seen.entry(line).or_insert_with(|| response.clone()) == response
                }
            };
            out.checks
                .check(ok, || format!("`{line}`: unexpected response `{response}`"));
        }
        // The budget must force evictions beside hits during the
        // stream, or the round no longer tests what it is for.
        let delta = CacheDelta::of(r);
        out.checks.check(
            delta.is_some_and(|d| d.evictions > 0.0 && d.run_hits > 0.0),
            || {
                format!(
                    "the round's caches saw no evictions or no hits: {delta:?} (stats {:?})",
                    r.stats
                )
            },
        );
    }
    let deltas: Vec<CacheDelta> = rounds
        .iter()
        .chain(&traced)
        .filter_map(CacheDelta::of)
        .collect();
    let med = |f: fn(CacheDelta) -> f64| median(&deltas.iter().copied().map(f).collect::<Vec<_>>());

    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.answers.iter().map(|a| a.rtt_ms))
        .collect();
    let stream_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    out.set("setup_s", median(&setups));
    out.set(
        "wall_s",
        median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
    );
    out.extra("req_p50_ms", percentile(&latencies, 0.50), "ms");
    out.extra("req_p99_ms", percentile(&latencies, 0.99), "ms");
    out.extra("req_per_s", latencies.len() as f64 / stream_s, "1/s");
    out.extra("requests", latencies.len() as f64, "count");
    out.extra("rounds", rounds.len() as f64, "count");
    out.extra("setup_samples", setups.len() as f64, "count");
    out.extra(
        "round_run_hit_share",
        med(CacheDelta::run_hit_share),
        "ratio",
    );
    out.extra("round_run_misses", med(|d| d.run_misses), "count");
    out.extra("round_relabels", med(|d| d.relabels), "count");
    out.extra("round_evictions", med(|d| d.evictions), "count");

    if let Some(traced) = traced {
        out.add_trace(
            tr,
            traced.window,
            median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        );
        for class in [Class::Hit, Class::Cold, Class::Error] {
            let rtts: Vec<f64> = traced
                .answers
                .iter()
                .filter(|a| a.req.class == class)
                .map(|a| a.rtt_ms)
                .collect();
            out.set(&format!("serve.rtt_ms.{}", class.name()), median(&rtts));
        }
        let stats = traced.stats.as_deref().unwrap_or("");
        let counter = |key| counter(stats, "total", key).unwrap_or(0.0);
        let (hits, misses) = (counter("hits"), counter("misses"));
        out.set("engine.cache_hits", hits);
        out.set("engine.cache_misses", misses);
        out.set("engine.cache_evictions", counter("evictions"));
        out.set("engine.hit_ratio", hits / (hits + misses).max(1.0));
    }
    Ok(())
}

/// SplitMix64: the benchmark's own deterministic stream, so generated
/// inputs depend on the seed alone.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_the_seed_alone() {
        let a = streams(3);
        let b = streams(3);
        let c = streams(4);
        let lines = |s: &[Vec<Request>; CLIENTS]| -> Vec<String> {
            s.iter().flatten().map(|r| r.line.clone()).collect()
        };
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
    }

    #[test]
    fn streams_have_the_planned_mix() {
        let s = streams(1);
        assert_eq!(s.iter().map(Vec::len).sum::<usize>(), REQUESTS);
        let count = |class| s.iter().flatten().filter(|r| r.class == class).count();
        assert_eq!(count(Class::Error), ERRORS_PER_ROUND);
        assert_eq!(
            count(Class::Cold),
            NOVEL_APPS.len() * DATASETS.len() + CLIENTS * SHARED_APPS.len() * DATASETS.len()
        );
        // Both clients meet at the same places, and only at cold keys.
        let syncs = |list: &Vec<Request>| -> Vec<usize> {
            list.iter()
                .enumerate()
                .filter(|(_, r)| r.sync)
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(syncs(&s[0]), syncs(&s[1]));
        assert!(s
            .iter()
            .flatten()
            .filter(|r| r.sync)
            .all(|r| r.class == Class::Cold));
        let shared = SHARED_APPS.len() * DATASETS.len();
        assert_eq!(
            s[0][..shared].iter().map(|r| &r.line).collect::<Vec<_>>(),
            s[1][..shared].iter().map(|r| &r.line).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stats_counters_parse() {
        let line = "{\"stats\":{\"graphs\":{\"hits\":1,\"misses\":2,\"evictions\":0},\
                    \"runs\":{\"hits\":25,\"misses\":3,\"evictions\":5},\
                    \"total\":{\"hits\":30,\"misses\":4,\"evictions\":7}}}";
        assert_eq!(counter(line, "total", "hits"), Some(30.0));
        assert_eq!(counter(line, "total", "evictions"), Some(7.0));
        assert_eq!(counter(line, "runs", "misses"), Some(3.0));
        assert_eq!(counter(line, "graphs", "evictions"), Some(0.0));
        assert_eq!(counter(line, "walls", "hits"), None);
    }
}
