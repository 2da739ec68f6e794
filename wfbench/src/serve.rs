//! The two serve workloads, over one sentiment index: web pages and
//! reviews at 10× (19,350 documents) mined in Mode B and wrapped in a
//! `SentimentServingBackend`. A request is `LruCache::get`, then on a miss
//! `execute` and `insert`, on one server thread.
//!
//! - `serve-hot`: subjects drawn Zipf(1.0) over a seeded ranking of the 41
//!   vocabulary subjects, cache capacity 32, so most requests hit the
//!   cache. Exercises the cache layer.
//! - `serve-cold`: subjects drawn uniformly, cache capacity 0, so every
//!   request parses, merges postings, ranks and renders JSON. Changes to
//!   the backend and the index show here.
//!
//! Both send 90% `sentiment of S` and 10% `top k p`. One client sends
//! each request as soon as the previous one is answered (a closed loop):
//! its requests per second of server time are the throughput, and the
//! time each request takes is its latency. A traced run reports both, from
//! the untraced segments it alternates with traced ones, and also drives
//! an open loop at a fixed rate, timing each request from its due time,
//! for the `loadgen.*` metrics. An untraced run drives the same closed
//! loop, checking every answer, and reports set-up time and peak memory.
//!
//! Every segment runs on a server set up afresh: sentiment index, backend,
//! cache and cache warm-up. How fast a hit or a postings merge runs depends
//! on where the allocator happened to place the index and cache, and one
//! process's placement follows from its seed; rebuilding per segment lets
//! each run sample many placements instead of one. `setup_s` is the median
//! of these set-ups.

use crate::inputs::{self, Digest, Popularity};
use crate::report::{self, LayerCounts, Outcome};
use crate::stats::{fastest_rate, fastest_time, forget_peak_rss, median, percentile};
use crate::trace::Tracer;
use crate::Options;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wf_platform::{Cluster, Ingestor, LruCache, MinerPipeline, ServingBackend};
use wf_sentiment::{AdhocSentimentMiner, SentimentServingBackend, ShardedSentimentIndex};

const NODES: usize = 2;
/// Closed-loop segments; a traced run alternates untraced and traced ones
/// of half the length.
const CLOSED_SEGMENTS: usize = 16;
/// Open-loop segments of a traced run, and the share of `--seconds` they
/// take.
const OPEN_SEGMENTS: usize = 5;
const OPEN_SHARE: f64 = 0.3;
/// Requests in the seeded stream; the loops cycle through it.
const REQUEST_POOL: usize = 1 << 16;
/// The open loop's latency limit (p99). A failed or wrong answer counts
/// as over it.
const LATENCY_LIMIT_US: f64 = 5000.0;

/// What distinguishes the two serve workloads.
pub struct Profile {
    popularity: Popularity,
    cache_capacity: usize,
    warmup: usize,
    /// Open-loop arrival rate, requests per second.
    rate: f64,
}

pub const HOT: Profile = Profile {
    popularity: Popularity::Zipf,
    cache_capacity: 32,
    warmup: 1000,
    rate: 2500.0,
};

pub const COLD: Profile = Profile {
    popularity: Popularity::Uniform,
    cache_capacity: 0,
    warmup: 200,
    rate: 1000.0,
};

/// The server: the backend and its result cache.
struct Server {
    backend: SentimentServingBackend,
    cache: LruCache,
}

impl Server {
    /// One request: cache lookup, then on a miss execute and insert.
    fn serve(&mut self, t: &Tracer, request: &str, c: &mut LayerCounts) -> Option<String> {
        let cache = &mut self.cache;
        if let Some(body) = t.span("cache.get", || cache.get(request)) {
            return Some(body);
        }
        let answer = t
            .span("serve.execute", || self.backend.execute(request))
            .ok()?;
        c.serve_postings_scanned += answer.cost_sim_ms;
        c.serve_body_bytes += answer.body.len() as u64;
        let cache = &mut self.cache;
        t.span("cache.insert", || {
            cache.insert(request.to_string(), answer.body.clone())
        });
        Some(answer.body)
    }

    fn cache_counts(&self) -> [u64; 3] {
        [
            self.cache.hits(),
            self.cache.misses(),
            self.cache.evictions(),
        ]
    }
}

/// The seeded requests the loops walk through, each with its reference
/// answer computed without the cache, and the tally of checked answers.
struct Stream<'a> {
    pool: &'a [String],
    reference: HashMap<&'a str, Option<String>>,
    cursor: usize,
    attempted: u64,
    failed: u64,
}

impl<'a> Stream<'a> {
    fn next(&mut self) -> &'a str {
        let request = &self.pool[self.cursor % self.pool.len()];
        self.cursor += 1;
        request
    }

    /// Counts the answer; true when it is the reference answer.
    fn check(&mut self, request: &str, body: &Option<String>) -> bool {
        let ok = body.is_some() && self.reference.get(request) == Some(body);
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// Throughput and latency of one closed-loop segment.
struct ClosedStats {
    /// Requests per second of server time.
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// The end of the next of `parts` equal shares of the time left until
/// `deadline`.
fn share_of_rest(deadline: Instant, parts: usize) -> Instant {
    let now = Instant::now();
    now + deadline.saturating_duration_since(now) / parts.max(1) as u32
}

/// A closed-loop segment until `end`: one client sends the next request as
/// soon as the previous one is answered.
fn closed_segment(
    t: &Tracer,
    server: &mut Server,
    stream: &mut Stream,
    end: Instant,
    c: &mut LayerCounts,
) -> ClosedStats {
    let mut latencies = Vec::new();
    loop {
        let request = stream.next();
        let start = Instant::now();
        let body = t.span("request", || server.serve(t, request, c));
        let done = Instant::now();
        latencies.push((done - start).as_secs_f64() * 1e6);
        stream.check(request, &body);
        if done >= end {
            break;
        }
    }
    ClosedStats {
        qps: latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e6),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
    }
}

/// Latency statistics of one open-loop segment, in µs.
struct OpenStats {
    p50: f64,
    p99: f64,
    late_p99: f64,
    backlog_max: u64,
}

/// An open-loop segment: requests fall due at a fixed rate whatever the
/// server does, and each is timed from its due time, so a stall also
/// delays the requests queued behind it.
fn open_segment(
    t: &Tracer,
    server: &mut Server,
    stream: &mut Stream,
    (rate, seconds): (f64, f64),
    c: &mut LayerCounts,
) -> OpenStats {
    let n = ((rate * seconds).round() as usize).max(1);
    let period = 1.0 / rate;
    let origin = Instant::now();
    let mut latencies = Vec::with_capacity(n);
    let mut lateness = Vec::with_capacity(n);
    let mut backlog_max = 0u64;
    for i in 0..n {
        let due = origin + Duration::from_secs_f64(i as f64 * period);
        wait_until(due);
        let request = stream.next();
        let begin = Instant::now();
        let body = t.span("request", || server.serve(t, request, c));
        let done = Instant::now();
        let latency = (done - due).as_secs_f64() * 1e6;
        latencies.push(if stream.check(request, &body) {
            latency
        } else {
            latency.max(LATENCY_LIMIT_US + 1.0)
        });
        lateness.push((begin - due).as_secs_f64() * 1e6);
        // requests already due but not yet started
        let due_by_now = ((begin - origin).as_secs_f64() / period) as u64 + 1;
        backlog_max = backlog_max.max(due_by_now.saturating_sub(i as u64 + 1));
    }
    OpenStats {
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        late_p99: percentile(&lateness, 99.0),
        backlog_max,
    }
}

/// Spins until `due`: a timer's wake-up delay (tens to hundreds of µs)
/// would show up as latency the server never caused.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub fn run(opts: &Options, profile: &Profile) -> Outcome {
    let mut docs = inputs::web_docs(opts.seed, opts.scale);
    docs.extend(inputs::review_docs(opts.seed, opts.scale, 10));
    let pool = inputs::requests(
        opts.seed,
        &inputs::serve_subjects(),
        profile.popularity,
        REQUEST_POOL,
    );
    let mut input_digest = Digest::default();
    input_digest.add_docs(&docs);
    for request in &pool {
        input_digest.add(request);
    }

    // the served data: the corpus mined once in Mode B
    let cluster = Cluster::new(NODES).expect("two nodes are valid");
    let mut attempted = docs.len() as u64;
    Ingestor::new(cluster.store()).ingest_batch(docs);
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    let mut failed = cluster.run_pipeline(&pipeline).failed as u64;
    let mut annotations = 0;
    cluster
        .store()
        .for_each(|e| annotations += e.annotations_of("sentiment").count());

    let t = Tracer::new(opts.trace);
    let off = Tracer::new(false);
    let mut counts = LayerCounts::default();
    let mut scratch = LayerCounts::default();
    let warmup = &pool[..profile.warmup];
    let mut setup_s = Vec::new();
    let mut set_up = |t: &Tracer| {
        let start = Instant::now();
        let server = t.span("setup", || {
            let sindex = t.span("sindex.build", || {
                ShardedSentimentIndex::build_from_store(cluster.store())
            });
            let mut server = Server {
                backend: SentimentServingBackend::new(sindex),
                cache: LruCache::new(profile.cache_capacity),
            };
            let mut warm = LayerCounts::default();
            for request in warmup {
                t.span("request", || server.serve(t, request, &mut warm));
            }
            server
        });
        setup_s.push(start.elapsed().as_secs_f64());
        server
    };

    let server = set_up(&off);
    let index = server.backend.index();
    counts.sindex_postings = index.posting_count() as u64;
    counts.sindex_subjects = index.subjects().len() as u64;
    attempted += 1;
    failed += u64::from(annotations != index.posting_count());
    let mut stream = Stream {
        pool: &pool,
        reference: HashMap::new(),
        cursor: warmup.len(),
        attempted: 0,
        failed: 0,
    };
    for request in &pool {
        stream
            .reference
            .entry(request)
            .or_insert_with(|| server.backend.execute(request).ok().map(|a| a.body));
    }
    drop(server);
    let mut output_digest = Digest::default();
    let mut sorted: Vec<_> = stream.reference.iter().collect();
    sorted.sort();
    for (request, body) in sorted {
        output_digest.add(request);
        output_digest.add(&format!("{body:?}"));
    }
    forget_peak_rss();

    // The rest of the `--seconds` budget is split evenly over the segments,
    // each with its set-up; a traced run gives the open loop OPEN_SHARE.
    let deadline = opts.started + Duration::from_secs_f64(opts.seconds);
    let (closed_deadline, mut segments_left) = if opts.trace {
        let now = Instant::now();
        let closed = deadline
            .saturating_duration_since(now)
            .mul_f64(1.0 - OPEN_SHARE);
        (now + closed, 2 * CLOSED_SEGMENTS)
    } else {
        (deadline, CLOSED_SEGMENTS)
    };
    let mut next_end = || {
        let end = share_of_rest(closed_deadline, segments_left);
        segments_left -= 1;
        end
    };
    let (mut closed, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..CLOSED_SEGMENTS {
        let end = next_end();
        let mut server = set_up(&off);
        let s = &mut stream;
        closed.push(closed_segment(&off, &mut server, s, end, &mut scratch));
        if opts.trace {
            drop(server);
            let end = next_end();
            let mut server = set_up(&t);
            let before = server.cache_counts();
            traced.push(closed_segment(&t, &mut server, s, end, &mut counts));
            add_cache_counts(&mut counts, before, server.cache_counts());
            counts.units += 1;
        }
    }
    let stat =
        |stats: &[ClosedStats], f: fn(&ClosedStats) -> f64| stats.iter().map(f).collect::<Vec<_>>();

    let metrics = if opts.trace {
        let mut open = Vec::new();
        for k in 0..OPEN_SEGMENTS {
            let end = share_of_rest(deadline, OPEN_SEGMENTS - k);
            let mut server = set_up(&t);
            let before = server.cache_counts();
            let seconds = end.saturating_duration_since(Instant::now()).as_secs_f64();
            open.push(open_segment(
                &t,
                &mut server,
                &mut stream,
                (profile.rate, seconds),
                &mut counts,
            ));
            add_cache_counts(&mut counts, before, server.cache_counts());
            counts.units += 1;
        }
        let open_median =
            |f: fn(&OpenStats) -> f64| median(&open.iter().map(f).collect::<Vec<_>>());
        counts.overhead_ratio =
            median(&stat(&traced, |s| s.qps)) / median(&stat(&closed, |s| s.qps));
        counts.open_p50_us = open_median(|o| o.p50);
        counts.open_p99_us = open_median(|o| o.p99);
        counts.late_p99_us = open_median(|o| o.late_p99);
        counts.backlog_max = open.iter().map(|o| o.backlog_max).max().unwrap_or(0);
        counts.throughput_per_s = fastest_rate(&stat(&closed, |s| s.qps));
        counts.query_p50_us = fastest_time(&stat(&closed, |s| s.p50_us));
        counts.query_p99_us = fastest_time(&stat(&closed, |s| s.p99_us));
        report::per_layer(&t.summary(), &counts)
    } else {
        report::end_to_end(median(&setup_s))
    };
    if let Some(path) = &opts.trace_out {
        t.write(path).expect("trace file is writable");
    }
    Outcome {
        metrics,
        attempted: attempted + stream.attempted,
        failed: failed + stream.failed,
        input_digest: input_digest.value(),
        output_digest: output_digest.value(),
    }
}

fn add_cache_counts(c: &mut LayerCounts, before: [u64; 3], after: [u64; 3]) {
    c.cache_hits += after[0] - before[0];
    c.cache_misses += after[1] - before[1];
    c.cache_evictions += after[2] - before[2];
}
