//! The `serve_stream` and `serve_bulk` workloads: `dox-serve` run as a
//! separate process, driven over HTTP by client threads in this one.
//!
//! Both create four tenants with seeds `s, s, s+1, s+1`, so pairs share
//! a training fingerprint the way two customers watching one feed
//! would, and feed each tenant its study's document stream in order.
//! Every verdict the daemon returns is checked against the sequential
//! reference pipeline on the same documents.
//!
//! `serve_stream` is an open loop: requests are due on a fixed schedule
//! whether or not earlier ones have finished, and latency is timed from
//! the due time, so a stalled daemon is charged for the requests queued
//! behind the stall. It runs a nominal rate, then a ladder of rising
//! rates until the latency limit fails, then a SIGTERM drain and a
//! `--resume` restart. `serve_bulk` is a closed loop of 256-document
//! batches, where per-request overhead is amortized and classification
//! and the engine dominate.

use crate::http::{Conn, Reply};
use crate::inputs::{tenant_spec, Corpus, Rng};
use crate::util::{self, median, ms, quantile, Spans};
use crate::{layers, Opts, Record};
use serde::value::Value;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Study scale of every tenant (and of its fed stream): 0.1 is about
/// 174k documents per stream, room for the ladder at twice today's
/// rates.
const SCALE: f64 = 0.1;
/// Tenants per daemon.
const TENANTS: usize = 4;
/// Documents per `serve_stream` ingest request.
const STREAM_BATCH: usize = 4;
/// Documents per `serve_bulk` ingest request.
const BULK_BATCH: usize = 256;
/// `serve_bulk` batches per tenant in one repetition.
const BULK_BATCHES_PER_REP: usize = 16;
/// Nominal `serve_stream` ingest rate, requests per second; one read
/// rides along per four ingests. It sits well below the daemon's
/// capacity even when the machine is at its slowest, so the nominal
/// latency measures serving, not queueing.
const NOMINAL_RPS: f64 = 500.0;
/// Ingest requests per read.
const INGESTS_PER_READ: u64 = 4;
/// The latency limit a ladder step must meet at `LIMIT_QUANTILE`.
const LIMIT_MS: f64 = 25.0;
/// The quantile the limit applies to. p90, not p99: on a shared
/// machine, stalls of 30-300 ms that no program change controls push a
/// step's p99 past 25 ms at any rate, while a rate beyond capacity
/// still pushes p90 (and the backlog) past it.
const LIMIT_QUANTILE: f64 = 0.9;
/// The first climb of the ladder starts at this multiple of the nominal
/// rate and steps up by `COARSE_STEP`; two more climbs start at
/// `FINE_START` of its result (at the nominal rate if it found none) and
/// step by `FINE_STEP`. `max_rate_rps` is the median of the three.
/// Steps are at most 10% apart.
const LADDER_START: f64 = 2.0;
const COARSE_STEP: f64 = 1.10;
const FINE_START: f64 = 0.85;
const FINE_STEP: f64 = 1.04;
/// Seconds of nominal-rate load each daemon gets before its peak RSS is
/// read (`serve_stream`).
const RSS_LOAD_S: f64 = 1.0;
/// Shortest ladder step; a step also lasts long enough for
/// `Sizes::step_requests` ingest requests.
const LADDER_STEP_S: f64 = 0.4;
/// Documents the in-process serve probe ingests.
const SERVE_PROBE_DOCS: usize = 32_000;
/// Steps a rate gets before a climb ends there: a rate passes when one
/// of them meets the limit, so a stall of the shared machine does not
/// end a climb, while a rate beyond capacity misses every time.
const ATTEMPTS: u32 = 3;
/// Ingest requests per tenant checked after the restart.
const POST_RESTART_BATCHES: usize = 8;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client-side timeout for one request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Sizes that `--tiny` shrinks.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    scale: f64,
    nominal_rps: f64,
    ladder_steps: usize,
    /// Ingest requests per ladder step at least: 500 gives its p90 fifty
    /// samples beyond it.
    step_requests: f64,
    bulk_batches: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                scale: 0.005,
                nominal_rps: 200.0,
                ladder_steps: 3,
                step_requests: 50.0,
                bulk_batches: 2,
            }
        } else {
            Sizes {
                scale: SCALE,
                nominal_rps: NOMINAL_RPS,
                ladder_steps: 200,
                step_requests: 500.0,
                bulk_batches: BULK_BATCHES_PER_REP,
            }
        }
    }
}

/// A running `dox-serve` process.
struct Daemon {
    child: Child,
    pid: u32,
    addr: String,
}

impl Daemon {
    /// Start the daemon on a free loopback port and wait for `/readyz`.
    fn spawn(bin: &Path, dir: &Path, resume: bool) -> Result<Self, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", &addr, "--quiet", "--checkpoint-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            pid: child.id(),
            child,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Reply::Status(200, _) = daemon.call("GET", "/readyz", "") {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("dox-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("dox-serve never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a fresh connection.
    fn call(&self, method: &str, path: &str, body: &str) -> Reply {
        Conn::new(&self.addr, CLIENT_TIMEOUT).call(method, path, body)
    }

    /// SIGTERM, then wait for the drain to finish and the process to exit.
    fn terminate(mut self) -> Result<(), String> {
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid.to_string()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".into());
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("dox-serve drain exited with {status}"));
        }
        Ok(())
    }

    /// Counters and gauges of the daemon's `/metrics` snapshot.
    fn metric(&self, name: &str) -> f64 {
        let Reply::Status(200, body) = self.call("GET", "/metrics", "") else {
            return 0.0;
        };
        let Ok(value) = serde_json::from_str::<Value>(&body) else {
            return 0.0;
        };
        ["counters", "gauges"]
            .iter()
            .find_map(|section| value.get(section)?.get(name)?.as_f64())
            .unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here belongs to a failed run: stop it
        // hard so no process outlives the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `docs_ingested` of each tenant, from `GET /v1/tenants`.
fn tenant_counts(daemon: &Daemon) -> Result<Vec<(String, u64)>, String> {
    let Reply::Status(200, body) = daemon.call("GET", "/v1/tenants", "") else {
        return Err("GET /v1/tenants failed".into());
    };
    let value: Value = serde_json::from_str(&body).map_err(|e| format!("{e:?}"))?;
    Ok(value
        .get("tenants")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|t| {
            Some((
                t.get("id")?.as_str()?.to_string(),
                t.get("docs_ingested")?.as_u64()?,
            ))
        })
        .collect())
}

/// What one daemon set-up measured.
struct Setup {
    daemon: Daemon,
    /// Spawn to ready with every tenant created, seconds.
    total_s: f64,
    /// Per-tenant create round trips, seconds.
    create_s: Vec<f64>,
    rss_ready_mb: f64,
    rss_tenants_mb: f64,
    threads_ready: usize,
    threads_tenants: usize,
    /// Thread ids alive at readiness, before any tenant existed: the
    /// main thread plus the HTTP accept and worker threads. Threads that
    /// appear later are engine threads (they inherit the name of the
    /// HTTP worker that created the tenant, so names cannot tell).
    boot_tids: Vec<u32>,
}

/// Spawn a daemon and create the four tenants.
fn setup(bin: &Path, dir: &Path, seed: u64, scale: f64) -> Result<Setup, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(bin, dir, false)?;
    let rss_ready_mb = util::rss_mb(daemon.pid);
    let boot = util::threads(daemon.pid);
    let mut create_s = Vec::new();
    // One connection, as one operator's client would use: the creates
    // then run on one HTTP worker, so the daemon's memory after set-up
    // does not depend on how connections happened to land on workers.
    let mut conn = Conn::new(&daemon.addr, CLIENT_TIMEOUT);
    for (i, id) in tenant_ids().iter().enumerate() {
        let body = create_body(id, tenant_seed(seed, i), scale);
        let t = Instant::now();
        match conn.call("POST", "/v1/tenants", &body) {
            Reply::Status(201, _) => create_s.push(t.elapsed().as_secs_f64()),
            other => return Err(format!("creating tenant {id}: {other:?}")),
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        rss_ready_mb,
        rss_tenants_mb: util::rss_mb(daemon.pid),
        threads_ready: boot.len(),
        threads_tenants: util::threads(daemon.pid).len(),
        boot_tids: boot.iter().map(|t| t.tid).collect(),
        daemon,
        total_s,
        create_s,
    })
}

/// The `POST /v1/tenants` body: id, seed and scale only, so the daemon
/// picks its default engine topology.
fn create_body(id: &str, seed: u64, scale: f64) -> String {
    format!("{{\"id\":\"{id}\",\"seed\":{seed},\"scale\":{scale}}}")
}

fn tenant_ids() -> Vec<String> {
    (0..TENANTS).map(|i| format!("t{i}")).collect()
}

/// Tenants `2k` and `2k+1` share seed `s + k`.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed + (tenant / 2) as u64
}

/// The daemon a run measures, after `SETUPS` set-ups.
struct Prepared<'a> {
    setup: Setup,
    /// The kept daemon's feeds, already past its fixed load.
    feeds: Vec<Feed<'a>>,
    setup_s: Vec<f64>,
    /// Peak RSS of each daemon after the fixed load, MB.
    rss_mb: Vec<f64>,
    load: Phase,
    /// Where the kept daemon checkpoints.
    dir: std::path::PathBuf,
}

/// Run `SETUPS` set-ups. Each is timed (spawn to ready with every
/// tenant created), then gets the same fixed `load` before its peak RSS
/// is read: where malloc arenas land differs from process to process,
/// so memory is a median over daemons. The last daemon is kept; the
/// others exit through a normal drain.
fn prepare<'a>(
    opts: &Opts,
    dir: &Path,
    scale: f64,
    corpora: &'a [Corpus; 2],
    load: impl Fn(&str, &mut [Feed<'a>]) -> Phase,
) -> Result<Prepared<'a>, String> {
    let (mut setup_s, mut rss_mb, mut total) = (Vec::new(), Vec::new(), Phase::default());
    for i in 0..SETUPS {
        let sub = dir.join(format!("setup{i}"));
        let s = setup(&opts.serve_bin, &sub, opts.seed, scale)?;
        setup_s.push(s.total_s);
        let mut feeds = make_feeds(corpora, opts.seed);
        total.absorb(load(&s.daemon.addr, &mut feeds));
        rss_mb.push(util::peak_rss_mb(s.daemon.pid));
        if i + 1 == SETUPS {
            return Ok(Prepared {
                setup: s,
                feeds,
                setup_s,
                rss_mb,
                load: total,
                dir: sub,
            });
        }
        s.daemon.terminate()?;
        let _ = std::fs::remove_dir_all(&sub);
    }
    unreachable!("SETUPS > 0")
}

/// The client side of one tenant: its stream and how far it got.
struct Feed<'a> {
    id: String,
    corpus: &'a Corpus,
    /// Next document to send.
    next: usize,
    /// Next alert-stream position to poll.
    cursor: usize,
    /// Victim and account fingerprints seen in polled alerts: lookups
    /// of these must hit.
    victims: Vec<u32>,
    accounts: Vec<u32>,
    rng: Rng,
}

impl<'a> Feed<'a> {
    fn new(id: &str, corpus: &'a Corpus, seed: u64) -> Self {
        Self {
            id: id.to_string(),
            corpus,
            next: 0,
            cursor: 0,
            victims: Vec::new(),
            accounts: Vec::new(),
            rng: Rng::new(seed),
        }
    }

    fn remaining(&self) -> usize {
        self.corpus.len() - self.next
    }

    /// The next batch of up to `max` documents, never crossing a period
    /// boundary (one request carries one period).
    fn batch(&self, max: usize) -> std::ops::Range<usize> {
        let docs = &self.corpus.meta;
        let period = docs.get(self.next).map_or(0, |(p, _)| *p);
        let end = (self.next + max).min(docs.len());
        let len = docs[self.next..end]
            .iter()
            .take_while(|(p, _)| *p == period)
            .count();
        self.next..self.next + len
    }

    fn ingest_body(&self, range: &std::ops::Range<usize>) -> String {
        let period = self.corpus.meta[range.start].0;
        let docs = self.corpus.wire[range.clone()].join(",");
        format!(
            "{{\"tenant\":\"{}\",\"period\":{period},\"docs\":[{docs}]}}",
            self.id
        )
    }

    /// Compare an ingest response with the reference verdicts.
    fn check_ingest(&self, range: &std::ops::Range<usize>, body: &str) -> Result<(), String> {
        let value: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON {e:?}"))?;
        let verdicts = value
            .get("verdicts")
            .and_then(Value::as_array)
            .ok_or("no verdicts")?;
        if verdicts.len() != range.len() {
            return Err(format!(
                "{} verdicts for {} docs",
                verdicts.len(),
                range.len()
            ));
        }
        for (i, v) in range.clone().zip(verdicts) {
            let id = self.corpus.meta[i].1;
            let want = self.corpus.verdicts[i].name();
            let got_id = v.get("doc_id").and_then(Value::as_u64);
            let got = v.get("verdict").and_then(Value::as_str);
            if got_id != Some(id) || got != Some(want) {
                return Err(format!(
                    "tenant {} doc {id}: got {got:?} for {got_id:?}, want {want}",
                    self.id
                ));
            }
        }
        Ok(())
    }

    /// Compare an alert page with the reference alert stream and learn
    /// the fingerprints it names.
    fn check_alerts(&mut self, body: &str) -> Result<(), String> {
        let value: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON {e:?}"))?;
        let alerts = value
            .get("alerts")
            .and_then(Value::as_array)
            .ok_or("no alerts")?;
        for alert in alerts {
            let seq = alert.get("seq").and_then(Value::as_u64).unwrap_or(u64::MAX) as usize;
            let doc = alert.get("doc_id").and_then(Value::as_u64);
            if seq != self.cursor || doc != self.corpus.alerts.get(seq).copied() {
                return Err(format!(
                    "tenant {} alert {seq}: doc {doc:?}, want position {} doc {:?}",
                    self.id,
                    self.cursor,
                    self.corpus.alerts.get(self.cursor)
                ));
            }
            self.cursor += 1;
            if let Some(fp) = alert.get("victim").and_then(Value::as_u64) {
                remember(&mut self.victims, fp as u32);
            }
            for fp in alert
                .get("accounts")
                .and_then(Value::as_array)
                .unwrap_or_default()
            {
                if let Some(fp) = fp.as_u64() {
                    remember(&mut self.accounts, fp as u32);
                }
            }
        }
        if self.cursor > self.corpus.alerts.len() {
            return Err(format!(
                "tenant {} has more alerts than the reference",
                self.id
            ));
        }
        Ok(())
    }

    /// A fingerprint no document of the stream produces.
    fn miss(&mut self) -> u32 {
        loop {
            let fp = self.rng.next_u64() as u32;
            if !self.corpus.known_fps.contains(&fp) {
                return fp;
            }
        }
    }

    /// One of the remembered fingerprints, if any.
    fn hit(&mut self, victims: bool) -> Option<u32> {
        let pool = if victims {
            &self.victims
        } else {
            &self.accounts
        };
        if pool.is_empty() {
            return None;
        }
        let i = (self.rng.next_u64() % pool.len() as u64) as usize;
        Some(pool[i])
    }
}

/// Keep a bounded sample of fingerprints to look up later.
fn remember(pool: &mut Vec<u32>, fp: u32) {
    if pool.len() < 512 {
        pool.push(fp);
    }
}

/// How each operation ended. Every operation lands in exactly one
/// bucket, so the buckets sum to the operations attempted.
#[derive(Debug, Default, Clone)]
struct Tally {
    ok: u64,
    client_4xx: u64,
    server_5xx: u64,
    /// No complete response: client timeout or a broken connection.
    timeout: u64,
    /// Sent more than the latency limit after the client could have
    /// sent it (the client, not the daemon, was slow).
    client_late: u64,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.ok + self.client_4xx + self.server_5xx + self.timeout + self.client_late
    }

    /// Errors and refusals (client-late operations still got answers).
    fn failed(&self) -> u64 {
        self.client_4xx + self.server_5xx + self.timeout
    }

    fn absorb(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.client_4xx += other.client_4xx;
        self.server_5xx += other.server_5xx;
        self.timeout += other.timeout;
        self.client_late += other.client_late;
    }
}

/// Measurements of one load phase.
#[derive(Debug, Default)]
struct Phase {
    /// Ingest latency from due time, ms; a non-ok operation counts as
    /// infinitely late.
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Round trips (send to response), ms, ok operations only.
    ingest_rtt_ms: Vec<f64>,
    read_rtt_ms: Vec<f64>,
    /// How late the client sent each operation after it could have.
    send_late_ms: Vec<f64>,
    tally: Tally,
    docs: u64,
    mismatches: Vec<String>,
    /// Some client's queue of due work grew over the phase.
    backlog_grew: bool,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.ingest_ms.extend(other.ingest_ms);
        self.read_ms.extend(other.read_ms);
        self.ingest_rtt_ms.extend(other.ingest_rtt_ms);
        self.read_rtt_ms.extend(other.read_rtt_ms);
        self.send_late_ms.extend(other.send_late_ms);
        self.tally.absorb(&other.tally);
        self.docs += other.docs;
        self.mismatches.extend(other.mismatches);
        self.backlog_grew |= other.backlog_grew;
    }

    /// The step meets the limit: ingest latency at `LIMIT_QUANTILE`
    /// within it and no growing backlog. Failed and late operations are
    /// misses.
    fn meets_limit(&self) -> bool {
        !self.backlog_grew && quantile(&self.ingest_ms, LIMIT_QUANTILE) <= LIMIT_MS
    }
}

/// The kind of one open-loop operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ingest,
    Alerts,
    VictimHit,
    AccountHit,
    VictimMiss,
    AccountMiss,
}

const READS: [Op; 5] = [
    Op::Alerts,
    Op::VictimHit,
    Op::AccountHit,
    Op::VictimMiss,
    Op::AccountMiss,
];

/// Issue one operation for `feed`, check its answer, and count errors
/// in `phase`. Returns whether the expected status came back, and the
/// round trip.
fn issue(
    conn: &mut Conn,
    feed: &mut Feed<'_>,
    op: Op,
    batch: usize,
    phase: &mut Phase,
) -> (bool, Duration) {
    let sent = Instant::now();
    let (reply, expect, range) = match op {
        Op::Ingest => {
            let range = feed.batch(batch);
            let body = feed.ingest_body(&range);
            (conn.call("POST", "/v1/ingest", &body), 200, Some(range))
        }
        Op::Alerts => {
            let path = format!(
                "/v1/alerts?tenant={}&cursor={}&limit=256",
                feed.id, feed.cursor
            );
            (conn.call("GET", &path, ""), 200, None)
        }
        Op::VictimHit | Op::AccountHit | Op::VictimMiss | Op::AccountMiss => {
            let victims = matches!(op, Op::VictimHit | Op::VictimMiss);
            let hit = matches!(op, Op::VictimHit | Op::AccountHit);
            let (fp, expect) = match hit.then(|| feed.hit(victims)).flatten() {
                Some(fp) => (fp, 200),
                None => (feed.miss(), 404),
            };
            let route = if victims { "victims" } else { "accounts" };
            let path = format!("/v1/{route}/{fp}?tenant={}", feed.id);
            (conn.call("GET", &path, ""), expect, None)
        }
    };
    let rtt = sent.elapsed();
    let ok = match &reply {
        Reply::Status(code, body) if *code == expect => {
            let checked = match (&range, op) {
                (Some(range), _) => feed.check_ingest(range, body).map(|()| {
                    phase.docs += range.len() as u64;
                    feed.next = range.end;
                }),
                (None, Op::Alerts) => feed.check_alerts(body),
                _ => Ok(()),
            };
            if let Err(e) = checked {
                phase.mismatches.push(e);
            }
            true
        }
        Reply::Status(code, _) if *code >= 500 => {
            phase.tally.server_5xx += 1;
            false
        }
        Reply::Status(code, body) => {
            phase
                .mismatches
                .push(format!("{op:?} got {code} (want {expect}): {body}"));
            phase.tally.client_4xx += 1;
            false
        }
        Reply::Timeout | Reply::Broken => {
            phase.tally.timeout += 1;
            false
        }
    };
    (ok, rtt)
}

/// One client thread's open-loop schedule over its tenants: ingest
/// requests every `dt`, one read after every fourth.
fn open_loop_thread(
    addr: &str,
    feeds: &mut [&mut Feed<'_>],
    start: Instant,
    dt: f64,
    ingests: u64,
) -> Phase {
    let mut phase = Phase::default();
    let mut conn = Conn::new(addr, CLIENT_TIMEOUT);
    let mut prev_done = start;
    let mut lateness: Vec<f64> = Vec::new();
    let mut schedule = Vec::new();
    for k in 0..ingests {
        schedule.push((k as f64 * dt, Op::Ingest, k as usize));
        if k % INGESTS_PER_READ == INGESTS_PER_READ - 1 {
            let r = (k / INGESTS_PER_READ) as usize;
            schedule.push(((k as f64 + 0.5) * dt, READS[r % READS.len()], r));
        }
    }
    for (offset, op, n) in schedule {
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let feed = &mut *feeds[n % feeds.len()];
        if matches!(op, Op::Ingest) && feed.remaining() == 0 {
            continue;
        }
        let sent = Instant::now();
        let late = ms(sent.saturating_duration_since(due.max(prev_done)));
        phase.send_late_ms.push(late);
        let (ok, rtt) = issue(&mut conn, feed, op, STREAM_BATCH, &mut phase);
        let done = Instant::now();
        prev_done = done;
        let from_due = ms(done - due);
        lateness.push(from_due);
        let client_late = late > LIMIT_MS;
        if ok && client_late {
            phase.tally.client_late += 1;
        } else if ok {
            phase.tally.ok += 1;
        }
        let latency = if ok && !client_late {
            from_due
        } else {
            f64::INFINITY
        };
        match op {
            Op::Ingest => {
                phase.ingest_ms.push(latency);
                if ok {
                    phase.ingest_rtt_ms.push(ms(rtt));
                }
            }
            _ => {
                phase.read_ms.push(latency);
                if ok {
                    phase.read_rtt_ms.push(ms(rtt));
                }
            }
        }
    }
    // A growing backlog shows as lateness that climbs over the phase:
    // the median of the last quarter above that of the first.
    let q = lateness.len() / 4;
    if q > 0 {
        let head = median(&lateness[..q]);
        let tail = median(&lateness[lateness.len() - q..]);
        phase.backlog_grew = tail > head + LIMIT_MS / 5.0;
    }
    phase
}

/// Client threads: at most one per core, never more than tenants.
fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(TENANTS)
}

/// Split the feeds over client threads; a tenant always stays on one
/// thread (and one connection), which keeps its requests in order.
fn split<'f, 'a>(feeds: &'f mut [Feed<'a>], threads: usize) -> Vec<Vec<&'f mut Feed<'a>>> {
    let mut groups: Vec<Vec<&mut Feed<'a>>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, feed) in feeds.iter_mut().enumerate() {
        groups[i % threads].push(feed);
    }
    groups
}

/// Run the open loop at `rate` ingest requests per second for
/// `seconds`.
fn open_loop(addr: &str, feeds: &mut [Feed<'_>], rate: f64, seconds: f64) -> Phase {
    let threads = client_threads();
    let per_thread = rate / threads as f64;
    let ingests = (per_thread * seconds).round().max(1.0) as u64;
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = split(feeds, threads)
            .into_iter()
            .map(|mut group| {
                scope.spawn(move || {
                    open_loop_thread(addr, &mut group, start, 1.0 / per_thread, ingests)
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total
}

/// Docs the open loop needs per tenant for `seconds` at `rate`.
fn docs_needed(rate: f64, seconds: f64) -> usize {
    (rate * seconds * STREAM_BATCH as f64 / TENANTS as f64).ceil() as usize + STREAM_BATCH
}

/// The corpora of seeds `s` and `s+1`.
/// The corpora of seeds `s` and `s+1`; traced runs keep the documents
/// of the first for the layer probe.
fn corpora(opts: &Opts, scale: f64) -> Result<[Corpus; 2], String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let build = |seed, keep| Corpus::build(seed, scale, threads, keep).map_err(|e| e.to_string());
    Ok([build(opts.seed, opts.trace)?, build(opts.seed + 1, false)?])
}

fn make_feeds<'a>(corpora: &'a [Corpus; 2], seed: u64) -> Vec<Feed<'a>> {
    tenant_ids()
        .iter()
        .enumerate()
        .map(|(i, id)| Feed::new(id, &corpora[i / 2], seed.wrapping_mul(31) + i as u64))
        .collect()
}

/// Per-thread CPU of the daemon, split into main, HTTP and engine.
fn cpu_split(setup: &Setup, record: &mut Record) {
    let pid = setup.daemon.pid;
    let (mut main, mut http) = (0.0, 0.0);
    for t in util::threads(pid) {
        if t.tid == pid {
            main += t.cpu_s;
        } else if setup.boot_tids.contains(&t.tid) {
            http += t.cpu_s;
        }
    }
    record.put("cpu.main_s", main);
    record.put("cpu.http_s", http);
    record.put("cpu.engine_s", util::process_cpu_s(pid) - main - http);
}

/// Per-layer numbers common to both serve workloads.
fn put_setup_layers(setup: &Setup, record: &mut Record) {
    record.put("serve.tenant_create_s", median(&setup.create_s));
    record.put("serve.threads", setup.threads_tenants as f64);
    record.put(
        "engine.threads",
        (setup.threads_tenants - setup.threads_ready) as f64 / TENANTS as f64,
    );
    record.put(
        "serve.rss_per_tenant_mb",
        (setup.rss_tenants_mb - setup.rss_ready_mb) / TENANTS as f64,
    );
}

fn finish(record: &mut Record, phase: &Phase) {
    for m in phase.mismatches.iter().take(20) {
        record.mismatch(m.clone());
    }
    if !phase.mismatches.is_empty() {
        record.correct = false;
    }
    let t = &phase.tally;
    record.attempted += t.attempted();
    record.failed += t.failed();
}

fn tally_note(name: &str, t: &Tally) -> String {
    format!(
        "outcomes {name}: attempted {} = ok {} + 4xx {} + 5xx {} + timeout {} + client_late {}",
        t.attempted(),
        t.ok,
        t.client_4xx,
        t.server_5xx,
        t.timeout,
        t.client_late
    )
}

/// What the ladder's climbs saw.
#[derive(Default)]
struct Ladder {
    phase: Phase,
    backlog_max: f64,
}

/// Climb from `start` requests per second by `ratio` per step until a
/// rate misses the limit `ATTEMPTS` times in a row or the stream runs
/// out. Returns the highest rate that met the limit, 0 when none did.
#[allow(clippy::too_many_arguments)]
fn climb(
    daemon: &Daemon,
    feeds: &mut [Feed<'_>],
    sizes: &Sizes,
    start: f64,
    ratio: f64,
    trace: bool,
    ladder: &mut Ladder,
    record: &mut Record,
) -> f64 {
    let (mut rate, mut best, mut misses, mut steps) = (start, 0.0, 0, 0);
    loop {
        let step_s = LADDER_STEP_S.max(sizes.step_requests / rate);
        let left = feeds.iter().map(Feed::remaining).min().unwrap_or(0);
        if steps == sizes.ladder_steps || docs_needed(rate, step_s) > left {
            record
                .notes
                .push(format!("climb stopped before failing at {rate:.0} req/s"));
            return best;
        }
        let step = open_loop(&daemon.addr, feeds, rate, step_s);
        if trace {
            ladder.backlog_max = ladder.backlog_max.max(daemon.metric("http.backlog_depth"));
        }
        let pass = step.meets_limit() && step.mismatches.is_empty();
        record.notes.push(format!(
            "ladder {rate:.0} req/s: p90 {:.2} ms, p99 {:.2} ms, backlog grew {}, {}",
            quantile(&step.ingest_ms, LIMIT_QUANTILE),
            quantile(&step.ingest_ms, 0.99),
            step.backlog_grew,
            if pass { "pass" } else { "miss" }
        ));
        ladder.phase.absorb(step);
        steps += 1;
        if pass {
            best = rate;
            rate *= ratio;
            misses = 0;
        } else {
            misses += 1;
            if misses == ATTEMPTS {
                return best;
            }
        }
    }
}

/// `serve_stream`: nominal rate, rate ladder, drain and restart.
pub fn run_stream(opts: &Opts) -> Result<Record, String> {
    let sizes = Sizes::new(opts.tiny);
    let scratch = util::ScratchDir::new("serve_stream").map_err(|e| e.to_string())?;
    let corpora = corpora(opts, sizes.scale)?;
    let mut record = Record {
        correct: true,
        ..Record::default()
    };
    if docs_needed(sizes.nominal_rps, opts.seconds + RSS_LOAD_S)
        > corpora[0].len().min(corpora[1].len())
    {
        return Err("stream too short for the nominal phase".into());
    }
    let Prepared {
        setup,
        mut feeds,
        setup_s,
        rss_mb,
        load,
        dir,
    } = prepare(
        opts,
        scratch.path(),
        sizes.scale,
        &corpora,
        |addr, feeds| open_loop(addr, feeds, sizes.nominal_rps, RSS_LOAD_S),
    )?;
    record.notes.push(tally_note("rss load", &load.tally));
    let pid = setup.daemon.pid;
    let addr = setup.daemon.addr.clone();

    // Nominal rate: the end-to-end numbers. `docs_per_s` is the goodput
    // at the offered load (acknowledged documents per second of the
    // phase), which falls only when the daemon cannot keep up.
    let cpu0 = util::process_cpu_s(pid);
    let t0 = Instant::now();
    let nominal = open_loop(&addr, &mut feeds, sizes.nominal_rps, opts.seconds);
    let goodput = nominal.docs as f64 / t0.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_s(pid) - cpu0;
    record.notes.push(tally_note("nominal", &nominal.tally));

    // Ladder: one coarse climb, then two fine ones from below its result.
    let mut ladder = Ladder::default();
    let mut maxima = vec![climb(
        &setup.daemon,
        &mut feeds,
        &sizes,
        sizes.nominal_rps * LADDER_START,
        COARSE_STEP,
        opts.trace,
        &mut ladder,
        &mut record,
    )];
    let fine_start = if maxima[0] > 0.0 {
        FINE_START * maxima[0]
    } else {
        sizes.nominal_rps
    };
    for _ in 0..2 {
        let best = climb(
            &setup.daemon,
            &mut feeds,
            &sizes,
            fine_start,
            FINE_STEP,
            opts.trace,
            &mut ladder,
            &mut record,
        );
        maxima.push(best);
    }
    let max_rate = median(&maxima);
    record
        .notes
        .push(format!("climb maxima {maxima:.0?} req/s"));
    record.notes.push(tally_note("ladder", &ladder.phase.tally));

    // Drain and restart: the resumed daemon must hold exactly the
    // pre-drain state and continue the verdict streams.
    let before = tenant_counts(&setup.daemon)?;
    for feed in &feeds {
        let got = before
            .iter()
            .find(|(id, _)| *id == feed.id)
            .map(|(_, n)| *n);
        if got != Some(feed.next as u64) {
            record.mismatch(format!(
                "tenant {} ingested {got:?} before drain, want {}",
                feed.id, feed.next
            ));
        }
    }
    let http_shed = setup.daemon.metric("http.shed_total");
    let http_deadline = setup.daemon.metric("http.deadline_hits");
    cpu_split(&setup, &mut record);
    put_setup_layers(&setup, &mut record);
    let sigterm = Instant::now();
    setup.daemon.terminate()?;
    let drain_s = sigterm.elapsed().as_secs_f64();
    let spawn = Instant::now();
    let resumed = Daemon::spawn(&opts.serve_bin, &dir, true)?;
    let resume_s = spawn.elapsed().as_secs_f64();
    let after = tenant_counts(&resumed)?;
    let restart_s = sigterm.elapsed().as_secs_f64();
    if after != before {
        record.mismatch(format!(
            "tenants after restart {after:?}, before {before:?}"
        ));
    }
    let mut post = Phase::default();
    {
        let mut conn = Conn::new(&resumed.addr, CLIENT_TIMEOUT);
        for feed in &mut feeds {
            for _ in 0..POST_RESTART_BATCHES {
                if feed.remaining() > 0 {
                    let (ok, _) = issue(&mut conn, feed, Op::Ingest, STREAM_BATCH, &mut post);
                    post.tally.ok += u64::from(ok);
                }
            }
            let (ok, _) = issue(&mut conn, feed, Op::Alerts, STREAM_BATCH, &mut post);
            post.tally.ok += u64::from(ok);
        }
    }
    resumed.terminate()?;
    record.notes.push(tally_note("after restart", &post.tally));

    for phase in [&load, &nominal, &ladder.phase, &post] {
        finish(&mut record, phase);
    }
    let ingest_p50 = quantile(&nominal.ingest_ms, 0.5);
    record.headline("ingest_p50_ms", ingest_p50, "ms");
    record.headline("ingest_p99_ms", quantile(&nominal.ingest_ms, 0.99), "ms");
    record.headline("read_p50_ms", quantile(&nominal.read_ms, 0.5), "ms");
    record.headline("read_p99_ms", quantile(&nominal.read_ms, 0.99), "ms");
    record.headline("max_rate_rps", max_rate, "req/s");
    record.headline("restart_s", restart_s, "s");
    record.headline("ingest_samples", nominal.ingest_ms.len() as f64, "count");
    record.headline("read_samples", nominal.read_ms.len() as f64, "count");
    if opts.trace {
        let mut all = Phase::default();
        all.absorb(nominal);
        all.absorb(ladder.phase);
        put_http_layers(&all, &mut record);
        record.put("http.shed_total", http_shed);
        record.put("http.deadline_hits", http_deadline);
        record.put("http.backlog_max", ladder.backlog_max);
        record.put("serve.drain_s", drain_s);
        record.put("serve.resume_s", resume_s);
        serve_layers(
            &corpora[0],
            opts.seed,
            sizes.scale,
            STREAM_BATCH,
            &mut record,
        )?;
        layers::probe(&corpora[0], opts.seed, sizes.scale, &mut record);
    } else {
        record.put("setup_s", median(&setup_s));
        record.put("cpu_s", cpu_s);
        record.put("peak_rss_mb", median(&rss_mb));
        record.put("docs_per_s", goodput);
        record.put("latency_ms", ingest_p50);
    }
    Ok(record)
}

/// Client-side HTTP numbers of a phase.
fn put_http_layers(phase: &Phase, record: &mut Record) {
    record.put(
        "http.ingest_rtt_p50_ms",
        quantile(&phase.ingest_rtt_ms, 0.5),
    );
    record.put(
        "http.ingest_rtt_p99_ms",
        quantile(&phase.ingest_rtt_ms, 0.99),
    );
    record.put("http.read_rtt_p99_ms", quantile(&phase.read_rtt_ms, 0.99));
    record.put("loadgen.late_p99_ms", quantile(&phase.send_late_ms, 0.99));
}

/// The daemon's layers called in-process on the same documents, in the
/// workload's request size: request decoding, `Tenant::ingest_batch` and
/// the read paths. `http.self_ms` is the ingest round trip left after
/// decode and ingest.
fn serve_layers(
    corpus: &Corpus,
    seed: u64,
    scale: f64,
    batch: usize,
    record: &mut Record,
) -> Result<(), String> {
    use dox_serve::tenant::Tenant;
    let registry = dox_obs::Registry::new();
    let mut tenant =
        Tenant::start(tenant_spec("probe", seed, scale), &registry).map_err(|e| e.to_string())?;
    let mut feed = Feed::new("probe", corpus, seed);
    let mut spans = Spans::default();
    let batches = (SERVE_PROBE_DOCS / batch).min(corpus.len() / batch);
    for _ in 0..batches {
        let range = feed.batch(batch);
        let body = feed.ingest_body(&range);
        let (period, docs) = spans.time("decode", || {
            let value: Value = serde_json::from_str(&body).expect("own request parses");
            let period = value.get("period").and_then(Value::as_u64).unwrap_or(1) as u8;
            let docs: Vec<dox_sites::collect::CollectedDoc> = value
                .get("docs")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(serde::Deserialize::from_value)
                .collect();
            (period, docs)
        });
        spans
            .time("ingest_batch", || tenant.ingest_batch(period, docs))
            .map_err(|e| e.to_string())?;
        feed.next = range.end;
        let cursor = feed.cursor;
        let (next, _) = spans.time("read", || tenant.alerts_page(cursor, 256));
        feed.cursor = next;
        let fp = feed.miss();
        spans.time("read", || tenant.victim_value(fp));
    }
    let decode = spans.quantile_ms("decode", 0.5);
    let ingest = spans.quantile_ms("ingest_batch", 0.5);
    record.put("serve.decode_ms", decode);
    record.put("serve.ingest_batch_p50_ms", ingest);
    record.put(
        "serve.ingest_batch_p99_ms",
        spans.quantile_ms("ingest_batch", 0.99),
    );
    record.put("serve.read_ms", spans.quantile_ms("read", 0.5));
    let rtt = record
        .metrics
        .get("http.ingest_rtt_p50_ms")
        .copied()
        .unwrap_or(0.0);
    record.put("http.self_ms", (rtt - decode - ingest).max(0.0));
    Ok(())
}

/// One closed-loop repetition: every tenant sends `batches` requests of
/// `BULK_BATCH` documents, back to back, its client thread alternating
/// over its tenants. Latency is the round trip.
fn bulk_rep(addr: &str, feeds: &mut [Feed<'_>], batches: usize) -> Phase {
    let mut rep = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = split(feeds, client_threads())
            .into_iter()
            .map(|mut group| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut conn = Conn::new(addr, CLIENT_TIMEOUT);
                    for _ in 0..batches {
                        for feed in group.iter_mut() {
                            let (ok, rtt) =
                                issue(&mut conn, feed, Op::Ingest, BULK_BATCH, &mut phase);
                            phase.tally.ok += u64::from(ok);
                            if ok {
                                phase.ingest_ms.push(ms(rtt));
                                phase.ingest_rtt_ms.push(ms(rtt));
                            }
                        }
                    }
                    phase
                })
            })
            .collect();
        for h in handles {
            rep.absorb(h.join().expect("client thread panicked"));
        }
    });
    rep
}

/// `serve_bulk`: closed-loop 256-document batches, repeated.
pub fn run_bulk(opts: &Opts) -> Result<Record, String> {
    let sizes = Sizes::new(opts.tiny);
    let scratch = util::ScratchDir::new("serve_bulk").map_err(|e| e.to_string())?;
    let corpora = corpora(opts, sizes.scale)?;
    let mut record = Record {
        correct: true,
        ..Record::default()
    };
    let per_rep = sizes.bulk_batches * BULK_BATCH;
    if 4 * per_rep > corpora[0].len().min(corpora[1].len()) {
        return Err("stream too short for four repetitions".into());
    }
    let Prepared {
        setup,
        mut feeds,
        setup_s,
        rss_mb,
        load,
        ..
    } = prepare(
        opts,
        scratch.path(),
        sizes.scale,
        &corpora,
        |addr, feeds| bulk_rep(addr, feeds, sizes.bulk_batches),
    )?;
    let pid = setup.daemon.pid;
    let addr = setup.daemon.addr.clone();

    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let mut all = Phase::default();
    let start = Instant::now();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        if feeds.iter().any(|f| f.remaining() < per_rep) {
            break;
        }
        let cpu0 = util::process_cpu_s(pid);
        let t0 = Instant::now();
        let rep = bulk_rep(&addr, &mut feeds, sizes.bulk_batches);
        rates.push(rep.docs as f64 / t0.elapsed().as_secs_f64());
        cpus.push(util::process_cpu_s(pid) - cpu0);
        all.absorb(rep);
    }
    record.notes.push(tally_note("rss load", &load.tally));
    record.notes.push(tally_note("bulk", &all.tally));
    record.notes.push(format!(
        "repetitions {} of {per_rep} docs per tenant",
        rates.len()
    ));
    if opts.trace {
        cpu_split(&setup, &mut record);
        put_setup_layers(&setup, &mut record);
        put_http_layers(&all, &mut record);
        record.put("http.shed_total", setup.daemon.metric("http.shed_total"));
        record.put(
            "http.deadline_hits",
            setup.daemon.metric("http.deadline_hits"),
        );
        record.put(
            "http.backlog_max",
            setup.daemon.metric("http.backlog_depth"),
        );
    }
    setup.daemon.terminate()?;
    finish(&mut record, &load);
    finish(&mut record, &all);
    let docs_per_s = median(&rates);
    record.headline("docs_per_s", docs_per_s, "docs/s");
    record.headline("batch_samples", all.ingest_ms.len() as f64, "count");
    if opts.trace {
        serve_layers(&corpora[0], opts.seed, sizes.scale, BULK_BATCH, &mut record)?;
        layers::probe(&corpora[0], opts.seed, sizes.scale, &mut record);
    } else {
        record.put("setup_s", median(&setup_s));
        record.put("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64);
        record.put("peak_rss_mb", median(&rss_mb));
        record.put("docs_per_s", docs_per_s);
        record.put("latency_ms", quantile(&all.ingest_ms, 0.5));
    }
    Ok(record)
}
