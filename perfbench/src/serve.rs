//! `serve_proposals` and `serve_fresh_durable`: a `PlfService` behind a
//! `NetServer` on loopback, built the way `plfr serve --listen` builds
//! them (default `ServiceConfig` and `NetServerConfig`), with `nproc`
//! workers on the single-threaded `simd` engine. Load comes from
//! `nproc` client threads in this process, one connection each.
//!
//! One operation is one job, timed by the client: from submit (closed
//! loop) or from its due time (open loop) to its `Completed` frame.

use crate::report::{
    kernel_layers, mean, ms, percentile, ratio, setup_metrics, timed, EndToEnd, Op, Outcome,
    SetupTimes, Window,
};
use crate::trace::{KernelTotals, Recorder, Span, Traced, Tracer};
use crate::Ctx;
use plf_net::{
    FrameDecoder, NetClient, NetServer, NetServerConfig, NetServerReport, Request, Response,
    ShutdownFlag, SubmitParams,
};
use plf_phylo::alignment::PatternAlignment;
use plf_phylo::kernels::{PlfBackend, ScalarBackend, Simd4Backend};
use plf_phylo::likelihood::TreeLikelihood;
use plf_phylo::metrics::{NetCounters, NetSnapshot, ServiceCounters, ServiceSnapshot};
use plf_phylo::model::SiteModel;
use plf_phylo::tree::Tree;
use plf_seqgen::DatasetSpec;
use plfd::{JournalConfig, PlfService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop of MCMC-proposal-shaped jobs on 20 × 1K, no journal.
    Proposals,
    /// Open loop of fresh random topologies on 20 × 5K, journal on.
    FreshDurable,
}

/// Callers of the closed loop, across all connections: at most this
/// many jobs are outstanding.
const CLOSED_DEPTH: usize = 64;
/// Longest time a closed-loop caller thinks between a reply and its next
/// submit; each think time is seeded and uniform below it.
///
/// The `NetServer` reactor collects finished jobs only when a socket
/// event or its 10 ms tick wakes it. Callers that resubmit the moment
/// their reply arrives all submit right after a collection, so the next
/// one waits for the tick: latency then comes in whole ticks, and with
/// 64 callers on a 2-core AMD EPYC host the median flipped between one
/// and two ticks as the host's speed drifted; think times of up to 2 ms
/// still left the median jumping between 12 and 16 ms. Spread over a
/// whole tick, the submits wake the reactor at every phase of it, and
/// the callers still keep the service saturated.
const THINK_MAX: Duration = Duration::from_millis(10);
/// Longest a closed-loop client waits for a reply before it looks at
/// the window end and its retries again.
const POLL: Duration = Duration::from_millis(20);
/// Three of every four jobs rescale one branch of the previous tree —
/// the `BENCH_PROPOSAL_FRACTION` shape of `plfd::loadgen`.
const PROPOSAL_FRACTION: f64 = 0.75;
/// Offered rate of the open loop: about half the journaled closed-loop
/// capacity measured at the commit that introduced this benchmark on a
/// 2-core AMD EPYC host (614 jobs/s).
const OPEN_RATE_PER_S: f64 = 300.0;
/// Mean branch length of generated trees (as `plfr loadgen`).
const BRANCH_MEAN: f64 = 0.1;
/// The one tenant every job is submitted under.
const TENANT: &str = "bench";
/// Closed-loop jobs pre-generated per second of window, about twice the
/// closed loop's rate on the host above. Should the jobs run out, the
/// loop ends early and the rate is taken over the slices it ran.
const CLOSED_JOBS_PER_S: f64 = 6_000.0;
/// Resubmissions of a rejected job before it counts as failed.
const MAX_RETRIES: u32 = 20;
/// How long responses may trail the window before jobs count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

struct Plan {
    shape: Shape,
    spec: DatasetSpec,
    /// Open-loop rate; unused by the closed loop.
    rate: f64,
    depth: usize,
    /// Client connections. The closed loop runs one thread per
    /// connection, the open loop two (sender and receiver), so the
    /// client never uses more than `nproc` threads.
    conns: usize,
}

fn plan(ctx: &Ctx, shape: Shape) -> Plan {
    let (taxa, patterns) = match (shape, ctx.tiny) {
        (Shape::Proposals, false) => (20, 1_000),
        (Shape::FreshDurable, false) => (20, 5_000),
        (_, true) => (8, 120),
    };
    Plan {
        shape,
        spec: DatasetSpec::new(taxa, patterns),
        rate: if ctx.tiny { 60.0 } else { OPEN_RATE_PER_S },
        depth: if ctx.tiny { 8 } else { CLOSED_DEPTH },
        conns: match shape {
            Shape::Proposals => ctx.nproc,
            Shape::FreshDurable => (ctx.nproc / 2).max(1),
        },
    }
}

/// One connection's job stream, as Newick: with `proposal_fraction`,
/// the previous tree with one branch rescaled by a multiplier move,
/// otherwise a fresh random topology.
fn job_stream(taxa: &[String], seed: u64, n: usize, proposal_fraction: f64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut last: Option<Tree> = None;
    (0..n)
        .map(|_| {
            let tree = match last.take() {
                Some(mut t) if rng.gen_range(0.0..1.0) < proposal_fraction => {
                    let branches = t.branches();
                    let pick = branches[rng.gen_range(0..branches.len())];
                    let factor = rng.gen_range(-0.5f64..0.5).exp();
                    let node = t.node_mut(pick);
                    node.branch = (node.branch * factor).max(1e-9);
                    t
                }
                _ => plf_seqgen::random_tree_for_taxa(taxa, BRANCH_MEAN, &mut rng),
            };
            let newick = tree.to_newick();
            last = Some(tree);
            newick
        })
        .collect()
}

/// One connection's jobs, and for the open loop their send times.
struct Stream {
    newicks: Vec<String>,
    /// Seconds after the start at which each job is due (open loop).
    due_s: Vec<f64>,
}

/// The job streams of every connection for one phase of `seconds`. The
/// open loop sends each job at a seeded, uniformly jittered point of its
/// `1/rate` slot: with evenly spaced sends every completion would wait
/// for the reactor's wake-up at the same phase of the schedule, and the
/// latency percentiles would jump between phases instead of moving with
/// the service.
fn streams(ctx: &Ctx, p: &Plan, taxa: &[String], phase: u64, seconds: f64) -> Vec<Stream> {
    (0..p.conns)
        .map(|k| {
            let seed = ctx.seed ^ (phase << 48) ^ ((k as u64 + 1) << 32);
            match p.shape {
                Shape::Proposals => {
                    let n = (CLOSED_JOBS_PER_S * seconds / p.conns as f64).ceil() as usize;
                    Stream {
                        newicks: job_stream(taxa, seed, n + p.depth, PROPOSAL_FRACTION),
                        due_s: Vec::new(),
                    }
                }
                Shape::FreshDurable => {
                    let mut rng = StdRng::seed_from_u64(!seed);
                    let rate = p.rate / p.conns as f64;
                    let due_s: Vec<f64> = (0..(rate * seconds) as usize)
                        .map(|i| (i as f64 + rng.gen_range(0.0..1.0)) / rate)
                        .collect();
                    Stream {
                        newicks: job_stream(taxa, seed, due_s.len(), 0.0),
                        due_s,
                    }
                }
            }
        })
        .collect()
}

/// What the benchmark keeps of a server it handed to its reactor.
struct Handles {
    flag: ShutdownFlag,
    service_counters: Arc<ServiceCounters>,
    net_counters: Arc<NetCounters>,
}

/// A server that is set up but not yet running.
struct Built {
    server: NetServer,
    handles: Handles,
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<(PlfService, NetServerReport)>>,
    handles: Handles,
}

static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh journal directory inside the run's output directory.
fn fresh_journal_dir(ctx: &Ctx) -> PathBuf {
    let n = JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed);
    ctx.out_dir()
        .join(format!("journal-{}-{}", std::process::id(), n))
}

/// Engines, service, dataset, (journal) and socket, timed as set-up.
fn build(
    ctx: &Ctx,
    p: &Plan,
    data: &PatternAlignment,
    model: &SiteModel,
    tracer: Option<&Tracer>,
    rec: &mut Option<Recorder>,
    journals: &mut Vec<PathBuf>,
) -> Result<(Built, SetupTimes), String> {
    let (engines, engine_s) = timed(rec, "setup.engine", || {
        (0..ctx.nproc)
            .map(|_| match tracer {
                Some(t) => {
                    Box::new(Traced::new(Simd4Backend::col_wise(), t)) as Box<dyn PlfBackend>
                }
                None => Box::new(Simd4Backend::col_wise()) as Box<dyn PlfBackend>,
            })
            .collect::<Vec<_>>()
    });
    let journal = (p.shape == Shape::FreshDurable).then(|| fresh_journal_dir(ctx));
    journals.extend(journal.clone());
    let (built, service_s) = timed(rec, "setup.service", || -> Result<Built, String> {
        let config = ServiceConfig {
            journal: journal.map(JournalConfig::in_dir),
            ..ServiceConfig::default()
        };
        let journaled = config.journal.is_some();
        let service = PlfService::try_new_with_factories(config, engines, Vec::new())
            .map_err(|e| format!("journal: {e}"))?;
        let dataset = service.register_dataset(data.clone());
        if journaled {
            service.recover();
        }
        let service_counters = service.counters();
        let net_counters = NetCounters::new();
        let flag = ShutdownFlag::local();
        let server = NetServer::bind(
            "127.0.0.1:0",
            service,
            dataset,
            model.clone(),
            NetServerConfig::default(),
            flag.clone(),
            Arc::clone(&net_counters),
        )
        .map_err(|e| format!("NetServer::bind: {e}"))?;
        Ok(Built {
            server,
            handles: Handles {
                flag,
                service_counters,
                net_counters,
            },
        })
    });
    Ok((
        built?,
        SetupTimes {
            engine: engine_s,
            service: service_s,
            ..SetupTimes::default()
        },
    ))
}

fn start(built: Built) -> Running {
    let server = built.server;
    Running {
        addr: server.local_addr(),
        handle: std::thread::spawn(move || server.run()),
        handles: built.handles,
    }
}

/// Drain and stop the server; returns its final counters.
fn stop(running: Running) -> Result<(ServiceSnapshot, NetSnapshot), String> {
    let h = running.handles;
    h.flag.request();
    let (mut service, _report) = running
        .handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    service.drain(Duration::from_secs(10));
    service.shutdown();
    Ok((h.service_counters.snapshot(), h.net_counters.snapshot()))
}

/// One completed job as its client saw it.
struct Done {
    conn: usize,
    idx: usize,
    lnl_bits: u64,
    latency_ms: f64,
    /// Client latency minus the server's own wait + service time.
    overhead_ms: f64,
    at: Instant,
}

#[derive(Default)]
struct ClientReport {
    done: Vec<Done>,
    submitted: u64,
    failed: u64,
    rejects: u64,
    late_ms: Vec<f64>,
}

struct Flight {
    idx: usize,
    /// Submit time (closed loop) or due time (open loop).
    t0: Instant,
    attempts: u32,
}

fn trace_id(conn: usize, idx: usize) -> u64 {
    ((conn as u64 + 1) << 32) | (idx as u64 + 1)
}

/// Book one response against the connection's in-flight jobs. Returns
/// the job to resubmit after a rejection, with its back-off.
fn settle(
    response: Response,
    at: Instant,
    conn: usize,
    inflight: &mut HashMap<u64, Flight>,
    r: &mut ClientReport,
    rec: &mut Option<Recorder>,
) -> Option<(u64, Duration)> {
    let id = response.client_job()?;
    match response {
        Response::Completed {
            ln_likelihood,
            wait_ns,
            service_ns,
            ..
        } => {
            let f = inflight.remove(&id)?;
            if let Some(rec) = rec.as_mut() {
                rec.record("net.job", id, f.t0, at);
            }
            let latency_ms = ms(at - f.t0);
            r.done.push(Done {
                conn,
                idx: f.idx,
                lnl_bits: ln_likelihood.to_bits(),
                latency_ms,
                overhead_ms: latency_ms - (wait_ns + service_ns) as f64 / 1e6,
                at,
            });
            None
        }
        Response::Reject { retry_after_ns, .. } => {
            r.rejects += 1;
            let f = inflight.get_mut(&id)?;
            f.attempts += 1;
            if f.attempts > MAX_RETRIES {
                inflight.remove(&id);
                r.failed += 1;
                return None;
            }
            let hint = Duration::from_nanos(retry_after_ns)
                .clamp(Duration::from_micros(100), Duration::from_millis(50));
            Some((id, hint))
        }
        _ => {
            if inflight.remove(&id).is_some() {
                r.failed += 1;
            }
            None
        }
    }
}

fn submit(
    c: &mut NetClient,
    rec: &mut Option<Recorder>,
    id: u64,
    newick: &str,
) -> Result<(), String> {
    let params = SubmitParams {
        tenant: TENANT.into(),
        high_priority: false,
        deadline: None,
        idempotency_key: None,
        newick: newick.to_string(),
    };
    match rec {
        Some(rec) => rec.span("net.submit", id, || c.submit_as(id, &params)),
        None => c.submit_as(id, &params),
    }
    .map_err(|e| format!("submit: {e}"))
}

/// One closed-loop connection of `callers` callers, each of which
/// submits a job, waits for its reply and thinks for a seeded time of up
/// to [`THINK_MAX`] before its next submit. Runs until the window ends,
/// the jobs run out or `stop` says so, then waits for the stragglers.
#[allow(clippy::too_many_arguments)]
fn closed_client(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    jobs: &[String],
    callers: usize,
    gate: &Barrier,
    window: Duration,
    mut rec: Option<Recorder>,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<(ClientReport, Instant), String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = ClientReport::default();
    let mut inflight: HashMap<u64, Flight> = HashMap::new();
    let mut retry: Vec<(Instant, u64)> = Vec::new();
    let mut next = 0usize;
    gate.wait();
    let start = Instant::now();
    // When each idle caller submits next.
    let mut ready = vec![start; callers];
    let window_end = start + window;
    let mut stopped_at = None;
    loop {
        let now = Instant::now();
        while let Some(i) = retry.iter().position(|&(t, _)| t <= now) {
            let (_, id) = retry.swap_remove(i);
            submit(&mut c, &mut rec, id, &jobs[inflight[&id].idx])?;
        }
        if stopped_at.is_none() && (now >= window_end || next == jobs.len() || stop()) {
            stopped_at = Some(now);
        }
        match stopped_at {
            None => {
                while let Some(i) = ready.iter().position(|&t| t <= now) {
                    if next == jobs.len() {
                        break;
                    }
                    ready.swap_remove(i);
                    let id = trace_id(conn, next);
                    submit(&mut c, &mut rec, id, &jobs[next])?;
                    inflight.insert(
                        id,
                        Flight {
                            idx: next,
                            t0: Instant::now(),
                            attempts: 0,
                        },
                    );
                    r.submitted += 1;
                    next += 1;
                }
            }
            Some(_) if inflight.is_empty() => break,
            Some(t) if now > t + DRAIN_LIMIT => {
                r.failed += inflight.len() as u64;
                break;
            }
            Some(_) => {}
        }
        // Wait for a reply, but no longer than until the next caller or
        // retry is due.
        let due = retry
            .iter()
            .map(|&(t, _)| t)
            .chain(ready.iter().copied().filter(|_| stopped_at.is_none()))
            .min();
        let t_recv = Instant::now();
        let wait = due.map_or(POLL, |t| t.saturating_duration_since(t_recv));
        c.set_read_timeout(Some(wait.clamp(Duration::from_micros(10), POLL)))
            .map_err(|e| format!("timeout: {e}"))?;
        let response = match c.recv() {
            Ok(response) => response,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let at = Instant::now();
        if let (Some(rec), Some(id)) = (rec.as_mut(), response.client_job()) {
            rec.record("net.recv", id, t_recv, at);
        }
        let outstanding = inflight.len();
        if let Some((id, backoff)) = settle(response, at, conn, &mut inflight, &mut r, &mut rec) {
            retry.push((at + backoff, id));
        }
        if inflight.len() < outstanding {
            ready.push(at + THINK_MAX.mul_f64(rng.gen_range(0.0..1.0)));
        }
    }
    Ok((r, start))
}

/// One open-loop connection: a sender thread writes each job at its due
/// time whatever the server does,
/// while this thread reads responses. Both speak the wire protocol
/// directly, so the sender can sleep to its due time precisely.
#[allow(clippy::too_many_arguments)]
fn open_client(
    addr: SocketAddr,
    conn: usize,
    jobs: &Stream,
    gate: &Barrier,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Result<(ClientReport, Instant), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("timeout: {e}"))?;
    let writer = Mutex::new(stream);
    let send = |rec: &mut Option<Recorder>, idx: usize| -> Result<(), String> {
        let id = trace_id(conn, idx);
        let frame = Request::Submit {
            client_job: id,
            tenant: TENANT.into(),
            priority: 0,
            deadline_ns: 0,
            idempotency_key: String::new(),
            newick: jobs.newicks[idx].clone(),
        }
        .encode();
        let write = || writer.lock().expect("writer lock").write_all(&frame);
        match rec {
            Some(rec) => rec.span("net.submit", id, write),
            None => write(),
        }
        .map_err(|e| format!("submit: {e}"))
    };
    gate.wait();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(jobs.due_s[i]);
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut rec = tracer.map(Tracer::recorder);
            let mut late_ms = Vec::with_capacity(jobs.due_s.len());
            for i in 0..jobs.due_s.len() {
                let d = due(i);
                std::thread::sleep(d.saturating_duration_since(Instant::now()));
                let t = Instant::now();
                send(&mut rec, i)?;
                late_ms.push(ms(t - d));
            }
            Ok(late_ms)
        });
        let mut rec = tracer.map(Tracer::recorder);
        let mut r = ClientReport::default();
        let mut inflight: HashMap<u64, Flight> = (0..jobs.due_s.len())
            .map(|i| {
                (
                    trace_id(conn, i),
                    Flight {
                        idx: i,
                        t0: due(i),
                        attempts: 0,
                    },
                )
            })
            .collect();
        let mut decoder = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        let received: Result<(), String> = loop {
            if inflight.is_empty() {
                break Ok(());
            }
            if Instant::now() > start + window + DRAIN_LIMIT {
                r.failed += inflight.len() as u64;
                break Ok(());
            }
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => match reader.read(&mut buf) {
                    Ok(0) => break Err("server closed the connection".into()),
                    Ok(n) => {
                        decoder.feed(&buf[..n]);
                        continue;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) => break Err(format!("recv: {e}")),
                },
                Err(e) => break Err(format!("frame: {e:?}")),
            };
            let response = match Response::decode(&frame) {
                Ok(response) => response,
                Err(e) => break Err(format!("response: {e:?}")),
            };
            if let Some((id, backoff)) = settle(
                response,
                Instant::now(),
                conn,
                &mut inflight,
                &mut r,
                &mut rec,
            ) {
                std::thread::sleep(backoff.min(Duration::from_millis(1)));
                if let Err(e) = send(&mut rec, inflight[&id].idx) {
                    break Err(e);
                }
            }
        };
        r.late_ms = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
        received?;
        r.submitted = jobs.due_s.len() as u64;
        Ok((r, start))
    })
}

/// What one load phase measured.
struct Phase {
    reports: Vec<ClientReport>,
    /// When the measured window opened.
    start: Instant,
    window: Window,
    service: ServiceSnapshot,
    net: NetSnapshot,
}

impl Phase {
    /// Jobs completed, in the window or after it.
    fn completed(&self) -> usize {
        self.reports.iter().map(|r| r.done.len()).sum()
    }

    fn tally(&self, out: &mut Outcome) {
        for r in &self.reports {
            out.attempted += r.submitted;
            out.failed += r.failed;
        }
    }
}

/// Start the server, warm it up, run the measured load for `seconds`
/// and stop it. Counters are reset after the warm-up, so the snapshots
/// cover the window alone.
#[allow(clippy::too_many_arguments)]
fn phase(
    ctx: &Ctx,
    p: &Plan,
    built: Built,
    taxa: &[String],
    jobs: &[Stream],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Phase, String> {
    let running = start(built);
    let measured = warm_up(ctx, p, &running, taxa).and_then(|()| {
        running.handles.service_counters.reset();
        running.handles.net_counters.reset();
        drive(ctx, p, &running, jobs, seconds, tracer)
    });
    let (service, net) = stop(running)?;
    let (reports, start) = measured?;
    let ops = reports
        .iter()
        .flat_map(|r| &r.done)
        .map(|d| Op {
            at_s: d.at.saturating_duration_since(start).as_secs_f64(),
            latency_ms: d.latency_ms,
        })
        .collect();
    Ok(Phase {
        reports,
        start,
        window: Window { seconds, ops },
        service,
        net,
    })
}

/// Jobs the warm-up sends at most: enough to fill every worker's CLV
/// cache and, on the journaled server, to seal the journal's first
/// segment. Rotating a segment stalls admission for 0.3 to 0.9 s on the
/// host above. After the warm-up the next rotation is one segment away
/// (about 2,600 jobs of 20 × 5K, 8.7 s at 300 jobs/s), beyond an 8 s
/// window: a window holding it had a p99 set by the stall's length,
/// which varied too much from run to run to bound.
const WARMUP_JOBS: usize = 2_000;
const WARMUP_JOBS_JOURNALED: usize = 8_000;

/// A closed loop of `depth` outstanding jobs on `nproc` connections:
/// fixed-size on the proposal stream, until the first journal rotation
/// on the journaled server.
fn warm_up(ctx: &Ctx, p: &Plan, running: &Running, taxa: &[String]) -> Result<(), String> {
    let journaled = p.shape == Shape::FreshDurable;
    let (total, fraction) = if journaled {
        (WARMUP_JOBS_JOURNALED, 0.0)
    } else {
        (WARMUP_JOBS, PROPOSAL_FRACTION)
    };
    let total = if ctx.tiny { total / 20 } else { total };
    let streams: Vec<Vec<String>> = (0..ctx.nproc)
        .map(|k| job_stream(taxa, !ctx.seed ^ k as u64, total / ctx.nproc, fraction))
        .collect();
    let counters = &running.handles.service_counters;
    let rotated = || journaled && counters.snapshot().journal_rotations > 0;
    let gate = Barrier::new(ctx.nproc);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, jobs)| {
                let depth = p.depth / ctx.nproc + usize::from(conn < p.depth % ctx.nproc);
                let (gate, addr, rotated) = (&gate, running.addr, &rotated);
                s.spawn(move || {
                    let seed = !ctx.seed ^ conn as u64;
                    closed_client(addr, conn, seed, jobs, depth, gate, DRAIN_LIMIT, None, rotated)
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| "warm-up client panicked".to_string())??;
        }
        Ok(())
    })
}

/// The measured load: one client per connection stream, started together.
fn drive(
    ctx: &Ctx,
    p: &Plan,
    running: &Running,
    jobs: &[Stream],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<(Vec<ClientReport>, Instant), String> {
    let nconn = jobs.len();
    let gate = Barrier::new(nconn);
    let window = Duration::from_secs_f64(seconds);
    let results: Vec<Result<(ClientReport, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(conn, stream)| {
                let (gate, addr) = (&gate, running.addr);
                s.spawn(move || match p.shape {
                    Shape::Proposals => {
                        let depth = p.depth / nconn + usize::from(conn < p.depth % nconn);
                        let rec = tracer.map(Tracer::recorder);
                        let never = || false;
                        closed_client(
                            addr,
                            conn,
                            ctx.seed ^ ((conn as u64 + 1) << 40),
                            &stream.newicks,
                            depth,
                            gate,
                            window,
                            rec,
                            &never,
                        )
                    }
                    Shape::FreshDurable => open_client(addr, conn, stream, gate, window, tracer),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut reports = Vec::new();
    let mut started: Option<Instant> = None;
    for result in results {
        let (report, start) = result?;
        started = Some(started.map_or(start, |s| s.min(start)));
        reports.push(report);
    }
    Ok((reports, started.ok_or("no client connections")?))
}

/// Every completed lnL must equal a scalar evaluation of the same tree,
/// bit for bit. Runs after the window, on `nproc` threads.
fn check(
    ctx: &Ctx,
    phase: &Phase,
    jobs: &[Stream],
    data: &PatternAlignment,
    model: &SiteModel,
    out: &mut Outcome,
) {
    let done: Vec<&Done> = phase.reports.iter().flat_map(|r| &r.done).collect();
    let chunk = done.len().div_ceil(ctx.nproc).max(1);
    let counts: Vec<Option<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = done
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|d| {
                            let expected = Tree::from_newick(&jobs[d.conn].newicks[d.idx])
                                .ok()
                                .and_then(|tree| {
                                    TreeLikelihood::new(&tree, data, model.clone())
                                        .and_then(|mut e| {
                                            e.log_likelihood(&tree, &mut ScalarBackend)
                                        })
                                        .ok()
                                });
                            expected.map(f64::to_bits) != Some(d.lnl_bits)
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    out.check(counts.iter().all(Option::is_some), || {
        "a reference-check thread panicked".to_string()
    });
    let bad: usize = counts.into_iter().flatten().sum();
    out.check(bad == 0, || {
        format!(
            "{bad} of {} completed jobs differ from the scalar reference",
            done.len()
        )
    });
}

/// Direct evaluations per second of `jobs` on one `simd` engine, with
/// no service in between (the speed-of-light base of `plfd.sol_ratio`).
fn direct_rate(
    jobs: &[String],
    data: &PatternAlignment,
    model: &SiteModel,
    seconds: f64,
) -> Result<f64, String> {
    let mut engine = Simd4Backend::col_wise();
    let trees: Vec<Tree> = jobs
        .iter()
        .map(|j| Tree::from_newick(j).map_err(|e| format!("newick: {e}")))
        .collect::<Result<_, _>>()?;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut n = 0usize;
    while Instant::now() < end && n < trees.len() {
        let tree = &trees[n];
        TreeLikelihood::new(tree, data, model.clone())
            .and_then(|mut e| e.log_likelihood(tree, &mut engine))
            .map_err(|e| format!("direct evaluation: {e}"))?;
        n += 1;
    }
    Ok(n as f64 / start.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx, shape: Shape) -> Result<Outcome, String> {
    let p = plan(ctx, shape);
    let ds = plf_seqgen::generate(p.spec, ctx.seed);
    let data = ds.data;
    let taxa = data.taxa().to_vec();
    let model = plf_seqgen::default_model();
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut rec = ctx.trace.then(|| tracer.recorder());
    let mut journals = Vec::new();
    out.info(
        "engine",
        format!("{} x{} workers", Simd4Backend::col_wise().name(), ctx.nproc),
    );
    out.info("connections", p.conns);
    match shape {
        Shape::Proposals => out.info("outstanding", p.depth),
        Shape::FreshDurable => out.info("offered_per_s", p.rate),
    }

    let mut reps = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setup_reps() {
        // Tear the previous server down first, and let its threads exit
        // before the next set-up is timed.
        drop(built.take());
        std::thread::sleep(Duration::from_millis(5));
        match build(ctx, &p, &data, &model, None, &mut rec, &mut journals) {
            Ok((b, times)) => {
                reps.push(times);
                built = Some(b);
            }
            Err(e) => {
                remove_journals(&journals);
                return Err(e);
            }
        }
    }
    let setup_s = setup_metrics(&reps, &mut out.layers);
    let built = built.expect("at least one set-up");

    let result = if !ctx.trace {
        let jobs = streams(ctx, &p, &taxa, 0, ctx.seconds);
        phase(ctx, &p, built, &taxa, &jobs, ctx.seconds, None).map(|phase| {
            phase.tally(&mut out);
            check(ctx, &phase, &jobs, &data, &model, &mut out);
            out.end_to_end = Some(EndToEnd {
                setup_s,
                window: phase.window,
            });
        })
    } else {
        traced(
            ctx,
            &p,
            built,
            &data,
            &taxa,
            &model,
            &tracer,
            &mut journals,
            &mut out,
        )
    };
    drop(rec);
    out.spans.extend(tracer.spans());
    out.spans.sort_by_key(|s| s.id);
    remove_journals(&journals);
    result.map(|()| out)
}

fn remove_journals(dirs: &[PathBuf]) {
    for dir in dirs {
        // Best effort: the directory lies under the ignored output tree.
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Traced run: an untraced phase, a traced phase on fresh engines, and
/// the direct single-engine baseline, a third of the window each.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    p: &Plan,
    built: Built,
    data: &PatternAlignment,
    taxa: &[String],
    model: &SiteModel,
    tracer: &Tracer,
    journals: &mut Vec<PathBuf>,
    out: &mut Outcome,
) -> Result<(), String> {
    let third = ctx.seconds / 3.0;
    let jobs_a = streams(ctx, p, taxa, 1, third);
    let a = phase(ctx, p, built, taxa, &jobs_a, third, None)?;

    let engine_tracer = Tracer::new();
    let (built_b, _) = build(
        ctx,
        p,
        data,
        model,
        Some(&engine_tracer),
        &mut None,
        journals,
    )?;
    let jobs_b = streams(ctx, p, taxa, 2, third);
    let b = phase(ctx, p, built_b, taxa, &jobs_b, third, Some(tracer))?;
    check(ctx, &a, &jobs_a, data, model, out);
    check(ctx, &b, &jobs_b, data, model, out);
    a.tally(out);
    b.tally(out);

    let direct = direct_rate(&jobs_b[0].newicks, data, model, third)?;
    // Engine calls of the measured window only, not of the warm-up.
    let window_ns = engine_tracer.ns(b.start);
    let engine_spans: Vec<Span> = engine_tracer
        .spans()
        .into_iter()
        .filter(|s| s.start_ns >= window_ns)
        .collect();
    let k = KernelTotals::of(&engine_spans);
    let completed = b.completed() as f64;
    let snap = &b.service;
    let net = &b.net;
    let l = &mut out.layers;
    kernel_layers(&k, l);
    l.set(
        "fused.ops_per_call",
        ratio(k.fused_ops as f64, k.fused_calls as f64),
    );
    l.set(
        "fused.calls_per_job",
        ratio(k.fused_calls as f64, completed),
    );
    let lookups = (snap.clv_cache_hits + snap.clv_cache_misses) as f64;
    l.set(
        "clv_cache.hit_ratio",
        ratio(snap.clv_cache_hits as f64, lookups),
    );
    l.set("clv_cache.evictions", snap.clv_cache_evictions as f64);
    l.set("plfd.wait_ms_mean", snap.mean_wait_seconds() * 1e3);
    l.set("plfd.service_ms_mean", snap.mean_service_seconds() * 1e3);
    l.set(
        "plfd.jobs_per_batch",
        ratio(snap.batch_jobs as f64, snap.batches as f64),
    );
    l.set("plfd.batch_occupancy", snap.batch_occupancy());
    l.set("plfd.queue_depth_peak", snap.queue_depth_peak as f64);
    l.set("plfd.rejected", snap.rejected as f64);
    l.set("plfd.shed", snap.shed as f64);
    let (sa, sb) = (a.window.stats(), b.window.stats());
    l.set(
        "plfd.sol_ratio",
        ratio(sa.ops_per_s, ctx.nproc as f64 * direct),
    );
    l.set("journal.fsyncs", snap.journal_fsyncs as f64);
    l.set(
        "journal.appends_per_fsync",
        ratio(snap.journal_appends as f64, snap.journal_fsyncs as f64),
    );
    let overheads: Vec<f64> = b
        .reports
        .iter()
        .flat_map(|r| r.done.iter().map(|d| d.overhead_ms))
        .collect();
    l.set("net.overhead_ms_mean", mean(&overheads));
    l.set(
        "net.bytes_per_job",
        ratio((net.bytes_in + net.bytes_out) as f64, completed),
    );
    l.set(
        "net.frames_per_job",
        ratio((net.frames_in + net.frames_out) as f64, completed),
    );
    l.set("net.protocol_errors", net.protocol_errors as f64);
    let rejects: u64 = b.reports.iter().map(|r| r.rejects).sum();
    l.set("net.rejects_per_job", ratio(rejects as f64, completed));
    let late: Vec<f64> = b
        .reports
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    l.set("loadgen.late_ms_p99", percentile(&late, 0.99));
    let overhead = match p.shape {
        Shape::Proposals => ratio(sa.ops_per_s, sb.ops_per_s) - 1.0,
        Shape::FreshDurable => ratio(sb.p50_ms, sa.p50_ms) - 1.0,
    };
    l.set("trace.overhead_frac", overhead);
    out.info("direct_evals_per_s", direct);
    out.spans = engine_spans;
    Ok(())
}
