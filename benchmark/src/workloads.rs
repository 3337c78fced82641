//! The five workloads. Each brings the shipped server up as a child
//! process, drives it from [`CONNS`] generator threads through the
//! shipped clients, stops the clock, checks the outputs, and ends with
//! the operator path of [`crate::lifecycle`].

use crate::inputs::{schema_pairs, Data, Pool, GAMMA};
use crate::lifecycle::{check_reconstruction, mine, persist_and_recover};
use crate::manifest::{
    HTTP_READ_WRITE, MINE_LIFECYCLE, STREAM_BINARY, SYNC_JSON, SYNC_JSON_REACTOR,
};
use crate::run::{
    run_window, Checks, Metrics, Ops, Opts, Plan, Res, RunOutput, ScratchDir, Window, CONNS,
};
use crate::serverproc::{ServerProc, ServerSpec};
use crate::stats::{median, midmean, ns_u32, summarise_latencies};
use crate::trace::Tracer;
use frapp_service::protocol::reconstruction_response;
use frapp_service::session::{Reconstruction, ReconstructionMethod, SessionStats};
use frapp_service::{Client, HttpClient, ServiceError, SessionSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs the workload named `name`.
pub fn run(name: &str, opts: &Opts, binary: &Path, started: Instant) -> Res<RunOutput> {
    let ctx = Ctx {
        opts,
        plan: Plan::of(opts),
        binary,
        started,
    };
    match name {
        STREAM_BINARY => stream_binary(&ctx),
        SYNC_JSON => sync_json(&ctx, false),
        SYNC_JSON_REACTOR => sync_json(&ctx, true),
        HTTP_READ_WRITE => http_read_write(&ctx),
        MINE_LIFECYCLE => mine_lifecycle(&ctx),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

struct Ctx<'a> {
    opts: &'a Opts,
    plan: Plan,
    binary: &'a Path,
    /// When the driver process started: `setup_s` counts from here, and
    /// it is the epoch of every span.
    started: Instant,
}

impl Ctx<'_> {
    /// Records per HEALTH session (preload, and each mined session).
    fn health_records(&self) -> usize {
        if self.opts.quick {
            1 << 17
        } else {
            1 << 20
        }
    }
}

/// What the generators need of a client, so that one loop drives both
/// the line-protocol and the HTTP client.
trait Wire: Send {
    fn submit(
        &mut self,
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
    ) -> Result<usize, ServiceError>;
    fn reconstruct(&mut self, session: u64) -> Result<Reconstruction, ServiceError>;
    fn stats(&mut self, session: u64) -> Result<SessionStats, ServiceError>;
}

macro_rules! impl_wire {
    ($client:ty) => {
        impl Wire for $client {
            fn submit(
                &mut self,
                session: u64,
                records: &[Vec<u32>],
                pre: bool,
            ) -> Result<usize, ServiceError> {
                self.submit_batch(session, records, pre)
            }
            fn reconstruct(&mut self, session: u64) -> Result<Reconstruction, ServiceError> {
                <$client>::reconstruct(self, session, ReconstructionMethod::ClosedForm, true)
            }
            fn stats(&mut self, session: u64) -> Result<SessionStats, ServiceError> {
                <$client>::stats(self, session)
            }
        }
    };
}
impl_wire!(Client);
impl_wire!(HttpClient);

/// What one connection did in one window.
#[derive(Default)]
struct WinOut {
    records: u64,
    requests: u64,
    submit_ns: Vec<u32>,
    reconstruct_ns: Vec<u32>,
    /// Body size of the window's first reconstruction response.
    reconstruct_bytes: u64,
}

/// One generator connection cycling through a pool into one session.
struct Writer<'p, K> {
    client: K,
    pool: &'p Pool,
    session: u64,
    cursor: usize,
    /// Times each pool batch was accepted: the ground truth.
    sent: Vec<u64>,
    accepted: u64,
    tracer: Tracer,
    ops: Ops,
    checks: Checks,
}

impl<'p, K: Wire> Writer<'p, K> {
    fn new(client: K, pool: &'p Pool, session: u64, index: usize, epoch: Instant) -> Self {
        Writer {
            client,
            pool,
            session,
            // Connections start apart so they do not send in lockstep.
            cursor: index * pool.batches.len() / CONNS,
            sent: vec![0; pool.batches.len()],
            accepted: 0,
            tracer: Tracer::new(index as u8, epoch),
            ops: Ops::default(),
            checks: Checks::default(),
        }
    }

    fn next_batch(&mut self) -> usize {
        let b = self.cursor;
        self.cursor = (b + 1) % self.pool.batches.len();
        b
    }

    /// Synchronous submits back to back until `deadline`, each timed
    /// from send to parsed ack.
    fn sync_window(&mut self, deadline: Instant) -> Res<WinOut> {
        let window = self.tracer.open("window");
        let mut out = WinOut::default();
        let mut start = Instant::now();
        loop {
            let b = self.next_batch();
            let batch = &self.pool.batches[b];
            let acked = self
                .client
                .submit(self.session, batch, self.pool.pre_perturbed);
            let end = Instant::now();
            self.tracer.record("submit", start, end);
            if self.ops.call(acked)?.is_some() {
                self.sent[b] += 1;
                out.records += batch.len() as u64;
                out.submit_ns.push(ns_u32(end - start));
            }
            out.requests += 1;
            if end >= deadline {
                break;
            }
            start = end;
        }
        self.accepted += out.records;
        self.tracer.close(window);
        Ok(out)
    }
}

impl Writer<'_, Client> {
    /// Pipelined deferred submits until `deadline`, then `flush`: the
    /// watermark it reports is what the window accepted.
    fn stream_window(&mut self, deadline: Instant) -> Res<WinOut> {
        let window = self.tracer.open("window");
        let mut queued = Vec::new();
        while Instant::now() < deadline {
            self.queue_batch(&mut queued)?;
        }
        let out = self.flush_queued(&queued)?;
        self.tracer.close(window);
        Ok(out)
    }

    fn queue_batch(&mut self, queued: &mut Vec<usize>) -> Res<()> {
        let b = self.next_batch();
        let (client, pool, session) = (&mut self.client, self.pool, self.session);
        self.ops.attempted += 1;
        self.tracer.span("submit_nowait", || {
            client.submit_nowait(session, &pool.batches[b], pool.pre_perturbed)
        })?;
        queued.push(b);
        Ok(())
    }

    fn flush_queued(&mut self, queued: &[usize]) -> Res<WinOut> {
        let client = &mut self.client;
        let watermark = self.tracer.span("flush", || client.flush());
        let watermark = self.ops.call(watermark)?.unwrap_or(0);
        let expected = (queued.len() * self.pool.batch_size()) as u64;
        let session = self.session;
        // A short watermark means the server dropped a suffix; the truth
        // histogram can no longer be trusted either.
        self.checks.check(watermark == expected, || {
            format!("session {session}: flush watermark {watermark}, {expected} records were sent")
        });
        if watermark == expected {
            for &b in queued {
                self.sent[b] += 1;
            }
        } else {
            self.ops.failed += 1;
        }
        self.accepted += watermark;
        Ok(WinOut {
            records: watermark,
            requests: queued.len() as u64,
            ..WinOut::default()
        })
    }

    /// Loads the whole pool once into `session`, pipelined, and flushes.
    fn load_pool(&mut self, session: u64) -> Res<WinOut> {
        self.session = session;
        self.cursor = 0;
        let window = self.tracer.open("load_session");
        let mut queued = Vec::new();
        for _ in 0..self.pool.batches.len() {
            self.queue_batch(&mut queued)?;
        }
        let out = self.flush_queued(&queued)?;
        self.tracer.close(window);
        Ok(out)
    }
}

/// A connection that alternates `reconstruct` and `stats`.
struct Reader<K> {
    client: K,
    session: u64,
    cells: usize,
    last_n: u64,
    tracer: Tracer,
    ops: Ops,
    checks: Checks,
}

impl<K: Wire> Reader<K> {
    fn new(client: K, session: u64, cells: usize, index: usize, epoch: Instant) -> Self {
        Reader {
            client,
            session,
            cells,
            last_n: 0,
            tracer: Tracer::new(index as u8, epoch),
            ops: Ops::default(),
            checks: Checks::default(),
        }
    }

    fn window(&mut self, deadline: Instant) -> Res<WinOut> {
        let window = self.tracer.open("window");
        let mut out = WinOut::default();
        let mut start = Instant::now();
        loop {
            let rec = self.client.reconstruct(self.session);
            let end = Instant::now();
            self.tracer.record("reconstruct", start, end);
            if let Some(rec) = self.ops.call(rec)? {
                out.reconstruct_ns.push(ns_u32(end - start));
                if out.reconstruct_bytes == 0 {
                    // Once per window: re-serialising 7500 estimates
                    // costs the generator as much as a round trip.
                    out.reconstruct_bytes = reconstruction_response(&rec).len() as u64;
                }
                check_reconstruction(&mut self.checks, &rec, self.cells, "reconstruct");
                let last = self.last_n;
                self.checks.check(rec.n >= last, || {
                    format!("reconstruct n went from {last} to {}", rec.n)
                });
                self.last_n = rec.n;
            }
            let (client, session) = (&mut self.client, self.session);
            let stats = self.tracer.span("stats", || client.stats(session));
            self.ops.call(stats)?;
            start = Instant::now();
            if start >= deadline {
                break;
            }
        }
        self.tracer.close(window);
        Ok(out)
    }
}

/// Reads beside writes: connection A submits synchronously, connection
/// B reconstructs — `http_read_write`'s own traffic, and the phase that
/// gives every other workload its reconstruct (and, where its own
/// traffic is pipelined, submit) latency under the same two-connection
/// closed loop as everything else.
enum Mixed<'p, K> {
    Writer(Writer<'p, K>),
    Reader(Reader<K>),
}

impl<K: Wire> Mixed<'_, K> {
    fn window(&mut self, deadline: Instant) -> Res<WinOut> {
        match self {
            Mixed::Writer(w) => w.sync_window(deadline),
            Mixed::Reader(r) => r.window(deadline),
        }
    }

    fn trace(&mut self, on: bool) {
        match self {
            Mixed::Writer(w) => w.tracer.enable(on),
            Mixed::Reader(r) => r.tracer.enable(on),
        }
    }
}

/// A phase's windows, summarised (interquartile mean over windows).
struct Served {
    records_per_s: f64,
    cpu_ns_per_record: f64,
    cpu_us_per_req: f64,
    ctx_switches_per_req: f64,
    submit_p50_us: Option<f64>,
    submit_tail_us: Option<f64>,
    reconstruct_p50_us: Option<f64>,
    reconstruct_tail_us: Option<f64>,
    reconstruct_bytes: f64,
}

fn summarise(windows: &mut [Window<WinOut>]) -> Served {
    // Throughput and latency are summarised per window and then over
    // windows; CPU and context switches are counts, taken over all
    // windows together (per window, 10 ms clock ticks would show).
    let (mut records, mut requests, mut cpu_ns, mut ctx_switches) = (0, 0, 0, 0);
    let mut cols: [Vec<f64>; 6] = Default::default();
    for w in windows.iter_mut() {
        let accepted: u64 = w.per_conn.iter().map(|c| c.records).sum();
        cols[0].push(accepted as f64 / w.elapsed.as_secs_f64());
        records += accepted;
        requests += w.per_conn.iter().map(|c| c.requests).sum::<u64>();
        cpu_ns += w.server_cpu_ns();
        ctx_switches += w.ctx_switches();
        let pooled = |pick: fn(&WinOut) -> &Vec<u32>| -> Vec<u32> {
            w.per_conn
                .iter()
                .flat_map(|c| pick(c).iter().copied())
                .collect()
        };
        if let Some(s) = summarise_latencies(&mut pooled(|c| &c.submit_ns)) {
            cols[1].push(s.p50_us);
            cols[2].push(s.tail_us);
        }
        let mut reconstructs = pooled(|c| &c.reconstruct_ns);
        if let Some(s) = summarise_latencies(&mut reconstructs) {
            cols[3].push(s.p50_us);
            cols[4].push(s.tail_us);
            let bytes: u64 = w.per_conn.iter().map(|c| c.reconstruct_bytes).sum();
            cols[5].push(bytes as f64);
        }
    }
    let mid = |v: &Vec<f64>| (!v.is_empty()).then(|| midmean(v));
    let per = |count: u64, of: u64| count as f64 / of.max(1) as f64;
    Served {
        records_per_s: midmean(&cols[0]),
        cpu_ns_per_record: per(cpu_ns, records),
        cpu_us_per_req: per(cpu_ns, requests) / 1e3,
        ctx_switches_per_req: per(ctx_switches, requests),
        submit_p50_us: mid(&cols[1]),
        submit_tail_us: mid(&cols[2]),
        reconstruct_p50_us: mid(&cols[3]),
        reconstruct_tail_us: mid(&cols[4]),
        reconstruct_bytes: mid(&cols[5]).unwrap_or(0.0),
    }
}

/// A brought-up server and the sessions created on it.
struct Up {
    server: ServerProc,
    sessions: Vec<u64>,
}

/// Brings the system up `plan.setups` times (all but the last torn
/// down again) and reports `setup_s`: input generation once, plus the
/// median bring-up.
fn bring_up<C>(
    ctx: &Ctx,
    spec: &ServerSpec,
    metrics: &mut Metrics,
    connect: impl Fn(&ServerProc) -> Res<(Vec<C>, Vec<u64>)>,
) -> Res<(Up, Vec<C>)> {
    let inputs_s = ctx.started.elapsed().as_secs_f64();
    let mut bring_up_s = Vec::new();
    let mut up = None;
    for _ in 0..ctx.plan.setups {
        // The previous incarnation must be gone before its persist
        // directory is reused.
        drop(up.take());
        if let Some(dir) = &spec.persist_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)?;
        }
        let start = Instant::now();
        let server = ServerProc::spawn(ctx.binary, spec)?;
        let (conns, sessions) = connect(&server)?;
        bring_up_s.push(start.elapsed().as_secs_f64());
        up = Some((Up { server, sessions }, conns));
    }
    metrics.insert("setup_s", inputs_s + median(&bring_up_s));
    Ok(up.expect("at least one bring-up"))
}

/// Whether one of `side` windows, spread evenly among `main` ones, is
/// due after main window `i`.
fn side_window_due(i: usize, main: usize, side: usize) -> bool {
    (i + 1) * side / main > i * side / main
}

/// Reads beside writes on a line-protocol session, in half-length
/// windows between the main ones: a writer and a reader of their own,
/// idle while the main connections run.
struct MixedPhase<'p> {
    conns: Vec<Mixed<'p, Client>>,
    windows: Vec<Window<WinOut>>,
}

impl<'p> MixedPhase<'p> {
    fn open(
        ctx: &Ctx,
        server: &ServerProc,
        pool: &'p Pool,
        session: u64,
        binary: bool,
    ) -> Res<Self> {
        let mut writer = Client::connect(server.addr)?;
        if binary {
            writer.negotiate_binary()?;
        }
        let reader = Client::connect(server.addr)?;
        let cells = pool.schema.domain_size();
        let mut conns = vec![
            Mixed::Writer(Writer::new(writer, pool, session, 0, ctx.started)),
            Mixed::Reader(Reader::new(reader, session, cells, 1, ctx.started)),
        ];
        run_window(&mut conns, &server.proc, ctx.plan.warmup / 4, Mixed::window)?;
        conns.iter_mut().for_each(|c| c.trace(ctx.opts.trace));
        Ok(MixedPhase {
            conns,
            windows: Vec::new(),
        })
    }

    fn window(&mut self, ctx: &Ctx, server: &ServerProc) -> Res<()> {
        let window = run_window(
            &mut self.conns,
            &server.proc,
            ctx.plan.window / 2,
            Mixed::window,
        )?;
        self.windows.push(window);
        Ok(())
    }
}

/// A workload's own traffic: what one connection does in a window, and
/// how its span recording is switched.
struct Traffic<C> {
    window: fn(&mut C, Instant) -> Res<WinOut>,
    trace: fn(&mut C, bool),
}

/// Warm-up, `timed` main windows (with the mixed phase's windows among
/// them), and on a traced run the traced windows; returns the summary
/// of the timed ones and records `trace.overhead_pct`.
fn serve<C: Send>(
    ctx: &Ctx,
    up: &Up,
    conns: &mut [C],
    traffic: Traffic<C>,
    timed: usize,
    mut mixed: Option<&mut MixedPhase>,
    metrics: &mut Metrics,
) -> Res<Served> {
    let proc = &up.server.proc;
    run_window(conns, proc, ctx.plan.warmup, traffic.window)?;
    let mut windows = Vec::new();
    for i in 0..timed {
        windows.push(run_window(conns, proc, ctx.plan.window, traffic.window)?);
        if let Some(mixed) = mixed.as_deref_mut() {
            if side_window_due(i, timed, ctx.plan.mixed_windows) {
                mixed.window(ctx, &up.server)?;
            }
        }
    }
    let served = summarise(&mut windows);
    if ctx.plan.traced_windows > 0 {
        conns.iter_mut().for_each(|c| (traffic.trace)(c, true));
        let mut traced = (0..ctx.plan.traced_windows)
            .map(|_| run_window(conns, proc, ctx.plan.window, traffic.window))
            .collect::<Res<Vec<_>>>()?;
        conns.iter_mut().for_each(|c| (traffic.trace)(c, false));
        // Throughput lost with span recording on.
        let traced = summarise(&mut traced).records_per_s;
        metrics.insert(
            "trace.overhead_pct",
            100.0 * (served.records_per_s - traced) / served.records_per_s,
        );
    }
    Ok(served)
}

/// What finished writers put into their session.
struct Ingested {
    sent: Vec<u64>,
    accepted: u64,
}

impl RunOutput {
    fn absorb_writer<K>(&mut self, w: Writer<'_, K>) -> Ingested {
        self.ops.add(w.ops);
        self.checks.add(w.checks);
        self.spans.extend(w.tracer.into_spans());
        Ingested {
            sent: w.sent,
            accepted: w.accepted,
        }
    }

    /// Folds finished connections in; sums what the writers ingested.
    fn absorb<K>(&mut self, conns: Vec<Mixed<'_, K>>, pool: &Pool) -> Ingested {
        let mut total = Ingested {
            sent: vec![0; pool.batches.len()],
            accepted: 0,
        };
        for conn in conns {
            match conn {
                Mixed::Writer(w) => {
                    let one = self.absorb_writer(w);
                    total
                        .sent
                        .iter_mut()
                        .zip(&one.sent)
                        .for_each(|(t, s)| *t += s);
                    total.accepted += one.accepted;
                }
                Mixed::Reader(r) => {
                    self.ops.add(r.ops);
                    self.checks.add(r.checks);
                    self.spans.extend(r.tracer.into_spans());
                }
            }
        }
        total
    }

    /// The mixed phase's latencies, for the workloads whose own traffic
    /// has none: `submit` too where it is pipelined.
    fn mixed_latencies(&mut self, mixed: &mut MixedPhase, submit: bool) -> Res<()> {
        let served = summarise(&mut mixed.windows);
        self.latency("reconstruct_p50_us", served.reconstruct_p50_us)?;
        if submit {
            self.latency("submit_p50_us", served.submit_p50_us)?;
            self.latency("submit_p99_us", served.submit_tail_us)?;
        }
        Ok(())
    }

    fn latency(&mut self, name: &'static str, value: Option<f64>) -> Res<()> {
        self.metrics.insert(
            name,
            value.ok_or_else(|| format!("no samples for `{name}`"))?,
        );
        Ok(())
    }

    /// Closes a run: the first session must hold exactly what was
    /// accepted; then the operator path (mining over `mine_pool`, which
    /// the second session holds once), and teardown.
    fn finish(
        mut self,
        ctx: &Ctx,
        spec: &ServerSpec,
        up: Up,
        accepted: u64,
        mine_pool: Option<&Pool>,
    ) -> Res<RunOutput> {
        let mut ctl = Client::connect(up.server.addr)?;
        if let Some(stats) = self.ops.call(ctl.stats(up.sessions[0]))? {
            self.checks.check(stats.total == accepted, || {
                format!(
                    "stats.total is {}, acks and watermarks sum to {accepted}",
                    stats.total
                )
            });
            self.checks
                .check(stats.per_shard.iter().sum::<u64>() == stats.total, || {
                    "per-shard totals do not sum to stats.total".into()
                });
        }
        drop(ctl);
        let mut tracer = Tracer::new(CONNS as u8, ctx.started);
        tracer.enable(ctx.opts.trace);
        let server = persist_and_recover(
            ctx.binary,
            spec,
            &ctx.plan,
            up.server,
            &up.sessions,
            &mut self,
            &mut tracer,
        )?;
        if let Some(pool) = mine_pool {
            // The second session: exactly one pool, whatever the
            // clock did, so the mined result repeats bit for bit.
            let truth = pool.truth(&vec![1; pool.batches.len()]);
            let mined = up.sessions[1];
            mine(
                &server,
                &ctx.plan,
                &pool.schema,
                mined,
                &truth,
                &mut self,
                &mut tracer,
            )?;
        }
        server.kill()?;
        self.spans.extend(tracer.into_spans());
        Ok(self)
    }
}

fn persist_spec(scratch: &ScratchDir, http: bool, reactor: bool) -> ServerSpec {
    ServerSpec {
        http,
        reactor,
        persist_dir: Some(scratch.0.join("persist")),
    }
}

fn create_session(client: &mut Client, data: Data) -> Res<u64> {
    Ok(client.create_session(&SessionSpec::deterministic(
        schema_pairs(&data.schema()),
        GAMMA,
    ))?)
}

/// `CONNS` line-protocol writers into one fresh CENSUS session.
fn census_writers<'p>(
    ctx: &Ctx,
    server: &ServerProc,
    pool: &'p Pool,
    binary: bool,
) -> Res<(Vec<Writer<'p, Client>>, Vec<u64>)> {
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let mut client = Client::connect(server.addr)?;
        if binary {
            client.negotiate_binary()?;
        }
        clients.push(client);
    }
    let session = create_session(&mut clients[0], Data::Census)?;
    let writers = clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| Writer::new(c, pool, session, i, ctx.started))
        .collect();
    Ok((writers, vec![session]))
}

/// Main writers and the mixed phase's connections, as one list.
fn all_conns<'p>(
    writers: Vec<Writer<'p, Client>>,
    mixed: MixedPhase<'p>,
) -> Vec<Mixed<'p, Client>> {
    writers
        .into_iter()
        .map(Mixed::Writer)
        .chain(mixed.conns)
        .collect()
}

fn stream_binary(ctx: &Ctx) -> Res<RunOutput> {
    let scratch = ScratchDir::create(STREAM_BINARY)?;
    let spec = persist_spec(&scratch, false, false);
    let pool = Pool::generate(Data::Census, ctx.opts.seed, 1 << 16, 256, false);
    let mut out = RunOutput::default();
    let (up, mut writers) = bring_up(ctx, &spec, &mut out.metrics, |server| {
        census_writers(ctx, server, &pool, true)
    })?;
    // This traffic is pipelined and write-only: the synchronous round
    // trip of the same 256-record frame, and reconstruct latency, come
    // from the mixed phase.
    let mut mixed = MixedPhase::open(ctx, &up.server, &pool, up.sessions[0], true)?;
    let traffic = Traffic {
        window: Writer::stream_window,
        trace: |w, on| w.tracer.enable(on),
    };
    let served = serve(
        ctx,
        &up,
        &mut writers,
        traffic,
        ctx.plan.main_windows,
        Some(&mut mixed),
        &mut out.metrics,
    )?;
    out.metrics.insert("records_per_s", served.records_per_s);
    out.metrics
        .insert("server_cpu_ns_per_record", served.cpu_ns_per_record);
    out.mixed_latencies(&mut mixed, true)?;
    if ctx.opts.trace {
        reactor_stream_pass(ctx, &pool, &mut out.metrics)?;
    }
    let ingested = out.absorb(all_conns(writers, mixed), &pool);
    let truth = pool.truth(&ingested.sent);

    // Unbiasedness guard for any faster sampler: the server perturbed
    // these records itself, so its clamped reconstruction must land on
    // the raw histogram, within sampling noise.
    let mut ctl = Client::connect(up.server.addr)?;
    let rec = ctl.reconstruct(up.sessions[0], ReconstructionMethod::ClosedForm, true);
    if let Some(rec) = out.ops.call(rec)? {
        check_reconstruction(&mut out.checks, &rec, truth.len(), "stream reconstruct");
        let l1: f64 = rec
            .estimates
            .iter()
            .zip(&truth)
            .map(|(e, t)| (e - t).abs())
            .sum();
        let relative = l1 / rec.n as f64;
        let bound = L1_BOUND_COEFFICIENT / (rec.n as f64).sqrt();
        out.checks.check(relative <= bound, || {
            format!("reconstruction is {relative:.4} (relative L1) from the raw histogram; bound {bound:.4} at n = {}", rec.n)
        });
        eprintln!(
            "stream_binary: relative L1 error {relative:.4} (bound {bound:.4}, n = {})",
            rec.n
        );
    }
    drop(ctl);
    out.finish(ctx, &spec, up, ingested.accepted, None)
}

/// The relative L1 error of a clamped gamma-diagonal reconstruction is
/// sampling noise that shrinks as `c / sqrt(N)`; for CENSUS (2000
/// cells, gamma 19) `c` measures about 3400 on seeds 1-10. The bound
/// leaves 1.5x headroom: a biased sampler's error does not shrink with
/// N and crosses it within the first windows.
const L1_BOUND_COEFFICIENT: f64 = 5000.0;

/// `stream_binary` windows against `--async`, for the per-layer
/// reactor-vs-threaded streaming numbers.
fn reactor_stream_pass(ctx: &Ctx, pool: &Pool, metrics: &mut Metrics) -> Res<()> {
    let spec = ServerSpec {
        reactor: true,
        ..ServerSpec::default()
    };
    let server = ServerProc::spawn(ctx.binary, &spec)?;
    let (mut writers, _) = census_writers(ctx, &server, pool, true)?;
    run_window(
        &mut writers,
        &server.proc,
        ctx.plan.warmup / 4,
        Writer::stream_window,
    )?;
    let mut pass = (0..ctx.plan.traced_windows)
        .map(|_| {
            run_window(
                &mut writers,
                &server.proc,
                ctx.plan.window,
                Writer::stream_window,
            )
        })
        .collect::<Res<Vec<_>>>()?;
    metrics.insert(
        "frontend.reactor_stream_records_per_s",
        summarise(&mut pass).records_per_s,
    );
    metrics.insert("frontend.reactor_stream_rss_mb", server.proc.peak_rss_mb()?);
    drop(writers);
    server.kill()?;
    Ok(())
}

fn sync_json(ctx: &Ctx, reactor: bool) -> Res<RunOutput> {
    let scratch = ScratchDir::create(if reactor {
        SYNC_JSON_REACTOR
    } else {
        SYNC_JSON
    })?;
    let spec = persist_spec(&scratch, false, reactor);
    let pool = Pool::generate(Data::Census, ctx.opts.seed, 1 << 16, 16, true);
    let mut out = RunOutput::default();
    let (up, mut writers) = bring_up(ctx, &spec, &mut out.metrics, |server| {
        census_writers(ctx, server, &pool, false)
    })?;
    let mut mixed = MixedPhase::open(ctx, &up.server, &pool, up.sessions[0], false)?;
    let traffic = Traffic {
        window: Writer::sync_window,
        trace: |w, on| w.tracer.enable(on),
    };
    let served = serve(
        ctx,
        &up,
        &mut writers,
        traffic,
        ctx.plan.main_windows,
        Some(&mut mixed),
        &mut out.metrics,
    )?;
    out.metrics.insert("records_per_s", served.records_per_s);
    out.metrics
        .insert("server_cpu_ns_per_record", served.cpu_ns_per_record);
    out.latency("submit_p50_us", served.submit_p50_us)?;
    out.latency("submit_p99_us", served.submit_tail_us)?;
    out.mixed_latencies(&mut mixed, false)?;
    if ctx.opts.trace {
        // cli.rs subtracts the ladder's dispatch cost from the CPU
        // figure to leave the front-end's own share.
        let (cpu, ctx_switches) = if reactor {
            (
                "frontend.reactor_cpu_us_per_req",
                "frontend.reactor_ctx_switches_per_req",
            )
        } else {
            (
                "frontend.threaded_cpu_us_per_req",
                "frontend.threaded_ctx_switches_per_req",
            )
        };
        out.metrics.insert(cpu, served.cpu_us_per_req);
        out.metrics
            .insert(ctx_switches, served.ctx_switches_per_req);
    }
    let ingested = out.absorb(all_conns(writers, mixed), &pool);
    out.finish(ctx, &spec, up, ingested.accepted, None)
}

fn http_read_write(ctx: &Ctx) -> Res<RunOutput> {
    let scratch = ScratchDir::create(HTTP_READ_WRITE)?;
    let spec = persist_spec(&scratch, true, false);
    let preload = Pool::generate(
        Data::Health,
        ctx.opts.seed,
        ctx.health_records(),
        4096,
        true,
    );
    let pool = Pool::generate(
        Data::Health,
        ctx.opts.seed ^ 0x5bd1_e995,
        1 << 16,
        256,
        true,
    );
    let preloaded = (preload.batches.len() * preload.batch_size()) as u64;
    let mut out = RunOutput::default();
    let (up, mut conns) = bring_up(ctx, &spec, &mut out.metrics, |server| {
        // Preload over the line protocol, pipelined: the HTTP
        // connections then start against a session that already holds
        // 2^20 records.
        let mut loader = Writer::new(Client::connect(server.addr)?, &preload, 0, 0, ctx.started);
        let session = create_session(&mut loader.client, Data::Health)?;
        if loader.load_pool(session)?.records != preloaded {
            return Err("preload was not fully accepted".into());
        }
        let http = server.http_addr.ok_or("server printed no http address")?;
        let cells = pool.schema.domain_size();
        let conns = vec![
            Mixed::Writer(Writer::new(
                HttpClient::connect(http)?,
                &pool,
                session,
                0,
                ctx.started,
            )),
            Mixed::Reader(Reader::new(
                HttpClient::connect(http)?,
                session,
                cells,
                1,
                ctx.started,
            )),
        ];
        Ok((conns, vec![session]))
    })?;
    // Reads beside writes is this workload's own traffic: the whole of
    // `--seconds` goes to it.
    let traffic = Traffic {
        window: Mixed::window,
        trace: Mixed::trace,
    };
    let windows = ctx.plan.main_windows + ctx.plan.mixed_windows / 2;
    let served = serve(
        ctx,
        &up,
        &mut conns,
        traffic,
        windows,
        None,
        &mut out.metrics,
    )?;
    out.metrics.insert("records_per_s", served.records_per_s);
    out.metrics
        .insert("server_cpu_ns_per_record", served.cpu_ns_per_record);
    out.latency("submit_p50_us", served.submit_p50_us)?;
    out.latency("submit_p99_us", served.submit_tail_us)?;
    out.latency("http.submit_p99_us", served.submit_tail_us)?;
    out.latency("reconstruct_p50_us", served.reconstruct_p50_us)?;
    out.latency("http.reconstruct_p99_us", served.reconstruct_tail_us)?;
    out.metrics
        .insert("http.reconstruct_bytes", served.reconstruct_bytes);
    let ingested = out.absorb(conns, &pool);
    out.finish(ctx, &spec, up, preloaded + ingested.accepted, None)
}

/// One `mine_lifecycle` loader and the sessions it fills, one per round.
struct Loader<'p> {
    writer: Writer<'p, Client>,
    sessions: Vec<u64>,
    round: usize,
}

fn mine_lifecycle(ctx: &Ctx) -> Res<RunOutput> {
    let scratch = ScratchDir::create(MINE_LIFECYCLE)?;
    let spec = persist_spec(&scratch, false, false);
    let pool = Pool::generate(
        Data::Health,
        ctx.opts.seed,
        ctx.health_records(),
        4096,
        true,
    );
    let per_session = (pool.batches.len() * pool.batch_size()) as u64;
    let mut out = RunOutput::default();
    let (up, mut loaders) = bring_up(ctx, &spec, &mut out.metrics, |server| {
        let mut loaders = Vec::new();
        for i in 0..CONNS {
            loaders.push(Loader {
                writer: Writer::new(Client::connect(server.addr)?, &pool, 0, i, ctx.started),
                sessions: Vec::new(),
                round: 0,
            });
        }
        let mut sessions = Vec::new();
        for i in 0..ctx.plan.mine_sessions {
            let id = create_session(&mut loaders[0].writer.client, Data::Health)?;
            loaders[i % CONNS].sessions.push(id);
            sessions.push(id);
        }
        Ok((loaders, sessions))
    })?;

    // The load, at fixed counts: in each round every loader fills one
    // session with the whole pool. A round is this workload's window;
    // on a traced run the last quarter of the rounds records spans.
    // The load is pipelined and write-only, so synchronous round trips
    // of the same 4096-record line, and reconstruct latency, come from
    // the mixed phase, on the first session to be loaded.
    let mut mixed = MixedPhase::open(ctx, &up.server, &pool, up.sessions[0], false)?;
    let rounds = ctx.plan.mine_sessions.div_ceil(CONNS);
    let traced_rounds = if ctx.opts.trace { rounds / 4 } else { 0 };
    let mut windows = Vec::new();
    for round in 0..rounds {
        if round + traced_rounds == rounds {
            loaders
                .iter_mut()
                .for_each(|l| l.writer.tracer.enable(true));
        }
        windows.push(run_window(
            &mut loaders,
            &up.server.proc,
            Duration::ZERO,
            |loader, _| {
                let Some(&session) = loader.sessions.get(loader.round) else {
                    return Ok(WinOut::default());
                };
                loader.round += 1;
                // `load_pool` holds the flush watermark against what it
                // queued: a session short of its pool is a violation.
                loader.writer.load_pool(session)
            },
        )?);
        // A mixed window after every round, twice as many as the
        // serving workloads take: the load is short, there is time, and
        // reconstruct beside 4096-record submits is the most bimodal
        // latency of all (it waits for a shard lock, or does not).
        mixed.window(ctx, &up.server)?;
    }
    let mut traced = windows.split_off(rounds - traced_rounds);
    let served = summarise(&mut windows);
    out.metrics.insert("records_per_s", served.records_per_s);
    out.metrics
        .insert("server_cpu_ns_per_record", served.cpu_ns_per_record);
    if !traced.is_empty() {
        let traced = summarise(&mut traced).records_per_s;
        out.metrics.insert(
            "trace.overhead_pct",
            100.0 * (served.records_per_s - traced) / served.records_per_s,
        );
    }
    out.mixed_latencies(&mut mixed, true)?;

    let mut loaded = 0;
    for loader in loaders {
        loaded += out.absorb_writer(loader.writer).accepted;
    }
    let expected = per_session * up.sessions.len() as u64;
    out.checks.check(loaded == expected, || {
        format!("{loaded} records accepted over all sessions, {expected} sent")
    });
    // The first session holds one full pool plus what the mixed phase
    // wrote, a count that depends on the clock; the second, exactly one
    // pool, is the one that is mined.
    let extra = out.absorb(mixed.conns, &pool);
    out.finish(ctx, &spec, up, per_session + extra.accepted, Some(&pool))
}
