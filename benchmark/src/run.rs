//! What every workload shares: the run plan, operation and check
//! accounting, and the window engine that drives one generator thread
//! per connection against a sampled server process.

use crate::procfs::{ProcReader, ProcSample};
use crate::trace::Span;
use frapp_service::ServiceError;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Generator threads and connections: at most `nproc` on the reference
/// box, so the generator never outnumbers the cores it shares with the
/// server.
pub const CONNS: usize = 2;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// How long and how often each phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    /// Timed windows of the workload's own traffic; medians over them
    /// are reported.
    pub main_windows: usize,
    /// Further main windows with span recording on (traced runs only).
    pub traced_windows: usize,
    /// Half-length windows of reads beside writes on the workload's
    /// session, interleaved with the main ones, for the metrics its own
    /// traffic does not produce.
    pub mixed_windows: usize,
    /// Server bring-ups per run; `setup_s` reports their median.
    pub setups: usize,
    /// Sessions loaded by `mine_lifecycle`.
    pub mine_sessions: usize,
    pub persists: usize,
    pub recovers: usize,
    /// `mine_rules` jobs per algorithm.
    pub mines: usize,
}

impl Plan {
    /// `--seconds` is split into sixteen windows of the workload's own
    /// traffic and eight half-length mixed windows spread among them
    /// (four fifths and one fifth of the time). Many short windows
    /// rather than few long ones: this box's speed drifts on a scale of
    /// seconds, and the summary over windows rides that out only if the
    /// windows sample different seconds.
    pub fn of(opts: &Opts) -> Plan {
        if opts.quick {
            return Plan {
                warmup: Duration::from_millis(200),
                window: Duration::from_millis(500),
                main_windows: 1,
                traced_windows: usize::from(opts.trace),
                mixed_windows: 1,
                setups: 1,
                mine_sessions: 2,
                persists: 2,
                recovers: 2,
                mines: 2,
            };
        }
        Plan {
            warmup: Duration::from_secs(2),
            window: Duration::from_secs_f64(opts.seconds as f64 / 20.0),
            // A traced run spends the same `--seconds`: untraced
            // windows for the baseline, then traced ones.
            main_windows: if opts.trace { 12 } else { 16 },
            traced_windows: if opts.trace { 4 } else { 0 },
            mixed_windows: 8,
            setups: 3,
            mine_sessions: ((32 * opts.seconds + 10) / 20).max(2) as usize,
            persists: 15,
            recovers: 9,
            mines: 6,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{:.1} s warm-up, {} x {:.1} s windows of the workload's traffic{} with {} half-length mixed read/write windows among them, interquartile mean over windows; {} bring-ups (median); {} persists, {} SIGKILL/recover rounds, {}+{} mine_rules (mine_lifecycle)",
            self.warmup.as_secs_f64(),
            self.main_windows,
            self.window.as_secs_f64(),
            if self.traced_windows > 0 {
                format!(" + {} traced", self.traced_windows)
            } else {
                String::new()
            },
            self.mixed_windows,
            self.setups,
            self.persists,
            self.recovers,
            self.mines,
            self.mines,
        )
    }
}

/// Client operations attempted and failed (refused in-band or errored).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one client call. An in-band refusal is a failed operation
    /// and yields `None`; a transport error ends the run.
    pub fn call<T>(&mut self, result: Result<T, ServiceError>) -> Res<Option<T>> {
        self.attempted += 1;
        match result {
            Ok(v) => Ok(Some(v)),
            Err(ServiceError::Remote { message, .. }) => {
                self.failed += 1;
                eprintln!("benchmark: server refused an operation: {message}");
                Ok(None)
            }
            Err(e) => {
                self.failed += 1;
                Err(e.into())
            }
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Output checks, evaluated after the clock stops. Any violation makes
/// the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.violations.push(what());
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.passed += other.passed;
        self.violations.extend(other.violations);
    }
}

/// Metric values by manifest name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Everything one run produced; its accounts while it is assembled.
#[derive(Default)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub ops: Ops,
    pub checks: Checks,
    pub spans: Vec<Span>,
}

/// One timed window: wall time, the server's counters at both edges,
/// and what each connection's generator reports.
pub struct Window<R> {
    pub elapsed: Duration,
    pub before: ProcSample,
    pub after: ProcSample,
    pub per_conn: Vec<R>,
}

impl<R> Window<R> {
    pub fn server_cpu_ns(&self) -> u64 {
        self.after.cpu_ns - self.before.cpu_ns
    }

    pub fn ctx_switches(&self) -> u64 {
        self.after.ctx_switches - self.before.ctx_switches
    }
}

/// Runs `work` once per connection, each on its own thread, until the
/// shared deadline (closed loop: a generator sends its next request
/// only when the shipped client returns from the previous one). The
/// server's `/proc` counters are read just outside the timed region.
pub fn run_window<C: Send, R: Send>(
    conns: &mut [C],
    proc: &ProcReader,
    length: Duration,
    work: impl Fn(&mut C, Instant) -> Res<R> + Sync,
) -> Res<Window<R>> {
    let before = proc.sample()?;
    let start = Instant::now();
    let deadline = start + length;
    let work = &work;
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(move || work(conn, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<Res<Vec<R>>>()
    })?;
    let elapsed = start.elapsed();
    let after = proc.sample()?;
    Ok(Window {
        elapsed,
        before,
        after,
        per_conn,
    })
}

/// A scratch directory under `benchmark/out`, removed on drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> std::io::Result<Self> {
        let path = std::path::Path::new("benchmark/out")
            .join(format!("tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
