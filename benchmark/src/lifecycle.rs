//! The operator/analyst path: `persist`, SIGKILL and recover, then
//! `mine_rules` with result transport and accuracy against exact
//! Apriori. Every workload persists and recovers the sessions it built;
//! only `mine_lifecycle` mines.

use crate::inputs::{accuracy, exact_frequent, frequent_of_result, MIN_SUPPORT};
use crate::run::{Checks, Plan, Res, RunOutput};
use crate::serverproc::{ServerProc, ServerSpec};
use crate::stats::median;
use crate::trace::Tracer;
use frapp_core::schema::Schema;
use frapp_service::json::{self, Value};
use frapp_service::session::{Reconstruction, ReconstructionMethod};
use frapp_service::{Client, MineAlgo, MineSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Verifies one clamped reconstruction: one estimate per cell, and
/// estimates summing to `n`.
pub fn check_reconstruction(checks: &mut Checks, rec: &Reconstruction, cells: usize, what: &str) {
    checks.check(rec.estimates.len() == cells, || {
        format!(
            "{what}: {} estimates, expected {cells}",
            rec.estimates.len()
        )
    });
    let sum: f64 = rec.estimates.iter().sum();
    checks.check((sum - rec.n as f64).abs() <= 1e-6 * rec.n as f64, || {
        format!("{what}: estimates sum to {sum}, n is {}", rec.n)
    });
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `persist` over every live session (fsync on, as shipped), then
/// crash and recover: after each SIGKILL the restarted server must
/// hold every session and answer the primary's unclamped
/// reconstruction bit for bit. Returns the last incarnation.
pub fn persist_and_recover(
    binary: &Path,
    spec: &ServerSpec,
    plan: &Plan,
    mut server: ServerProc,
    sessions: &[u64],
    acc: &mut RunOutput,
    tracer: &mut Tracer,
) -> Res<ServerProc> {
    let primary = sessions[0];
    let mut ctl = Client::connect(server.addr)?;
    let phase = tracer.open("persist_and_recover");
    let mut want = sessions.to_vec();
    want.sort_unstable();

    let mut persist_ms = Vec::new();
    for _ in 0..plan.persists {
        let start = Instant::now();
        let persisted = tracer.span("persist", || acc.ops.call(ctl.persist(None)))?;
        persist_ms.push(ms(start.elapsed()));
        if let Some(mut ids) = persisted {
            ids.sort_unstable();
            acc.checks.check(ids == want, || {
                format!("persist covered sessions {ids:?}, expected {want:?}")
            });
        }
    }
    acc.metrics.insert("persist_ms", median(&persist_ms));

    let before = acc
        .ops
        .call(ctl.reconstruct(primary, ReconstructionMethod::ClosedForm, false))?
        .ok_or("pre-kill reconstruct was refused")?;
    // The process that served the workload ends here: its high-water
    // mark is the run's.
    acc.metrics
        .insert("server_peak_rss_mb", server.proc.peak_rss_mb()?);
    let mut recover_ms = Vec::new();
    for round in 0..plan.recovers {
        drop(ctl);
        server.kill()?;
        let start = Instant::now();
        server = ServerProc::spawn(binary, spec)?;
        ctl = Client::connect(server.addr)?;
        let after =
            acc.ops
                .call(ctl.reconstruct(primary, ReconstructionMethod::ClosedForm, false))?;
        let end = Instant::now();
        tracer.record("recover", start, end);
        recover_ms.push(ms(end - start));
        let identical = after.as_ref().is_some_and(|a| {
            a.n == before.n
                && a.estimates.len() == before.estimates.len()
                && a.estimates
                    .iter()
                    .zip(&before.estimates)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
        acc.checks.check(identical, || {
            format!("recovery {round}: reconstruction differs from the pre-kill one")
        });
    }
    acc.metrics.insert("recover_ms", median(&recover_ms));
    let mut recovered = acc.ops.call(ctl.list_sessions())?.unwrap_or_default();
    recovered.sort_unstable();
    acc.checks.check(recovered == want, || {
        format!("sessions after recovery are {recovered:?}, expected {want:?}")
    });
    tracer.close(phase);
    Ok(server)
}

/// Mining as the analyst sees it: `mine_rules` sent to parsed result in
/// hand through the shipped wait/poll client, `plan.mines` times per
/// algorithm; the first Apriori result is scored against exact Apriori
/// over `truth`, the raw histogram of what `session` received.
pub fn mine(
    server: &ServerProc,
    plan: &Plan,
    schema: &Schema,
    session: u64,
    truth: &[f64],
    acc: &mut RunOutput,
    tracer: &mut Tracer,
) -> Res<()> {
    let mut ctl = Client::connect(server.addr)?;
    let phase = tracer.open("mine");
    let reference = exact_frequent(schema, truth);
    let (mut wall_ms, mut queue_wait_ms) = (Vec::new(), Vec::new());
    let mut scored = false;
    for (algo, metric) in [
        (MineAlgo::Apriori, "mine_apriori_ms"),
        (MineAlgo::FpGrowth, "mine_fpgrowth_ms"),
    ] {
        let spec = MineSpec {
            algo,
            min_support: MIN_SUPPORT,
            ..MineSpec::default()
        };
        let mut total_ms = Vec::new();
        let mut profiles: Vec<Vec<usize>> = Vec::new();
        for _ in 0..plan.mines {
            let start = Instant::now();
            let job = tracer.span("mine_rules", || {
                acc.ops.call(ctl.mine_rules(session, &spec))
            })?;
            let Some(job) = job else { continue };
            let status = tracer.span("wait_job", || {
                acc.ops.call(ctl.wait_job(job, Duration::from_secs(60)))
            })?;
            let done = Instant::now();
            let result = tracer.span("job_result", || acc.ops.call(ctl.job_result(job)))?;
            let end = Instant::now();
            let (Some(status), Some(result)) = (status, result) else {
                continue;
            };
            total_ms.push(ms(end - start));
            let wall = status.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
            wall_ms.push(wall);
            // Queue wait plus the shipped client's 10 ms poll quantum.
            queue_wait_ms.push((ms(done - start) - wall).max(0.0));
            let Some(mined) = frequent_of_result(&result) else {
                acc.checks
                    .check(false, || "job_result carries no itemsets".into());
                continue;
            };
            profiles.push(mined.length_profile());
            let n = result.get("n").and_then(Value::as_u64);
            let held: f64 = truth.iter().sum();
            acc.checks.check(n == Some(held as u64), || {
                format!("mined over n = {n:?}, the session was sent {held} records")
            });
            if !scored {
                scored = true;
                let a = accuracy(&reference, &mined);
                acc.metrics.insert("support_error_pct", a.support_error);
                acc.metrics.insert("false_positive_pct", a.false_positives);
                acc.metrics.insert("false_negative_pct", a.false_negatives);
                let text = result.to_json();
                acc.metrics.insert("jobs.result_bytes", text.len() as f64);
                let parse = Instant::now();
                json::parse(&text)?;
                acc.metrics
                    .insert("client.result_parse_ms", ms(parse.elapsed()));
            }
        }
        acc.checks.check(profiles.len() == plan.mines, || {
            format!(
                "{} of {} {metric} jobs finished",
                profiles.len(),
                plan.mines
            )
        });
        acc.checks
            .check(profiles.windows(2).all(|p| p[0] == p[1]), || {
                format!("{metric}: itemset counts per level differ across repeats: {profiles:?}")
            });
        if !total_ms.is_empty() {
            acc.metrics.insert(metric, median(&total_ms));
        }
    }
    if !wall_ms.is_empty() {
        acc.metrics.insert("jobs.wall_ms", median(&wall_ms));
        acc.metrics
            .insert("jobs.queue_wait_ms", median(&queue_wait_ms));
    }
    tracer.close(phase);
    Ok(())
}
