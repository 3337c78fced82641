//! The environment block every report carries.

use crate::run::{Opts, Plan};
use frapp_service::json::{object, Value};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn file_line(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        l.strip_prefix(prefix)
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
    })
}

/// Where and how the numbers were taken.
pub fn environment(opts: &Opts) -> Value {
    let unknown = || "unknown".to_owned();
    object(vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        (
            "cpu_model",
            file_line("/proc/cpuinfo", "model name")
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "kernel",
            file_line("/proc/sys/kernel/osrelease", "")
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("plan", Plan::of(opts).describe().into()),
        (
            "generator",
            format!(
                "{} threads, {} connections, closed loop",
                crate::run::CONNS,
                crate::run::CONNS
            )
            .into(),
        ),
        ("network", "loopback, server out of process".into()),
        (
            "persistence",
            "fsync on (file and directory), as shipped".into(),
        ),
    ])
}
