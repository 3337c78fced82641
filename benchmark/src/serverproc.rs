//! The shipped `frapp-serve` binary as a child process.

use crate::procfs::ProcReader;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// How to start the server: everything but these flags is the shipped
/// default.
#[derive(Debug, Clone, Default)]
pub struct ServerSpec {
    /// Also bind the HTTP front-end (`--http-addr 127.0.0.1:0`).
    pub http: bool,
    /// `--async`: the reactor front-end.
    pub reactor: bool,
    /// `--persist-dir`.
    pub persist_dir: Option<PathBuf>,
}

/// A running `frapp-serve`. Killed (SIGKILL) and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Held open, never read again: the server prints a few more lines
    /// after its addresses and would die on a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub http_addr: Option<SocketAddr>,
    pub proc: ProcReader,
}

/// `frapp-serve` beside this executable, where `run.sh` builds both.
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe
        .parent()
        .map(|dir| dir.join("frapp-serve"))
        .filter(|p| p.is_file());
    path.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "frapp-serve not found beside the benchmark binary; run benchmark/run.sh, which builds it",
        )
    })
}

impl ServerProc {
    /// Spawns the server and waits until it has printed its address(es).
    pub fn spawn(binary: &Path, spec: &ServerSpec) -> io::Result<Self> {
        let mut cmd = Command::new(binary);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if spec.http {
            cmd.args(["--http-addr", "127.0.0.1:0"]);
        }
        if spec.reactor {
            cmd.arg("--async");
        }
        if let Some(dir) = &spec.persist_dir {
            cmd.arg("--persist-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let parsed = read_addresses(&mut stdout, spec.http);
        let (addr, http_addr) = match parsed {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let proc = ProcReader::new(child.id());
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
            http_addr,
            proc,
        })
    }

    /// SIGKILL, then wait for the process to end.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Already-exited children make both calls fail; nothing to do.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reads `frapp-serve listening on A` (and `frapp-serve http on B`).
fn read_addresses(
    stdout: &mut impl BufRead,
    want_http: bool,
) -> io::Result<(SocketAddr, Option<SocketAddr>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let (mut addr, mut http) = (None, None);
    let mut line = String::new();
    while addr.is_none() || (want_http && http.is_none()) {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(bad("frapp-serve exited before printing its address"));
        }
        let parse = |rest: &str| {
            rest.trim()
                .parse::<SocketAddr>()
                .map_err(|_| bad("unparseable server address"))
        };
        if let Some(rest) = line.strip_prefix("frapp-serve listening on ") {
            addr = Some(parse(rest)?);
        } else if let Some(rest) = line.strip_prefix("frapp-serve http on ") {
            http = Some(parse(rest)?);
        }
    }
    Ok((addr.expect("loop exits with an address"), http))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_startup_lines() {
        let mut out = io::Cursor::new(
            "frapp-serve listening on 127.0.0.1:4101\nfrapp-serve http on 127.0.0.1:4102\nfront-end: async reactor (1 thread(s))\n",
        );
        let (addr, http) = read_addresses(&mut out, true).unwrap();
        assert_eq!(addr.port(), 4101);
        assert_eq!(http.unwrap().port(), 4102);
        let mut early_exit = io::Cursor::new("frapp-serve: bind failed\n");
        assert!(read_addresses(&mut early_exit, false).is_err());
    }
}
