//! Runs the program under test as a child process and measures it.
//!
//! Wall time comes from a clock read around spawn and reap; CPU time and
//! peak resident set come from the kernel's accounting for that one
//! child, read with `wait4(2)` when it is reaped.
//!
//! Linux keeps a process's peak resident set across `execve`, and a
//! spawned child starts as a copy of its parent (or, spawned with
//! `vfork`, as its parent), so the child's `ru_maxrss` is never below the
//! parent's own peak. The benchmark holds whole analyses in memory, so it
//! does not spawn the program itself: a [`Spawner`], a copy of the
//! benchmark started before it allocates anything, spawns every timed
//! child and reports what [`run`] measured.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::clock;

/// One finished child process.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kib: i64,
}

/// `struct timeval` as the kernel lays it out on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as the kernel lays it out on 64-bit Linux: two
/// timevals, then fourteen longs of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

impl Timeval {
    fn secs(self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// Runs `program args…` to completion, capturing stdout. Stderr goes to
/// `stderr_to`, so a chatty child can never block on a full pipe.
pub fn run(program: &Path, args: &[&str], stderr_to: &Path) -> Result<ChildRun, String> {
    let stderr = File::create(stderr_to).map_err(|e| format!("{}: {e}", stderr_to.display()))?;
    let started = clock::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        // tcpa-lint: allow(thread-spawn-audit) -- a child process, not a thread: the program under test
        .spawn()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .map(|mut pipe| pipe.read_to_end(&mut stdout));
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable locals whose layouts
    // match what the kernel writes (`int` and 64-bit `struct rusage`), and
    // `pid` names our own unreaped child. `std` never reaps it behind our
    // back: `Child` only reaps in `wait`/`try_wait`, which we do not call.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    if let Some(Err(e)) = read {
        return Err(format!("reading child stdout: {e}"));
    }
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        stdout,
        code,
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        maxrss_kib: usage.longs[0],
    })
}

/// The flag that starts a copy of the benchmark as a [`Spawner`].
pub const SPAWNER_FLAG: &str = "--spawner";

/// A small helper process that spawns and measures children on request.
///
/// Requests are one line each: the stderr file, the program and its
/// arguments, tab-separated. Each reply is a header line, `ok CODE WALL
/// CPU MAXRSS LEN` (floats as their bit patterns) followed by `LEN` bytes
/// of the child's stdout, or `err MESSAGE`.
pub struct Spawner {
    inner: RefCell<Option<Pipes>>,
}

struct Pipes {
    process: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts `exe --spawner`. Call it while the caller is still small.
    pub fn start(exe: &Path) -> Result<Spawner, String> {
        let mut process = Command::new(exe)
            .arg(SPAWNER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // tcpa-lint: allow(thread-spawn-audit) -- a helper process, not a thread; stopped and reaped in `stop`
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let pipes = match (process.stdin.take(), process.stdout.take()) {
            (Some(requests), Some(replies)) => Pipes {
                process,
                requests,
                replies: BufReader::new(replies),
            },
            _ => return Err("spawner pipes missing".into()),
        };
        Ok(Spawner {
            inner: RefCell::new(Some(pipes)),
        })
    }

    /// Runs `program args…` in the helper, as [`run`] would.
    pub fn run(&self, program: &Path, args: &[&str], stderr_to: &Path) -> Result<ChildRun, String> {
        let mut guard = self.inner.borrow_mut();
        let pipes = guard.as_mut().ok_or("spawner already stopped")?;
        let mut line = format!("{}\t{}", stderr_to.display(), program.display());
        for arg in args {
            line.push('\t');
            line.push_str(arg);
        }
        line.push('\n');
        pipes
            .requests
            .write_all(line.as_bytes())
            .and_then(|()| pipes.requests.flush())
            .map_err(|e| format!("spawner request: {e}"))?;
        let mut header = String::new();
        pipes
            .replies
            .read_line(&mut header)
            .map_err(|e| format!("spawner reply: {e}"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        match fields.as_slice() {
            ["ok", code, wall, cpu, rss, len] => {
                let num = |s: &str| {
                    s.parse::<i64>()
                        .map_err(|e| format!("spawner reply {s}: {e}"))
                };
                let bits = |s: &str| {
                    s.parse::<u64>()
                        .map(f64::from_bits)
                        .map_err(|e| format!("spawner reply {s}: {e}"))
                };
                let len = usize::try_from(num(len)?).map_err(|e| e.to_string())?;
                let mut stdout = vec![0u8; len];
                pipes
                    .replies
                    .read_exact(&mut stdout)
                    .map_err(|e| format!("spawner reply body: {e}"))?;
                let code = num(code)?;
                Ok(ChildRun {
                    stdout,
                    code: (code >= 0).then(|| i32::try_from(code).unwrap_or(i32::MAX)),
                    wall_s: bits(wall)?,
                    cpu_s: bits(cpu)?,
                    maxrss_kib: num(rss)?,
                })
            }
            _ => Err(format!("spawner: {}", header.trim())),
        }
    }

    /// Closes the helper's input and waits for it to exit.
    pub fn stop(&self) -> Result<(), String> {
        let Some(Pipes {
            mut process,
            requests,
            replies,
        }) = self.inner.borrow_mut().take()
        else {
            return Ok(());
        };
        drop(requests);
        drop(replies);
        let status = process.wait().map_err(|e| format!("spawner: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("spawner exited with {status}"))
        }
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// The helper's loop: serve requests from stdin until it closes.
pub fn serve() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("spawner stdin: {e}"))?;
        let mut parts = line.split('\t');
        let (Some(stderr_to), Some(program)) = (parts.next(), parts.next()) else {
            return Err(format!("bad spawner request {line:?}"));
        };
        let args: Vec<&str> = parts.collect();
        let reply = match run(&PathBuf::from(program), &args, Path::new(stderr_to)) {
            Ok(r) => {
                let mut reply = format!(
                    "ok {} {} {} {} {}\n",
                    r.code.map_or(-1, i64::from),
                    r.wall_s.to_bits(),
                    r.cpu_s.to_bits(),
                    r.maxrss_kib,
                    r.stdout.len()
                )
                .into_bytes();
                reply.extend_from_slice(&r.stdout);
                reply
            }
            Err(e) => format!("err {}\n", e.replace('\n', " ")).into_bytes(),
        };
        stdout
            .write_all(&reply)
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("spawner stdout: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopped_spawner_refuses_requests() {
        let err = std::env::temp_dir().join(format!("perfbench-spawn-{}", std::process::id()));
        let spawner = Spawner {
            inner: RefCell::new(None),
        };
        assert!(spawner.run(Path::new("/bin/true"), &[], &err).is_err());
        assert!(spawner.stop().is_ok());
    }

    #[test]
    fn measures_a_shell_child() {
        let err = std::env::temp_dir().join(format!("perfbench-child-{}", std::process::id()));
        let run = run(Path::new("/bin/sh"), &["-c", "echo hi; exit 3"], &err).expect("runs");
        let _ = std::fs::remove_file(&err);
        assert_eq!(run.stdout, b"hi\n");
        assert_eq!(run.code, Some(3));
        assert!(run.wall_s > 0.0);
        assert!(run.maxrss_kib > 0);
    }
}
