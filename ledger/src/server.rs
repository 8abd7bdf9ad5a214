//! The real `cay serve` process: spawn it, talk to its control plane,
//! and read its CPU and memory from `/proc`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `cay serve`; killed and reaped on drop if still alive.
pub struct Server {
    child: Child,
    /// Held open so the server's stderr never breaks.
    _stderr: BufReader<ChildStderr>,
    pub udp: SocketAddrV4,
    pub control: SocketAddr,
}

impl Server {
    /// Start `cay serve` on ephemeral loopback ports and read the bound
    /// addresses off its `serving:` line.
    pub fn spawn(
        cay: &Path,
        geo: &Path,
        rollout: &Path,
        upstream: SocketAddr,
    ) -> io::Result<Server> {
        let mut child = Command::new(cay)
            .args([
                "serve",
                "--udp",
                "127.0.0.1:0",
                "--control",
                "127.0.0.1:0",
                "--backend",
                "epoll",
            ])
            .arg("--upstream")
            .arg(upstream.to_string())
            .arg("--geo")
            .arg(geo)
            .arg("--rollout")
            .arg(rollout)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        stderr.read_line(&mut line)?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .and_then(|v| v.parse::<SocketAddr>().ok())
        };
        match (field("udp="), field("control=")) {
            (Some(SocketAddr::V4(udp)), Some(control)) => Ok(Server {
                child,
                _stderr: stderr,
                udp,
                control,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "cay serve did not start: {}",
                    line.trim()
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Pin `cay-data` to `pins.data` and every other thread to any
    /// allowed CPU (they inherit the ledger's own pin otherwise).
    pub fn pin_threads(&self, pins: &Pins) -> io::Result<()> {
        for entry in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let path = entry?.path();
            let comm = std::fs::read_to_string(path.join("comm"))?;
            let tid = path
                .file_name()
                .map(|t| t.to_string_lossy().to_string())
                .unwrap_or_default();
            let cpus = if comm.trim() == "cay-data" {
                &pins.data
            } else {
                &pins.any
            };
            pin(&tid, cpus)?;
        }
        Ok(())
    }

    /// Poll `GET /ready` until it answers 200.
    pub fn wait_ready(&self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = get(self.control, "/ready") {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("cay serve never became ready"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn status(&self) -> io::Result<Status> {
        let (code, body) = get(self.control, "/status")?;
        if code != 200 {
            return Err(io::Error::other(format!("/status answered {code}")));
        }
        Status::parse(&body)
            .ok_or_else(|| io::Error::other(format!("unexpected /status body: {body}")))
    }

    /// Scheduler run time of every thread, total and for the two named
    /// service threads.
    pub fn cpu(&self) -> io::Result<Cpu> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut cpu = Cpu::default();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let comm = std::fs::read_to_string(path.join("comm"))?;
            let ns = first_u64(&std::fs::read_to_string(path.join("schedstat"))?);
            cpu.total_ns += ns;
            match comm.trim() {
                "cay-data" => cpu.data_ns += ns,
                "cay-control" => cpu.control_ns += ns,
                _ => {}
            }
        }
        Ok(cpu)
    }

    /// Peak resident set (`VmHWM`), KiB.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .map(first_u64)
            .ok_or_else(|| io::Error::other("no VmHWM"))
    }

    /// `POST /shutdown` and wait (up to 5 s) for a clean exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        post(self.control, "/shutdown", "")?;
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("cay serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("cay serve did not drain within 5 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// CPU time in ns (from `/proc/<pid>/task/*/schedstat`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Cpu {
    pub total_ns: u64,
    pub data_ns: u64,
    pub control_ns: u64,
}

/// The `/status` counters the ledger uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct Status {
    pub frames_in: u64,
    pub frames_out: u64,
    pub parse_errors: u64,
    pub unroutable: u64,
    pub syscalls: u64,
    pub recv_batches: u64,
    pub backpressure: u64,
}

impl Status {
    fn parse(body: &str) -> Option<Status> {
        Some(Status {
            frames_in: json_u64(body, "frames_in")?,
            frames_out: json_u64(body, "frames_out")?,
            parse_errors: json_u64(body, "parse_errors")?,
            unroutable: json_u64(body, "unroutable")?,
            syscalls: json_u64(body, "syscalls")?,
            recv_batches: json_u64(body, "recv_batches")?,
            backpressure: json_u64(body, "egress_backpressure_events")?,
        })
    }

    /// Both counts added.
    pub fn plus(&self, other: &Status) -> Status {
        Status {
            frames_in: self.frames_in + other.frames_in,
            frames_out: self.frames_out + other.frames_out,
            parse_errors: self.parse_errors + other.parse_errors,
            unroutable: self.unroutable + other.unroutable,
            syscalls: self.syscalls + other.syscalls,
            recv_batches: self.recv_batches + other.recv_batches,
            backpressure: self.backpressure + other.backpressure,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Status) -> Status {
        Status {
            frames_in: self.frames_in - earlier.frames_in,
            frames_out: self.frames_out - earlier.frames_out,
            parse_errors: self.parse_errors - earlier.parse_errors,
            unroutable: self.unroutable - earlier.unroutable,
            syscalls: self.syscalls - earlier.syscalls,
            recv_batches: self.recv_batches - earlier.recv_batches,
            backpressure: self.backpressure - earlier.backpressure,
        }
    }
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn first_u64(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0)
}

/// One HTTP/1.1 exchange (the control plane closes each connection).
pub fn http(addr: SocketAddr, request: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: cay\r\n\r\n"))
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: cay\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Where the busy threads run. With two CPUs the kernel likes to put a
/// frame's sender and its receiver on the same one, which halves
/// saturation throughput for as long as the placement lasts; pinned
/// apart, every run measures the same arrangement.
pub struct Pins {
    /// The generator.
    pub generator: String,
    /// `cay-data`, or the traced run's in-process loop.
    pub data: String,
    /// Everything else.
    pub any: String,
}

impl Pins {
    /// The first two CPUs this process may use, or `None` with fewer.
    pub fn from_allowed() -> Option<Pins> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
            .trim()
            .to_string();
        let mut cpus = list.split(',').flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let (lo, hi): (u32, u32) = (lo.parse().unwrap_or(0), hi.parse().unwrap_or(0));
            lo..=hi
        });
        let (generator, data) = (cpus.next()?, cpus.next()?);
        Some(Pins {
            generator: generator.to_string(),
            data: data.to_string(),
            any: list,
        })
    }
}

/// Set thread `tid`'s CPU affinity (`taskset -p -c`).
pub fn pin(tid: &str, cpus: &str) -> io::Result<()> {
    let status = Command::new("taskset")
        .args(["-p", "-c", cpus, tid])
        .stdout(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "taskset -p -c {cpus} {tid}: {status}"
        )))
    }
}

/// This thread's id.
pub fn current_tid() -> io::Result<String> {
    let link = std::fs::read_link("/proc/thread-self")?;
    Ok(link
        .file_name()
        .map(|t| t.to_string_lossy().to_string())
        .unwrap_or_default())
}

/// Pin the calling thread.
pub fn pin_self(cpus: &str) -> io::Result<()> {
    pin(&current_tid()?, cpus)
}

/// How long this thread has been runnable, ns: on a CPU plus waiting
/// for one (the first two fields of its `schedstat`).
pub fn thread_runnable_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .map(|s| {
            s.split_whitespace()
                .take(2)
                .filter_map(|t| t.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0)
}
