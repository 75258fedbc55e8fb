//! The load generator: one thread per connection, writing pre-generated
//! DTB bytes on a schedule (open loop) or as fast as a window of unacked
//! samples allows (closed loop), and reading the server's cumulative
//! acknowledgements on the same thread.

use crate::workload::{Cursor, Lap};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Latency tag of frames that belong to no measured phase.
pub const UNMEASURED: usize = usize::MAX;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Block until `sock` is readable (or writable, with `out`) or `timeout`
/// passes. `ppoll` takes a nanosecond timeout, so the open-loop schedule
/// is not rounded to the scheduler tick the socket timeouts use.
fn wait(sock: &TcpStream, out: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN | if out { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds`
    // is 1 for the single `pollfd`, and a null signal mask leaves the
    // thread's mask unchanged. The fd stays open while `sock` is borrowed.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// One load connection and everything measured on it.
pub struct Conn {
    sock: TcpStream,
    /// Frames handed out so far.
    pub cursor: Cursor,
    /// Bytes written so far (trails `cursor.bytes`).
    pub written: u64,
    /// Highest cumulative acknowledgement read.
    pub acked: u64,
    partial: Vec<u8>,
    /// Frames sent and not yet acknowledged: (cumulative samples at the
    /// frame's end, due time, latency tag).
    pending: VecDeque<(u64, Instant, usize)>,
    /// Due-to-ack latencies in ms, per tag.
    pub latencies: Vec<Vec<f64>>,
    /// Frames never acknowledged, per tag (filled by [`Conn::close`]).
    pub unacked: Vec<u64>,
    /// Samples handed out, per tag.
    pub tag_samples: Vec<u64>,
    /// How late each open-loop write went out, ms.
    pub late_ms: Vec<f64>,
    /// This thread's CPU and wall time over open-loop schedules, ns.
    pub gen_cpu_ns: u64,
    pub gen_wall_ns: u64,
    pub error: Option<String>,
}

/// One open-loop segment: a fixed rate (samples/s on this connection)
/// for a fixed time, split into `subs` equal windows whose frames carry
/// the latency tags `tag..tag + subs` (none with `UNMEASURED`).
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub rate: f64,
    pub secs: f64,
    pub tag: usize,
    pub subs: usize,
}

impl Conn {
    /// Connect and read the 6-byte handshake. Returns the connection and
    /// the instant the handshake was read.
    pub fn open(addr: &str, tags: usize) -> Result<(Conn, Instant), String> {
        let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let mut hello = [0u8; 6];
        sock.read_exact(&mut hello)
            .map_err(|e| format!("handshake: {e}"))?;
        let at = Instant::now();
        if &hello[..4] != b"DPS1" {
            return Err(format!("unexpected handshake {hello:?}"));
        }
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok((
            Conn {
                sock,
                cursor: Cursor::default(),
                written: 0,
                acked: 0,
                partial: Vec::with_capacity(8),
                pending: VecDeque::new(),
                latencies: vec![Vec::new(); tags],
                unacked: vec![0; tags],
                tag_samples: vec![0; tags],
                late_ms: Vec::new(),
                gen_cpu_ns: 0,
                gen_wall_ns: 0,
                error: None,
            },
            at,
        ))
    }

    fn hand_out(&mut self, lap: &Lap, due: Instant, tag: usize) -> u64 {
        let n = self.cursor.advance(lap) as u64;
        self.pending.push_back((self.cursor.samples, due, tag));
        if tag != UNMEASURED {
            self.tag_samples[tag] += n;
        }
        n
    }

    /// Write whatever has been handed out; returns whether bytes remain.
    fn flush(&mut self, lap: &Lap) -> bool {
        while self.written < self.cursor.bytes {
            let len = lap.bytes.len() as u64;
            let off = (self.written % len) as usize;
            let end = (off as u64 + (self.cursor.bytes - self.written)).min(len) as usize;
            match self.sock.write(&lap.bytes[off..end]) {
                Ok(n) => self.written += n as u64,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.error.get_or_insert(format!("write: {e}"));
                    return false;
                }
            }
        }
        false
    }

    /// Read every acknowledgement available now; returns `false` at EOF.
    fn read_acks(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    let now = Instant::now();
                    for &b in &buf[..n] {
                        self.partial.push(b);
                        if self.partial.len() == 8 {
                            let v = u64::from_le_bytes(self.partial[..].try_into().expect("8"));
                            self.partial.clear();
                            self.ack(v, now);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    self.error.get_or_insert(format!("read: {e}"));
                    return false;
                }
            }
        }
    }

    fn ack(&mut self, v: u64, now: Instant) {
        self.acked = self.acked.max(v);
        while let Some(&(cum, due, tag)) = self.pending.front() {
            if cum > v {
                break;
            }
            self.pending.pop_front();
            if tag != UNMEASURED {
                self.latencies[tag].push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
    }

    /// Run open-loop segments back to back from `start`: every `tick` the
    /// samples due in the next interval are handed out and written, all
    /// stamped with the tick's due time. After the last tick, keep
    /// reading acknowledgements for up to `linger`.
    pub fn open_loop(
        &mut self,
        lap: &Lap,
        segments: &[Segment],
        start: Instant,
        tick: Duration,
        linger: Duration,
    ) {
        let cpu0 = crate::probe::self_thread_cpu_ns();
        let mut seg_start = start;
        for seg in segments {
            let ticks = (seg.secs / tick.as_secs_f64()).round() as u64;
            let per_tick = seg.rate * tick.as_secs_f64();
            let mut sent = 0u64;
            let mut k = 0u64;
            loop {
                let now = Instant::now();
                while k < ticks && seg_start + tick * k as u32 <= now {
                    let due = seg_start + tick * k as u32;
                    self.late_ms
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
                    let target = (per_tick * (k + 1) as f64) as u64;
                    let tag = if seg.tag == UNMEASURED {
                        UNMEASURED
                    } else {
                        seg.tag + (k as usize * seg.subs) / ticks as usize
                    };
                    while sent < target {
                        sent += self.hand_out(lap, due, tag);
                    }
                    k += 1;
                }
                let blocked = self.flush(lap);
                if !self.read_acks() {
                    self.error
                        .get_or_insert("server closed the connection".into());
                }
                if self.error.is_some() {
                    return;
                }
                if k == ticks && !blocked {
                    break;
                }
                let next = seg_start + tick * k.min(ticks.saturating_sub(1)) as u32;
                let timeout = if k < ticks {
                    next.saturating_duration_since(Instant::now())
                } else {
                    Duration::from_millis(1)
                };
                if !timeout.is_zero() {
                    wait(&self.sock, blocked, timeout);
                }
            }
            seg_start += tick * ticks as u32;
        }
        let end = Instant::now();
        self.gen_cpu_ns += crate::probe::self_thread_cpu_ns().saturating_sub(cpu0);
        self.gen_wall_ns += end.saturating_duration_since(start).as_nanos() as u64;
        let deadline = end + linger;
        while !self.pending.is_empty() && Instant::now() < deadline {
            wait(
                &self.sock,
                false,
                deadline.saturating_duration_since(Instant::now()),
            );
            if !self.read_acks() {
                return;
            }
        }
    }

    /// Closed loop: send `samples` samples as fast as the server takes
    /// them, keeping at most `window` samples unacknowledged. Returns the
    /// instant the first byte went out.
    pub fn closed_loop(&mut self, lap: &Lap, samples: u64, window: u64) -> Instant {
        let first = Instant::now();
        let goal = self.cursor.samples + samples;
        loop {
            while self.cursor.samples < goal && self.cursor.samples - self.acked < window {
                self.hand_out(lap, first, UNMEASURED);
            }
            let blocked = self.flush(lap);
            if !self.read_acks() {
                self.error
                    .get_or_insert("server closed the connection".into());
            }
            if self.error.is_some() {
                break;
            }
            if self.cursor.samples >= goal && !blocked {
                break;
            }
            wait(&self.sock, blocked, Duration::from_millis(5));
        }
        first
    }

    /// Close the write side, read acknowledgements until the server
    /// closes, and count frames that were never acknowledged.
    pub fn close(&mut self, timeout: Duration) {
        let _ = self.sock.shutdown(Shutdown::Write);
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if !self.read_acks() {
                break;
            }
            wait(&self.sock, false, Duration::from_millis(20));
        }
        for &(_, _, tag) in &self.pending {
            if tag != UNMEASURED {
                self.unacked[tag] += 1;
            }
        }
    }

    /// Samples handed out and not acknowledged.
    pub fn unacked_samples(&self) -> u64 {
        self.cursor.samples.saturating_sub(self.acked)
    }
}
