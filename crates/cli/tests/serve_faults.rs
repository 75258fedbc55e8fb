//! Fault injection for `dpd serve`.
//!
//! Two layers:
//!
//! * **In-process** — a [`DpdServer`] under hostile clients: a stall
//!   mid-frame, an abrupt disconnect mid-frame and an oversized frame
//!   must each shed/close *only* the offending connection; a healthy
//!   connection sharing the server is unaffected, byte for byte.
//! * **Subprocess** — the crash harness extended over TCP: a
//!   `dpd serve --checkpoint` process is `SIGKILL`ed mid-stream after a
//!   durable checkpoint, a second process `--resume`s, the client
//!   resends everything past the last durable cut, and the final
//!   detector state is *bit-identical* to an uninterrupted serve of the
//!   same corpus (checkpoint files compared byte for byte).

use dpd_core::pipeline::DpdBuilder;
use dpd_trace::dtb::{self, Block, DtbReader, DtbWriter};
use dpd_trace::pile::EpochMarker;
use par_runtime::net::{DpdServer, NetConfig, HANDSHAKE_MAGIC, PROTOCOL_VERSION};
use par_runtime::service::MultiStreamDpd;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fresh scratch directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpd-serve-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small multi-stream corpus as DTB bytes: `streams` periodic event
/// streams of `len` samples each, interleaved in 64-sample frames.
fn corpus(streams: usize, len: usize) -> Vec<u8> {
    let mut w = DtbWriter::with_block_len(Vec::new(), 64).unwrap();
    for s in 0..streams {
        w.declare_events(s as u64, &format!("s{s}")).unwrap();
    }
    let mut offset = 0;
    while offset < len {
        let end = (offset + 64).min(len);
        for s in 0..streams {
            let period = 3 + 2 * s;
            let vals: Vec<i64> = (offset..end)
                .map(|i| 0x3000 + (s as i64) * 0x100 + (i % period) as i64)
                .collect();
            w.push_events(s as u64, &vals).unwrap();
        }
        offset = end;
    }
    w.finish().unwrap()
}

fn read_handshake(sock: &mut TcpStream) {
    let mut hello = [0u8; 6];
    sock.read_exact(&mut hello).expect("handshake");
    assert_eq!(&hello[..4], &HANDSHAKE_MAGIC);
    assert_eq!(hello[4], PROTOCOL_VERSION);
}

/// Send `bytes` whole, half-close, and drain acks to the final value.
fn send_clean(addr: SocketAddr, bytes: &[u8]) -> u64 {
    let mut sock = TcpStream::connect(addr).unwrap();
    read_handshake(&mut sock);
    sock.write_all(bytes).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let mut last = 0;
    let mut buf = [0u8; 8];
    while sock.read_exact(&mut buf).is_ok() {
        last = u64::from_le_bytes(buf);
    }
    last
}

/// Poll server stats until `pred` holds or a deadline passes.
fn wait_for(server: &DpdServer, what: &str, pred: impl Fn(&par_runtime::net::NetStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if pred(&server.stats()) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A connection stalled mid-frame is shed on the stall clock; a healthy
/// connection on the same server is completely unaffected.
#[test]
fn stall_mid_frame_sheds_only_that_connection() {
    let builder = DpdBuilder::new().window(16).shards(0);
    let cfg = NetConfig {
        stall_ms: 150,
        poll_ms: 5,
        ..NetConfig::default()
    };
    let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Staller: the full corpus minus its last byte — forever mid-frame.
    let bytes = corpus(1, 400);
    let mut staller = TcpStream::connect(addr).unwrap();
    read_handshake(&mut staller);
    staller.write_all(&bytes[..bytes.len() - 1]).unwrap();

    // Healthy conn replays a disjoint corpus to completion meanwhile.
    let healthy = corpus(2, 600);
    let acked = send_clean(addr, &healthy);
    assert_eq!(acked, 1200, "healthy connection short-acked");

    wait_for(&server, "stall shed", |s| s.shed_stalled == 1);
    drop(staller);
    let report = server.shutdown().unwrap();
    assert_eq!(report.stats.shed_stalled, 1);
    assert_eq!(report.stats.clean_closes, 1);
    // The healthy connection's streams closed with their full counts.
    let closed: Vec<u64> = report
        .events
        .iter()
        .filter_map(|e| match e {
            dpd_core::shard::MultiStreamEvent::Closed { samples, .. } => Some(*samples),
            _ => None,
        })
        .collect();
    assert!(
        closed.contains(&600),
        "healthy streams truncated: {closed:?}"
    );
}

/// An abrupt disconnect mid-frame closes that connection with a typed
/// protocol error; parallel connections never notice.
#[test]
fn abrupt_disconnect_mid_frame_is_isolated() {
    let builder = DpdBuilder::new().window(16).shards(0);
    let server = DpdServer::start(&builder, NetConfig::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let bytes = corpus(1, 400);
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        read_handshake(&mut sock);
        sock.write_all(&bytes[..bytes.len() / 2]).unwrap();
        sock.shutdown(Shutdown::Both).unwrap();
        // Dropped mid-frame: EOF inside an unfinished frame.
    }
    wait_for(&server, "protocol close", |s| s.protocol_errors == 1);

    let healthy = corpus(2, 600);
    let acked = send_clean(addr, &healthy);
    assert_eq!(acked, 1200);

    let report = server.shutdown().unwrap();
    assert_eq!(report.stats.protocol_errors, 1);
    assert_eq!(report.stats.clean_closes, 1);
}

/// A frame whose declared body exceeds the per-connection buffer budget
/// is rejected before it is buffered — the overflow cannot take the
/// server down, and other connections keep streaming.
#[test]
fn oversized_frame_is_rejected_not_buffered() {
    let builder = DpdBuilder::new().window(16).shards(0);
    let cfg = NetConfig {
        max_frame: 4096,
        ..NetConfig::default()
    };
    let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Handcraft: a valid header, then a frame declaring a 1 MiB body.
    let mut evil = Vec::new();
    evil.extend_from_slice(&dtb::MAGIC);
    evil.push(dtb::VERSION);
    evil.push(0);
    evil.push(0x02); // events frame
    let mut len = 1u64 << 20;
    while len >= 0x80 {
        evil.push((len as u8 & 0x7f) | 0x80);
        len >>= 7;
    }
    evil.push(len as u8);
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        read_handshake(&mut sock);
        sock.write_all(&evil).unwrap();
        // The server must reject on the declared length alone — without
        // waiting for (or buffering) a megabyte that never arrives.
        wait_for(&server, "oversize reject", |s| s.protocol_errors == 1);
    }

    let healthy = corpus(1, 400);
    let acked = send_clean(addr, &healthy);
    assert_eq!(acked, 400);

    let report = server.shutdown().unwrap();
    assert_eq!(report.stats.protocol_errors, 1);
    assert_eq!(report.stats.clean_closes, 1);
}

// ---------------------------------------------------------------------
// Subprocess crash harness: SIGKILL + --resume over TCP.

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dpd")
}

/// Poll a `--port-file` until the serve subprocess publishes its address.
fn wait_port(path: &Path) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no port file at {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Decode a DTB corpus into its flattened frame sequence:
/// `(stream, values)` per events frame, in container order.
fn frames_of(bytes: &[u8]) -> Vec<(u64, Vec<i64>)> {
    let mut frames = Vec::new();
    let mut r = DtbReader::new(bytes).unwrap();
    while let Some(block) = r.next_block() {
        if let Block::Events { stream, values } = block.unwrap() {
            frames.push((stream, values.to_vec()));
        }
    }
    frames
}

/// Re-encode the corpus suffix past the first `skip` samples (in
/// flattened frame order) as a fresh standalone container.
fn encode_suffix(bytes: &[u8], skip: u64) -> Vec<u8> {
    let frames = frames_of(bytes);
    let streams: std::collections::BTreeSet<u64> = frames.iter().map(|&(s, _)| s).collect();
    let mut w = DtbWriter::with_block_len(Vec::new(), 64).unwrap();
    for &s in &streams {
        w.declare_events(s, &format!("s{s}")).unwrap();
    }
    let mut remaining = skip;
    for (s, values) in frames {
        let n = values.len() as u64;
        if remaining >= n {
            remaining -= n;
            continue;
        }
        w.push_events(s, &values[remaining as usize..]).unwrap();
        remaining = 0;
    }
    w.finish().unwrap()
}

/// Group the lines of a `serve --events` file by the stream id they
/// mention.
fn event_lines(path: &Path) -> BTreeMap<String, Vec<String>> {
    let out = std::fs::read_to_string(path).unwrap();
    let mut m: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in out.lines() {
        let rest = line.split("StreamId(").nth(1).expect("an event line");
        let id = rest.split(')').next().unwrap().to_string();
        m.entry(id).or_default().push(line.to_string());
    }
    m
}

#[cfg(unix)]
#[test]
fn sigkill_then_resume_serve_is_bit_identical() {
    use std::process::{Command, Stdio};

    let dir = scratch("kill9");
    let bytes = corpus(3, 2000);
    let total = 6000u64;
    let builder = DpdBuilder::new().window(16).shards(0);

    let serve_args = |ck: &Path, port: &Path, events: &Path, resume: bool| {
        let mut args = vec![
            "serve".to_string(),
            "--accept".into(),
            "1".into(),
            "--window".into(),
            "16".into(),
            "--shards".into(),
            "0".into(),
            "--checkpoint".into(),
            ck.display().to_string(),
            "--checkpoint-every".into(),
            "512".into(),
            "--port-file".into(),
            port.display().to_string(),
            "--events".into(),
            events.display().to_string(),
            "--timing".into(),
            "none".into(),
        ];
        if resume {
            args.push("--resume".into());
        }
        args
    };

    // 1. Oracle: one uninterrupted serve of the whole corpus.
    let oracle_ck = dir.join("oracle.ck");
    let oracle_port = dir.join("oracle.port");
    let oracle_events = dir.join("oracle.events");
    let oracle_child = Command::new(bin())
        .args(serve_args(&oracle_ck, &oracle_port, &oracle_events, false))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let acked = send_clean(wait_port(&oracle_port), &bytes);
    assert_eq!(acked, total, "oracle run short-acked");
    let oracle_out = oracle_child.wait_with_output().unwrap();
    assert!(oracle_out.status.success());

    // 2. Crash: serve the same corpus slowly, SIGKILL after the first
    //    durable checkpoint hits the disk.
    let crash_ck = dir.join("crash.ck");
    let crash_port = dir.join("crash.port");
    let crash_events = dir.join("crash.events");
    let mut child = Command::new(bin())
        .args(serve_args(&crash_ck, &crash_port, &crash_events, false))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let addr = wait_port(&crash_port);
    let writer = {
        let bytes = bytes.clone();
        std::thread::spawn(move || {
            let Ok(mut sock) = TcpStream::connect(addr) else {
                return;
            };
            let mut hello = [0u8; 6];
            if sock.read_exact(&mut hello).is_err() {
                return;
            }
            for chunk in bytes.chunks(256) {
                if sock.write_all(chunk).is_err() {
                    return; // the server died under us — expected
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !crash_ck.exists() {
        assert!(Instant::now() < deadline, "no checkpoint before deadline");
        if let Ok(Some(status)) = child.try_wait() {
            panic!("serve finished before it could be killed: {status}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().unwrap();
    assert!(!child.wait().unwrap().success(), "child was killed");
    writer.join().unwrap();

    // 3. The durable cut: everything up to `marker.samples` survived the
    //    kill; everything after it must be resent.
    let (_svc, marker) = MultiStreamDpd::resume(&builder, &crash_ck).unwrap();
    assert!(
        marker.samples > 0 && marker.samples < total,
        "kill landed at {marker:?}"
    );
    let suffix = encode_suffix(&bytes, marker.samples);

    // 4. Resume serve and replay the suffix.
    let resume_port = dir.join("resume.port");
    let resume_events = dir.join("resume.events");
    let resume_child = Command::new(bin())
        .args(serve_args(&crash_ck, &resume_port, &resume_events, true))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let acked = send_clean(wait_port(&resume_port), &suffix);
    assert_eq!(acked, total - marker.samples, "resume run short-acked");
    let resume_out = resume_child.wait_with_output().unwrap();
    assert!(
        resume_out.status.success(),
        "{}",
        String::from_utf8_lossy(&resume_out.stderr)
    );
    let resume_stdout = String::from_utf8(resume_out.stdout).unwrap();
    assert!(
        resume_stdout.starts_with(&format!(
            "resumed from checkpoint #{} at samples {}",
            marker.ordinal, marker.samples
        )),
        "{resume_stdout}"
    );

    // 5a. Event equivalence: per stream, the resumed run's events are
    //     exactly a suffix of the oracle's.
    let oracle_events = event_lines(&oracle_events);
    let resumed_events = event_lines(&resume_events);
    assert_eq!(
        resumed_events.keys().collect::<Vec<_>>(),
        oracle_events.keys().collect::<Vec<_>>(),
        "every stream closes in the resumed run"
    );
    for (stream, lines) in resumed_events {
        let full = &oracle_events[&stream];
        assert!(
            lines.len() <= full.len(),
            "stream {stream}: more events than oracle"
        );
        assert_eq!(
            &full[full.len() - lines.len()..],
            &lines[..],
            "stream {stream}: resumed events are not the oracle suffix"
        );
    }

    // 5b. Bit-identical final state: both exit checkpoints, restored and
    //     re-checkpointed under one common marker, produce byte-equal
    //     files (the snapshot serializes every f64 via to_bits, so file
    //     equality is bit-exactness of all float statistics).
    let (mut a, am) = MultiStreamDpd::resume(&builder, &oracle_ck).unwrap();
    let (mut b, bm) = MultiStreamDpd::resume(&builder, &crash_ck).unwrap();
    assert_eq!(am.samples, total);
    assert_eq!(bm.samples, total);
    let m = EpochMarker {
        wave: 1,
        samples: total,
        ordinal: 1,
    };
    a.checkpoint(dir.join("a.norm"), m).unwrap();
    b.checkpoint(dir.join("b.norm"), m).unwrap();
    assert_eq!(
        std::fs::read(dir.join("a.norm")).unwrap(),
        std::fs::read(dir.join("b.norm")).unwrap(),
        "final detector states differ bit-for-bit"
    );

    std::fs::remove_dir_all(&dir).ok();
}
