//! Network ingest path: incremental wire decode and a loopback serve
//! round-trip.
//!
//! `dpd serve` reassembles DTB frames from whatever byte boundaries TCP
//! delivers, so the hot loop is `DtbDecoder::feed` + `next_block`, not
//! the borrowing `DtbReader`. Four measurements:
//!
//! * `decode/whole_10k_streams` — the incremental decoder fed the entire
//!   corpus in one `feed` call: the decoder's ceiling, directly
//!   comparable to `trace_io/parse/dtb_10k_streams` (same corpus through
//!   `DtbReader`). The gap between the two is the price of owning the
//!   reassembly buffer instead of borrowing the mmap'd slice.
//! * `decode/fragmented_4k` — the same corpus fed in 4096-byte chunks,
//!   the shape a socket read loop actually produces. This is the figure
//!   that must stay near `whole`: a copy-per-feed or realloc-per-frame
//!   regression shows up here first.
//! * `decode/fragmented_64` — pathological 64-byte fragmentation
//!   (interactive clients, 160k feeds over the corpus). Guards the
//!   buffer-compaction strategy: cost must stay linear in bytes, not in
//!   feeds × buffered bytes.
//! * `loopback/serve_4conns` — end-to-end: a fresh `DpdServer` on
//!   loopback, four client connections streaming a partitioned 1k-stream
//!   corpus, server drained and shut down inside the timer. Dominated by
//!   syscalls and detector ingest, not decode; it exists so the serve
//!   path's orchestration overhead (handshake, acks, drain) is gated,
//!   and its throughput is what `BENCH_8.json` records as sustained
//!   loopback samples/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpd_core::pipeline::DpdBuilder;
use dpd_trace::dtb::{Block, DtbDecoder, DtbReader, DtbWriter};
use dpd_trace::gen::interleaved_streams;
use par_runtime::net::{DpdServer, NetConfig, HANDSHAKE_MAGIC};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

const STREAMS: u64 = 10_000;
const CHUNK: usize = 64;
const ROUNDS: usize = 2;
const WINDOW: usize = 16;

/// One DTB container holding every stream (same corpus as `trace_io`).
fn dtb_corpus() -> Vec<u8> {
    let schedule = interleaved_streams(STREAMS, CHUNK, ROUNDS);
    let mut w = DtbWriter::new(Vec::new()).expect("in-memory write");
    for s in 0..STREAMS {
        w.declare_events(s, &format!("s{s}")).unwrap();
    }
    for (id, rec) in &schedule {
        w.push_events(*id, rec).unwrap();
    }
    w.finish().unwrap()
}

/// Feed `bytes` to an incremental decoder in `chunk`-byte slices
/// (`usize::MAX` = one feed) and drain blocks as they complete, exactly
/// like the server's read loop. Returns decoded sample count.
fn decode_incremental(bytes: &[u8], chunk: usize) -> usize {
    let mut dec = DtbDecoder::new();
    let mut total = 0usize;
    for part in bytes.chunks(chunk.min(bytes.len().max(1))) {
        dec.feed(part);
        while let Some(block) = dec.next_block().expect("uncorrupted corpus") {
            if let Block::Events { values, .. } = block {
                total += values.len();
            }
        }
    }
    dec.finish().expect("corpus ends on a frame boundary");
    total
}

fn bench_decode(c: &mut Criterion) {
    let corpus = dtb_corpus();
    let samples = (STREAMS as usize) * CHUNK * ROUNDS;
    // Sanity: the incremental decoder and the borrowing reader agree.
    {
        let mut r = DtbReader::new(&corpus).expect("valid container");
        let mut reader_total = 0usize;
        while let Some(block) = r.next_block() {
            if let Block::Events { values, .. } = block.expect("uncorrupted") {
                reader_total += values.len();
            }
        }
        assert_eq!(reader_total, samples);
        assert_eq!(decode_incremental(&corpus, usize::MAX), samples);
        assert_eq!(decode_incremental(&corpus, 64), samples);
    }

    let mut g = c.benchmark_group("net_ingest");
    g.throughput(Throughput::Bytes(corpus.len() as u64));
    g.bench_function("decode/whole_10k_streams", |b| {
        b.iter(|| decode_incremental(black_box(&corpus), usize::MAX))
    });
    g.bench_function("decode/fragmented_4k", |b| {
        b.iter(|| decode_incremental(black_box(&corpus), 4096))
    });
    g.bench_function("decode/fragmented_64", |b| {
        b.iter(|| decode_incremental(black_box(&corpus), 64))
    });
    g.finish();
}

/// Loopback round-trip sizing: small enough that server startup doesn't
/// dominate, large enough that the steady-state write/decode/ingest loop
/// does.
const LB_STREAMS: u64 = 1_000;
const LB_CONNS: usize = 4;

/// Per-connection payloads: streams partitioned round-robin so every
/// stream's samples arrive on exactly one connection (order-determinism).
fn loopback_payloads() -> (Vec<Vec<u8>>, u64) {
    let schedule = interleaved_streams(LB_STREAMS, CHUNK, ROUNDS);
    let mut payloads = Vec::new();
    let mut total = 0u64;
    for conn in 0..LB_CONNS as u64 {
        let mut w = DtbWriter::new(Vec::new()).expect("in-memory write");
        for s in (conn..LB_STREAMS).step_by(LB_CONNS) {
            w.declare_events(s, &format!("s{s}")).unwrap();
        }
        for (id, rec) in &schedule {
            if id % LB_CONNS as u64 == conn {
                w.push_events(*id, rec).unwrap();
                total += rec.len() as u64;
            }
        }
        payloads.push(w.finish().unwrap());
    }
    (payloads, total)
}

/// One full serve cycle: start, stream every payload over its own
/// connection, drain, shut down. Returns total samples ingested.
fn serve_roundtrip(payloads: &[Vec<u8>]) -> u64 {
    let builder = DpdBuilder::new().window(WINDOW).shards(0);
    let cfg = NetConfig {
        accept_limit: payloads.len() as u64,
        ..NetConfig::default()
    };
    let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for payload in payloads {
            scope.spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                sock.set_nodelay(true).ok();
                let mut hello = [0u8; 6];
                sock.read_exact(&mut hello).expect("handshake");
                assert_eq!(&hello[..4], &HANDSHAKE_MAGIC);
                sock.write_all(payload).expect("stream payload");
                sock.shutdown(Shutdown::Write).expect("half-close");
                // Drain acks to EOF so the close is clean on both sides.
                let mut ack = [0u8; 8];
                while sock.read_exact(&mut ack).is_ok() {}
            });
        }
    });
    while !server.drained() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let report = server.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.protocol_errors, 0, "loopback protocol error");
    report.stats.samples
}

fn bench_loopback(c: &mut Criterion) {
    let (payloads, total) = loopback_payloads();
    assert_eq!(serve_roundtrip(&payloads), total, "loopback lost samples");

    let mut g = c.benchmark_group("net_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(total));
    g.bench_function("loopback/serve_4conns", |b| {
        b.iter(|| serve_roundtrip(black_box(&payloads)))
    });
    g.finish();
}

criterion_group!(benches, bench_decode, bench_loopback);
criterion_main!(benches);
