//! Wire-protocol conformance tests (`docs/FORMAT.md` §10).
//!
//! The DTB container doubles as the `dpd serve` wire protocol, so the
//! properties here pin the *ingest path equivalence* the server promises:
//!
//! 1. **Fragmentation invariance** — a DTB byte stream fed to the
//!    incremental [`DtbDecoder`] under any fragmentation/coalescing of
//!    `read()` boundaries drives the multi-stream detector to exactly
//!    the per-stream event sequences of an in-process [`DtbReader`]
//!    replay (the differential oracle; event payloads compared exactly,
//!    which is bit-exactness — detector state is integer/`to_bits`
//!    serialized everywhere else in the suite).
//! 2. **Hostile bytes** — random single-byte flips are always rejected
//!    with a typed error, and truncations yield a clean decoded prefix
//!    of the original per-stream values; neither ever panics or
//!    fabricates samples.
//! 3. **Full-stack loopback** — a genuinely multi-connection TCP replay
//!    through [`DpdServer`] (100 connections, three fragmentation
//!    patterns, 10k streams) produces the oracle's per-stream events.

use dpd::core::pipeline::DpdBuilder;
use dpd::core::shard::{MultiStreamEvent, StreamId};
use dpd::runtime::net::{DpdServer, NetConfig, HANDSHAKE_MAGIC, PROTOCOL_VERSION};
use dpd::runtime::service::MultiStreamDpd;
use dpd::trace::dtb::{self, Block, DtbDecoder, DtbReader, DtbWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Group an event log by stream id (order within a stream preserved).
fn by_stream(events: &[MultiStreamEvent]) -> BTreeMap<u64, Vec<MultiStreamEvent>> {
    let mut m: BTreeMap<u64, Vec<MultiStreamEvent>> = BTreeMap::new();
    for &e in events {
        m.entry(e.stream().0).or_default().push(e);
    }
    m
}

/// Encode a multi-stream corpus: `streams[s]` pushed in round-robin
/// chunks so declarations and event frames interleave like live traffic.
fn encode_corpus(streams: &[Vec<i64>], block_len: usize, chunk: usize) -> Vec<u8> {
    let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
    for (s, _) in streams.iter().enumerate() {
        w.declare_events(s as u64, &format!("s{s}")).unwrap();
    }
    let mut offset = 0;
    loop {
        let mut any = false;
        for (s, values) in streams.iter().enumerate() {
            if offset < values.len() {
                let end = (offset + chunk).min(values.len());
                w.push_events(s as u64, &values[offset..end]).unwrap();
                any = true;
            }
        }
        if !any {
            break;
        }
        offset += chunk;
    }
    w.finish().unwrap()
}

/// Oracle: replay a DTB byte stream through the service with the
/// resident-slice reader, one `ingest` per events block.
fn replay_reader(bytes: &[u8], window: usize) -> Vec<MultiStreamEvent> {
    let builder = DpdBuilder::new().window(window).shards(0);
    let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
    let mut r = DtbReader::new(bytes).unwrap();
    while let Some(block) = r.next_block() {
        if let Block::Events { stream, values } = block.unwrap() {
            let owned = values.to_vec();
            svc.ingest(&[(StreamId(stream), &owned[..])]);
        }
    }
    svc.finish().0
}

/// Candidate: feed the same bytes through the incremental decoder in
/// `chunks` pieces (sizes derived from `seed`), ingesting blocks as they
/// complete — the server's read-loop shape.
fn replay_decoder(bytes: &[u8], window: usize, seed: u64) -> Vec<MultiStreamEvent> {
    let builder = DpdBuilder::new().window(window).shards(0);
    let mut svc = MultiStreamDpd::from_builder(&builder).unwrap();
    let mut dec = DtbDecoder::new();
    let mut state = seed;
    let mut pos = 0;
    while pos < bytes.len() {
        // splitmix64 chunk sizing: 1-byte dribbles up to 4 KiB bursts.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let n = ((z ^ (z >> 31)) % 4096 + 1) as usize;
        let end = (pos + n).min(bytes.len());
        dec.feed(&bytes[pos..end]);
        pos = end;
        while let Some(block) = dec.next_block().unwrap() {
            if let Block::Events { stream, values } = block {
                let owned = values.to_vec();
                svc.ingest(&[(StreamId(stream), &owned[..])]);
            }
        }
    }
    dec.finish().unwrap();
    svc.finish().0
}

/// Build `count` short periodic streams with per-stream period/phase.
fn periodic_streams(count: usize, len: usize) -> Vec<Vec<i64>> {
    (0..count)
        .map(|s| {
            let period = 2 + s % 5;
            (0..len)
                .map(|i| 0x4000 + (s as i64) * 0x100 + (i % period) as i64)
                .collect()
        })
        .collect()
}

proptest! {
    /// Property 1: fragmentation invariance of detector output.
    #[test]
    fn any_fragmentation_yields_identical_detector_output(
        words in collection::vec(any::<u64>(), 1..80),
        streams in 1usize..6,
        block_len in 1usize..96,
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Decode the word list into per-stream value sequences.
        let mut values: Vec<Vec<i64>> = vec![Vec::new(); streams];
        for (i, &w) in words.iter().enumerate() {
            let s = (w % streams as u64) as usize;
            let len = (w >> 8) % 23;
            values[s].extend((0..len).map(|k| ((w >> 16) % 7) as i64 + (i as i64) * 3 + k as i64 % 5));
        }
        let bytes = encode_corpus(&values, block_len, chunk);

        let oracle = by_stream(&replay_reader(&bytes, 8));
        let got = by_stream(&replay_decoder(&bytes, 8, seed));
        prop_assert_eq!(got, oracle);
    }

    /// Property 2a: single-byte flips past the header are always caught
    /// by the incremental decoder — typed error, no panic, and whatever
    /// decoded before the error is a clean prefix per stream.
    #[test]
    fn byte_flips_are_rejected_never_fabricated(
        streams in 1usize..4,
        len in 8usize..120,
        block_len in 1usize..64,
        pos_word in any::<u64>(),
        mask in 1u32..256,
        seed in any::<u64>(),
    ) {
        let values = periodic_streams(streams, len);
        let bytes = encode_corpus(&values, block_len, 16);
        let span = bytes.len() - dtb::HEADER_LEN;
        let pos = dtb::HEADER_LEN + (pos_word % span as u64) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= mask as u8;

        let mut dec = DtbDecoder::new();
        let mut decoded: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        let mut state = seed;
        let mut cursor = 0;
        let mut failed = false;
        'outer: while cursor < bad.len() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let n = (state % 512 + 1) as usize;
            let end = (cursor + n).min(bad.len());
            dec.feed(&bad[cursor..end]);
            cursor = end;
            loop {
                match dec.next_block() {
                    Ok(None) => break,
                    Ok(Some(Block::Events { stream, values })) => {
                        decoded.entry(stream).or_default().extend_from_slice(values);
                    }
                    Ok(Some(_)) => {}
                    Err(_) => { failed = true; break 'outer; }
                }
            }
        }
        if !failed {
            // The flip may sit in bytes the decoder has not consumed as a
            // complete frame yet; then the stream must fail at finish().
            prop_assert!(dec.finish().is_err(), "flip {mask:#04x} at byte {pos} went undetected");
        }
        // Either way: everything decoded before the error is a prefix of
        // the true per-stream data — corruption never fabricates samples.
        for (s, got) in &decoded {
            let truth = &values[*s as usize];
            prop_assert!(got.len() <= truth.len(), "stream {s} over-long");
            prop_assert_eq!(&truth[..got.len()], &got[..], "stream {s} diverged");
        }
    }

    /// Property 2b: truncation at any byte yields a clean per-stream
    /// prefix, and `finish()` flags the cut unless it landed exactly on
    /// a frame boundary (a legitimate end-of-stream).
    #[test]
    fn truncation_yields_clean_prefix(
        streams in 1usize..4,
        len in 8usize..120,
        block_len in 1usize..64,
        cut_word in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let values = periodic_streams(streams, len);
        let bytes = encode_corpus(&values, block_len, 16);
        let cut = (cut_word % bytes.len() as u64) as usize;

        let mut dec = DtbDecoder::new();
        let mut decoded: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        let mut state = seed;
        let mut cursor = 0;
        let mut errored = false;
        'outer: while cursor < cut {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let n = (state % 512 + 1) as usize;
            let end = (cursor + n).min(cut);
            dec.feed(&bytes[cursor..end]);
            cursor = end;
            loop {
                match dec.next_block() {
                    Ok(None) => break,
                    Ok(Some(Block::Events { stream, values })) => {
                        decoded.entry(stream).or_default().extend_from_slice(values);
                    }
                    Ok(Some(_)) => {}
                    Err(_) => { errored = true; break 'outer; }
                }
            }
        }
        if !errored && dec.buffered() > 0 {
            prop_assert!(dec.finish().is_err(), "mid-frame cut at {cut} not flagged");
        }
        for (s, got) in &decoded {
            let truth = &values[*s as usize];
            prop_assert!(got.len() <= truth.len(), "stream {s} over-long");
            prop_assert_eq!(&truth[..got.len()], &got[..], "stream {s} diverged");
        }
    }
}

// ---------------------------------------------------------------------
// 3. Full-stack loopback: the acceptance differential. 10k streams over
// 100 real TCP connections, three fragmentation patterns, compared
// per-stream against the in-process oracle.

#[test]
fn loopback_10k_streams_100_conns_matches_in_process_replay() {
    const STREAMS: usize = 10_000;
    const CONNS: usize = 100;
    const LEN: usize = 24;
    const WINDOW: usize = 8;

    let values = periodic_streams(STREAMS, LEN);

    // Oracle: the whole corpus replayed in-process.
    let oracle_bytes = encode_corpus(&values, 32, 8);
    let oracle = by_stream(&replay_reader(&oracle_bytes, WINDOW));

    // Server under test, writing every event it publishes to a file.
    let events = std::env::temp_dir().join(format!("dpd-wire-{}.events", std::process::id()));
    let cfg = NetConfig {
        events: Some(events.clone()),
        ..NetConfig::default()
    };
    let builder = DpdBuilder::new().window(WINDOW).shards(0);
    let server = DpdServer::start(&builder, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // 100 clients, each replaying a disjoint share of the streams with
    // its own fragmentation pattern: whole-payload writes, 7-byte
    // dribbles, or seeded random sizes.
    std::thread::scope(|scope| {
        for c in 0..CONNS {
            let values = &values;
            scope.spawn(move || {
                let ids: Vec<usize> = (c..STREAMS).step_by(CONNS).collect();
                let mut w = DtbWriter::with_block_len(Vec::new(), 32).unwrap();
                for &s in &ids {
                    w.declare_events(s as u64, &format!("s{s}")).unwrap();
                }
                let mut offset = 0;
                loop {
                    let mut any = false;
                    for &s in &ids {
                        if offset < values[s].len() {
                            let end = (offset + 8).min(values[s].len());
                            w.push_events(s as u64, &values[s][offset..end]).unwrap();
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                    offset += 8;
                }
                let payload = w.finish().unwrap();

                let mut sock = std::net::TcpStream::connect(addr).unwrap();
                sock.set_nodelay(true).unwrap();
                let mut hello = [0u8; 6];
                sock.read_exact(&mut hello).unwrap();
                assert_eq!(&hello[..4], &HANDSHAKE_MAGIC);
                assert_eq!(hello[4], PROTOCOL_VERSION);

                match c % 3 {
                    0 => sock.write_all(&payload).unwrap(),
                    1 => {
                        for chunk in payload.chunks(7) {
                            sock.write_all(chunk).unwrap();
                        }
                    }
                    _ => {
                        let mut state = c as u64;
                        let mut pos = 0;
                        while pos < payload.len() {
                            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            let n = ((state % 256) + 1) as usize;
                            let end = (pos + n).min(payload.len());
                            sock.write_all(&payload[pos..end]).unwrap();
                            pos = end;
                        }
                    }
                }
                sock.shutdown(std::net::Shutdown::Write).unwrap();
                // Drain acks until the server closes; the last ack must
                // cover every sample this connection sent.
                let total: u64 = ids.iter().map(|&s| values[s].len() as u64).sum();
                let mut last = 0;
                let mut buf = [0u8; 8];
                while sock.read_exact(&mut buf).is_ok() {
                    last = u64::from_le_bytes(buf);
                }
                assert_eq!(last, total, "conn {c}: final ack short");
            });
        }
    });

    let report = server.shutdown().unwrap();
    assert_eq!(report.stats.clean_closes, CONNS as u64);
    assert_eq!(report.stats.protocol_errors, 0);
    // The file holds one `{e:?}` line per event: compare as text.
    let text = std::fs::read_to_string(&events).unwrap();
    std::fs::remove_file(&events).ok();
    let mut got: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        let id = line.split("StreamId(").nth(1).unwrap();
        let id = id.split(')').next().unwrap().parse().unwrap();
        got.entry(id).or_default().push(line.to_string());
    }
    let oracle: BTreeMap<u64, Vec<String>> = oracle
        .into_iter()
        .map(|(s, evs)| (s, evs.iter().map(|e| format!("{e:?}")).collect()))
        .collect();
    assert_eq!(got.len(), oracle.len(), "stream count differs");
    assert_eq!(got, oracle, "wire replay diverged from in-process oracle");
}
