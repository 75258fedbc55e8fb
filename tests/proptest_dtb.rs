//! Property tests for the DTB binary trace container.
//!
//! Four families of properties pin the format down:
//!
//! 1. **Round-trips** — `text -> DTB -> text` is bit-identical (the
//!    acceptance bar for `dpd convert`), and DTB encode/decode preserves
//!    every value including `i64` extremes and exotic `f64` bit patterns;
//! 2. **Framing invariance** — any block size and any interleaving of
//!    multi-stream pushes decode to the same per-stream value sequences
//!    (encoding state restarts at block boundaries, so splits are
//!    unobservable);
//! 3. **Corruption** — random single-byte flips and truncations are
//!    reported as typed errors, never panics, and flipped payloads never
//!    decode silently;
//! 4. **Replay equivalence** — multi-stream replay from a DTB container
//!    produces exactly the per-stream detector event sequences of the
//!    same corpus replayed from text files.

use dpd::core::pipeline::DpdBuilder;
use dpd::core::shard::{MultiStreamEvent, StreamId};
use dpd::runtime::service::MultiStreamDpd;
use dpd::trace::dtb::{self, Block, DtbError, DtbReader, DtbWriter};
use dpd::trace::{gen, io, EventTrace, SampledTrace};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// 1. Round-trips.

proptest! {
    #[test]
    fn text_dtb_text_bit_identical_events(
        values in collection::vec(-1_000_000i64..1_000_000, 0..500),
        name_word in 0u64..1000,
    ) {
        let trace = EventTrace::from_values(format!("t{name_word}"), values);
        let mut text1 = Vec::new();
        io::write_events(&trace, &mut text1).unwrap();

        // text -> DTB
        let parsed = io::read_events(&text1[..]).unwrap();
        let mut bin = Vec::new();
        dtb::write_events(&parsed, &mut bin).unwrap();

        // DTB -> text
        let back = dtb::read_events(&bin).unwrap();
        let mut text2 = Vec::new();
        io::write_events(&back, &mut text2).unwrap();

        prop_assert_eq!(text1, text2);
    }

    #[test]
    fn text_dtb_text_bit_identical_sampled(
        values in collection::vec(-1e9f64..1e9, 0..300),
        period in 1u64..10_000_000,
    ) {
        let trace = SampledTrace::from_values("cpu", period, values);
        let mut text1 = Vec::new();
        io::write_sampled(&trace, &mut text1).unwrap();

        // Normalize through one text parse first: the property is about
        // files the workspace writes, and `f64` Display -> parse is exact.
        let parsed = io::read_sampled(&text1[..]).unwrap();
        let mut bin = Vec::new();
        dtb::write_sampled(&parsed, &mut bin).unwrap();
        let back = dtb::read_sampled(&bin).unwrap();
        let mut text2 = Vec::new();
        io::write_sampled(&back, &mut text2).unwrap();

        prop_assert_eq!(text1, text2);
    }

    #[test]
    fn dtb_preserves_extreme_values(raw in collection::vec(any::<i64>(), 1..200)) {
        let trace = EventTrace::from_values("extreme", raw);
        let mut bin = Vec::new();
        dtb::write_events(&trace, &mut bin).unwrap();
        prop_assert_eq!(dtb::read_events(&bin).unwrap(), trace);
    }

    #[test]
    fn dtb_preserves_f64_bit_patterns(bits in collection::vec(any::<u64>(), 1..200)) {
        // Arbitrary bit patterns include NaNs with payloads, infinities,
        // subnormals and -0.0; the container must return the exact bits.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let trace = SampledTrace::from_values("bits", 1, values);
        let mut bin = Vec::new();
        dtb::write_sampled(&trace, &mut bin).unwrap();
        let back = dtb::read_sampled(&bin).unwrap();
        let got: Vec<u64> = back.values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, bits);
    }
}

// ---------------------------------------------------------------------
// 2. Framing invariance under random block sizes and interleavings.

proptest! {
    #[test]
    fn any_block_size_decodes_identically(
        values in collection::vec(-5000i64..5000, 1..2000),
        block_len in 1usize..700,
    ) {
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        w.declare_events(0, "s").unwrap();
        w.push_events(0, &values).unwrap();
        let bytes = w.finish().unwrap();
        let (events, _) = dtb::read_all(&bytes).unwrap();
        prop_assert_eq!(&events[0].1.values, &values);
    }

    #[test]
    fn interleaved_multi_stream_pushes_keep_per_stream_order(
        words in collection::vec(any::<u64>(), 1..120),
        streams in 1u64..6,
        block_len in 1usize..64,
    ) {
        // Decode each word into (stream, chunk of values).
        let mut expect: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        for s in 0..streams {
            w.declare_events(s, &format!("s{s}")).unwrap();
            expect.insert(s, Vec::new());
        }
        for (i, &word) in words.iter().enumerate() {
            let s = word % streams;
            let len = (word >> 8) % 17;
            let chunk: Vec<i64> = (0..len)
                .map(|k| ((word >> 16) as i64).wrapping_add(i as i64 * 31 + k as i64))
                .collect();
            w.push_events(s, &chunk).unwrap();
            expect.get_mut(&s).unwrap().extend_from_slice(&chunk);
        }
        let bytes = w.finish().unwrap();

        let mut got: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        let mut r = DtbReader::new(&bytes).unwrap();
        while let Some(block) = r.next_block() {
            match block.unwrap() {
                Block::Events { stream, values } => {
                    got.entry(stream).or_default().extend_from_slice(values)
                }
                Block::Decl { stream, .. } => {
                    got.entry(stream).or_default();
                }
                Block::Samples { .. } => unreachable!("event-only container"),
            }
        }
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// 3. Corruption: graceful typed errors, never panics, never silent lies.

/// Fully decode a container, returning per-stream values or the first error.
fn decode_all(bytes: &[u8]) -> Result<BTreeMap<u64, Vec<i64>>, DtbError> {
    let mut out: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
    let mut r = DtbReader::new(bytes)?;
    while let Some(block) = r.next_block() {
        if let Block::Events { stream, values } = block? {
            out.entry(stream).or_default().extend_from_slice(values);
        }
    }
    Ok(out)
}

proptest! {
    #[test]
    fn truncation_is_graceful_and_prefix_consistent(
        values in collection::vec(0i64..100, 10..800),
        block_len in 1usize..200,
        cut_word in any::<u64>(),
    ) {
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        w.declare_events(0, "s").unwrap();
        w.push_events(0, &values).unwrap();
        let bytes = w.finish().unwrap();
        let cut = (cut_word % bytes.len() as u64) as usize;

        match decode_all(&bytes[..cut]) {
            // Whatever decoded before the error must be a prefix of the
            // original values — truncation never fabricates data.
            Err(_) => {}
            Ok(map) => {
                let got = map.get(&0).cloned().unwrap_or_default();
                prop_assert!(got.len() <= values.len());
                prop_assert_eq!(&values[..got.len()], &got[..]);
            }
        }
    }

    #[test]
    fn single_byte_flip_never_decodes_silently(
        values in collection::vec(0i64..100, 10..400),
        block_len in 1usize..100,
        pos_word in any::<u64>(),
        mask_word in 1u32..256,
    ) {
        let mask = mask_word as u8;
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        w.declare_events(0, "s").unwrap();
        w.push_events(0, &values).unwrap();
        let bytes = w.finish().unwrap();

        // Flip one byte anywhere past the header (byte 5 is the reserved
        // flags field, which readers deliberately ignore).
        let span = bytes.len() - dtb::HEADER_LEN;
        let pos = dtb::HEADER_LEN + (pos_word % span as u64) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= mask;

        // Must not panic; must not return altered data as if valid.
        prop_assert!(
            decode_all(&bad).is_err(),
            "flip {mask:#04x} at byte {pos} went undetected"
        );
    }
}

// ---------------------------------------------------------------------
// 3b. Format sniffing: `detect_format` must be total and honest on any
// byte prefix — truncated documents, garbage, empty input — and the
// `read_*_auto` dispatchers it feeds must fail typed, never panic and
// never misdetect one format as the other.

proptest! {
    #[test]
    fn detect_format_is_total_and_magic_exact(bytes in collection::vec(any::<u8>(), 0..64)) {
        use dpd::trace::io::TraceFormat;
        // Total: any bytes produce an answer without panicking, and the
        // answer is exactly the magic-prefix relation — garbage that
        // does not carry a magic must never detect as anything.
        let got = io::detect_format(&bytes);
        let expect = if bytes.starts_with(&dtb::MAGIC) {
            Some(TraceFormat::Dtb)
        } else if bytes.starts_with(b"# dpd-trace v1") {
            Some(TraceFormat::Text)
        } else {
            None
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn detect_format_on_truncated_docs_never_misdetects(
        values in collection::vec(-1000i64..1000, 0..50),
        cut_word in any::<u64>(),
        as_dtb in any::<bool>(),
    ) {
        use dpd::trace::io::TraceFormat;
        let trace = EventTrace::from_values("t", values);
        let mut doc = Vec::new();
        if as_dtb {
            dtb::write_events(&trace, &mut doc).unwrap();
        } else {
            io::write_events(&trace, &mut doc).unwrap();
        }
        let cut = (cut_word % (doc.len() as u64 + 1)) as usize;
        let head = &doc[..cut];

        // A truncated valid document either detects as its own format
        // (the magic survived the cut) or as nothing — never the other.
        let own = if as_dtb { TraceFormat::Dtb } else { TraceFormat::Text };
        match io::detect_format(head) {
            None => {}
            Some(f) => prop_assert_eq!(f, own, "prefix misdetected"),
        }

        // And the auto reader on the truncated bytes is total: a typed
        // error or a successful parse (text tails can stay well-formed),
        // never a panic.
        let _ = io::read_events_auto(head);
    }

    #[test]
    fn read_auto_on_garbage_fails_typed(bytes in collection::vec(any::<u8>(), 0..300)) {
        // Whatever the sniffer decides, both auto readers must return
        // `Result` on arbitrary bytes — the property is the absence of
        // panics across the dispatch and both parse paths.
        let _ = io::read_events_auto(&bytes[..]);
        let _ = io::read_sampled_auto(&bytes[..]);
    }
}

// ---------------------------------------------------------------------
// 4. Replay equivalence: DTB corpus == text corpus through the service.

/// Replay a set of event traces through a fresh service in round-robin
/// `chunk`-sample waves, exactly like `dpd multistream`.
fn replay(traces: &[EventTrace], shards: usize, chunk: usize) -> Vec<MultiStreamEvent> {
    let mut svc =
        MultiStreamDpd::from_builder(&DpdBuilder::new().window(16).shards(shards)).unwrap();
    let mut offset = 0;
    loop {
        let mut records: Vec<(StreamId, &[i64])> = Vec::new();
        for (s, t) in traces.iter().enumerate() {
            if offset < t.values.len() {
                let end = (offset + chunk).min(t.values.len());
                records.push((StreamId(s as u64), &t.values[offset..end]));
            }
        }
        if records.is_empty() {
            break;
        }
        svc.ingest(&records);
        offset += chunk;
    }
    svc.finish().0
}

fn by_stream(events: &[MultiStreamEvent]) -> BTreeMap<u64, Vec<MultiStreamEvent>> {
    let mut m: BTreeMap<u64, Vec<MultiStreamEvent>> = BTreeMap::new();
    for &e in events {
        m.entry(e.stream().0).or_default().push(e);
    }
    m
}

proptest! {
    #[test]
    fn multistream_replay_from_dtb_matches_text(
        streams in 2u64..8,
        chunk in 1usize..96,
        rounds in 1usize..6,
        shards in 0usize..3,
        block_len in 1usize..300,
    ) {
        let schedule = gen::interleaved_streams(streams, 64, rounds);

        // Text path: per-stream text docs, parsed back like `multistream`
        // does for a directory of .trace files.
        let mut text_traces = Vec::new();
        for s in 0..streams {
            let mut whole = EventTrace::new(format!("s{s}"));
            for (id, rec) in &schedule {
                if *id == s {
                    whole.extend(rec.iter().copied());
                }
            }
            let mut doc = Vec::new();
            io::write_events(&whole, &mut doc).unwrap();
            text_traces.push(io::read_events(&doc[..]).unwrap());
        }

        // DTB path: one container holding all streams, written in the
        // interleaved arrival order with an arbitrary block size.
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        for s in 0..streams {
            w.declare_events(s, &format!("s{s}")).unwrap();
        }
        for (id, rec) in &schedule {
            w.push_events(*id, rec).unwrap();
        }
        let bytes = w.finish().unwrap();
        let (dtb_streams, _) = dtb::read_all(&bytes).unwrap();
        let dtb_traces: Vec<EventTrace> = dtb_streams.into_iter().map(|(_, t)| t).collect();

        prop_assert_eq!(dtb_traces.len(), text_traces.len());
        for (d, t) in dtb_traces.iter().zip(&text_traces) {
            prop_assert_eq!(&d.values, &t.values);
        }

        let text_events = by_stream(&replay(&text_traces, shards, chunk));
        let dtb_events = by_stream(&replay(&dtb_traces, shards, chunk));
        prop_assert_eq!(text_events, dtb_events);
    }
}

// ---------------------------------------------------------------------
// Generator coverage: every `trace::gen` generator round-trips (the
// acceptance bar behind `dpd convert`'s bit-identical guarantee).

#[test]
fn every_generator_roundtrips_through_dtb() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(41);

    let event_corpora: Vec<(&str, Vec<i64>)> = vec![
        ("periodic", gen::periodic_events(&[1, 2, 3, 4, 5], 4321)),
        ("nested", gen::nested_events(5, 10, 11, 9).0),
        ("aperiodic", gen::aperiodic_events(2048)),
        ("random", gen::random_events(12, 3000, &mut rng)),
        (
            "dropped",
            gen::drop_events(&gen::periodic_events(&[7, 8, 9], 1000), 0.1, &mut rng),
        ),
        (
            "jittered",
            gen::insert_events(&gen::periodic_events(&[7, 8, 9], 1000), 50, &mut rng),
        ),
    ];
    for (name, values) in event_corpora {
        let t = EventTrace::from_values(name, values);
        let mut bin = Vec::new();
        dtb::write_events(&t, &mut bin).unwrap();
        assert_eq!(dtb::read_events(&bin).unwrap(), t, "{name}");
    }

    let shape = gen::cpu_burst_shape(44, 16.0);
    let sampled = SampledTrace::from_values(
        "ft-cpus",
        1_000_000,
        gen::noisy_magnitudes(&shape, 40, 0.25, &mut rng),
    );
    let mut bin = Vec::new();
    dtb::write_sampled(&sampled, &mut bin).unwrap();
    let back = dtb::read_sampled(&bin).unwrap();
    assert_eq!(back.name, sampled.name);
    assert_eq!(back.sample_period_ns, sampled.sample_period_ns);
    let got: Vec<u64> = back.values.iter().map(|v| v.to_bits()).collect();
    let expect: Vec<u64> = sampled.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expect);

    // Interleaved multi-stream schedule through one container.
    let schedule = gen::interleaved_streams(7, 32, 3);
    let mut w = DtbWriter::with_block_len(Vec::new(), 64).unwrap();
    for s in 0..7u64 {
        w.declare_events(s, &format!("s{s}")).unwrap();
    }
    for (id, rec) in &schedule {
        w.push_events(*id, rec).unwrap();
    }
    let bytes = w.finish().unwrap();
    let (events, _) = dtb::read_all(&bytes).unwrap();
    let ids: Vec<u64> = events.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..7).collect::<Vec<u64>>(), "declaration order");
    for (s, trace) in &events {
        let mut expect = Vec::new();
        for (id, rec) in &schedule {
            if id == s {
                expect.extend_from_slice(rec);
            }
        }
        assert_eq!(trace.values, expect, "stream {s}");
    }
}
