//! Golden-file CLI regression tests.
//!
//! Small committed fixtures (`tests/fixtures/traces/` at the workspace
//! root: one text trace, one multi-stream DTB container) are replayed
//! through `dpd multistream`, `dpd convert` and `dpd predict`, and the
//! *exact* stdout is compared against committed golden files
//! (`tests/fixtures/golden/`). Every command under test is deterministic:
//! stable stream ordering, inline (shards 0) replay, `--timing none`.
//!
//! To regenerate fixtures and goldens after an intentional output change:
//!
//! ```text
//! DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli
//! ```
//!
//! then commit the updated files (and review the diff — that diff *is*
//! the user-visible behavior change).

use dpd_cli::cmd::dispatch;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

fn fixtures_dir() -> PathBuf {
    workspace_root().join("tests/fixtures")
}

fn bless() -> bool {
    std::env::var("DPD_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Create the committed trace fixtures (bless mode only).
fn write_trace_fixtures(traces: &Path) {
    std::fs::create_dir_all(traces).unwrap();
    // Text fixture: the injected-phase-change corpus (periods 3, 7, 4
    // over disjoint alphabets) — exercises locks, invalidation, relocks.
    dispatch(&argv(&format!(
        "generate --kind phases --period 3 --len 600 --out {}",
        traces.join("single.trace").display()
    )))
    .unwrap();
    // DTB fixture: one container holding three periodic streams.
    let file = std::fs::File::create(traces.join("streams.dtb")).unwrap();
    let mut w = dpd_trace::dtb::DtbWriter::new(file).unwrap();
    for (id, (name, period)) in [("alpha", 3usize), ("beta", 5), ("gamma", 7)]
        .iter()
        .enumerate()
    {
        let values: Vec<i64> = (0..400).map(|i| 0x2000 + (i % period) as i64).collect();
        w.declare_events(id as u64, name).unwrap();
        w.push_events(id as u64, &values).unwrap();
    }
    w.finish().unwrap();
    // Standing-query spec fixture: one of each spec kind, exercising the
    // full text grammar including comments and blank lines. Lives beside
    // the traces dir, not inside it — `multistream DIR` replays every
    // file under DIR as a trace.
    std::fs::write(
        traces.parent().unwrap().join("queries.spec"),
        "# committed standing-query fixture (docs/QUERIES.md grammar)\n\
         period-in 3 5\n\
         lock-lost-within 64\n\
         \n\
         confidence-at-least 0.5\n\
         period-join 2\n",
    )
    .unwrap();
}

/// Run one command and compare (or bless) its stdout against a golden.
fn check_golden(name: &str, cmd: &str) {
    let out = dispatch(&argv(cmd)).unwrap_or_else(|e| panic!("{cmd}: {e}"));
    check_golden_text(name, &out);
}

/// Compare (or bless) already-captured stdout against a golden.
fn check_golden_text(name: &str, out: &str) {
    let golden = fixtures_dir().join("golden").join(name);
    if bless() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, out).unwrap();
        return;
    }
    let expect = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(run DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli)",
            golden.display()
        )
    });
    assert_eq!(
        out, expect,
        "stdout behind golden {name} changed; if intentional, re-bless and commit"
    );
}

#[test]
fn golden_cli_outputs_are_stable() {
    let traces = fixtures_dir().join("traces");
    if bless() {
        write_trace_fixtures(&traces);
    }
    let single = traces.join("single.trace");
    let dtb = traces.join("streams.dtb");
    assert!(
        single.is_file() && dtb.is_file(),
        "trace fixtures missing (run DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli)"
    );

    // Scratch outputs for convert. The --out path appears verbatim in the
    // command's stdout, so it must be byte-identical on every machine: a
    // fixed path *relative to the test cwd* (cargo runs integration tests
    // from the package root, crates/cli).
    let scratch = PathBuf::from("../../target/golden-scratch");
    std::fs::create_dir_all(&scratch).unwrap();

    // multistream: inline (deterministic event order), no wall-clock.
    check_golden(
        "multistream.txt",
        &format!(
            "multistream {} --shards 0 --window 16 --chunk 64 --timing none",
            traces.display()
        ),
    );

    // convert: text -> DTB and DTB -> DTB (id-preserving transcode).
    check_golden(
        "convert_text_to_dtb.txt",
        &format!(
            "convert {} --to dtb --out {}",
            single.display(),
            scratch.join("single.dtb").display()
        ),
    );
    check_golden(
        "convert_dtb_to_dtb.txt",
        &format!(
            "convert {} --to dtb --out {}",
            dtb.display(),
            scratch.join("streams.copy.dtb").display()
        ),
    );

    // predict: horizon-1 and horizon-4 replays of both fixture shapes.
    check_golden(
        "predict_single_h1.txt",
        &format!("predict {} --window 16 --horizon 1", single.display()),
    );
    check_golden(
        "predict_single_h4.txt",
        &format!("predict {} --window 16 --horizon 4", single.display()),
    );
    check_golden(
        "predict_dtb_h1.txt",
        &format!("predict {} --window 16 --horizon 1", dtb.display()),
    );

    // query: the standing-query delta log over both fixture shapes. The
    // replay is inline and single-threaded, so the delta log — every
    // Enter/Exit with its sequence stamp — is deterministic and
    // golden-able byte-for-byte.
    let spec = fixtures_dir().join("queries.spec");
    assert!(
        spec.is_file(),
        "queries.spec fixture missing (run DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli)"
    );
    check_golden(
        "query_dtb.txt",
        &format!(
            "query {} --spec {} --window 16 --chunk 64 --horizon 1",
            dtb.display(),
            spec.display()
        ),
    );
    check_golden(
        "query_single_evict.txt",
        &format!(
            "query {} --spec {} --window 16 --horizon 1 --evict-after 200",
            single.display(),
            spec.display()
        ),
    );

    // The transcodes themselves must be byte-stable too: converting the
    // committed DTB container again reproduces it bit-for-bit.
    if !bless() {
        let copy = std::fs::read(scratch.join("streams.copy.dtb")).unwrap();
        let original = std::fs::read(&dtb).unwrap();
        assert_eq!(copy, original, "DTB -> DTB transcode is not canonical");
    }
}

/// The wire path is golden-tested too: `serve --help`, plus a loopback
/// serve + loadgen smoke over the committed DTB fixture. Both sides run
/// with `--timing none` and the loadgen partitions streams
/// deterministically, so both stdouts are byte-stable for any connection
/// interleaving; so is the server's `--events` file once its lines are
/// sorted by stream id.
#[test]
fn golden_serve_outputs_are_stable() {
    check_golden("serve_help.txt", "serve --help");

    let dtb = fixtures_dir().join("traces").join("streams.dtb");
    assert!(
        dtb.is_file(),
        "trace fixtures missing (run DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli)"
    );
    let scratch = PathBuf::from("../../target/golden-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let port_file = scratch.join("serve_smoke.port");
    std::fs::remove_file(&port_file).ok();
    let events = scratch.join("serve_smoke.events");

    let (serve_out, loadgen_out) = dpd_cli::netcmd::loopback_smoke(
        &argv(&format!(
            "serve --accept 2 --window 16 --port-file {} --events {} --timing none",
            port_file.display(),
            events.display()
        )),
        &argv(&format!(
            "loadgen {} --conns 2 --chunk 64 --fragment bytes:997 --port-file {} --timing none",
            dtb.display(),
            port_file.display()
        )),
    );
    check_golden_text("serve_smoke_serve.txt", &serve_out);
    check_golden_text("serve_smoke_loadgen.txt", &loadgen_out);
    let events = std::fs::read_to_string(&events).unwrap();
    check_golden_text(
        "serve_smoke_events.txt",
        &dpd_cli::netcmd::sort_event_lines(&events),
    );
}

/// The observability plane is golden-tested end to end: `stats --help`,
/// plus a live `dpd stats` scrape of a serving `--metrics` endpoint.
/// Every `dpd_net_*` and `dpd_shard_*` series is deterministic once the
/// server settles (replay totals, frame shapes and detection counts
/// depend only on the committed fixture), so the scrape rendering is
/// byte-stable; only the ingest-timing histogram is wall-clock-shaped
/// and is excluded by the family filters.
#[test]
fn golden_stats_scrape_is_stable() {
    check_golden("stats_help.txt", "stats --help");

    let dtb = fixtures_dir().join("traces").join("streams.dtb");
    assert!(
        dtb.is_file(),
        "trace fixtures missing (run DPD_BLESS=1 cargo test -p dpd-cli --test golden_cli)"
    );
    let scratch = PathBuf::from("../../target/golden-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let port_file = scratch.join("stats_smoke.port");
    let metrics_port_file = scratch.join("stats_smoke.metrics-port");
    std::fs::remove_file(&port_file).ok();
    std::fs::remove_file(&metrics_port_file).ok();

    let serve_args = argv(&format!(
        "serve --accept 3 --window 16 --port-file {} --metrics 127.0.0.1:0 \
         --metrics-port-file {} --timing none",
        port_file.display(),
        metrics_port_file.display()
    ));
    let server = std::thread::spawn(move || dispatch(&serve_args));

    // A holder connection keeps the server from draining while we
    // scrape; it is accepted first so the settled counters are fixed.
    let addr = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let addr = text.trim().to_string();
                if !addr.is_empty() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    };
    let holder = std::net::TcpStream::connect(&addr).unwrap();
    {
        use std::io::Read as _;
        let mut hello = [0u8; 6];
        (&holder).read_exact(&mut hello).unwrap();
    }
    let loadgen_out = dispatch(&argv(&format!(
        "loadgen {} --conns 2 --chunk 64 --port-file {} --timing none",
        dtb.display(),
        port_file.display()
    )))
    .unwrap();
    assert!(loadgen_out.contains("acked 1200"), "{loadgen_out}");

    // Wait for the server to settle (both loadgen closes fully counted),
    // then take the goldens through the real `dpd stats` scraper.
    let maddr = std::fs::read_to_string(&metrics_port_file)
        .unwrap()
        .trim()
        .to_string();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let out = dispatch(&argv(&format!("stats {maddr}"))).unwrap();
        if out.contains("dpd_net_clean_closes_total 2")
            && out.contains("dpd_net_connections_open 1")
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never settled:\n{out}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let net = dispatch(&argv(&format!("stats {maddr} --filter dpd_net_"))).unwrap();
    check_golden_text("stats_scrape_net.txt", &net);
    let shard = dispatch(&argv(&format!("stats {maddr} --filter dpd_shard_"))).unwrap();
    check_golden_text("stats_scrape_shard.txt", &shard);

    drop(holder);
    let serve_out = server.join().unwrap().unwrap();
    assert!(
        serve_out.contains("served 3 connection(s): 3 clean"),
        "{serve_out}"
    );
}

/// The convert stdout golden embeds absolute scratch paths only under
/// `target/`; make sure the goldens themselves never leak a temp dir.
#[test]
fn goldens_contain_no_volatile_paths() {
    if bless() {
        return;
    }
    let golden_dir = fixtures_dir().join("golden");
    for entry in std::fs::read_dir(&golden_dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("/tmp/"),
            "{}: golden references a temp path",
            path.display()
        );
    }
}
