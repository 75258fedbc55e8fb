//! `dpd` — command-line front end to the Dynamic Periodicity Detector.
//!
//! ```text
//! dpd generate --kind periodic --period 6 --len 5000 --out trace.txt
//! dpd generate --kind nested --format dtb --out trace.dtb
//! dpd apps --app tomcatv --out tomcatv.trace
//! dpd convert trace.txt --out trace.dtb
//! dpd analyze trace.txt [--scales 8,64,512]
//! dpd spectrum trace.txt [--window 128]
//! dpd segment trace.txt [--window 64]
//! dpd multistream traces/ [--shards 4]
//! dpd predict trace.txt [--window 64] [--horizon 1]
//! dpd checkpoint traces/ --pile run.pile [--every 8]
//! dpd resume traces/ --pile run.pile [--every 8]
//! ```
//!
//! Trace files are the text format or DTB binary containers; every
//! reader auto-detects the format by magic (see `docs/FORMAT.md`).
//! `checkpoint`/`resume` run the durable ingest loop: write-ahead
//! logging to a crash-safe pile plus periodic whole-service
//! checkpoints (see `docs/FORMAT.md` §9).

use std::process::ExitCode;

use dpd_cli::cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cmd::dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dpd: {e}");
            ExitCode::FAILURE
        }
    }
}
