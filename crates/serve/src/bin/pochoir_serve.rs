//! The `pochoir_serve` binary: bind a stencil service and run until killed.
//!
//! ```text
//! pochoir_serve [--addr HOST:PORT] [--record PATH [--record-name NAME]
//!               [--record-seed N] [--epoch N]] [--max-session-leaves N]
//!               [--max-sessions N] [--max-steps N]
//! ```
//!
//! `--max-session-leaves` sheds a `Submit` to a session whose pinned schedule
//! has more leaves; `--max-sessions` caps the session table and `--max-steps`
//! the step span of one `Submit` (see `docs/protocol.md`, "Quota semantics"
//! and "Resource ceilings").
//!
//! Prints `listening on <addr>` once the socket is bound (with the ephemeral
//! port resolved when `--addr` ends in `:0`), which is what the CI smoke step
//! and the tests wait for.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use pochoir_serve::server::{announce, RecordConfig, ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: pochoir_serve [--addr HOST:PORT] [--record PATH] [--record-name NAME]\n\
         \x20                    [--record-seed N] [--epoch N] [--max-session-leaves N]\n\
         \x20                    [--max-sessions N] [--max-steps N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServeConfig::default();
    let mut record: Option<RecordConfig> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("{name} needs a value");
                    usage();
                }
            }
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--record" => {
                record.get_or_insert_with(RecordConfig::default).path =
                    PathBuf::from(value("--record"));
            }
            "--record-name" => {
                record.get_or_insert_with(RecordConfig::default).name = value("--record-name");
            }
            "--record-seed" => {
                record.get_or_insert_with(RecordConfig::default).seed =
                    parse(&value("--record-seed"), "--record-seed");
            }
            "--epoch" => {
                record.get_or_insert_with(RecordConfig::default).epoch =
                    parse(&value("--epoch"), "--epoch");
            }
            "--max-session-leaves" => {
                config.max_session_leaves = Some(parse(
                    &value("--max-session-leaves"),
                    "--max-session-leaves",
                ));
            }
            "--max-sessions" => {
                config.max_sessions = parse(&value("--max-sessions"), "--max-sessions");
            }
            "--max-steps" => {
                config.max_steps_per_submit = parse(&value("--max-steps"), "--max-steps");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    config.record = record;

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pochoir_serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    announce(server.addr());
    // Serve until killed; the kernel reaps the threads, and record mode's
    // trace is flushed on demand via the protocol's Flush frame.
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag}: cannot parse {value:?}");
            usage();
        }
    }
}
