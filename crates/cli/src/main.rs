//! `secreta` — the command-line frontend of SECRETA-rs.
//!
//! Replaces the paper's Qt GUI: every frontend capability (dataset
//! loading/statistics, hierarchy/policy/workload handling, the
//! Evaluation and Comparison modes, data export) is a subcommand.
//! Run `secreta help` for the full surface.
//!
//! Exit codes: `0` success, `1` fatal error, `2` usage error,
//! `3` degraded (a sweep or fsck completed with failures on record).
//! A closed stdout changes none of them: output stops, the work does
//! not (see `secreta_core::out`).

#[macro_use]
extern crate secreta_core;

mod args;
mod bench;
mod commands;
mod runs;
mod worker;

use args::Args;

fn main() {
    // fault plans come from the environment so chaos tests can drive
    // the stock binary; a bad spec is a usage error
    if let Err(e) = secreta_core::faults::init_from_env() {
        eprintln!("error: {}: {e}", secreta_core::faults::ENV_VAR);
        std::process::exit(2);
    }
    install_panic_hook();
    // a malformed command line is a usage error; what fails once a
    // verb runs is fatal
    let args = Args::parse(std::env::args().skip(1)).map_err(|e| (e, 2));
    let code = args.and_then(|args| args.run().map_err(|e| (e, 1)));
    std::process::exit(code.unwrap_or_else(|(e, code)| {
        eprintln!("error: {e}");
        code
    }));
}

/// Keep expected unwinds quiet. Cooperative cancellation travels as a
/// typed panic payload and injected chaos panics are part of a fault
/// plan; both are caught and classified by the evaluator's panic
/// isolation, so the default hook's backtrace output would only bury
/// real bugs under noise.
fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if payload.is::<secreta_core::obsv::Cancelled>() {
            return;
        }
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if msg.is_some_and(|m| m.starts_with(secreta_core::faults::fault::PANIC_PREFIX)) {
            return;
        }
        default_hook(info);
    }));
}
