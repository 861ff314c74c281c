//! Standard output for every `secreta` verb.
//!
//! `println!` panics when stdout is a pipe whose reader has gone (as in
//! `secreta runs list | head -1`), which ends the process with exit code
//! 101. Every verb, and the `secreta bench` report, prints through
//! [`out!`](crate::out!) and [`outln!`](crate::outln!) instead. They
//! treat a broken pipe as the reader leaving: output stops there, and
//! the command still does all its work and exits with its usual code.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found stdout's reader gone; later output is dropped.
static READER_LEFT: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout, unless its reader has left.
pub fn write(args: fmt::Arguments<'_>) {
    if READER_LEFT.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            READER_LEFT.store(true, Ordering::Relaxed);
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` that stops quietly once stdout's reader has left.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` that stops quietly once stdout's reader has left.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
