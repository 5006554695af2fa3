//! The `lagover` binary — see [`lagover_cli`] for the command set.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match lagover_cli::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // A failed run may still have a report for stdout.
    let (report, failure) = match lagover_cli::run(&opts) {
        Ok(report) => (report, None),
        Err(mut e) => (std::mem::take(&mut e.report), Some(e)),
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(report.as_bytes())
        .and_then(|()| stdout.flush())
    {
        // A reader that stopped reading (`lagover … | head`) wanted no
        // more of the report: that is not an error of the run.
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write the report: {e}");
            return ExitCode::from(1);
        }
        _ => {}
    }
    match failure {
        None => ExitCode::SUCCESS,
        Some(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
