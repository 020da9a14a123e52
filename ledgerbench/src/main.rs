//! `ledgerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a loopback `NetServer` and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced (`--trace 0`), the
//! per-layer metrics from the traced replay (`--trace 1`). Exits 1 when
//! a correctness check fails, 2 on a usage error.

use std::process::ExitCode;

use ledgerbench::report::{host_record, result_line};
use ledgerbench::{run, setup, spec, trace};

struct Args {
    workload: spec::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: traced,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            eprintln!(
                "usage: ledgerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    println!("{}", host_record(spec.name, args.seed, args.trace));
    let dir = setup::scratch_dir(spec.name, args.seed);
    let outcome = if args.trace {
        trace::run(&spec, args.seed, args.seconds, &dir)
    } else {
        run::run(&spec, args.seed, args.seconds, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
