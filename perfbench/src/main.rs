//! `perfbench` — the benchmark every performance or simplicity change of
//! this repository is judged by.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service-steady|service-backlog|paper-repro> \
//!     --seed <n> --seconds <s> --trace <0|1> [--loads <n>]
//! ```
//!
//! Set-up generates the workload's inputs from the seed, then the run
//! repeats full passes over the workload for `--seconds` and reports
//! medians; `setup_s` is the median of several regenerations of the
//! inputs, which must all come out identical.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` times calls
//! into each layer's public functions from this package's own code —
//! replaying the engine's exact solve sequences where its output pins
//! them down, and checking each replay bitwise — and prints the per-layer
//! metrics. Every output is checked; a failed check counts as a failed
//! operation. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--loads` overrides a service trace's length (used to show that the
//! backlog's peak does not grow with it).

mod metrics;
mod repro;
mod service;
mod stats;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// Generations timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 31;

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// How long a run keeps making passes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    /// Whether to start another pass after `done` passes, `clock` having
    /// started with the first.
    pub fn more(&self, done: usize, clock: Instant) -> bool {
        done < self.min_passes || clock.elapsed().as_secs_f64() < self.seconds
    }

    /// The same budget with at least `passes` passes.
    pub fn with_min_passes(self, passes: usize) -> Self {
        Self {
            min_passes: self.min_passes.max(passes),
            ..self
        }
    }
}

/// `setup_s`: regenerates a workload's inputs [`SETUP_REPS`] times and
/// returns the median seconds. Runs after the timed passes, in a warm
/// process, so that page faults and clock ramp-up of a fresh process do
/// not swamp a millisecond-scale measurement. Every regeneration must
/// equal `inputs`: the same seed gives the same inputs.
pub fn time_setup<T: PartialEq>(inputs: &T, generate: impl Fn() -> T) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let again = generate();
        times.push(t0.elapsed().as_secs_f64());
        if &again != inputs {
            return Err("the same seed generated different inputs".into());
        }
    }
    Ok(stats::median(&times).expect("SETUP_REPS > 0"))
}

const USAGE: &str = "usage: perfbench --workload <service-steady|service-backlog|paper-repro> \
                     --seed <n> --seconds <s> --trace <0|1> [--loads <n>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    loads: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut loads) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--loads" => {
                let n = value.parse::<usize>().map_err(|e| bad(&e))?;
                if n < 100 {
                    return Err(bad(&"must be at least 100"));
                }
                loads = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        loads,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Budget {
        seconds: args.seconds,
        min_passes: MIN_PASSES,
    };
    let kind = match args.workload.as_str() {
        "service-steady" => service::Kind::Steady,
        "service-backlog" => service::Kind::Backlog,
        "paper-repro" => {
            return if args.trace {
                repro::run_traced(args.seed, budget)
            } else {
                repro::run(args.seed, budget)
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let loads = args.loads.unwrap_or(kind.default_loads());
    if args.trace {
        service::run_traced(kind, args.seed, loads, budget)
    } else {
        service::run(kind, args.seed, loads, budget)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        eprintln!("{}: {note}", args.workload);
    }
    if !out.correct() {
        println!("{}", out.failure_line());
        return ExitCode::FAILURE;
    }
    let line = if args.trace {
        out.fill_idle_layers(PER_LAYER);
        out.result_line(PER_LAYER)
    } else {
        out.result_line(END_TO_END)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_strictly() {
        let a = args("--workload paper-repro --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paper-repro", 7, 2.5, true)
        );
        assert!(
            args("--workload x --seed 1 --seconds 1").is_err(),
            "missing --trace"
        );
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 0 --bogus 1").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace").is_err());
    }

    #[test]
    fn budget_counts_passes_and_time() {
        let b = Budget {
            seconds: 1e-9,
            min_passes: 2,
        };
        let clock = Instant::now();
        assert!(b.more(1, clock));
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(!b.more(2, clock));
        assert!(b.with_min_passes(5).more(4, clock));
    }
}
