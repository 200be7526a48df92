//! CI bench-regression guard: compares a freshly measured
//! `BENCH_hotpaths.json` against the committed one and fails (exit 1)
//! when any kernel's speedup-over-reference fell below half its
//! committed value.
//!
//! ```text
//! bench-guard <committed.json> <fresh.json>
//! ```
//!
//! The JSON is the trajectory format written by the `hotpaths` bench: an
//! array of records whose `"bench"` and `"speedup"` fields are read; the
//! other fields (each side's sample quartiles and count) are ignored.
//! Only kernels present in **both** files are compared, so adding
//! a new kernel never trips the guard; a kernel that *disappears* from
//! the fresh file does, because silently dropping a measurement is how a
//! regression hides. Ratios (not absolute nanoseconds) are compared, so
//! the guard tolerates slow CI runners as long as both sides slow down
//! together.
//!
//! The factor is a constant, not a per-record bound derived from the
//! sample quartiles: the committed file is measured on one host and the
//! fresh one on a CI runner, and between the two the same kernel code
//! drifts by more than any within-run spread.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A fresh speedup passes when it is at least the committed one divided
/// by this factor.
const TOLERANCE: f64 = 2.0;

/// Extracts `(bench name, speedup)` pairs from the hotpaths trajectory
/// JSON. Hand-rolled for the workspace's own emitter format: fields
/// appear as `"bench": "<name>"` and `"speedup": <number>`, one record
/// after the other.
fn parse_speedups(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"bench\":") {
            let name = rest.trim().trim_matches('"').to_string();
            current = Some(name);
        } else if let Some(rest) = line.strip_prefix("\"speedup\":") {
            if let (Some(name), Ok(speedup)) = (current.take(), rest.trim().parse::<f64>()) {
                out.insert(name, speedup);
            }
        }
    }
    out
}

fn run(committed_path: &str, fresh_path: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read committed trajectory {committed_path}: {e}"))?;
    let fresh = std::fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read fresh trajectory {fresh_path}: {e}"))?;
    let committed = parse_speedups(&committed);
    let fresh = parse_speedups(&fresh);
    if committed.is_empty() {
        return Err(format!("no records parsed from {committed_path}"));
    }

    let mut failures = Vec::new();
    for (name, &old) in &committed {
        match fresh.get(name) {
            None => failures.push(format!(
                "kernel `{name}` (committed speedup {old:.2}x) missing from the fresh run"
            )),
            Some(&new) => {
                let floor = old / TOLERANCE;
                let verdict = if new < floor { "REGRESSED" } else { "ok" };
                // The measured-vs-committed ratio is printed for passing
                // kernels too: a slow drift toward the floor is visible
                // in the logs long before the guard trips.
                println!(
                    "bench-guard: {name:<24} committed {old:>7.2}x  fresh {new:>7.2}x  \
                     ratio {:>5.2}  floor {floor:>6.2}x  {verdict}",
                    new / old
                );
                if new < floor {
                    failures.push(format!(
                        "kernel `{name}` speedup regressed: {new:.2}x < {old:.2}x / {TOLERANCE}"
                    ));
                }
            }
        }
    }
    for name in fresh.keys().filter(|n| !committed.contains_key(*n)) {
        println!("bench-guard: {name:<24} new kernel (no committed baseline) — skipped");
    }
    if failures.is_empty() {
        println!(
            "bench-guard: all kernel speedups within {TOLERANCE}x of the committed trajectory"
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench-guard <committed.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    match run(committed, fresh) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench-guard: FAIL\n{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {
    "bench": "simulate_demand",
    "config": "p=512",
    "baseline": "linear",
    "baseline_ns": { "median": 7568262, "q1": 7501120, "q3": 7702954, "n": 10 },
    "optimized": "heap",
    "optimized_ns": { "median": 615428, "q1": 610009, "q3": 630417, "n": 50 },
    "speedup": 12.30
  },
  {
    "bench": "peri_sum_dp",
    "speedup": 7.08
  }
]
"#;

    #[test]
    fn parses_all_records() {
        let m = parse_speedups(SAMPLE);
        assert_eq!(m.len(), 2);
        assert_eq!(m["simulate_demand"], 12.30);
        assert_eq!(m["peri_sum_dp"], 7.08);
    }

    #[test]
    fn ignores_malformed_lines() {
        let m = parse_speedups("\"speedup\": 3.0\nnoise\n\"bench\": \"x\"\n");
        // A speedup with no preceding bench name, and a bench with no
        // speedup: neither makes a record.
        assert!(m.is_empty());
    }

    #[test]
    fn guard_passes_and_fails_on_ratio() {
        let dir = std::env::temp_dir().join(format!("bench-guard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("committed.json");
        let fresh_ok = dir.join("fresh_ok.json");
        let fresh_bad = dir.join("fresh_bad.json");
        std::fs::write(&committed, "\"bench\": \"k\"\n\"speedup\": 10.0\n").unwrap();
        // Half the committed speedup is exactly the floor: still ok.
        std::fs::write(&fresh_ok, "\"bench\": \"k\"\n\"speedup\": 5.0\n").unwrap();
        std::fs::write(&fresh_bad, "\"bench\": \"k\"\n\"speedup\": 4.99\n").unwrap();
        assert!(run(committed.to_str().unwrap(), fresh_ok.to_str().unwrap()).is_ok());
        assert!(run(committed.to_str().unwrap(), fresh_bad.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_kernel_in_fresh_run_fails() {
        let dir = std::env::temp_dir().join(format!("bench-guard-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("committed.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&committed, "\"bench\": \"k\"\n\"speedup\": 10.0\n").unwrap();
        std::fs::write(&fresh, "\"bench\": \"other\"\n\"speedup\": 10.0\n").unwrap();
        assert!(run(committed.to_str().unwrap(), fresh.to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
