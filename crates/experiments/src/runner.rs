//! Shared plumbing for the experiment binaries: results directory, flag
//! parsing, and the scoped-thread trial pool behind `--threads`.

use dlt_platform::SpeedDistribution;
use dlt_stats::Table;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Directory the CSV outputs go to: `$DLT_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("DLT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints the table to stdout and writes `results/<name>.csv`.
/// Returns the path written.
pub fn write_and_print(table: &Table, name: &str) -> PathBuf {
    println!("{}", table.to_text());
    let path = results_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    path
}

/// The allowed flag set of every experiment binary, shared between the
/// binaries themselves and the flag-parsing unit tests. `""` in a set
/// means the binary accepts positional arguments (the profile name).
/// Anything not in the set is rejected by [`parse_flags`] — a typo'd
/// `--trails` or `--assert-peak-pendig` is an error, never a silently
/// ignored knob.
pub mod flags {
    /// `affinity`
    pub const AFFINITY: &[&str] = &["p", "n", "trials", "seed"];
    /// `all`
    pub const ALL: &[&str] = &["smoke", "quick", "threads"];
    /// `fig1-trace`
    pub const FIG1_TRACE: &[&str] = &["n", "seed"];
    /// `fig2-footprint`
    pub const FIG2_FOOTPRINT: &[&str] = &["p", "k", "n"];
    /// `fig3-matmul-trace`
    pub const FIG3_MATMUL_TRACE: &[&str] = &["n", "q", "steps"];
    /// `fig4`
    pub const FIG4: &[&str] = &["", "trials", "n", "seed", "threads"];
    /// `multiload`
    pub const MULTILOAD: &[&str] = &["", "p", "trials", "n", "chunks", "seed", "threads", "model"];
    /// `multiload-competitive`
    pub const MULTILOAD_COMPETITIVE: &[&str] =
        &["", "smoke", "p", "trials", "n", "seed", "threads", "soak"];
    /// `multiload-policy`
    pub const MULTILOAD_POLICY: &[&str] = &[
        "",
        "p",
        "trials",
        "n",
        "installments",
        "seed",
        "threads",
        "model",
    ];
    /// `multiload-service`
    pub const MULTILOAD_SERVICE: &[&str] = &[
        "",
        "smoke",
        "loads",
        "p",
        "n",
        "utilization",
        "seed",
        "trace",
        "assert-peak-pending",
        "model",
    ];
    /// `partition-quality`
    pub const PARTITION_QUALITY: &[&str] = &["trials", "seed", "threads"];
    /// `rho-table`
    pub const RHO_TABLE: &[&str] = &["p", "n", "threads"];
    /// `sec-amdahl`
    pub const SEC_AMDAHL: &[&str] = &["n", "seed", "threads"];
    /// `sec2-no-free-lunch`
    pub const SEC2: &[&str] = &["n", "seed", "model"];
    /// `sec3-hetero-sort`
    pub const SEC3_HETERO_SORT: &[&str] = &["trials", "n", "seed"];
    /// `sec3-sample-sort`
    pub const SEC3_SAMPLE_SORT: &[&str] = &["trials", "seed"];
}

/// Fallible core of [`parse_flags`]: `--key value` / `--flag` parsing
/// with a closed flag vocabulary. Positional arguments land under the key
/// `""` in order, and only when `allowed` contains `""`; an unknown flag
/// name is an error instead of a silently accepted no-op.
pub fn try_parse_flags(
    args: impl Iterator<Item = String>,
    allowed: &[&str],
) -> Result<HashMap<String, Vec<String>>, String> {
    let mut out: HashMap<String, Vec<String>> = HashMap::new();
    let mut key: Option<String> = None;
    for arg in args {
        if let Some(stripped) = arg.strip_prefix("--") {
            if !allowed.contains(&stripped) {
                return Err(format!(
                    "unknown flag --{stripped} (allowed: {})",
                    allowed
                        .iter()
                        .filter(|a| !a.is_empty())
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if let Some(prev) = key.take() {
                out.entry(prev).or_default().push("true".to_string());
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            out.entry(k).or_default().push(arg);
        } else if allowed.contains(&"") {
            out.entry(String::new()).or_default().push(arg);
        } else {
            return Err(format!("unexpected positional argument {arg:?}"));
        }
    }
    if let Some(prev) = key {
        out.entry(prev).or_default().push("true".to_string());
    }
    Ok(out)
}

/// Minimal `--key value` / `--flag` parser for the experiment binaries
/// (keeps the dependency list to the approved crates). `allowed` is the
/// binary's flag vocabulary ([`flags`]); an unknown flag or a positional
/// argument the binary does not take prints the error and exits with
/// status 2 — see [`try_parse_flags`] for the fallible form the unit
/// tests drive.
pub fn parse_flags(
    args: impl Iterator<Item = String>,
    allowed: &[&str],
) -> HashMap<String, Vec<String>> {
    or_exit(try_parse_flags(args, allowed))
}

/// The command-line error path shared by every binary: prints
/// `error: …` and exits with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Fallible core of [`profiles`]: the speed profiles named by the
/// positional argument, or by `default` when it is absent; `all` names
/// every paper profile.
pub fn try_profiles(
    flags: &HashMap<String, Vec<String>>,
    default: &str,
) -> Result<Vec<SpeedDistribution>, String> {
    match flags
        .get("")
        .and_then(|v| v.first())
        .map_or(default, String::as_str)
    {
        "all" => Ok(SpeedDistribution::paper_profiles().to_vec()),
        name => SpeedDistribution::from_profile_name(name)
            .map(|profile| vec![profile])
            .map_err(|e| e.to_string()),
    }
}

/// The speed profiles named on the command line (see [`try_profiles`]).
/// An unknown profile name prints the error and exits with status 2, like
/// a bad flag.
pub fn profiles(flags: &HashMap<String, Vec<String>>, default: &str) -> Vec<SpeedDistribution> {
    or_exit(try_profiles(flags, default))
}

/// Resolves a requested thread count: `0` means "all available cores"
/// (the `--threads` default), anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Reads `--threads N` from parsed flags (`0` / absent → all cores).
pub fn thread_count(flags: &HashMap<String, Vec<String>>) -> usize {
    resolve_threads(flag_or(flags, "threads", 0usize))
}

/// Order-preserving parallel map over `0..n`: `out[i] == f(i)`.
///
/// Work is pulled from an atomic counter by `threads` scoped workers, so
/// uneven per-item costs (e.g. `Commhom/k` refinement depth varying per
/// platform) balance automatically. The output vector is assembled **in
/// index order**, so any fold over it — `Summary::push`, float
/// accumulation, CSV rows — sees exactly the sequence a serial loop would
/// have produced: results are byte-identical for every thread count.
/// A worker panic propagates to the caller after the scope joins.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker scratch state: `init` runs once per worker
/// thread and the resulting state is passed to every `f` call that worker
/// executes. Lets trial loops reuse expensive workspaces (e.g.
/// [`dlt_partition::PeriSumDp`]) without cross-thread sharing. The state
/// must not influence results — `out[i]` must equal `f(&mut init(), i)`.
pub fn par_map_with<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("trial worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// A flag value that must be strictly positive — and finite, for `f64`.
/// Parsed through [`flag_or`], `--p 0`, `--n 0` or `--installments 0`
/// take its exit-2 error path instead of reaching a scheduler that
/// panics on an empty platform or a zero-size load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Positive<T>(pub T);

impl std::str::FromStr for Positive<usize> {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse().ok().filter(|&v| v > 0).map(Self).ok_or(())
    }
}

impl std::str::FromStr for Positive<f64> {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        s.parse()
            .ok()
            .filter(|v: &f64| v.is_finite() && *v > 0.0)
            .map(Self)
            .ok_or(())
    }
}

/// Parses one value of `--key`.
fn parse_value<T: std::str::FromStr>(key: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value for --{key}: {s:?}"))
}

/// Fallible core of [`flag_or`]: the default only when the flag is
/// **absent**; a present-but-unparseable value is an error. Silent
/// fallback here once let `--assert-peak-pending 4O96` (a typo'd `4096`)
/// parse as "no cap" and quietly disable the CI soak gate.
pub fn try_flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key).and_then(|v| v.last()) {
        None => Ok(default),
        Some(s) => parse_value(key, s),
    }
}

/// Fallible core of [`flag_list_or`]: every value of a repeatable flag,
/// in order, or `default` when the flag is absent.
pub fn try_flag_list_or<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: Vec<T>,
) -> Result<Vec<T>, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(values) => values.iter().map(|s| parse_value(key, s)).collect(),
    }
}

/// Every value of a repeatable flag (`--installments 1 --installments 4`),
/// or `default` when it is absent. An unparseable value prints the error
/// and exits with status 2, like [`flag_or`].
pub fn flag_list_or<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: Vec<T>,
) -> Vec<T> {
    or_exit(try_flag_list_or(flags, key, default))
}

/// Fetches a parsed flag as `T`, defaulting only when the flag is absent.
/// An unparseable value prints the error and exits with status 2.
pub fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: T,
) -> T {
    or_exit(try_flag_or(flags, key, default))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str], allowed: &[&str]) -> HashMap<String, Vec<String>> {
        try_parse_flags(words.iter().map(|s| s.to_string()), allowed).unwrap()
    }

    fn parse_err(words: &[&str], allowed: &[&str]) -> String {
        try_parse_flags(words.iter().map(|s| s.to_string()), allowed).unwrap_err()
    }

    #[test]
    fn positional_and_flags() {
        let f = parse(
            &["uniform", "--trials", "50", "--smoke"],
            &["", "trials", "smoke"],
        );
        assert_eq!(f[""], vec!["uniform"]);
        assert_eq!(f["trials"], vec!["50"]);
        assert_eq!(f["smoke"], vec!["true"]);
    }

    #[test]
    fn repeated_flags_accumulate() {
        let f = parse(&["--p", "10", "--p", "20"], &["p"]);
        assert_eq!(f["p"], vec!["10", "20"]);
    }

    #[test]
    fn flag_or_parses_with_default() {
        let f = parse(&["--trials", "7"], &["trials"]);
        assert_eq!(flag_or(&f, "trials", 100usize), 7);
        assert_eq!(flag_or(&f, "n", 123usize), 123);
        assert_eq!(flag_or(&f, "trials", 0.0f64), 7.0);
    }

    #[test]
    fn trailing_flag_without_value_is_true() {
        let f = parse(&["--verbose"], &["verbose"]);
        assert_eq!(f["verbose"], vec!["true"]);
    }

    #[test]
    fn profiles_default_to_all_and_reject_unknown_names() {
        let names = |words: &[&str], default: &str| {
            try_profiles(&parse(words, &[""]), default)
                .map(|ps| ps.iter().map(SpeedDistribution::name).collect::<Vec<_>>())
        };
        let all = vec!["homogeneous", "uniform", "lognormal"];
        assert_eq!(names(&[], "all").unwrap(), all);
        assert_eq!(names(&["all"], "uniform").unwrap(), all);
        assert_eq!(names(&["uni"], "all").unwrap(), vec!["uniform"]);
        assert_eq!(names(&[], "uniform").unwrap(), vec!["uniform"]);
        let err = names(&["bogus"], "all").unwrap_err();
        assert!(
            err.contains("bogus") && err.contains("homogeneous"),
            "{err}"
        );
    }

    #[test]
    fn unknown_flag_is_an_error_not_a_noop() {
        let e = parse_err(&["--trails", "50"], flags::FIG4);
        assert!(e.contains("unknown flag --trails"), "{e}");
        assert!(e.contains("--trials"), "error lists the vocabulary: {e}");
    }

    #[test]
    fn positional_rejected_where_none_is_taken() {
        let e = parse_err(&["uniform"], flags::ALL);
        assert!(e.contains("unexpected positional"), "{e}");
    }

    #[test]
    fn positive_flags_reject_zero_negative_and_non_finite_values() {
        let f = parse(
            &["--p", "0", "--n", "inf", "--trials", "3", "--seed", "-1.5"],
            &["p", "n", "trials", "seed"],
        );
        assert!(try_flag_or(&f, "p", Positive(4usize)).is_err());
        assert!(try_flag_or(&f, "n", Positive(1.0f64)).is_err());
        assert!(try_flag_or(&f, "seed", Positive(1.0f64)).is_err());
        assert_eq!(try_flag_or(&f, "trials", Positive(1usize)), Ok(Positive(3)));
        assert_eq!(try_flag_or(&f, "absent", Positive(7usize)), Ok(Positive(7)));
    }

    #[test]
    fn list_flags_collect_every_value_and_reject_any_bad_one() {
        let f = parse(
            &["--installments", "1", "--installments", "4"],
            &["installments"],
        );
        assert_eq!(
            try_flag_list_or(&f, "installments", vec![Positive(2usize)]),
            Ok(vec![Positive(1), Positive(4)])
        );
        assert_eq!(
            try_flag_list_or(&f, "absent", vec![Positive(2usize)]),
            Ok(vec![Positive(2)])
        );
        let bad = parse(
            &["--installments", "2", "--installments", "0"],
            &["installments"],
        );
        let e = try_flag_list_or(&bad, "installments", vec![Positive(1usize)]).unwrap_err();
        assert!(e.contains("--installments") && e.contains("\"0\""), "{e}");
    }

    #[test]
    fn unparseable_value_is_an_error_not_the_default() {
        // The CI soak-gate regression: `4O96` (letter O) must not parse
        // as "no cap".
        let f = parse(&["--assert-peak-pending", "4O96"], flags::MULTILOAD_SERVICE);
        let r = try_flag_or(&f, "assert-peak-pending", usize::MAX);
        assert!(r.is_err(), "typo'd numeric value must not default");
        assert!(r.unwrap_err().contains("4O96"));
    }

    /// One nominal invocation and one typo'd flag per binary vocabulary.
    #[test]
    fn every_binary_flag_set_accepts_nominal_and_rejects_typos() {
        let cases: &[(&[&str], &[&str])] = &[
            (
                flags::AFFINITY,
                &["--p", "8", "--n", "64", "--trials", "2", "--seed", "1"],
            ),
            (flags::ALL, &["--smoke", "--threads", "2"]),
            (flags::FIG1_TRACE, &["--n", "128", "--seed", "3"]),
            (
                flags::FIG2_FOOTPRINT,
                &["--p", "4", "--k", "12.0", "--n", "240"],
            ),
            (
                flags::FIG3_MATMUL_TRACE,
                &["--n", "16", "--q", "2", "--steps", "4"],
            ),
            (
                flags::FIG4,
                &[
                    "uniform",
                    "--trials",
                    "2",
                    "--n",
                    "100",
                    "--seed",
                    "1",
                    "--threads",
                    "1",
                ],
            ),
            (
                flags::MULTILOAD,
                &[
                    "uniform",
                    "--p",
                    "4",
                    "--chunks",
                    "8",
                    "--model",
                    "amdahl:0.3",
                ],
            ),
            (
                flags::MULTILOAD_COMPETITIVE,
                &[
                    "uniform", "--smoke", "--p", "4", "--trials", "2", "--soak", "100",
                ],
            ),
            (
                flags::MULTILOAD_POLICY,
                &[
                    "uniform",
                    "--installments",
                    "1",
                    "--installments",
                    "4",
                    "--model",
                    "affine:0.05",
                ],
            ),
            (
                flags::MULTILOAD_SERVICE,
                &[
                    "uniform",
                    "--smoke",
                    "--loads",
                    "100",
                    "--assert-peak-pending",
                    "4096",
                    "--model",
                    "piecewise:50:3",
                ],
            ),
            (
                flags::PARTITION_QUALITY,
                &["--trials", "2", "--seed", "1", "--threads", "1"],
            ),
            (flags::RHO_TABLE, &["--p", "8", "--n", "64"]),
            (
                flags::SEC2,
                &["--n", "64.0", "--seed", "1", "--model", "alpha"],
            ),
            (
                flags::SEC_AMDAHL,
                &["--n", "64.0", "--seed", "1", "--threads", "2"],
            ),
            (flags::SEC3_HETERO_SORT, &["--trials", "1", "--n", "1024"]),
            (flags::SEC3_SAMPLE_SORT, &["--trials", "1", "--seed", "1"]),
        ];
        for (allowed, nominal) in cases {
            let parsed = try_parse_flags(nominal.iter().map(|s| s.to_string()), allowed);
            assert!(parsed.is_ok(), "{allowed:?} rejected {nominal:?}");
            let e = parse_err(&["--no-such-flag"], allowed);
            assert!(e.contains("unknown flag"), "{allowed:?}: {e}");
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 2, 7] {
            let out = par_map(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn par_map_with_gives_each_worker_its_own_state() {
        // Each worker counts its own calls; the per-item results must not
        // depend on that state, and the total must cover every index.
        let out = par_map_with(
            50,
            4,
            || 0usize,
            |calls, i| {
                *calls += 1;
                (i, *calls)
            },
        );
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..50).collect::<Vec<_>>());
        assert!(out.iter().all(|&(_, calls)| calls >= 1));
    }

    #[test]
    fn thread_count_parses_and_defaults() {
        assert_eq!(thread_count(&parse(&["--threads", "3"], &["threads"])), 3);
        assert!(thread_count(&parse(&[], &["threads"])) >= 1);
        assert!(thread_count(&parse(&["--threads", "0"], &["threads"])) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn results_dir_env_override() {
        // Note: avoid mutating the environment in parallel tests; only
        // check the default here.
        let d = results_dir();
        assert!(d.ends_with("results") || d.is_absolute());
    }
}
