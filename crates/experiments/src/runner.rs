//! Shared plumbing for the artifact table: the results directory, table
//! output, and the scoped-thread trial pool behind `--threads`.

use dlt_stats::Table;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Directory the CSV outputs go to: `$DLT_RESULTS` or `./results`.
fn results_dir() -> PathBuf {
    std::env::var_os("DLT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints the table to stdout and writes `results/<name>.csv`; a failed
/// write is an error naming the file.
pub(crate) fn write_and_print(table: &Table, name: &str) -> Result<(), String> {
    println!("{}", table.to_text());
    let path = results_dir().join(format!("{name}.csv"));
    table
        .write_csv(&path)
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
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
#[expect(
    clippy::disallowed_methods,
    reason = "the artifacts' one worker pool, sized by `--threads`"
)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_threads_resolves_to_every_core() {
        assert!(resolve_threads(0) >= 1);
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
