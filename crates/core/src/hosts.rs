//! The host-pool coordinator shared by the write path ([`crate::write`])
//! and the recovery path ([`crate::read`]).
//!
//! Both directions run the same shape of work: every simulated host owns a
//! list of items (chunks to quantize and upload, or chunks to fetch and
//! decode), a worker budget spreads over the hosts and then over each
//! host's items, one host may be killed partway through its list, and
//! whatever it left behind is dealt onto the survivors. That shape lives
//! here once, generic over the item and its result; the directions differ
//! only in the closures they pass. The serial case is `hosts = 1`.

use crate::error::{CnrError, Result};
use cnr_cluster::HostKill;

/// What a pool of hosts produced.
pub(crate) struct HostsOutcome<O> {
    /// Results per host in assignment order: first every host's own share
    /// (ascending host id), then each adopter's share of a dead host's
    /// leftovers (ascending host id). A host appears in both when it
    /// adopted work.
    pub done: Vec<(u16, Vec<O>)>,
    /// Hosts that died mid-list.
    pub killed_hosts: Vec<u16>,
    /// Items a dead host left behind, all re-run on survivors.
    pub resharded: u64,
}

/// One host's pass over its list.
struct HostRun<I, O> {
    host: u16,
    done: Vec<O>,
    /// Items a killed host never finished, the one it died on first;
    /// empty for a host that lived.
    left: Vec<I>,
}

/// Runs `jobs[h]` on host `h` for every host, on at most `workers` threads.
///
/// The worker budget spreads over both levels: up to `min(workers, hosts)`
/// hosts run concurrently, and each splits its remaining share
/// (`workers / hosts`, at least 1) into an item-level pipeline — so a
/// single-host run still works on all `workers` threads. Results come back
/// in assignment order whatever the thread count.
///
/// `kill` names a host that dies after completing `after_chunks` items:
/// `die` runs on the item it was working on (the in-flight transfer it
/// abandons), and that item plus everything after it is dealt round-robin
/// onto the surviving hosts — `adopt(adopter, &mut item)` lets the caller
/// re-label an item for its new host — and run in a second pass. A killed
/// host's list runs sequentially so the death point is deterministic.
/// When no host survives the error is `CnrError::Pipeline(all_dead)`.
pub(crate) fn run_hosts<I, O>(
    jobs: Vec<Vec<I>>,
    workers: usize,
    kill: Option<HostKill>,
    one: impl Fn(u16, &I) -> Result<O> + Sync,
    die: impl Fn(u16, &I) -> Result<()> + Sync,
    mut adopt: impl FnMut(u16, &mut I),
    all_dead: &str,
) -> Result<HostsOutcome<O>>
where
    I: Send,
    O: Send,
{
    let hosts = jobs.len();
    let jobs = jobs
        .into_iter()
        .enumerate()
        .map(|(h, items)| (h as u16, items))
        .collect();
    let mut outcome = HostsOutcome {
        done: Vec::with_capacity(hosts),
        killed_hosts: Vec::new(),
        resharded: 0,
    };
    let mut left = Vec::new();
    for run in run_pass(jobs, workers, kill, &one, &die)? {
        outcome.done.push((run.host, run.done));
        if !run.left.is_empty() {
            outcome.killed_hosts.push(run.host);
            left.extend(run.left);
        }
    }
    if left.is_empty() {
        return Ok(outcome);
    }

    outcome.resharded = left.len() as u64;
    let survivors: Vec<u16> = (0..hosts as u16)
        .filter(|h| !outcome.killed_hosts.contains(h))
        .collect();
    if survivors.is_empty() {
        return Err(CnrError::Pipeline(all_dead.into()));
    }
    let mut rescue: Vec<(u16, Vec<I>)> = survivors.iter().map(|&h| (h, Vec::new())).collect();
    for (i, mut item) in left.into_iter().enumerate() {
        let (adopter, items) = &mut rescue[i % survivors.len()];
        adopt(*adopter, &mut item);
        items.push(item);
    }
    rescue.retain(|(_, items)| !items.is_empty());
    for run in run_pass(rescue, workers, None, &one, &die)? {
        outcome.done.push((run.host, run.done));
    }
    Ok(outcome)
}

/// One pass: each `(host, items)` job on its own share of the workers.
fn run_pass<I, O>(
    jobs: Vec<(u16, Vec<I>)>,
    workers: usize,
    kill: Option<HostKill>,
    one: &(impl Fn(u16, &I) -> Result<O> + Sync),
    die: &(impl Fn(u16, &I) -> Result<()> + Sync),
) -> Result<Vec<HostRun<I, O>>>
where
    I: Send,
    O: Send,
{
    let threads_per_host = (workers / jobs.len().max(1)).max(1);
    pool(workers, jobs, |(host, items)| {
        let kill_after = kill.filter(|k| k.host == host).map(|k| k.after_chunks);
        run_host(host, items, kill_after, threads_per_host, one, die)
    })
}

fn run_host<I, O>(
    host: u16,
    items: Vec<I>,
    kill_after: Option<u32>,
    threads: usize,
    one: &(impl Fn(u16, &I) -> Result<O> + Sync),
    die: &(impl Fn(u16, &I) -> Result<()> + Sync),
) -> Result<HostRun<I, O>>
where
    I: Send,
    O: Send,
{
    let mut run = HostRun {
        host,
        done: Vec::with_capacity(items.len()),
        left: Vec::new(),
    };
    if threads > 1 && kill_after.is_none() && items.len() > 1 {
        // Items move into the queue, so each is freed as soon as it is done.
        run.done = pool(threads, items, |item| one(host, &item))?;
        return Ok(run);
    }
    let mut iter = items.into_iter();
    while let Some(item) = iter.next() {
        if kill_after == Some(run.done.len() as u32) {
            die(host, &item)?;
            run.left.push(item);
            run.left.extend(iter);
            break;
        }
        run.done.push(one(host, &item)?);
    }
    Ok(run)
}

/// Maps `f` over `work` on `min(threads, work.len())` (at least one)
/// scoped threads pulling from a shared queue; results come back in
/// `work`'s order. Every item runs even after one fails; the error
/// returned is the first to arrive.
fn pool<T: Send, O: Send>(
    threads: usize,
    work: Vec<T>,
    f: impl Fn(T) -> Result<O> + Sync,
) -> Result<Vec<O>> {
    use crossbeam::channel;
    let n = work.len();
    let (work_tx, work_rx) = channel::unbounded::<(usize, T)>();
    for indexed in work.into_iter().enumerate() {
        work_tx
            .send(indexed)
            .unwrap_or_else(|_| unreachable!("receiver alive"));
    }
    drop(work_tx);
    // Unbounded: results are collected only after the scope joins, so a
    // bounded channel could deadlock with more items than its capacity.
    let (out_tx, out_rx) = channel::unbounded::<(usize, Result<O>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n).max(1) {
            let (work_rx, out_tx, f) = (work_rx.clone(), out_tx.clone(), &f);
            scope.spawn(move || {
                while let Ok((idx, item)) = work_rx.recv() {
                    if out_tx.send((idx, f(item))).is_err() {
                        return; // collector gone; abort quietly
                    }
                }
            });
        }
    });
    drop(out_tx);
    let mut out = Vec::with_capacity(n);
    for (idx, result) in out_rx.iter() {
        out.push((idx, result?));
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out.into_iter().map(|(_, o)| o).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(_: u16, x: &u32) -> Result<u32> {
        Ok(x * x)
    }

    fn run(
        jobs: Vec<Vec<u32>>,
        workers: usize,
        kill: Option<HostKill>,
    ) -> Result<HostsOutcome<u32>> {
        run_hosts(
            jobs,
            workers,
            kill,
            square,
            |_, _| Ok(()),
            |_, _| {},
            "all dead",
        )
    }

    #[test]
    fn results_keep_assignment_order_for_any_worker_count() {
        let jobs = vec![(0..40).collect::<Vec<u32>>(), vec![], (40..45).collect()];
        let want: Vec<(u16, Vec<u32>)> = jobs
            .iter()
            .enumerate()
            .map(|(h, items)| (h as u16, items.iter().map(|x| x * x).collect()))
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = run(jobs.clone(), workers, None).unwrap();
            assert_eq!(out.done, want, "workers={workers}");
            assert!(out.killed_hosts.is_empty());
            assert_eq!(out.resharded, 0);
        }
    }

    #[test]
    fn a_killed_host_hands_its_tail_round_robin_to_the_survivors() {
        let jobs = vec![vec![1, 2], vec![10, 11, 12, 13, 14], vec![3]];
        let died_on = std::sync::Mutex::new(Vec::new());
        let mut adopted = Vec::new();
        let out = run_hosts(
            jobs,
            4,
            Some(HostKill {
                host: 1,
                after_chunks: 2,
            }),
            square,
            |host, item| {
                died_on.lock().unwrap().push((host, *item));
                Ok(())
            },
            |adopter, item| adopted.push((adopter, *item)),
            "all dead",
        )
        .unwrap();
        assert_eq!(*died_on.lock().unwrap(), vec![(1, 12)]);
        assert_eq!(out.killed_hosts, vec![1]);
        assert_eq!(out.resharded, 3);
        assert_eq!(adopted, vec![(0, 12), (2, 13), (0, 14)]);
        assert_eq!(
            out.done,
            vec![
                (0, vec![1, 4]),
                (1, vec![100, 121]),
                (2, vec![9]),
                (0, vec![144, 196]),
                (2, vec![169]),
            ]
        );
    }

    #[test]
    fn no_survivor_and_item_errors_are_typed() {
        let err = run(
            vec![vec![1, 2]],
            2,
            Some(HostKill {
                host: 0,
                after_chunks: 1,
            }),
        );
        assert!(matches!(err, Err(CnrError::Pipeline(why)) if why == "all dead"));
        let failing = run_hosts(
            vec![vec![1u32, 2, 3], vec![4]],
            4,
            None,
            |_, x| {
                if *x == 2 {
                    Err(CnrError::Pipeline("boom".into()))
                } else {
                    Ok(*x)
                }
            },
            |_, _| Ok(()),
            |_, _| {},
            "all dead",
        );
        assert!(matches!(failing, Err(CnrError::Pipeline(why)) if why == "boom"));
    }
}
