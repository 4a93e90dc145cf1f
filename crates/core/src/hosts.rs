//! The host-pool coordinator and the link rule shared by the write path
//! ([`crate::write`]) and the recovery path ([`crate::read`]).
//!
//! Both directions run the same shape of work: every simulated host owns a
//! list of items (chunks to quantize and upload, or chunks to fetch and
//! decode), a worker budget spreads over the hosts and then over each
//! host's items, one host may be killed partway through its list, and
//! whatever it left behind is dealt onto the survivors. That shape lives
//! here once, generic over the item and its result; the directions differ
//! only in the closures they pass. The serial case is `hosts = 1`.
//!
//! Both directions also move bytes by one rule, [`Links`]: nothing starts
//! on a host's link before the *floor*, and a host's items take its link
//! in *turn* order — an item's place in its host's list — whatever order
//! its workers reach them in, so simulated time follows the lists, never
//! thread timing. An object several hosts can carry goes over the link
//! that frees first, and the *completion point* is when all carried so
//! far has landed.

use crate::error::{CnrError, Result};
use cnr_cluster::HostKill;
use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The links of one transfer's hosts: one write's uplinks or one restore's
/// downlinks.
pub(crate) struct Links {
    state: Mutex<LinkState>,
    /// Signalled whenever a host's turn moves on.
    handed_on: Condvar,
}

struct LinkState {
    floor: Duration,
    /// The completion point, never before the floor.
    done_at: Duration,
    /// When each host's link frees: the end of the last transfer it carried.
    free_at: Vec<Duration>,
    /// Per host, the turn that may take its link next, and the later turns
    /// that already ended, out of order.
    turns: Vec<(u32, BTreeSet<u32>)>,
}

impl Links {
    /// The links of `hosts` hosts, none carrying anything before `floor`.
    pub(crate) fn new(hosts: usize, floor: Duration) -> Self {
        let state = LinkState {
            floor,
            done_at: floor,
            free_at: vec![Duration::ZERO; hosts],
            turns: vec![Default::default(); hosts],
        };
        Self { state: Mutex::new(state), handed_on: Condvar::new() }
    }

    fn state(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raises the floor to `t`: no later transfer starts before it.
    pub(crate) fn raise_floor(&self, t: Duration) {
        let mut s = self.state();
        s.floor = s.floor.max(t);
        s.done_at = s.done_at.max(s.floor);
    }

    /// The instant no transfer starts before.
    pub(crate) fn floor(&self) -> Duration {
        self.state().floor
    }

    /// The completion point: everything carried so far has landed.
    pub(crate) fn done_at(&self) -> Duration {
        self.state().done_at
    }

    /// When `host`'s link frees for a new transfer: at the end of its last
    /// one, never before the floor.
    pub(crate) fn frees_at(&self, host: u16) -> Duration {
        let s = self.state();
        s.free_at[host as usize].max(s.floor)
    }

    /// The host of `hosts` whose link frees first, the lowest index on a
    /// tie.
    pub(crate) fn earliest_free(&self, hosts: &[u16]) -> u16 {
        let first = hosts.iter().copied().min_by_key(|&h| (self.frees_at(h), h));
        first.expect("at least one host to choose from")
    }

    /// Notes a transfer that lands at `at`, on `host`'s link (busy until
    /// then) or on none (a multipart commit): the completion point is no
    /// earlier.
    pub(crate) fn carried(&self, host: Option<u16>, at: Duration) {
        let mut s = self.state();
        if let Some(free) = host.map(|h| &mut s.free_at[h as usize]) {
            *free = (*free).max(at);
        }
        s.done_at = s.done_at.max(at);
    }

    /// Runs `reserve` — the transfers of the item at place `turn` of
    /// `host`'s list — once every earlier turn of the host has reserved or
    /// ended, and before any later one; `None` runs it at once, in no turn.
    pub(crate) fn in_turn<T>(&self, host: u16, turn: Option<u32>, reserve: impl FnOnce() -> T) -> T {
        let Some(turn) = turn else { return reserve() };
        let next = |s: &mut LinkState| s.turns[host as usize].0 < turn;
        drop(self.handed_on.wait_while(self.state(), next).unwrap_or_else(PoisonError::into_inner));
        let _hand_on = HandOn { links: self, host, turn };
        reserve()
    }

    /// Ends `host`'s `turn`: a later turn whose earlier ones all ended may
    /// take the link. Ending a turn twice is a no-op.
    fn hand_on(&self, host: u16, turn: u32) {
        let mut s = self.state();
        let (next, ended) = &mut s.turns[host as usize];
        if turn < *next || !ended.insert(turn) {
            return;
        }
        while ended.remove(next) {
            *next += 1;
        }
        drop(s);
        self.handed_on.notify_all();
    }
}

/// Ends a turn when dropped: after its item reserved, failed or panicked.
struct HandOn<'a> {
    links: &'a Links,
    host: u16,
    turn: u32,
}

impl Drop for HandOn<'_> {
    fn drop(&mut self) {
        self.links.hand_on(self.host, self.turn);
    }
}

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

/// Runs `jobs[h]` on host `h` for every host, on at most `workers` threads,
/// as `one(host, turn, &item)`: `jobs[h]` runs turns `0..jobs[h].len()`.
/// Each turn of `links` ends when its item does, so an item that never
/// reserves ([`Links::in_turn`]), or fails first, stalls no later one.
///
/// The worker budget spreads over both levels: up to `min(workers, hosts)`
/// hosts run concurrently, and each splits its remaining share
/// (`workers / hosts`, at least 1) into an item-level pipeline — so a
/// single-host run still works on all `workers` threads. Results come back
/// in assignment order whatever the thread count.
///
/// `kill` names a host that dies after completing `after_chunks` items:
/// `die(host, turn, &item)` runs on the item it was working on (the
/// in-flight transfer it abandons), and that item plus everything after it
/// is dealt round-robin onto the surviving hosts and run in a second pass,
/// continuing each adopter's turns after its own list. A killed host's list
/// runs sequentially so the death point is deterministic. When no host
/// survives the error is `CnrError::Pipeline(all_dead)`.
pub(crate) fn run_hosts<I, O>(
    jobs: Vec<Vec<I>>,
    workers: usize,
    kill: Option<HostKill>,
    links: &Links,
    one: impl Fn(u16, u32, &I) -> Result<O> + Sync,
    die: impl Fn(u16, u32, &I) -> Result<()> + Sync,
    all_dead: &str,
) -> Result<HostsOutcome<O>>
where
    I: Send,
    O: Send,
{
    let lens: Vec<u32> = jobs.iter().map(|items| items.len() as u32).collect();
    let jobs = (0..).zip(jobs).map(|(h, items)| (h, 0, items)).collect();
    let mut outcome = HostsOutcome {
        done: Vec::with_capacity(lens.len()),
        killed_hosts: Vec::new(),
        resharded: 0,
    };
    let mut left = Vec::new();
    for run in run_pass(jobs, workers, kill, links, &one, &die)? {
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
    let survivors: Vec<u16> = (0..lens.len() as u16)
        .filter(|h| !outcome.killed_hosts.contains(h))
        .collect();
    if survivors.is_empty() {
        return Err(CnrError::Pipeline(all_dead.into()));
    }
    let mut rescue: Vec<(u16, u32, Vec<I>)> =
        survivors.iter().map(|&h| (h, lens[h as usize], Vec::new())).collect();
    for (i, item) in left.into_iter().enumerate() {
        rescue[i % survivors.len()].2.push(item);
    }
    rescue.retain(|(_, _, items)| !items.is_empty());
    for run in run_pass(rescue, workers, None, links, &one, &die)? {
        outcome.done.push((run.host, run.done));
    }
    Ok(outcome)
}

/// One pass: each `(host, first turn, items)` on its own share of the
/// workers.
fn run_pass<I, O>(
    jobs: Vec<(u16, u32, Vec<I>)>,
    workers: usize,
    kill: Option<HostKill>,
    links: &Links,
    one: &(impl Fn(u16, u32, &I) -> Result<O> + Sync),
    die: &(impl Fn(u16, u32, &I) -> Result<()> + Sync),
) -> Result<Vec<HostRun<I, O>>>
where
    I: Send,
    O: Send,
{
    let threads_per_host = (workers / jobs.len().max(1)).max(1);
    pool(workers, jobs, |(host, first, items)| {
        let kill_after = kill.filter(|k| k.host == host).map(|k| k.after_chunks);
        let each = |turn: u32, item: &I| {
            let _hand_on = HandOn { links, host, turn };
            one(host, turn, item)
        };
        run_host(host, first, items, kill_after, threads_per_host, each, die)
    })
}

fn run_host<I, O>(
    host: u16,
    first: u32,
    items: Vec<I>,
    kill_after: Option<u32>,
    threads: usize,
    one: impl Fn(u32, &I) -> Result<O> + Sync,
    die: &(impl Fn(u16, u32, &I) -> Result<()> + Sync),
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
    let turns = first..;
    if threads > 1 && kill_after.is_none() && items.len() > 1 {
        // Items move into the queue, so each is freed as soon as it is done.
        run.done = pool(threads, turns.zip(items).collect(), |(turn, item)| one(turn, &item))?;
        return Ok(run);
    }
    let mut iter = turns.zip(items);
    while let Some((turn, item)) = iter.next() {
        if kill_after == Some(run.done.len() as u32) {
            die(host, turn, &item)?;
            run.left.push(item);
            run.left.extend(iter.map(|(_, item)| item));
            break;
        }
        run.done.push(one(turn, &item)?);
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
    use std::sync::Mutex;

    /// An item's host, turn and square.
    type Squared = (u16, u32, u32);

    fn square(host: u16, turn: u32, x: &u32) -> Result<Squared> {
        Ok((host, turn, x * x))
    }

    fn run(jobs: Vec<Vec<u32>>, workers: usize, kill: Option<HostKill>) -> Result<HostsOutcome<Squared>> {
        let links = Links::new(jobs.len(), Duration::ZERO);
        run_hosts(jobs, workers, kill, &links, square, |_, _, _| Ok(()), "all dead")
    }

    fn kill(host: u16, after_chunks: u32) -> Option<HostKill> {
        Some(HostKill { host, after_chunks })
    }

    /// Turns run `0..n` on each host, item `i` at turn `i`, for any worker
    /// count; `square` never reserves, so nothing waits on a turn.
    #[test]
    fn results_keep_assignment_order_for_any_worker_count() {
        let jobs = vec![(0..40).collect::<Vec<u32>>(), vec![], (40..45).collect()];
        let want: Vec<(u16, Vec<Squared>)> = jobs
            .iter()
            .enumerate()
            .map(|(h, items)| {
                let h = h as u16;
                (h, items.iter().zip(0..).map(|(x, turn)| (h, turn, x * x)).collect())
            })
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = run(jobs.clone(), workers, None).unwrap();
            assert_eq!(out.done, want, "workers={workers}");
            assert!(out.killed_hosts.is_empty());
            assert_eq!(out.resharded, 0);
        }
    }

    /// A killed host's leftovers go round-robin to the survivors and
    /// continue each adopter's turns after its own list.
    #[test]
    fn a_killed_host_hands_its_tail_round_robin_to_the_survivors() {
        let jobs = vec![vec![1, 2], vec![10, 11, 12, 13, 14], vec![3]];
        let died_on = Mutex::new(Vec::new());
        let links = Links::new(3, Duration::ZERO);
        let out = run_hosts(jobs, 4, kill(1, 2), &links, square, |host, turn, item| {
            died_on.lock().unwrap().push((host, turn, *item));
            Ok(())
        }, "all dead")
        .unwrap();
        assert_eq!(*died_on.lock().unwrap(), vec![(1, 2, 12)]);
        assert_eq!(out.killed_hosts, vec![1]);
        assert_eq!(out.resharded, 3);
        assert_eq!(
            out.done,
            vec![
                (0, vec![(0, 0, 1), (0, 1, 4)]),
                (1, vec![(1, 0, 100), (1, 1, 121)]),
                (2, vec![(2, 0, 9)]),
                (0, vec![(0, 2, 144), (0, 3, 196)]),
                (2, vec![(2, 1, 169)]),
            ]
        );
    }

    #[test]
    fn no_survivor_and_item_errors_are_typed() {
        let err = run(vec![vec![1, 2]], 2, kill(0, 1));
        assert!(matches!(err, Err(CnrError::Pipeline(why)) if why == "all dead"));
        let links = Links::new(2, Duration::ZERO);
        let failing = run_hosts(
            vec![vec![1u32, 2, 3], vec![4]],
            4,
            None,
            &links,
            |_, _, x| if *x == 2 { Err(CnrError::Pipeline("boom".into())) } else { Ok(*x) },
            |_, _, _| Ok(()),
            "all dead",
        );
        assert!(matches!(failing, Err(CnrError::Pipeline(why)) if why == "boom"));
    }

    /// Runs `jobs` with every item reserving in its turn — after a stall
    /// that makes later turns reach their reservation first — except those
    /// `fails` names, which fail before reserving. Returns the outcome and
    /// each host's reservations in the order they were made.
    fn reserve_in_turn(
        jobs: Vec<Vec<u32>>,
        workers: usize,
        kill: Option<HostKill>,
        fails: impl Fn(u32) -> bool + Sync,
    ) -> (Result<HostsOutcome<u32>>, Vec<Vec<u32>>) {
        let links = Links::new(jobs.len(), Duration::ZERO);
        let reserved = Mutex::new(vec![Vec::new(); jobs.len()]);
        let outcome = run_hosts(
            jobs,
            workers,
            kill,
            &links,
            |host, turn, x| {
                if fails(*x) {
                    return Err(CnrError::Pipeline(format!("item {x}")));
                }
                std::thread::sleep(Duration::from_micros(300 * (8 - turn.min(8)) as u64));
                links.in_turn(host, Some(turn), || reserved.lock().unwrap()[host as usize].push(turn));
                Ok(*x)
            },
            |_, _, _| Ok(()),
            "all dead",
        );
        (outcome, reserved.into_inner().unwrap())
    }

    /// An item that ends without reserving never stalls a later turn of
    /// its host: one that fails first (the run returns its error instead
    /// of hanging), and a dead host's abandoned item, whose adopter
    /// reserves it in the adopter's own turn.
    #[test]
    fn a_turn_that_never_reserves_stalls_no_later_turn() {
        for workers in [1, 2, 4, 8] {
            let (outcome, reserved) =
                reserve_in_turn(vec![(0..6).collect(), (6..9).collect()], workers, None, |x| {
                    x == 1 || x == 6
                });
            assert!(matches!(outcome, Err(CnrError::Pipeline(why)) if why == "item 1"
                || why == "item 6"), "workers={workers}");
            // One thread per host stops a list at its first error; more
            // run every item, each later turn after the failed one.
            assert!(reserved.iter().all(|turns| turns.is_sorted()), "workers={workers}");
            if workers >= 4 {
                assert_eq!(reserved, [vec![0, 2, 3, 4, 5], vec![1, 2]], "workers={workers}");
            }

            let jobs = vec![vec![0, 1], (10..15).collect(), vec![20]];
            let (outcome, reserved) = reserve_in_turn(jobs, workers, kill(1, 2), |_| false);
            assert_eq!(outcome.unwrap().resharded, 3, "workers={workers}");
            assert_eq!(reserved, [vec![0, 1, 2, 3], vec![0, 1], vec![0, 1]], "workers={workers}");
        }
    }

    /// No host's link frees before the floor, and the earliest-free host
    /// ties to the lowest index whatever order the hosts are named in.
    #[test]
    fn earliest_free_never_starts_before_the_floor_and_ties_to_the_lowest_index() {
        let secs = Duration::from_secs;
        let links = Links::new(3, secs(5));
        assert_eq!((links.floor(), links.done_at()), (secs(5), secs(5)));
        assert_eq!(links.earliest_free(&[2, 1, 0]), 0, "all idle: free at the floor");
        links.carried(Some(0), secs(7));
        links.carried(Some(1), secs(3));
        assert_eq!([0, 1, 2].map(|h| links.frees_at(h)), [secs(7), secs(5), secs(5)]);
        assert_eq!(links.earliest_free(&[2, 1, 0]), 1);
        assert_eq!(links.earliest_free(&[0]), 0);
        assert_eq!(links.done_at(), secs(7));
        links.carried(None, secs(9));
        assert_eq!((links.done_at(), links.frees_at(0)), (secs(9), secs(7)), "a commit is on no link");
        links.raise_floor(secs(8));
        assert_eq!([0, 1, 2].map(|h| links.frees_at(h)), [secs(8); 3]);
        assert_eq!(links.earliest_free(&[2, 1, 0]), 0);
        links.raise_floor(secs(10));
        assert_eq!(links.done_at(), secs(10), "the completion point is never before the floor");
    }
}
