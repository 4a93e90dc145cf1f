//! The per-host in-flight window shared by the upload scheduler
//! ([`crate::write::scheduler`]) and the fetch scheduler
//! ([`crate::read::scheduler`]).
//!
//! Both directions move a chunk as a sequence of transfers (multipart
//! parts up, ranged reads down) over a host's own link, and both bound how
//! many a host may have in flight in *simulated* time: transfer `n` may not
//! start before transfer `n − window` has finished, and none before a
//! floor. That bookkeeping lives here once; the schedulers add what
//! differs (multipart assembly and abort, retries and envelope healing).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Bounded in-flight transfer windows, one per host.
pub(crate) struct InFlightWindows {
    /// Completion times of in-flight transfers, one min-heap per host.
    windows: Vec<BinaryHeap<Reverse<Duration>>>,
    /// Transfers a host may have in flight.
    window: usize,
    /// No transfer may start before this simulated instant.
    floor: Duration,
    /// Simulated time at which everything recorded so far has completed
    /// (never earlier than the floor).
    done_at: Duration,
    transfers: u64,
    backpressure_stalls: u64,
}

impl InFlightWindows {
    /// Windows of `window` transfers for each of `hosts` hosts; nothing
    /// starts before `floor`.
    pub(crate) fn new(hosts: usize, window: usize, floor: Duration) -> Self {
        assert!(hosts >= 1 && window >= 1);
        Self {
            windows: (0..hosts).map(|_| BinaryHeap::new()).collect(),
            window,
            floor,
            done_at: floor,
            transfers: 0,
            backpressure_stalls: 0,
        }
    }

    /// Raises the floor: subsequent transfers may not begin before `t`.
    pub(crate) fn raise_floor(&mut self, t: Duration) {
        self.floor = self.floor.max(t);
        self.done_at = self.done_at.max(self.floor);
    }

    /// Admits the next transfer on `host`'s window: returns the earliest
    /// simulated time it may start. With a full window that is the
    /// completion time of the oldest in-flight transfer — backpressure —
    /// and never earlier than the floor.
    pub(crate) fn admit(&mut self, host: usize) -> Duration {
        if self.windows[host].len() >= self.window {
            let Reverse(earliest) = self.windows[host].pop().expect("window is non-empty");
            self.backpressure_stalls += 1;
            earliest.max(self.floor)
        } else {
            self.floor
        }
    }

    /// Records an admitted transfer on `host` that completes at
    /// `completed_at`.
    pub(crate) fn record(&mut self, host: usize, completed_at: Duration) {
        self.windows[host].push(Reverse(completed_at));
        self.transfers += 1;
        self.note_done(completed_at);
    }

    /// Folds a completion that occupies no window slot (a multipart
    /// assembly receipt) into [`Self::done_at`].
    pub(crate) fn note_done(&mut self, completed_at: Duration) {
        self.done_at = self.done_at.max(completed_at);
    }

    /// Retires every transfer finished by `now` and returns how many are
    /// still in flight.
    pub(crate) fn poll(&mut self, now: Duration) -> usize {
        for w in &mut self.windows {
            while matches!(w.peek(), Some(&Reverse(t)) if t <= now) {
                w.pop();
            }
        }
        self.windows.iter().map(BinaryHeap::len).sum()
    }

    /// Simulated time at which everything recorded so far has completed.
    pub(crate) fn done_at(&self) -> Duration {
        self.done_at
    }

    /// Transfers recorded so far.
    pub(crate) fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Times a transfer's start was delayed because its host's window was
    /// full.
    pub(crate) fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls
    }
}
