//! Admission control: a bounded run queue in front of a bounded number
//! of concurrently executing jobs.
//!
//! This gate bounds how many *jobs* execute at once (`max_running`, the
//! daemon's `--jobs` flag). Each job runs its machine's local phases on
//! the job's own thread, so `max_running` is also the daemon's bound on
//! the host cores that execution uses.
//!
//! A run request first tries to start immediately; if `max_running` jobs
//! are active it waits in the queue; if the queue is at `max_queued` it
//! is refused with a structured 429 so clients back off instead of
//! piling onto the listener.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::protocol::Reject;

#[derive(Debug, Default)]
struct Counts {
    running: usize,
    queued: usize,
}

/// The admission gate. One per server; cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Admission {
    max_running: usize,
    max_queued: usize,
    counts: Mutex<Counts>,
    changed: Condvar,
}

/// A granted execution slot. Dropping it releases the slot and wakes
/// one queued waiter, so slots cannot leak on panic or early return.
#[derive(Debug)]
pub struct Ticket<'a> {
    gate: &'a Admission,
    /// Host milliseconds this request waited in the queue (0 when a
    /// slot was free at arrival).
    pub queue_wait_ms: f64,
}

impl Admission {
    /// Gate with `max_running` concurrent jobs and `max_queued` waiters.
    pub fn new(max_running: usize, max_queued: usize) -> Self {
        assert!(max_running >= 1, "admission needs at least one run slot");
        Admission {
            max_running,
            max_queued,
            counts: Mutex::new(Counts::default()),
            changed: Condvar::new(),
        }
    }

    /// Acquire an execution slot, queueing if necessary. Returns a 429
    /// [`Reject`] when the queue is full.
    pub fn admit(&self) -> Result<Ticket<'_>, Reject> {
        let mut c = self.counts.lock().unwrap();
        if c.running < self.max_running {
            c.running += 1;
            return Ok(Ticket {
                gate: self,
                queue_wait_ms: 0.0,
            });
        }
        if c.queued >= self.max_queued {
            return Err(Reject::new(
                429,
                format!(
                    "server overloaded: {} running, {} queued (queue cap {})",
                    c.running, c.queued, self.max_queued
                ),
            ));
        }
        c.queued += 1;
        let started = Instant::now();
        while c.running >= self.max_running {
            c = self.changed.wait(c).unwrap();
        }
        c.queued -= 1;
        c.running += 1;
        Ok(Ticket {
            gate: self,
            queue_wait_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Block until no job is running or queued (graceful-drain barrier).
    pub fn drain(&self) {
        let mut c = self.counts.lock().unwrap();
        while c.running > 0 || c.queued > 0 {
            c = self.changed.wait(c).unwrap();
        }
    }

    /// Currently executing jobs.
    pub fn running(&self) -> usize {
        self.counts.lock().unwrap().running
    }

    /// Currently queued jobs.
    pub fn queued(&self) -> usize {
        self.counts.lock().unwrap().queued
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut c = self.gate.counts.lock().unwrap();
        c.running -= 1;
        drop(c);
        // Wake everything: queued admitters race for the freed slot and
        // the drain barrier re-checks. The queue is bounded (and small),
        // so the thundering herd is too.
        self.gate.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn overload_is_a_429() {
        let gate = Admission::new(1, 0);
        let t = gate.admit().unwrap();
        let err = gate.admit().unwrap_err();
        assert_eq!(err.code, 429);
        assert!(err.msg.contains("overloaded"));
        drop(t);
        let _t2 = gate.admit().unwrap();
    }

    #[test]
    fn queued_request_runs_after_release() {
        let gate = Arc::new(Admission::new(1, 4));
        let first = gate.admit().unwrap();
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let t = gate.admit().unwrap();
                    peak.fetch_max(gate.running(), Ordering::SeqCst);
                    drop(t);
                })
            })
            .collect();
        while gate.queued() < 4 {
            std::thread::yield_now();
        }
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "run cap held under load");
        gate.drain();
        assert_eq!(gate.running(), 0);
    }
}
