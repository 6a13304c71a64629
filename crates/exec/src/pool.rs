//! The executor's shared queue: an internal unbounded MPMC channel and a
//! persistent worker pool.
//!
//! The pool is not where most activations run. An executor thread keeps
//! what it makes ready on its own queue (see `executor.rs`, "Who runs an
//! activation"); the pool takes what becomes ready on a thread that must
//! not run graph nodes — a copy stream's completion callback — and what an
//! executor thread spills before it blocks or computes for long. One `send` + `notify_one` per such hand-off.
//!
//! The channel stands in for `crossbeam` so the workspace builds offline.
//! Senders and receivers are cheap clones sharing one queue; a `recv`
//! blocks until an item arrives or every sender is gone.
//!
//! [`WorkerPool`] owns worker threads created once per `Executor` and
//! reused across every `run` call.

use dcf_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

struct Chan<T> {
    queue: Mutex<VecDeque<T>>,
    available: Condvar,
    senders: AtomicUsize,
}

/// Sending half of the channel.
pub(crate) struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of the channel.
pub(crate) struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Error returned by `recv` once the channel is empty and closed.
#[derive(Debug)]
pub(crate) struct RecvError;

/// Creates an unbounded multi-producer multi-consumer channel.
pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        senders: AtomicUsize::new(1),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueues `item`, waking one blocked receiver. Never fails; the
    /// `Result` mirrors the crossbeam API shape for drop-in use.
    pub(crate) fn send(&self, item: T) -> Result<(), ()> {
        self.chan.queue.lock().push_back(item);
        self.chan.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.senders.fetch_add(1, Ordering::SeqCst);
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake every blocked receiver so it can
            // observe disconnection.
            self.chan.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `Err(RecvError)` once the queue is empty and all senders dropped.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.chan.queue.lock();
        loop {
            if let Some(item) = queue.pop_front() {
                return Ok(item);
            }
            if self.chan.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            self.chan.available.wait(&mut queue);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver { chan: self.chan.clone() }
    }
}

/// A message processed by [`WorkerPool`] workers.
pub(crate) enum PoolMsg<T> {
    /// A unit of work for the pool's handler.
    Job(T),
    /// Terminates exactly one worker (sent once per worker on drop).
    Shutdown,
}

/// A fixed set of worker threads draining one shared queue.
///
/// Workers live as long as the pool; jobs carry everything run-specific
/// (including an `Arc` to their run's shared state), so a single pool
/// serves any number of sequential or concurrent runs. Dropping the pool
/// sends one `Shutdown` per worker and joins them; jobs still queued
/// behind the shutdowns are dropped unprocessed, which is only reachable
/// for runs that already failed.
pub(crate) struct WorkerPool<T: Send + 'static> {
    tx: Sender<PoolMsg<T>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (at least one), each running `handler` on
    /// every received job.
    pub(crate) fn new<F>(name_prefix: &str, workers: usize, handler: F) -> WorkerPool<T>
    where
        F: Fn(T) + Send + Clone + 'static,
    {
        let (tx, rx) = unbounded::<PoolMsg<T>>();
        let mut handles = Vec::new();
        for w in 0..workers.max(1) {
            let rx = rx.clone();
            let handler = handler.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("{name_prefix}-{w}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                PoolMsg::Shutdown => break,
                                PoolMsg::Job(job) => handler(job),
                            }
                        }
                    })
                    .expect("failed to spawn pool worker"),
            );
        }
        WorkerPool { tx, handles }
    }

    /// A submission handle; clones are cheap and may outlive individual
    /// runs (but not the pool's workers — see `Drop`).
    pub(crate) fn sender(&self) -> Sender<PoolMsg<T>> {
        self.tx.clone()
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        for _ in 0..self.handles.len() {
            let _ = self.tx.send(PoolMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn multi_producer_multi_consumer_delivers_everything() {
        let (tx, rx) = unbounded::<usize>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_after_disconnect() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn pool_processes_jobs_and_shuts_down() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let pool = WorkerPool::new("test-pool", 4, move |n: usize| {
            c.fetch_add(n, Ordering::SeqCst);
        });
        let tx = pool.sender();
        for _ in 0..100 {
            let _ = tx.send(PoolMsg::Job(1));
        }
        // Drop joins workers after they drain the queue ahead of the
        // shutdown markers.
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_survives_sender_clones_outliving_jobs() {
        let pool = WorkerPool::new("test-pool2", 2, move |_: usize| {});
        let extra = pool.sender();
        drop(pool); // must not hang despite `extra` being alive
        let _ = extra.send(PoolMsg::Job(7)); // goes nowhere, must not panic
    }
}
