//! A minimal one-shot channel on the workspace's `dcf-sync` primitives.
//!
//! The batcher completes each queued request exactly once — with its
//! scattered output slice or a structured error — through one of these.
//! No external crates: a `Mutex<Option<T>>` plus a condvar. Dropping the
//! sender without sending closes the channel, so a receiver can never
//! block forever on a batcher that went away. The sender signals the
//! condvar only when the receiver is parked on it: a step completes its
//! members one after the other, and all but the one being waited for have
//! nobody to wake.

use dcf_sync::{Condvar, Mutex};
use std::sync::Arc;

struct Inner<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

struct Slot<T> {
    value: Option<T>,
    closed: bool,
    /// The receiver is parked on the condvar.
    parked: bool,
}

/// The sending half; consumed by [`Sender::send`], closes on drop.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
    sent: bool,
}

/// The receiving half; [`Receiver::recv`] blocks for the value.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a connected one-shot pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        slot: Mutex::new(Slot { value: None, closed: false, parked: false }),
        cv: Condvar::new(),
    });
    (Sender { inner: inner.clone(), sent: false }, Receiver { inner })
}

impl<T> Sender<T> {
    /// Delivers the value, waking the receiver.
    pub fn send(mut self, value: T) {
        self.sent = true;
        self.inner.close(Some(value));
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if !self.sent {
            self.inner.close(None);
        }
    }
}

impl<T> Inner<T> {
    fn close(&self, value: Option<T>) {
        let parked = {
            let mut slot = self.slot.lock();
            slot.value = value;
            slot.closed = true;
            slot.parked
        };
        if parked {
            self.cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until the value arrives; `None` if the sender was dropped
    /// without sending (the batcher died mid-request).
    pub fn recv(self) -> Option<T> {
        let mut slot = self.inner.slot.lock();
        while !slot.closed {
            slot.parked = true;
            self.inner.cv.wait(&mut slot);
        }
        slot.value.take()
    }

    /// Whether [`Receiver::recv`] would return without blocking.
    pub fn is_ready(&self) -> bool {
        self.inner.slot.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_across_threads() {
        let (tx, rx) = channel::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        tx.send(7);
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn dropped_sender_closes() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), None);
    }
}
