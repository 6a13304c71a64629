//! The box's own noise, sampled before every round so that a reader can
//! tell a slow program from a slow minute. Nothing here calls into `dcf`.

use crate::stats::median;
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One probe of the host: a fixed ALU loop and a two-thread wake-up chain.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    /// Wall time of a fixed 2^21-step xorshift loop, ms.
    pub spin_ms: f64,
    /// Median condvar round trip between two threads, µs.
    pub pingpong_us: f64,
}

fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..(1u32 << 21) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `trips` round trips main → peer → main over one mutex and condvar: the
/// same hand-off the executor's worker pool and the batchers pay.
fn pingpong_us(trips: usize) -> f64 {
    // The shared turn: 0 = main's, 1 = peer's, 2 = stop.
    let turn = Arc::new((Mutex::new(0u8), Condvar::new()));
    let peer = {
        let turn = turn.clone();
        std::thread::spawn(move || {
            let (lock, cv) = &*turn;
            let mut t = lock.lock().expect("probe lock");
            loop {
                while *t == 0 {
                    t = cv.wait(t).expect("probe lock");
                }
                if *t == 2 {
                    return;
                }
                *t = 0;
                cv.notify_one();
            }
        })
    };
    let (lock, cv) = &*turn;
    let mut rtts = Vec::with_capacity(trips);
    for _ in 0..trips {
        let t0 = Instant::now();
        let mut t = lock.lock().expect("probe lock");
        *t = 1;
        cv.notify_one();
        while *t == 1 {
            t = cv.wait(t).expect("probe lock");
        }
        drop(t);
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    *lock.lock().expect("probe lock") = 2;
    cv.notify_one();
    peer.join().expect("probe thread");
    median(&rtts)
}

/// Samples the host once (~10 ms).
pub fn sample() -> HostSample {
    HostSample { spin_ms: spin_ms(), pingpong_us: pingpong_us(200) }
}
