//! Modeled time: stamps, where a kernel lands on its stream, and the
//! sleep-then-spin wait for an instant.
//!
//! A *stamp* is an instant written as nanoseconds since the process's clock
//! epoch, so that it fits one atomic. Stamp 0 lies before any kernel could
//! end: a value stamped 0 is ready now.

use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The stamp of `at` (0 for instants before the epoch).
pub fn stamp_of(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// The stamp of now.
pub fn stamp_now() -> u64 {
    stamp_of(Instant::now())
}

/// The instant a stamp stands for.
pub fn instant_of(stamp: u64) -> Instant {
    epoch() + Duration::from_nanos(stamp)
}

/// Where a kernel of `modeled` duration lands on a stream, as `(start,
/// end)` stamps. It starts at the last of three: the host launching it
/// (`now`), the stream finishing what was enqueued before it
/// (`busy_until`), and its inputs becoming ready (`ready`). Stream order is
/// this arithmetic, so back-to-back kernels of one stream leave no gap, a
/// host that lags shows up as a gap of exactly its lag, and a value from
/// another stream is waited for without an event.
pub fn kernel_window(now: u64, busy_until: u64, ready: u64, modeled: Duration) -> (u64, u64) {
    let start = now.max(busy_until).max(ready);
    (start, start + modeled.as_nanos() as u64)
}

/// Modeled waits below this are served purely by spinning: an OS sleep is
/// not worth its overshoot at this scale.
const PURE_SPIN_BELOW: Duration = Duration::from_micros(100);

/// Measures the scheduler's typical overshoot for a minimal sleep, once per
/// process. A 1ns `thread::sleep` returns after (timer slack + wakeup
/// latency); sleeping `remain - overshoot` then spinning the rest gives
/// microsecond-accurate deadlines without hardcoding a guess.
fn sleep_overshoot() -> Duration {
    static OVERSHOOT: OnceLock<Duration> = OnceLock::new();
    *OVERSHOOT.get_or_init(|| {
        let mut worst = Duration::ZERO;
        for _ in 0..8 {
            let t0 = Instant::now();
            thread::sleep(Duration::from_nanos(1));
            worst = worst.max(t0.elapsed());
        }
        // Headroom for scheduling jitter beyond the sampled worst case,
        // bounded so a loaded calibration run cannot degrade every wait
        // into a full spin.
        (worst * 2).clamp(Duration::from_micros(20), Duration::from_micros(500))
    })
}

/// Waits until `deadline` with microsecond accuracy: `park` takes the bulk
/// of the wait (an OS sleep or a condvar wait, whose granularity is tens of
/// microseconds), then a short spin. `park` is handed the instant to wake
/// by, `deadline` less the OS's wake-up lateness as measured once per
/// process, and may return sooner: it is called again while the remainder
/// exceeds that margin. It returns `false` to abandon the wait, and then so
/// does this.
///
/// The executor's driving thread parks on its step's condvar while a `Recv`
/// value is in flight or a host op waits for a kernel's modeled end.
/// Without the spin, a host op waiting for a few-microsecond kernel would
/// wake at the sleeper's ~60 microsecond floor, and a 25 microsecond
/// network hop would take 60–100. Each turn of the spin yields the CPU:
/// when threads outnumber cores (concurrent steps, each driven by its
/// caller, or pool threads running spilled work), a waiter that held its
/// core would starve the very thread it waits for.
pub fn wait_until(deadline: Instant, mut park: impl FnMut(Instant) -> bool) -> bool {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        let margin = sleep_overshoot();
        if deadline - now > margin.max(PURE_SPIN_BELOW) {
            if !park(deadline - margin) {
                return false;
            }
        } else {
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn back_to_back_kernels_leave_no_gap() {
        // The host launches the second kernel while the first still runs.
        let (s1, e1) = kernel_window(100 * US, 0, 0, Duration::from_micros(50));
        let (s2, e2) = kernel_window(101 * US, e1, 0, Duration::from_micros(50));
        assert_eq!((s1, e1), (100 * US, 150 * US));
        assert_eq!(s2 - e1, 0, "same-stream successor starts at its predecessor's end");
        assert_eq!(e2, 200 * US);
    }

    #[test]
    fn host_lag_shows_up_as_a_gap() {
        // The stream went idle at 150 µs; the host launched at 157 µs.
        let (start, end) = kernel_window(157 * US, 150 * US, 0, Duration::from_micros(10));
        assert_eq!(start - 150 * US, 7 * US, "the gap equals the host's lag");
        assert_eq!(end, 167 * US);
    }

    #[test]
    fn cross_input_stamp_is_honoured() {
        // An input from another stream is ready only at 400 µs.
        let (start, end) = kernel_window(100 * US, 150 * US, 400 * US, Duration::from_micros(20));
        assert_eq!((start, end), (400 * US, 420 * US));
    }

    #[test]
    fn stamps_round_trip_through_instants() {
        // Instants before the epoch saturate to stamp 0, so fix the epoch
        // first.
        stamp_now();
        let now = Instant::now();
        let back = instant_of(stamp_of(now));
        assert!(back <= now && now - back < Duration::from_micros(1));
        assert!(stamp_now() >= stamp_of(now));
    }

    #[test]
    fn wait_until_never_undershoots() {
        // Short waits take the pure-spin path; longer ones sleep with the
        // calibrated margin and spin the tail. Overshoot bounds are kept
        // loose (shared CI machines), undershoot is exact.
        for wait in [Duration::from_micros(50), Duration::from_micros(300)] {
            let t0 = Instant::now();
            wait_until(t0 + wait, |until| {
                thread::sleep(until.saturating_duration_since(Instant::now()));
                true
            });
            let elapsed = t0.elapsed();
            assert!(elapsed >= wait, "undershot: {elapsed:?} < {wait:?}");
            assert!(elapsed < wait + Duration::from_millis(50), "runaway wait: {elapsed:?}");
        }
    }
}
