//! Modeled time: stamps, and where a kernel lands on its stream.
//!
//! A *stamp* is an instant written as nanoseconds since the process's clock
//! epoch, so that it fits one atomic. Stamp 0 lies before any kernel could
//! end: a value stamped 0 is ready now.

use std::sync::OnceLock;
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
}
