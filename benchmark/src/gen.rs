//! Seeded input generation and the open-loop request generator.
//!
//! The harness draws every feed, stream length and arrival gap from its own
//! generator, so a workload's inputs depend on `--seed` alone: a change to
//! the program's `TensorRng` cannot silently change what is measured.

use std::time::{Duration, Instant};

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// One generator per (seed, round, purpose): streams drawn for different
    /// purposes never shift each other.
    pub fn new(seed: u64, round: u32, purpose: u64) -> Rng {
        let mut r =
            Rng(seed ^ (u64::from(round) << 32) ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `n` uniform values in `[lo, hi)`.
    pub fn f32s(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| lo + (hi - lo) * self.unit() as f32).collect()
    }
}

/// Due times, as offsets from the start, of Poisson arrivals at `rate_per_s`
/// over `horizon`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= horizon.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Drives an open loop: calls `send(i, due)` for every entry of `schedule`,
/// sleeping until each is due and never after it — a generator that fell
/// behind (its own stall, or a `send` that blocked) catches up by sending
/// back to back. The caller times each request from `due`, so the wait a
/// stall imposes on the requests due during it is charged to them. Returns
/// how late each send started, in ms.
pub fn run_open_loop(
    start: Instant,
    schedule: &[Duration],
    mut send: impl FnMut(usize, Instant),
) -> Vec<f64> {
    let mut late_ms = Vec::with_capacity(schedule.len());
    for (i, offset) in schedule.iter().enumerate() {
        let due = start + *offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        send(i, due);
    }
    late_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_feeds_and_lengths() {
        let schedule =
            |seed| poisson_schedule(&mut Rng::new(seed, 0, 1), 2000.0, Duration::from_secs(1));
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let feeds = |seed, round| Rng::new(seed, round, 2).f32s(64, -1.0, 1.0);
        assert_eq!(feeds(7, 0), feeds(7, 0));
        assert_ne!(feeds(7, 0), feeds(8, 0));
        assert_ne!(feeds(7, 0), feeds(7, 1));
        let lengths = |seed| {
            let mut rng = Rng::new(seed, 0, 3);
            (0..32).map(|_| rng.range(3, 20)).collect::<Vec<_>>()
        };
        assert_eq!(lengths(7), lengths(7));
        assert_ne!(lengths(7), lengths(8));
        assert!(lengths(7).iter().all(|l| (3..=20).contains(l)));
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let due = poisson_schedule(&mut Rng::new(1, 0, 1), 2000.0, Duration::from_secs(2));
        assert!((3800..=4200).contains(&due.len()), "{} arrivals", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_during_it() {
        // 1 000 req/s for 60 ms; the stub stalls 20 ms inside request 10.
        let schedule: Vec<Duration> = (0..60).map(Duration::from_millis).collect();
        let stall = Duration::from_millis(20);
        let start = Instant::now();
        let mut done: Vec<(Instant, Instant)> = Vec::new();
        let mut sent_at: Vec<Instant> = Vec::new();
        let late_ms = run_open_loop(start, &schedule, |i, due| {
            sent_at.push(Instant::now());
            if i == 10 {
                std::thread::sleep(stall);
            }
            done.push((due, Instant::now()));
        });
        let from_due = |i: usize| done[i].1.duration_since(done[i].0);
        let from_send = |i: usize| done[i].1.duration_since(sent_at[i]);
        // Request 15 was due 5 ms into the stall: it waited the remaining
        // 15 ms, and only timing from its due time shows that.
        assert!(from_due(15) >= Duration::from_millis(14), "{:?}", from_due(15));
        assert!(from_send(15) < Duration::from_millis(5), "{:?}", from_send(15));
        assert!(late_ms[15] >= 14.0, "lateness {}", late_ms[15]);
        // The stalled request itself carries the whole stall.
        assert!(from_due(10) >= stall);
        // Catch-up: everything due during the stall went out back to back
        // right after it, not one per millisecond.
        assert!(sent_at[29].duration_since(sent_at[11]) < Duration::from_millis(10));
        // Requests due well after the stall are on time again.
        assert!(late_ms[50] < 5.0, "lateness {}", late_ms[50]);
    }
}
