//! Admission and wake policy: pure functions of plain data.
//!
//! A replica's worker asks one question between steps: given what is
//! waiting, which entries have expired, which go into the next step, and
//! if none do yet, when should I look again? The answer depends only on
//! row counts, lanes, deadlines and clocks, so it is computed here from a
//! slice of [`Waiting`] values — no channels, tensors, metrics or locks —
//! and returned as a [`Decision`] the worker applies. Two policies share
//! that shape:
//!
//! * [`admit_requests`] — one-shot requests in two FIFO lanes, packed up
//!   to a row cap with head-of-line blocking inside each lane;
//! * [`gather_streams`] — at most one row per live stream, with a
//!   rotating cursor sharing the row cap when more streams are ready than
//!   fit.
//!
//! Both expire every past-due entry wherever it sits, and both compute
//! the wake instant from live entries only, so a past-due deadline can
//! never become the wake target (which would spin the worker).

use crate::batcher::Priority;
use std::time::{Duration, Instant};

/// One waiting entry as the policy sees it: a queued request, or a live
/// stream.
#[derive(Clone, Copy, Debug)]
pub struct Waiting {
    /// Rows wanting a slot: a request's row count; for a stream, the
    /// unserved rows of its front submission (`0` for an idle stream).
    pub rows: usize,
    /// Lane of a request; [`gather_streams`] ignores it.
    pub lane: Priority,
    /// Absolute expiry of the request or stream.
    pub deadline: Option<Instant>,
    /// When the request, or the stream's front submission, was enqueued:
    /// the start of its linger window.
    pub enqueued: Instant,
    /// A stream whose front submission already had a row served. Its next
    /// row dispatches at once; requests are never started.
    pub started: bool,
}

/// What the worker should do now. Indices address the slice the policy
/// function was given.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Decision {
    /// Entries whose deadline has passed, ascending: complete them with
    /// `DeadlineExceeded`, whatever else happens.
    pub expire: Vec<usize>,
    /// Entries to run in one step now, in batch-row order. Empty means
    /// "not yet".
    pub take: Vec<usize>,
    /// With `take` empty: when to decide again if nothing new arrives;
    /// `None` waits for a notification. Always later than `now`.
    pub wake: Option<Instant>,
}

impl Waiting {
    fn live(&self, now: Instant) -> bool {
        self.deadline.is_none_or(|d| d > now)
    }
}

/// Expired indices, and the live entries that want rows (with their
/// indices), in slice order.
fn sweep(entries: &[Waiting], now: Instant) -> (Vec<usize>, Vec<(usize, &Waiting)>) {
    let expire = (0..entries.len()).filter(|&i| !entries[i].live(now)).collect();
    let ready = entries.iter().enumerate().filter(|(_, e)| e.live(now) && e.rows > 0).collect();
    (expire, ready)
}

/// End of the linger window: the oldest unstarted ready entry's enqueue
/// instant plus `linger`.
fn linger_until(ready: &[(usize, &Waiting)], linger: Duration) -> Option<Instant> {
    ready.iter().filter(|(_, e)| !e.started).map(|(_, e)| e.enqueued + linger).min()
}

/// The earliest of `linger_until` and every live deadline (idle entries
/// included: an idle stream must still be retired on time).
fn next_wake(entries: &[Waiting], now: Instant, linger_until: Option<Instant>) -> Option<Instant> {
    entries.iter().filter(|e| e.live(now)).filter_map(|e| e.deadline).chain(linger_until).min()
}

/// One-shot admission. Dispatches when `max_rows` live rows are queued,
/// the oldest live request has waited `linger`, or the worker is
/// draining. A batch takes the interactive lane first, then the bulk
/// lane, each in FIFO order: the first request that does not fit blocks
/// the rest of its lane, so bulk traffic is delayed but never reordered.
pub fn admit_requests(
    entries: &[Waiting],
    max_rows: usize,
    linger: Duration,
    draining: bool,
    now: Instant,
) -> Decision {
    let (expire, ready) = sweep(entries, now);
    let until = linger_until(&ready, linger);
    let queued: usize = ready.iter().map(|(_, e)| e.rows).sum();
    let due = draining || queued >= max_rows || until.is_some_and(|u| u <= now);
    let mut take = Vec::new();
    if due {
        let mut rows = 0;
        for lane in [Priority::Interactive, Priority::Batch] {
            for (i, e) in ready.iter().filter(|(_, e)| e.lane == lane) {
                if rows + e.rows > max_rows {
                    break;
                }
                rows += e.rows;
                take.push(*i);
            }
        }
    }
    // Due with nothing takeable means the front request is larger than
    // any batch; only a deadline can change that, so linger is no target.
    let wake = take.is_empty().then(|| next_wake(entries, now, until.filter(|_| !due))).flatten();
    Decision { expire, take, wake }
}

/// Stream gathering: one row from each ready stream, in slice order.
/// Dispatches when `max_rows` streams are ready, any ready stream is
/// mid-submission (it must not stall between its own rows), the oldest
/// unstarted submission has waited `linger`, or the worker is draining.
/// When more streams are ready than fit, `max_rows` consecutive ones are
/// taken starting at `cursor` (modulo the ready count); the caller
/// advances `cursor` by the number taken, so a steady set of `n` ready
/// streams is fully visited every `⌈n / max_rows⌉` iterations.
pub fn gather_streams(
    entries: &[Waiting],
    max_rows: usize,
    linger: Duration,
    draining: bool,
    cursor: usize,
    now: Instant,
) -> Decision {
    let (expire, ready) = sweep(entries, now);
    let until = linger_until(&ready, linger);
    let due = draining
        || ready.len() >= max_rows
        || ready.iter().any(|(_, e)| e.started)
        || until.is_some_and(|u| u <= now);
    let mut take = Vec::new();
    if due && !ready.is_empty() {
        let n = ready.len();
        let start = if n > max_rows { cursor % n } else { 0 };
        take.extend((0..n.min(max_rows)).map(|k| ready[(start + k) % n].0));
    }
    let wake = take.is_empty().then(|| next_wake(entries, now, until)).flatten();
    Decision { expire, take, wake }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 4;
    const LINGER: Duration = Duration::from_millis(10);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A bulk-lane request of `rows` rows, enqueued at `enqueued`.
    fn request(rows: usize, enqueued: Instant) -> Waiting {
        Waiting { rows, lane: Priority::Batch, deadline: None, enqueued, started: false }
    }

    fn interactive(rows: usize, enqueued: Instant) -> Waiting {
        Waiting { lane: Priority::Interactive, ..request(rows, enqueued) }
    }

    fn expiring(w: Waiting, deadline: Instant) -> Waiting {
        Waiting { deadline: Some(deadline), ..w }
    }

    /// A stream with `rows` unserved rows in its front submission.
    fn stream(rows: usize, enqueued: Instant, started: bool) -> Waiting {
        Waiting { started, ..request(rows, enqueued) }
    }

    /// `admit_requests` with the linger already elapsed, so the lane
    /// policy is what decides.
    fn assemble(entries: &[Waiting], max_rows: usize, now: Instant) -> Decision {
        admit_requests(entries, max_rows, Duration::ZERO, false, now)
    }

    #[test]
    fn assembly_prefers_interactive_and_respects_row_cap() {
        let now = Instant::now();
        let q = [request(2, now), request(2, now), interactive(3, now)];
        // Interactive (3 rows) first, then the first bulk request (2
        // rows); the second bulk request does not fit.
        let d = assemble(&q, 5, now);
        assert_eq!(d.take, vec![2, 0]);
        assert!(d.expire.is_empty());
    }

    #[test]
    fn assembly_expires_requests_without_granting_slots() {
        let now = Instant::now();
        let q = [expiring(request(2, now), now - ms(1)), request(2, now)];
        // The expired request is completed with an error, and the live
        // one behind it takes the slot it would have occupied.
        let d = assemble(&q, 2, now);
        assert_eq!((d.expire, d.take), (vec![0], vec![1]));
    }

    #[test]
    fn head_of_line_blocking_stays_fifo_within_a_lane() {
        let now = Instant::now();
        // Cap 3: the 4-row head does not fit, and the 1-row request behind
        // it must NOT overtake (FIFO within a lane).
        let d = assemble(&[request(4, now), request(1, now)], 3, now);
        assert_eq!(d, Decision::default());
    }

    #[test]
    fn expired_request_behind_blocked_front_is_swept() {
        let now = Instant::now();
        let q = [request(4, now), expiring(request(2, now), now - ms(5))];
        // Cap 3: the live 4-row front does not fit, so nothing assembles,
        // but the expired request parked behind it is still swept (its
        // rows would otherwise keep counting against the queue capacity)
        // and its past-due deadline is not the wake target (a busy-spin).
        let d = assemble(&q, 3, now);
        assert_eq!((d.expire, d.take, d.wake), (vec![1], vec![], None));
    }

    #[test]
    fn expiry_sweep_preserves_fifo_among_live_requests() {
        let now = Instant::now();
        let q = [
            request(2, now),
            expiring(request(3, now), now - ms(1)),
            request(2, now),
            request(1, now),
        ];
        // Cap 3: the first request is taken, the expired one is swept, the
        // third (2 rows) does not fit, and the fourth (1 row) must NOT
        // overtake it even though it would fit.
        let d = assemble(&q, 3, now);
        assert_eq!((d.expire, d.take), (vec![1], vec![0]));
    }

    #[test]
    fn linger_waits_for_the_oldest_request_or_the_earliest_live_deadline() {
        let now = Instant::now();
        let q = [request(1, now - ms(4)), request(1, now - ms(1))];
        let d = admit_requests(&q, CAP, LINGER, false, now);
        assert!(d.take.is_empty());
        assert_eq!(d.wake, Some(now + ms(6)), "the oldest request's linger ends first");

        // A live deadline before the end of the linger is the target.
        let q = [request(1, now - ms(4)), expiring(request(1, now), now + ms(2))];
        assert_eq!(admit_requests(&q, CAP, LINGER, false, now).wake, Some(now + ms(2)));

        // A past-due deadline never is: its entry is expired instead.
        let q = [request(1, now - ms(4)), expiring(request(1, now), now - ms(2))];
        let d = admit_requests(&q, CAP, LINGER, false, now);
        assert_eq!((d.expire, d.wake), (vec![1], Some(now + ms(6))));

        // Nothing live left: sleep until notified.
        let q = [expiring(request(1, now), now)];
        let d = admit_requests(&q, CAP, LINGER, false, now);
        assert_eq!((d.expire, d.take, d.wake), (vec![0], vec![], None));
    }

    #[test]
    fn a_full_cap_elapsed_linger_or_draining_dispatch_now() {
        let now = Instant::now();
        // A full cap means now, however young the requests are.
        let q = [request(3, now), request(1, now)];
        let d = admit_requests(&q, CAP, LINGER, false, now);
        assert_eq!((d.take, d.wake), (vec![0, 1], None));
        // Rows of expired requests do not fill the cap.
        let q = [request(3, now), expiring(request(1, now), now - ms(1))];
        assert!(admit_requests(&q, CAP, LINGER, false, now).take.is_empty());
        // The linger of the oldest request has elapsed.
        let q = [request(1, now - LINGER)];
        assert_eq!(admit_requests(&q, CAP, LINGER, false, now).take, vec![0]);
        // Draining suppresses linger.
        let q = [request(1, now)];
        assert!(admit_requests(&q, CAP, LINGER, false, now).take.is_empty());
        assert_eq!(admit_requests(&q, CAP, LINGER, true, now).take, vec![0]);
    }

    #[test]
    fn an_oversized_front_is_not_a_reason_to_spin() {
        let now = Instant::now();
        // Enqueue validation keeps such a request out; if one got in, the
        // worker must sleep rather than retry a batch that cannot form.
        let q = [request(CAP + 1, now - LINGER), expiring(request(1, now), now + ms(3))];
        let d = admit_requests(&q, CAP, LINGER, false, now);
        assert_eq!((d.take, d.wake), (vec![], Some(now + ms(3))));
    }

    #[test]
    fn streams_linger_unless_full_mid_submission_or_draining() {
        let now = Instant::now();
        let fresh = [stream(3, now - ms(1), false), stream(0, now, false)];
        let d = gather_streams(&fresh, CAP, LINGER, false, 0, now);
        assert!(d.take.is_empty(), "an under-full iteration of fresh submissions lingers");
        assert_eq!(d.wake, Some(now + ms(9)));
        // Draining suppresses linger.
        assert_eq!(gather_streams(&fresh, CAP, LINGER, true, 0, now).take, vec![0]);
        // A stream that is mid-submission suppresses linger for everyone
        // ready; the idle stream contributes no row.
        let mid = [stream(3, now, false), stream(0, now, false), stream(2, now - ms(50), true)];
        let d = gather_streams(&mid, CAP, LINGER, false, 0, now);
        assert_eq!((d.take, d.wake), (vec![0, 2], None));
        // A full cap means now.
        let full = [stream(1, now, false); CAP];
        assert_eq!(gather_streams(&full, CAP, LINGER, false, 0, now).take, vec![0, 1, 2, 3]);
    }

    #[test]
    fn idle_streams_still_expire_and_set_the_wake_target() {
        let now = Instant::now();
        let q = [
            expiring(stream(0, now, false), now + ms(7)),
            expiring(stream(0, now, false), now - ms(1)),
            expiring(stream(2, now, true), now),
        ];
        let d = gather_streams(&q, CAP, LINGER, false, 0, now);
        // The expired mid-submission stream is not gathered; the live
        // idle stream's deadline is when to look again.
        assert_eq!((d.expire, d.take, d.wake), (vec![1, 2], vec![], Some(now + ms(7))));
        assert_eq!(gather_streams(&[], CAP, LINGER, true, 0, now), Decision::default());
    }

    #[test]
    fn cursor_rotation_visits_every_ready_stream() {
        let now = Instant::now();
        for (n, cap) in [(5usize, 3usize), (7, 2), (9, 4), (4, 4), (3, 8)] {
            let q = vec![stream(100, now, true); n];
            let mut seen = vec![0usize; n];
            let mut cursor = 11; // wherever earlier iterations left it
            for _ in 0..n.div_ceil(cap) {
                let d = gather_streams(&q, cap, LINGER, false, cursor, now);
                assert_eq!(d.take.len(), n.min(cap));
                let mut distinct = d.take.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), d.take.len(), "at most one row per stream");
                d.take.iter().for_each(|&i| seen[i] += 1);
                cursor += d.take.len();
            }
            assert!(seen.iter().all(|&s| s >= 1), "n={n} cap={cap}: visits {seen:?}");
        }
    }
}
