//! Open-loop schedule and latency accounting.
//!
//! Requests are due on a fixed schedule whether or not earlier ones have
//! finished. Each request is timed from when it was *due*, so a stall
//! also charges the wait it imposes on the requests queued behind it;
//! timing from the actual send would hide that wait.

/// Due offsets (ns from the start) of `slots` slots at `rate` per second.
pub fn slots_ns(rate: f64, slots: usize) -> Vec<u64> {
    (0..slots)
        .map(|i| (i as f64 * 1e9 / rate).round() as u64)
        .collect()
}

/// Timestamps of one open-loop request, in ns on a common clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// When the schedule said the request should go out.
    pub due_ns: u64,
    /// When the generator handed it to a connection's queue.
    pub released_ns: u64,
    /// When a connection actually wrote it.
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
}

impl Stamp {
    /// Latency charged to the request: reply time minus due time.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Round trip on the wire, from the actual send.
    pub fn service_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }

    /// How late the generator itself released the request.
    pub fn gen_lag_ms(&self) -> f64 {
        self.released_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// True when latency grows across the run — the queue is not draining.
/// Compares the median latency of the last fifth of the requests (in due
/// order) with the first fifth: growth beyond twice the first fifth plus
/// `slack_ms` counts as a growing backlog.
pub fn backlog_grows(latency_in_due_order: &[f64], slack_ms: f64) -> bool {
    let n = latency_in_due_order.len();
    if n < 10 {
        return false;
    }
    let k = n / 5;
    let first = crate::stats::median(&latency_in_due_order[..k]);
    let last = crate::stats::median(&latency_in_due_order[n - k..]);
    last > 2.0 * first + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serve a schedule on one connection with a fixed service time and
    /// one stall, the way a single synchronous client does.
    fn serve(due: &[u64], service_ns: u64, stall_at: usize, stall_ns: u64) -> Vec<Stamp> {
        let mut free_at = 0;
        due.iter()
            .enumerate()
            .map(|(i, &d)| {
                let sent = d.max(free_at);
                let extra = if i == stall_at { stall_ns } else { 0 };
                let done = sent + service_ns + extra;
                free_at = done;
                Stamp {
                    due_ns: d,
                    released_ns: d,
                    sent_ns: sent,
                    done_ns: done,
                }
            })
            .collect()
    }

    #[test]
    fn slots_follow_the_rate() {
        assert_eq!(slots_ns(100.0, 3), vec![0, 10_000_000, 20_000_000]);
        assert_eq!(slots_ns(3.0, 2)[1], 333_333_333);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // Due every 10 ms, 1 ms service, a 45 ms stall on request 2.
        let due = slots_ns(100.0, 10);
        let st = serve(&due, 1_000_000, 2, 45_000_000);
        let from_due: Vec<f64> = st.iter().map(Stamp::latency_ms).collect();
        let from_send: Vec<f64> = st.iter().map(Stamp::service_ms).collect();
        assert_eq!(from_due[2], 46.0);
        // Request 3 was due at 30 ms but could only go out at 66 ms.
        assert_eq!(from_due[3], 37.0);
        assert_eq!(from_send[3], 1.0, "timing from the send hides the wait");
        assert_eq!(from_due[6], 10.0);
        assert_eq!(from_due[7], 1.0, "the queue has drained by request 7");
        assert!(st.iter().all(|s| s.gen_lag_ms() == 0.0));
    }

    #[test]
    fn generator_lateness_is_separate_from_queueing() {
        let s = Stamp {
            due_ns: 1_000_000,
            released_ns: 3_000_000,
            sent_ns: 9_000_000,
            done_ns: 10_000_000,
        };
        assert_eq!(s.gen_lag_ms(), 2.0);
        assert_eq!(s.latency_ms(), 9.0);
        assert_eq!(s.service_ms(), 1.0);
    }

    #[test]
    fn overload_shows_as_a_growing_backlog() {
        // Due every 1 ms but 2 ms of service: each request waits longer.
        let due = slots_ns(1000.0, 200);
        let over: Vec<f64> = serve(&due, 2_000_000, usize::MAX, 0)
            .iter()
            .map(Stamp::latency_ms)
            .collect();
        assert!(backlog_grows(&over, 1.0));
        let under: Vec<f64> = serve(&due, 500_000, usize::MAX, 0)
            .iter()
            .map(Stamp::latency_ms)
            .collect();
        assert!(!backlog_grows(&under, 1.0));
    }
}
