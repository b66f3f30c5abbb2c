//! Deterministic wire-fault injection: a [`Transport`] wrapper driven by
//! a [`gist_chaos::Plan`] at the sites `wire.recv` and `wire.send` — the
//! Nth recv / Nth send while the plan is armed — so a test can say
//! "tear the third write" and get exactly that, every run.
//!
//! `wire.recv` acts on [`Action::Short`] (a short read; the frame
//! decoder must reassemble), [`Action::Reset`] and [`Action::Delay`];
//! `wire.send` on [`Action::Torn`] (a prefix reaches the peer, then the
//! connection resets — a torn write mid-frame), [`Action::Reset`] and
//! [`Action::Delay`]. A delay sleeps, then performs the operation
//! normally (drives deadline and eviction paths).

use std::io;
use std::sync::Arc;
use std::time::Duration;

use gist_chaos::{Action, Plan};

use crate::io::Transport;

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected reset")
}

/// [`Transport`] wrapper applying a [`Plan`] to an inner transport.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    plan: Arc<Plan>,
}

impl FaultTransport {
    /// Wrap `inner` under `plan`'s schedule.
    pub fn new(inner: Box<dyn Transport>, plan: Arc<Plan>) -> Self {
        FaultTransport { inner, plan }
    }

    /// Consult the plan at `site`: a reset fails, a delay sleeps first.
    fn hit(&self, site: &'static str) -> io::Result<Option<Action>> {
        match self.plan.hit(site) {
            Some(Action::Reset) => Err(reset_err()),
            Some(Action::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(None)
            }
            other => Ok(other),
        }
    }
}

impl Transport for FaultTransport {
    fn recv(&mut self, buf: &mut [u8], deadline: Duration) -> io::Result<usize> {
        match self.hit("wire.recv")? {
            Some(Action::Short(n)) => {
                let cap = n.clamp(1, buf.len().max(1)).min(buf.len());
                self.inner.recv(&mut buf[..cap], deadline)
            }
            _ => self.inner.recv(buf, deadline),
        }
    }

    fn send(&mut self, bytes: &[u8], deadline: Duration) -> io::Result<()> {
        match self.hit("wire.send")? {
            Some(Action::Torn(keep)) => {
                // Prefix bytes reach the peer, then the connection dies:
                // the peer's frame decoder is left holding a partial frame.
                self.inner.send(&bytes[..keep.min(bytes.len())], deadline)?;
                Err(reset_err())
            }
            _ => self.inner.send(bytes, deadline),
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::pipe_pair;
    use gist_chaos::Trigger;

    #[test]
    fn scheduled_faults_fire_by_op_index() {
        let (server_end, mut client_end) = pipe_pair();
        let plan = Plan::new();
        plan.add("wire.send", Trigger::At(1), Action::Torn(2));
        plan.add("wire.recv", Trigger::At(0), Action::Short(1));
        plan.arm();
        let mut t = FaultTransport::new(Box::new(server_end), plan.clone());
        let d = Duration::from_millis(50);

        // Send 0 is clean; send 1 tears after 2 bytes.
        t.send(b"abcd", d).unwrap();
        assert_eq!(t.send(b"wxyz", d).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        let mut buf = [0u8; 16];
        let n = client_end.recv(&mut buf, d).unwrap();
        assert_eq!(&buf[..n], b"abcdwx", "peer saw full frame 0 + torn prefix of 1");

        // Recv 0 is capped at one byte even though more is buffered.
        client_end.send(b"hello", d).unwrap();
        assert_eq!(t.recv(&mut buf, d).unwrap(), 1);
        assert_eq!(t.recv(&mut buf, d).unwrap(), 4, "recv 1 unscheduled, sees the rest");

        assert_eq!(plan.fires("wire.send"), 1);
        assert_eq!(plan.fires("wire.recv"), 1);
    }

    #[test]
    fn disarmed_plan_is_inert() {
        let (server_end, _client_end) = pipe_pair();
        let plan = Plan::new();
        plan.add("wire.send", Trigger::At(0), Action::Reset);
        let mut t = FaultTransport::new(Box::new(server_end), plan.clone());
        t.send(b"ok", Duration::from_millis(50)).unwrap();
        assert!(plan.fired().is_empty());
    }

    #[test]
    fn stall_delays_then_delivers() {
        let (server_end, mut client_end) = pipe_pair();
        let plan = Plan::new();
        plan.add("wire.send", Trigger::Next(1), Action::Delay(20));
        plan.arm();
        let mut t = FaultTransport::new(Box::new(server_end), plan.clone());
        let d = Duration::from_millis(200);
        let started = std::time::Instant::now();
        t.send(b"late", d).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(20), "the send stalled first");
        let mut buf = [0u8; 8];
        let n = client_end.recv(&mut buf, d).unwrap();
        assert_eq!(&buf[..n], b"late");
    }
}
