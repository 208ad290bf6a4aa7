//! What counts as a failed request.
//!
//! A request fails when it gets no reply, when the wire or the gateway
//! refuses it (a transport or protocol error, `overloaded` included), or
//! when the engine answers [`EngineError::Backend`]. `Denied`,
//! `NotFound` and `RetentionExpired` are grounded answers: the engine
//! did its job and said no.

use datacase_engine::error::EngineError;
use datacase_engine::frontend::Reply;
use datacase_server::WireError;

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The engine carried the request out.
    Answered,
    /// The engine refused it on grounds (policy, missing key, retention).
    Grounded,
    /// No usable answer.
    Failed,
}

/// Classify one engine reply.
pub fn of_reply(outcome: &Result<Reply, EngineError>) -> Outcome {
    match outcome {
        Ok(_) => Outcome::Answered,
        Err(EngineError::Denied { .. })
        | Err(EngineError::NotFound { .. })
        | Err(EngineError::RetentionExpired { .. }) => Outcome::Grounded,
        Err(EngineError::Backend { .. }) => Outcome::Failed,
    }
}

/// Is this wire error the gateway's load-shedding refusal?
pub fn is_refusal(error: &WireError) -> bool {
    matches!(error, WireError::Protocol(detail) if detail.starts_with("overloaded"))
}

/// Running tally of attempted and failed requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Requests answered on grounds.
    pub grounded: u64,
}

impl Tally {
    /// Count one request.
    pub fn add(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Answered => {}
            Outcome::Grounded => self.grounded += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.grounded += other.grounded;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacase_sim::time::Ts;

    #[test]
    fn grounded_answers_are_not_failures() {
        assert_eq!(of_reply(&Ok(Reply::Done)), Outcome::Answered);
        assert_eq!(of_reply(&Ok(Reply::Value(1024))), Outcome::Answered);
        for error in [
            EngineError::Denied {
                reason: "purpose".into(),
            },
            EngineError::NotFound { key: 7 },
            EngineError::RetentionExpired {
                key: 7,
                since: Ts(1),
            },
        ] {
            assert_eq!(of_reply(&Err(error)), Outcome::Grounded);
        }
    }

    #[test]
    fn backend_errors_fail_and_shedding_is_recognised() {
        let backend = EngineError::Backend {
            detail: "io".into(),
        };
        assert_eq!(of_reply(&Err(backend)), Outcome::Failed);
        let shed = WireError::Protocol("overloaded: gateway at its bound".into());
        assert!(is_refusal(&shed));
        assert!(!is_refusal(&WireError::Timeout));
    }

    #[test]
    fn tally_counts_shares() {
        let mut t = Tally::default();
        t.add(Outcome::Answered);
        t.add(Outcome::Grounded);
        t.add(Outcome::Failed);
        t.add(Outcome::Answered);
        assert_eq!((t.attempted, t.failed, t.grounded), (4, 1, 1));
        assert_eq!(t.failed_share(), 0.25);
        let mut u = Tally::default();
        u.merge(t);
        assert_eq!(u, t);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }
}
