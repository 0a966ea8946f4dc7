//! The workspace-wide error type.
//!
//! A single flat enum rather than per-crate error hierarchies: the
//! simulation is one closed system and callers almost always either bubble
//! errors to the experiment driver or assert on the exact variant in tests.

/// Errors produced anywhere in the simulation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An entity id was not found in the store that owns it.
    NotFound {
        /// Entity class, e.g. `"user"`, `"campaign"`.
        entity: &'static str,
        /// Stringified id that failed to resolve.
        id: String,
    },
    /// An audience was below the platform's minimum-size threshold.
    AudienceTooSmall {
        /// Number of matched users.
        matched: usize,
        /// Platform minimum.
        minimum: usize,
    },
    /// An ad or campaign violated platform policy (ToS).
    PolicyViolation {
        /// Human-readable reason from the policy engine.
        reason: String,
    },
    /// An advertiser account has been suspended by platform enforcement.
    AccountSuspended {
        /// Stringified account id.
        account: String,
    },
    /// A campaign's budget is exhausted.
    BudgetExhausted {
        /// Stringified campaign id.
        campaign: String,
    },
    /// Invalid input to an API (bad parameter combination, empty upload…).
    InvalidInput {
        /// What was wrong.
        reason: String,
    },
    /// A Tread payload failed to decode.
    DecodeFailure {
        /// What was wrong with the payload.
        reason: String,
    },
    /// An internal invariant was violated.
    ///
    /// Returned instead of panicking on "impossible" states so a fault in
    /// one shard or one API call degrades into a reportable error rather
    /// than aborting a multi-day run.
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NotFound { entity, id } => write!(f, "{entity} {id} not found"),
            Error::AudienceTooSmall { matched, minimum } => write!(
                f,
                "audience too small: matched {matched} users, platform minimum is {minimum}"
            ),
            Error::PolicyViolation { reason } => write!(f, "policy violation: {reason}"),
            Error::AccountSuspended { account } => write!(f, "account {account} suspended"),
            Error::BudgetExhausted { campaign } => {
                write!(f, "campaign {campaign} budget exhausted")
            }
            Error::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            Error::DecodeFailure { reason } => write!(f, "decode failure: {reason}"),
            Error::Internal { what } => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Convenience constructor for [`Error::NotFound`].
    pub fn not_found(entity: &'static str, id: impl std::fmt::Display) -> Self {
        Error::NotFound {
            entity,
            id: id.to_string(),
        }
    }

    /// Convenience constructor for [`Error::InvalidInput`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        Error::InvalidInput {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::not_found("user", "u7");
        assert_eq!(e.to_string(), "user u7 not found");
        let e = Error::AudienceTooSmall {
            matched: 2,
            minimum: 20,
        };
        assert!(e.to_string().contains("matched 2"));
        let e = Error::invalid("empty PII upload");
        assert_eq!(e.to_string(), "invalid input: empty PII upload");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::invalid("x"));
    }
}
