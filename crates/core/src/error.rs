//! The one driver-level error of `bgw-core`.
//!
//! Every `Result`-returning GW driver — the checkpointed drivers, the
//! fault-tolerant distributed driver and the imaginary-axis pipeline —
//! fails with a [`GwError`]. The layer errors it wraps
//! ([`EpsilonError`], [`CommError`], [`IoError`], [`SpaceTimeError`],
//! [`PadeError`]) stay the typed surface of their own layers; `?` lifts
//! them through the `From` impls below.

use crate::epsilon::EpsilonError;
use crate::spacetime::SpaceTimeError;
use bgw_comm::CommError;
use bgw_dist::DistError;
use bgw_io::IoError;
use bgw_num::PadeError;

/// How a GW driver fails. Application conditions (a singular dielectric
/// matrix, a malformed checkpoint, a degenerate continuation) are reported
/// as data instead of panicking, so a distributed run never poisons its
/// world and a checkpointed run keeps its on-disk state resumable.
#[derive(Debug)]
pub enum GwError {
    /// The dielectric matrix is singular or non-finite. Retrying on a
    /// shrunken communicator would recompute the same matrix, so the
    /// fault-tolerant driver reports it instead of burning recoveries.
    Epsilon(EpsilonError),
    /// A runtime fault of the simulated communicator (crash, exhausted
    /// retries, persistent corruption, poisoned world).
    Comm(CommError),
    /// Checkpoint file traffic failed.
    Io(IoError),
    /// The [`CheckpointPolicy::abort_after_writes`] kill switch fired.
    ///
    /// [`CheckpointPolicy::abort_after_writes`]: crate::restart::CheckpointPolicy::abort_after_writes
    Aborted {
        /// Checkpoint writes completed before the abort.
        writes: usize,
    },
    /// A checkpoint decoded cleanly (checksums passed) but its payload
    /// does not fit the run resuming from it: a missing or mis-shaped
    /// matrix, a truncated metadata table, or a step count inconsistent
    /// with the stored data.
    Malformed {
        /// Which resume path rejected the record (`"chi"`, `"epsilon"`,
        /// `"sigma"`, `"evgw"`).
        stage: &'static str,
        /// What failed to validate.
        reason: String,
    },
    /// The space-time chi0 build failed.
    SpaceTime(SpaceTimeError),
    /// The Pade analytic continuation was degenerate.
    Pade(PadeError),
}

impl std::fmt::Display for GwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Epsilon(e) => write!(f, "epsilon stage: {e}"),
            Self::Comm(e) => write!(f, "communicator fault: {e}"),
            Self::Io(e) => write!(f, "checkpoint io: {e}"),
            Self::Aborted { writes } => {
                write!(
                    f,
                    "aborted after {writes} checkpoint writes (injected kill)"
                )
            }
            Self::Malformed { stage, reason } => {
                write!(f, "malformed checkpoint ({stage}): {reason}")
            }
            Self::SpaceTime(e) => write!(f, "space-time chi0: {e}"),
            Self::Pade(e) => write!(f, "analytic continuation: {e}"),
        }
    }
}

impl std::error::Error for GwError {}

impl From<EpsilonError> for GwError {
    fn from(e: EpsilonError) -> Self {
        Self::Epsilon(e)
    }
}

impl From<CommError> for GwError {
    fn from(e: CommError) -> Self {
        Self::Comm(e)
    }
}

impl From<IoError> for GwError {
    fn from(e: IoError) -> Self {
        Self::Io(e)
    }
}

impl From<SpaceTimeError> for GwError {
    fn from(e: SpaceTimeError) -> Self {
        Self::SpaceTime(e)
    }
}

impl From<PadeError> for GwError {
    fn from(e: PadeError) -> Self {
        Self::Pade(e)
    }
}

impl From<DistError> for GwError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::Comm(c) => Self::Comm(c),
            // Newton-Schulz non-convergence means the dielectric matrix is
            // singular/ill-conditioned — the same condition the LU
            // pre-flight reports, deterministic across ranks.
            DistError::NotConverged { .. } => Self::Epsilon(EpsilonError::Singular {
                freq_index: 0,
                omega: 0.0,
            }),
        }
    }
}
