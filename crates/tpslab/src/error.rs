//! Typed experiment errors.
//!
//! Invalid configurations used to die inside the run loop as panics or
//! `expect`s; every entry point now validates up front and returns an
//! [`Error`] the CLI renders as a one-line diagnostic instead of a
//! backtrace.

use std::fmt;

/// Why an experiment could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The configuration describes no guests at all.
    NoGuests,
    /// The configured run length is zero seconds.
    ZeroDuration,
    /// The configured run length exceeds
    /// [`MAX_DURATION_SECONDS`](crate::ExperimentConfig::MAX_DURATION_SECONDS),
    /// one simulated day.
    DurationTooLong {
        /// The configured run length, seconds.
        seconds: u64,
    },
    /// The guests' nominal memory exceeds the host's budget: past
    /// [`MAX_OVERCOMMIT`](crate::ExperimentConfig::MAX_OVERCOMMIT) ×
    /// usable RAM the throughput model collapses to noise.
    BudgetExceeded {
        /// Guests requested.
        guests: usize,
        /// Their summed nominal memory, MiB.
        nominal_mib: f64,
        /// The host's usable memory, MiB.
        usable_mib: f64,
        /// Largest guest count the budget admits (first-guest sizing).
        max_guests: usize,
    },
    /// A size divisor outside 1 to
    /// [`MAX_SCALE`](crate::ExperimentConfig::MAX_SCALE).
    ScaleOutOfRange {
        /// The divisor given.
        scale: f64,
    },
    /// A guest's memory cannot hold the kernel image it boots.
    GuestTooSmall {
        /// The guest's index in the configuration.
        guest: usize,
        /// The guest's memory, pages.
        guest_pages: usize,
        /// The image's kernel area, pages
        /// ([`OsImage::kernel_pages`](oskernel::OsImage::kernel_pages)).
        kernel_pages: usize,
    },
    /// No experiment preset has this name.
    UnknownPreset(String),
    /// No traffic scenario has this name.
    UnknownScenario(String),
    /// The monitoring daemon could not bind or serve its socket.
    Daemon(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoGuests => write!(f, "the configuration has no guests"),
            Error::ZeroDuration => write!(f, "the run duration is zero seconds"),
            Error::DurationTooLong { seconds } => write!(
                f,
                "the run duration of {seconds} s exceeds one simulated day ({} s)",
                crate::ExperimentConfig::MAX_DURATION_SECONDS
            ),
            Error::BudgetExceeded {
                guests,
                nominal_mib,
                usable_mib,
                max_guests,
            } => write!(
                f,
                "{guests} guests need {nominal_mib:.0} MiB nominal but the host's \
                 {usable_mib:.0} MiB usable caps the fleet at {max_guests} guests \
                 ({:.0}x over-commit)",
                crate::ExperimentConfig::MAX_OVERCOMMIT
            ),
            Error::ScaleOutOfRange { scale } => write!(
                f,
                "the size divisor {scale} is not a number from 1 (paper scale) to {}, \
                 the largest at which the scaled guests still hold a kernel and a JVM",
                crate::ExperimentConfig::MAX_SCALE
            ),
            Error::GuestTooSmall {
                guest,
                guest_pages,
                kernel_pages,
            } => write!(
                f,
                "guest {guest} has {guest_pages} pages of memory but its kernel image \
                 needs {kernel_pages}"
            ),
            Error::UnknownPreset(name) => write!(
                f,
                "unknown preset {name:?} (expected scale32 | scale256 | scale1024)"
            ),
            Error::UnknownScenario(name) => write!(
                f,
                "unknown traffic scenario {name:?}; expected one of:\n{}",
                traffic::Scenario::describe_all().trim_end()
            ),
            Error::Daemon(what) => write!(f, "monitoring daemon: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_one_line_diagnostics() {
        let e = Error::BudgetExceeded {
            guests: 99,
            nominal_mib: 9900.0,
            usable_mib: 1000.0,
            max_guests: 40,
        };
        let msg = e.to_string();
        assert!(msg.contains("99 guests"), "got: {msg}");
        assert!(msg.contains("caps the fleet at 40"), "got: {msg}");
        assert!(!msg.contains('\n'));

        assert!(Error::UnknownPreset("wat".into())
            .to_string()
            .contains("scale256"));
        assert!(Error::UnknownScenario("wat".into())
            .to_string()
            .contains("flash-crowd"));
    }
}
