//! Experiment harness.
//!
//! Every experiment listed in README's "Running experiments" (E1–E13,
//! ablation, scale, churn, byzantine) has a function in [`experiments`] that
//! produces its table, and a thin binary `exp_<id>` under `src/bin/` that
//! runs it and prints/writes the result. `svc_chaos` under `src/bin/` drives
//! the graph-service daemon through crash-and-replay cycles.
//!
//! All experiments accept a [`Scale`] so that the full evaluation (paper
//! scale) and a quick smoke-test scale share the same code path; the
//! integration tests run everything at [`Scale::Quick`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fit;
pub mod report;

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes and few trials: finishes in seconds, used by tests and CI.
    Quick,
    /// The full, paper-scale evaluation (minutes).
    Full,
}

impl Scale {
    /// Reads the scale from the command-line arguments of an experiment
    /// binary: `--quick` selects [`Scale::Quick`], anything else (or nothing)
    /// selects [`Scale::Full`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Multiplies a trial count by the scale factor (quick runs use fewer trials).
    pub fn trials(self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 8).max(3),
            Scale::Full => full,
        }
    }

    /// Picks between a quick and a full list of sizes.
    pub fn sizes(self, quick: &[usize], full: &[usize]) -> Vec<usize> {
        match self {
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_helpers() {
        assert_eq!(Scale::Quick.trials(80), 10);
        assert_eq!(Scale::Quick.trials(8), 3);
        assert_eq!(Scale::Full.trials(80), 80);
        assert_eq!(Scale::Quick.sizes(&[1, 2], &[3, 4, 5]), vec![1, 2]);
        assert_eq!(Scale::Full.sizes(&[1, 2], &[3, 4, 5]), vec![3, 4, 5]);
    }
}
