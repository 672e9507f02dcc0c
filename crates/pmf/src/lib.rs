//! Discrete probability mass functions (PMFs) over integer time ticks.
//!
//! This crate is the probabilistic substrate of the `taskdrop` project, a
//! reproduction of *"Autonomous Task Dropping Mechanism to Achieve Robustness
//! in Heterogeneous Computing Systems"* (Mokhtari, Denninnart, Amini Salehi,
//! 2020). The paper models the execution time of each task type on each
//! machine type as a discrete random variable stored as a PMF (an array of
//! *impulses*), and derives task **completion-time** PMFs by convolving
//! execution-time PMFs along a machine queue.
//!
//! The centrepiece is [`deadline_convolve`], the paper's Equation (1): a
//! convolution in which probability mass of the predecessor that lands at or
//! after the task's deadline *passes through* unchanged, modelling the
//! reactive drop of a task that can no longer start before its deadline.
//!
//! # Quick example (Figure 2 of the paper)
//!
//! ```
//! use taskdrop_pmf::{Pmf, deadline_convolve};
//!
//! // Execution-time PMF of task i: P(E=1)=0.6, P(E=2)=0.4
//! let exec = Pmf::from_impulses(vec![(1, 0.6), (2, 0.4)]).unwrap();
//! // Completion-time PMF of task i-1.
//! let prev = Pmf::from_impulses(vec![(10, 0.6), (11, 0.3), (12, 0.05), (13, 0.05)]).unwrap();
//! // Deadline of task i.
//! let deadline = 13;
//!
//! let completion = deadline_convolve(&prev, &exec, deadline);
//! let expected = [(11, 0.36), (12, 0.42), (13, 0.2), (14, 0.02)];
//! for ((t, p), (et, ep)) in completion.to_pairs().into_iter().zip(expected) {
//!     assert_eq!(t, et);
//!     assert!((p - ep).abs() < 1e-12);
//! }
//! // Chance of success: mass strictly before the deadline.
//! assert!((completion.mass_before(deadline) - 0.78).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod chain;
mod compact;
mod deadline;
mod error;
mod moments;
mod ops;
mod pmf;

pub use chain::ChainScratch;
pub use compact::Compaction;
pub use deadline::{chance_of_success, deadline_convolve, deadline_convolve_into};
pub use error::PmfError;
pub use ops::{convolve_dense_forced, convolve_sparse_forced, DENSE_SPAN_LIMIT};
pub use pmf::{Impulse, Pmf, MASS_EPSILON};

/// Discrete simulation time, in ticks (1 tick = 1 ms in the simulator).
pub type Tick = u64;

/// Probability value in `[0, 1]`.
pub type Prob = f64;
