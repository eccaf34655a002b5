//! # dynbatch-sim
//!
//! The discrete-event batch-system simulator and experiment runner.
//!
//! [`BatchSim`] drives the identical server/scheduler code the threaded
//! daemon runs — both run one [`EventCore`], the daemon on a wall clock —
//! but over virtual time: the substitution that lets this repository
//! reproduce the paper's multi-hour cluster experiments in milliseconds,
//! deterministically. [`run_experiment`] wraps a full run
//! into the aggregates the paper reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch_sim;
pub mod event;
pub mod event_core;
pub mod experiment;
pub mod reactor_drive;
pub mod replica_drive;
pub mod sweep;

pub use batch_sim::{BatchSim, SimStats, DEFAULT_LOOKAHEAD};
pub use event::Event;
pub use event_core::{EventCore, Hook, RunEnd};
pub use experiment::{
    run_experiment, run_experiment_materialized, run_experiment_streamed, ExperimentConfig,
    ExperimentResult, IngestOptions, RunFingerprint,
};
pub use reactor_drive::{
    drive_reactor, drive_serial, script_from_workload, CommandScript, DriveResult, ScriptStep,
};
pub use replica_drive::{ReplicaStats, ReplicatedSim};
pub use sweep::{parallel_tasks, run_sweep, task_rng, SweepResult};
