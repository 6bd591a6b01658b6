//! # sdv-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! figures (see `DESIGN.md` §3 for the experiment index).
//!
//! * [`Workloads`] — the paper's inputs (CAGE10-scale matrix, 2^15-node
//!   graph, 2048-point FFT), built once and shared across runs,
//! * [`run`] — execute one (kernel, implementation, knob-setting) cell on a
//!   fresh [`sdv_core::SdvMachine`] and report cycles,
//! * [`sweep`] — run a grid of cells across OS threads (each simulation is
//!   single-threaded and deterministic; the grid is embarrassingly
//!   parallel),
//! * binaries `fig3_latency`, `fig4_slowdown`, `fig5_bandwidth` print the
//!   paper's figures; `ablation_*` cover the design-choice studies.

pub mod cache;
pub mod chaos;
pub mod cli;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod plot;
pub mod server;
pub mod table;

pub use cache::{
    cached_cycles, CacheContext, CacheKey, CachedResult, FsckSummary, GcSummary, ResultCache,
};
pub use chaos::{ChaosKind, ChaosPlan, ServerChaos};
pub use harness::{
    run, run_functional_only, run_spmv_variant, run_with_config, run_with_config_cached, sweep,
    try_run_traced, try_run_with_config, Cell, CellOutcome, ImplKind, KernelKind, RemoteSweep,
    RunResult, SpmvVariant, Sweeper, Workloads,
};
pub use metrics::StallBreakdown;
pub use server::{
    client_request, client_sweep, serve, RetryPolicy, ServerConfig, ShutdownSignal, SweepSummary,
    DEFAULT_ADDR,
};
