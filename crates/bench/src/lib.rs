//! # bench — the harness that regenerates the paper's evaluation
//!
//! One module per concern:
//!
//! * [`workload`] — the paper's three workloads (§6.1): producer-only,
//!   consumer-only (pre-filled), and mixed with producers and consumers on
//!   separate sockets — runnable on either `harness` backend (queue
//!   adapters and execution live in the `harness` crate);
//! * [`fig`] — drivers that render each figure's data series as TSV
//!   (figure id → DESIGN.md §4 maps it to the paper);
//! * [`wallbench`] — the wall-clock scheduler benchmark behind
//!   `simctl bench`.
//!
//! `simctl fig <name|all> [ops= threads= grid= jobs= out=]` is the one
//! front door to the figure drivers; the scale is set by its keys, never
//! by the environment.

pub mod fig;
pub mod wallbench;
pub mod workload;
