//! Outside-in benchmark of the mmreliab workspace: three closed-loop
//! workloads measured end to end, a traced run that splits a trial's cost
//! by layer, and a correctness gate over every result. See `README.md`.

#![forbid(unsafe_code)]

mod adapter;
pub mod gate;
pub mod ledger;
pub mod report;
pub mod workloads;
