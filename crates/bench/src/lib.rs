//! # prestige-bench
//!
//! Criterion microbenchmarks for the PrestigeBFT reproduction:
//!
//! * `micro_crypto` / `micro_reputation` — the substrate primitives (SHA-256,
//!   proof-of-work, quorum-certificate aggregation, reputation calculation);
//! * `micro_wire` — the wire codec and the batch digest.
//!
//! The paper-figure experiments live in the `run_experiments` binary of
//! `prestige-experiments`; the end-to-end runtime numbers come from
//! `peak_net` and `perfbench`.

#![warn(missing_docs)]
