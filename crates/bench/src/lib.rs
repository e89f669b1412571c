//! # ss-bench — the experiment harness and its conformance artifacts
//!
//! Three deliverables live here:
//!
//! * the **experiment harness** ([`experiments`]) — one function per
//!   experiment E1–E22 of `DESIGN.md`; each regenerates the corresponding
//!   table/series of `EXPERIMENTS.md`.  Run all of them with
//!   `cargo run --release -p ss-bench --bin experiments` (concurrently on
//!   `--jobs` pool lanes, reports buffered and printed in E-id order), a
//!   subset with `-- E7 E10`, or the whole `EXPERIMENTS.md` document with
//!   `-- --markdown`;
//! * the **conformance renderers** ([`conformance`], over the [`sweeps`]
//!   workloads) — bit-exact text artifacts of the replication engine, the
//!   Monte-Carlo sweeps and a harness subset, which `ss-conform` pins
//!   across pool sizes and against golden fixtures;
//! * the **`index_service` binary** ([`index_service`]) — records
//!   `BENCH_index_service.json` and gates the serving layer's
//!   batched-vs-recompute throughput ratio (`--budget`, run by CI).
//!
//! [`workloads`] holds the shared instance builders so that the harness and
//! the conformance sweeps exercise exactly the same configurations.  The
//! repository benchmark lives in `perfbench/` at the repository root.

pub mod conformance;
pub mod experiments;
pub mod index_service;
pub mod sweeps;
pub mod workloads;
