#![warn(missing_docs)]

//! The unified Tartan campaign engine.
//!
//! Every consumer of the simulator — the `tartan_run` CLI, the tier-1
//! bench, the coverage-guided scenario synthesizer, and the paper's
//! figure harnesses — executes the same shape of work: expand scenarios
//! into job plans, fan the jobs out across host cores, and export the
//! results. This crate owns that pipeline once, as a library
//! (DESIGN.md §18):
//!
//! * **Specs** ([`CampaignSpec`], [`Campaign`], [`CampaignOptions`]) —
//!   one or many expanded scenarios plus the execution options
//!   (`--jobs`/store/resume/verify/progress)
//!   they run under.
//! * **Keyed job sets** ([`JobSet`], [`ExecUnit`]) — every planned job's
//!   content address is computed up front, and jobs with identical keys
//!   — within one campaign or **across campaigns** — collapse into a
//!   single execution unit whose result fans back to every requesting
//!   `(campaign, job)` slot. Overlapping sweeps simulate each distinct
//!   key exactly once.
//! * **The engine** ([`Engine`]) — wraps `tartan-par`'s panic-isolated
//!   worker pool together with the `tartan-store` resume/verify machinery
//!   behind one `run` call.
//! * **Events and reports** ([`CampaignEvent`], [`CampaignReport`]) — a
//!   typed per-job started/cached/done/failed stream delivered in a
//!   deterministic order (it depends only on the job set, never on
//!   scheduling), plus the final per-campaign results, failures, spans,
//!   and metrics.
//! * **Shared CLI conventions** ([`cli`]) — the flag loop and
//!   single-line error style the campaign binaries share.
//! * **Figure harnesses** ([`experiments`]) — every experiment from the
//!   paper, now thin clients of the engine.
//!
//! Everything the engine exports is byte-deterministic for a fixed
//! scenario set: results land in plan order regardless of the worker
//! count, cached and fresh runs render identical records, and deduped
//! fan-out copies the exact bytes the single execution produced.

pub mod cli;
pub mod engine;
pub mod experiments;

pub use engine::{
    csv_field, probe_spec, render_exports, run_plan, write_file, Campaign, CampaignEvent,
    CampaignOptions, CampaignReport, CampaignResult, CampaignSpec, Engine, EventSink, ExecUnit,
    JobOutput, JobRef, JobSet, PhaseClock, ProgressMode,
};
