//! Lightweight PLF observability: per-kernel counters, timers, and
//! transfer accounting.
//!
//! The paper's entire evaluation is instrumentation — Table 1's >85%
//! PLF share, the §4 scalability grids, Figure 12's PLF / Remaining /
//! PCIe breakdown. [`PlfCounters`] makes those numbers measurable in
//! this reproduction: a block of `AtomicU64` counters shared (via
//! `Arc`) between a harness and any number of backends, recording
//!
//! * per-kernel invocation counts, patterns processed, and wall time
//!   for `CondLikeDown` / `CondLikeRoot` / `CondLikeScaler`;
//! * underflow rescale events (patterns actually divided by their max);
//! * modeled transfer traffic — Cell/BE DMA commands (≤16 KB each) and
//!   GPU PCIe legs — in bytes, commands, and modeled seconds, plus the
//!   seconds hidden by double buffering;
//! * resilience events (same-tier retries, tier degradations);
//! * tree evaluations started.
//!
//! **Overhead budget.** The hot path takes no locks: recording one
//! kernel call is two `Instant::now()` reads and three relaxed
//! `fetch_add`s — tens of nanoseconds against kernels that process
//! thousands of patterns. Backends built without counters skip the
//! `fetch_add`s entirely and pay only the clock reads of an armed
//! [`KernelTimer`] whose `counters` is `None`.
//!
//! Counters are monotone; read a consistent view with
//! [`PlfCounters::snapshot`] and difference snapshots to meter an
//! interval.

// plf-lint: ordering(Relaxed) — every counter is an independent
// monotone statistic; no reader infers cross-counter happens-before
// from a snapshot, so Relaxed is the declared (and only permitted)
// ordering in this module. A stray SeqCst here is an L4 violation.
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The three PLF kernels the paper profiles (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// `CondLikeDown` — combine two children.
    Down,
    /// `CondLikeRoot` — combine the subtrees at the virtual root.
    Root,
    /// `CondLikeScaler` — per-pattern underflow rescaling.
    Scale,
}

impl Kernel {
    /// All kernels, in Table 1 order.
    pub const ALL: [Kernel; 3] = [Kernel::Down, Kernel::Root, Kernel::Scale];

    fn index(self) -> usize {
        match self {
            Kernel::Down => 0,
            Kernel::Root => 1,
            Kernel::Scale => 2,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Down => "down",
            Kernel::Root => "root",
            Kernel::Scale => "scale",
        }
    }
}

#[derive(Debug, Default)]
struct KernelCell {
    invocations: AtomicU64,
    patterns: AtomicU64,
    nanos: AtomicU64,
}

/// Shared atomic counter block; see the module docs for what it records.
#[derive(Debug, Default)]
pub struct PlfCounters {
    kernels: [KernelCell; 3],
    rescaled_patterns: AtomicU64,
    evaluations: AtomicU64,
    transfer_bytes_in: AtomicU64,
    transfer_bytes_out: AtomicU64,
    transfer_commands: AtomicU64,
    transfer_nanos: AtomicU64,
    overlap_saved_nanos: AtomicU64,
    retries: AtomicU64,
    degradations: AtomicU64,
}

/// Modeled seconds, stored losslessly enough as integer nanoseconds.
fn to_nanos(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9).round() as u64
}

impl PlfCounters {
    /// A fresh, shareable counter block.
    pub fn new() -> Arc<PlfCounters> {
        Arc::new(PlfCounters::default())
    }

    /// Record one kernel call over `patterns` patterns taking `elapsed`.
    pub fn record_kernel(&self, kernel: Kernel, patterns: u64, elapsed: Duration) {
        let cell = &self.kernels[kernel.index()];
        cell.invocations.fetch_add(1, Ordering::Relaxed);
        cell.patterns.fetch_add(patterns, Ordering::Relaxed);
        cell.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record `patterns` patterns actually rescaled (block max > 0) by a
    /// scaler call.
    pub fn record_rescaled(&self, patterns: u64) {
        self.rescaled_patterns.fetch_add(patterns, Ordering::Relaxed);
    }

    /// Record the start of one tree evaluation.
    pub fn record_evaluation(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record modeled transfer traffic: `bytes_in` toward the device
    /// (DMA-in / host→device), `bytes_out` back, split over `commands`
    /// hardware transfers costing `modeled_seconds` if serialized.
    pub fn record_transfer(&self, bytes_in: u64, bytes_out: u64, commands: u64, modeled_seconds: f64) {
        self.transfer_bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        self.transfer_bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.transfer_commands.fetch_add(commands, Ordering::Relaxed);
        self.transfer_nanos
            .fetch_add(to_nanos(modeled_seconds), Ordering::Relaxed);
    }

    /// Record transfer seconds hidden behind compute by double
    /// buffering (Figure 7); feeds the overlap ratio.
    pub fn record_overlap_saved(&self, seconds: f64) {
        self.overlap_saved_nanos
            .fetch_add(to_nanos(seconds), Ordering::Relaxed);
    }

    /// Record one same-tier retry of a failed kernel call.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one degradation to a lower backend tier.
    pub fn record_degradation(&self) {
        self.degradations.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for cell in &self.kernels {
            cell.invocations.store(0, Ordering::Relaxed);
            cell.patterns.store(0, Ordering::Relaxed);
            cell.nanos.store(0, Ordering::Relaxed);
        }
        for c in [
            &self.rescaled_patterns,
            &self.evaluations,
            &self.transfer_bytes_in,
            &self.transfer_bytes_out,
            &self.transfer_commands,
            &self.transfer_nanos,
            &self.overlap_saved_nanos,
            &self.retries,
            &self.degradations,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let kernel = |k: Kernel| {
            let cell = &self.kernels[k.index()];
            KernelSnapshot {
                invocations: cell.invocations.load(Ordering::Relaxed),
                patterns: cell.patterns.load(Ordering::Relaxed),
                seconds: cell.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            }
        };
        MetricsSnapshot {
            down: kernel(Kernel::Down),
            root: kernel(Kernel::Root),
            scale: kernel(Kernel::Scale),
            rescaled_patterns: self.rescaled_patterns.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            transfer: TransferSnapshot {
                bytes_in: self.transfer_bytes_in.load(Ordering::Relaxed),
                bytes_out: self.transfer_bytes_out.load(Ordering::Relaxed),
                commands: self.transfer_commands.load(Ordering::Relaxed),
                seconds: self.transfer_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                overlap_saved_seconds: self.overlap_saved_nanos.load(Ordering::Relaxed) as f64
                    * 1e-9,
            },
            retries: self.retries.load(Ordering::Relaxed),
            degradations: self.degradations.load(Ordering::Relaxed),
        }
    }
}

/// One kernel's accumulated counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct KernelSnapshot {
    /// Calls.
    pub invocations: u64,
    /// Patterns processed across all calls.
    pub patterns: u64,
    /// Wall seconds inside the kernel (host-measured).
    pub seconds: f64,
}

/// Accumulated transfer accounting (Cell DMA or GPU PCIe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TransferSnapshot {
    /// Bytes moved toward the device (DMA-in / host→device).
    pub bytes_in: u64,
    /// Bytes moved back to the host.
    pub bytes_out: u64,
    /// Hardware transfer commands (Cell: ≤16 KB each).
    pub commands: u64,
    /// Modeled seconds if every transfer were serialized.
    pub seconds: f64,
    /// Modeled seconds hidden behind compute by double buffering.
    pub overlap_saved_seconds: f64,
}

impl TransferSnapshot {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Fraction of serialized transfer time hidden by double buffering,
    /// in `[0, 1]`; zero when nothing was transferred.
    pub fn overlap_ratio(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            (self.overlap_saved_seconds / self.seconds).clamp(0.0, 1.0)
        }
    }

    /// Modeled transfer seconds left exposed after overlap.
    pub fn exposed_seconds(&self) -> f64 {
        (self.seconds - self.overlap_saved_seconds).max(0.0)
    }
}

/// A point-in-time copy of a [`PlfCounters`] block.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// `CondLikeDown` counters.
    pub down: KernelSnapshot,
    /// `CondLikeRoot` counters.
    pub root: KernelSnapshot,
    /// `CondLikeScaler` counters.
    pub scale: KernelSnapshot,
    /// Patterns actually rescaled (underflow events) by scaler calls.
    pub rescaled_patterns: u64,
    /// Tree evaluations started.
    pub evaluations: u64,
    /// DMA / PCIe accounting.
    pub transfer: TransferSnapshot,
    /// Same-tier retries recorded by the resilience wrapper.
    pub retries: u64,
    /// Tier degradations recorded by the resilience wrapper.
    pub degradations: u64,
}

impl MetricsSnapshot {
    /// The named kernel's counters.
    pub fn kernel(&self, k: Kernel) -> &KernelSnapshot {
        match k {
            Kernel::Down => &self.down,
            Kernel::Root => &self.root,
            Kernel::Scale => &self.scale,
        }
    }

    /// Total kernel invocations.
    pub fn invocations(&self) -> u64 {
        Kernel::ALL.iter().map(|&k| self.kernel(k).invocations).sum()
    }

    /// Total patterns processed across all kernels.
    pub fn patterns(&self) -> u64 {
        Kernel::ALL.iter().map(|&k| self.kernel(k).patterns).sum()
    }

    /// Total wall seconds inside PLF kernels (the Figure 12 "PLF" bar).
    pub fn plf_seconds(&self) -> f64 {
        Kernel::ALL.iter().map(|&k| self.kernel(k).seconds).sum()
    }
}

/// Per-tenant accumulators kept under the [`ServiceCounters`] mutex;
/// plain integers, not atomics, because they are only touched while the
/// map lock is held.
#[derive(Debug, Default, Clone)]
struct TenantCell {
    submitted: u64,
    rejected: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    deadline_missed: u64,
    wait_nanos: u64,
    service_nanos: u64,
}

/// Service-level counters for the `plfd` batched evaluation service:
/// admission outcomes, queue depth (live gauge plus high-water mark),
/// wait vs. service time, and batch occupancy, with a per-tenant
/// breakdown.
///
/// The global counters follow the same contract as [`PlfCounters`]:
/// independent monotone statistics updated with relaxed atomics (the
/// module-level `plf-lint` ordering declaration covers them). The
/// per-tenant map takes a short mutex — acceptable because tenant
/// attribution happens once per *job*, not per kernel call.
///
/// `queue_depth` is the one non-monotone field: a gauge incremented on
/// enqueue and decremented on dequeue, with `queue_depth_peak` tracking
/// its high-water mark via `fetch_max`.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_missed: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    wait_nanos: AtomicU64,
    service_nanos: AtomicU64,
    batches: AtomicU64,
    batch_jobs: AtomicU64,
    batch_job_slots: AtomicU64,
    shed: AtomicU64,
    requeued_jobs: AtomicU64,
    watchdog_respawns: AtomicU64,
    watchdog_hangs: AtomicU64,
    breaker_opened: AtomicU64,
    breaker_half_opened: AtomicU64,
    breaker_closed: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    journal_appends: AtomicU64,
    journal_fsyncs: AtomicU64,
    journal_rotations: AtomicU64,
    journal_compactions: AtomicU64,
    replayed_jobs: AtomicU64,
    deduped_jobs: AtomicU64,
    truncated_records: AtomicU64,
    clv_cache_hits: AtomicU64,
    clv_cache_misses: AtomicU64,
    clv_cache_evictions: AtomicU64,
    fused_fallbacks: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantCell>>,
}

impl ServiceCounters {
    /// A fresh, shareable counter block.
    pub fn new() -> Arc<ServiceCounters> {
        Arc::new(ServiceCounters::default())
    }

    fn tenant_cell<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantCell) -> R) -> R {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        f(map.entry(tenant.to_string()).or_default())
    }

    /// Record one submission attempt by `tenant` (accepted *or*
    /// rejected; pair with [`record_rejected`](Self::record_rejected)
    /// to derive admissions).
    pub fn record_submitted(&self, tenant: &str) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.submitted += 1);
    }

    /// Record one admission-control rejection (queue full) for `tenant`.
    pub fn record_rejected(&self, tenant: &str) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.rejected += 1);
    }

    /// Record one job entering the submission queue.
    pub fn record_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record `n` jobs leaving the submission queue.
    pub fn record_dequeued(&self, n: u64) {
        // Saturating: enqueue/dequeue calls are paired by the queue, but
        // a miscount must not wrap the gauge to u64::MAX.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(n))
            });
    }

    /// Record one job completed for `tenant` after waiting `wait` in
    /// queue and `service` under evaluation.
    pub fn record_completed(&self, tenant: &str, wait: Duration, service: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let w = wait.as_nanos() as u64;
        let s = service.as_nanos() as u64;
        self.wait_nanos.fetch_add(w, Ordering::Relaxed);
        self.service_nanos.fetch_add(s, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| {
            c.completed += 1;
            c.wait_nanos += w;
            c.service_nanos += s;
        });
    }

    /// Record one job that failed evaluation (after resilience
    /// exhausted retries and fallbacks) for `tenant`.
    pub fn record_failed(&self, tenant: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.failed += 1);
    }

    /// Record one job cancelled before evaluation for `tenant`.
    pub fn record_cancelled(&self, tenant: &str) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.cancelled += 1);
    }

    /// Record one job that missed its deadline before starting, for
    /// `tenant`.
    pub fn record_deadline_missed(&self, tenant: &str) {
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.deadline_missed += 1);
    }

    /// Record one submission shed by the adaptive admission controller
    /// (backlog/latency overload, distinct from the hard capacity
    /// rejection) for `tenant`.
    pub fn record_shed(&self, tenant: &str) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.shed += 1);
    }

    /// Record `n` in-flight jobs recovered from a dead worker and
    /// re-queued by the watchdog.
    pub fn record_requeued(&self, n: u64) {
        self.requeued_jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one dispatch worker respawned by the watchdog.
    pub fn record_watchdog_respawn(&self) {
        self.watchdog_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one hung-worker detection (heartbeat stale past the hang
    /// timeout while jobs were in flight).
    pub fn record_watchdog_hang(&self) {
        self.watchdog_hangs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one circuit-breaker transition into `Open`.
    pub fn record_breaker_open(&self) {
        self.breaker_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one circuit-breaker transition into `HalfOpen`.
    pub fn record_breaker_half_open(&self) {
        self.breaker_half_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one circuit-breaker transition back into `Closed`.
    pub fn record_breaker_close(&self) {
        self.breaker_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one half-open probe job's outcome.
    pub fn record_probe(&self, ok: bool) {
        if ok {
            self.probes_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.probes_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one record appended to the write-ahead job journal.
    pub fn record_journal_append(&self) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `fsync` of the journal's active segment (group
    /// commit: many appends share one fsync under the batch interval).
    pub fn record_journal_fsync(&self) {
        self.journal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one journal segment rotation (active segment sealed, a
    /// fresh one opened).
    pub fn record_journal_rotation(&self) {
        self.journal_rotations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fully-resolved journal segment compacted (deleted).
    pub fn record_journal_compaction(&self) {
        self.journal_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one admitted-but-unresolved job replayed from the
    /// journal on recovery.
    pub fn record_replayed(&self) {
        self.replayed_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one submission deduplicated by idempotency key (the
    /// caller received the existing ticket or journaled outcome
    /// instead of a second execution).
    pub fn record_deduped(&self) {
        self.deduped_jobs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` corrupt trailing journal records truncated during
    /// recovery (non-fatal: the tail is cut, everything before it
    /// replays normally).
    pub fn record_truncated(&self, n: u64) {
        self.truncated_records.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold one CLV-cache stats delta (per fused batch) into the
    /// service totals: `hits` subtree CLVs reused instead of
    /// recomputed, `misses` looked up but absent, `evictions` entries
    /// displaced by capacity.
    pub fn record_clv_cache(&self, hits: u64, misses: u64, evictions: u64) {
        self.clv_cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.clv_cache_misses.fetch_add(misses, Ordering::Relaxed);
        self.clv_cache_evictions.fetch_add(evictions, Ordering::Relaxed);
    }

    /// Record one shard whose fused pass failed and was re-run job by
    /// job.
    pub fn record_fused_fallback(&self) {
        self.fused_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fused batch dispatched carrying `jobs` jobs out of
    /// `slots` possible (the scheduler's `max_jobs` cap); feeds batch
    /// occupancy.
    pub fn record_batch(&self, jobs: u64, slots: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(jobs, Ordering::Relaxed);
        self.batch_job_slots.fetch_add(slots, Ordering::Relaxed);
    }

    /// Live queue depth gauge.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Zero every counter and drop all tenant rows.
    pub fn reset(&self) {
        for c in [
            &self.submitted,
            &self.rejected,
            &self.completed,
            &self.failed,
            &self.cancelled,
            &self.deadline_missed,
            &self.queue_depth,
            &self.queue_depth_peak,
            &self.wait_nanos,
            &self.service_nanos,
            &self.batches,
            &self.batch_jobs,
            &self.batch_job_slots,
            &self.shed,
            &self.requeued_jobs,
            &self.watchdog_respawns,
            &self.watchdog_hangs,
            &self.breaker_opened,
            &self.breaker_half_opened,
            &self.breaker_closed,
            &self.probes_ok,
            &self.probes_failed,
            &self.journal_appends,
            &self.journal_fsyncs,
            &self.journal_rotations,
            &self.journal_compactions,
            &self.replayed_jobs,
            &self.deduped_jobs,
            &self.truncated_records,
            &self.clv_cache_hits,
            &self.clv_cache_misses,
            &self.clv_cache_evictions,
            &self.fused_fallbacks,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, c)| TenantSnapshot {
                tenant: name.clone(),
                submitted: c.submitted,
                rejected: c.rejected,
                shed: c.shed,
                completed: c.completed,
                failed: c.failed,
                cancelled: c.cancelled,
                deadline_missed: c.deadline_missed,
                wait_seconds: c.wait_nanos as f64 * 1e-9,
                service_seconds: c.service_nanos as f64 * 1e-9,
            })
            .collect();
        ServiceSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            wait_seconds: self.wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            service_seconds: self.service_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            batches: self.batches.load(Ordering::Relaxed),
            batch_jobs: self.batch_jobs.load(Ordering::Relaxed),
            batch_job_slots: self.batch_job_slots.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            requeued_jobs: self.requeued_jobs.load(Ordering::Relaxed),
            watchdog_respawns: self.watchdog_respawns.load(Ordering::Relaxed),
            watchdog_hangs: self.watchdog_hangs.load(Ordering::Relaxed),
            breaker_opened: self.breaker_opened.load(Ordering::Relaxed),
            breaker_half_opened: self.breaker_half_opened.load(Ordering::Relaxed),
            breaker_closed: self.breaker_closed.load(Ordering::Relaxed),
            probes_ok: self.probes_ok.load(Ordering::Relaxed),
            probes_failed: self.probes_failed.load(Ordering::Relaxed),
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            journal_fsyncs: self.journal_fsyncs.load(Ordering::Relaxed),
            journal_rotations: self.journal_rotations.load(Ordering::Relaxed),
            journal_compactions: self.journal_compactions.load(Ordering::Relaxed),
            replayed_jobs: self.replayed_jobs.load(Ordering::Relaxed),
            deduped_jobs: self.deduped_jobs.load(Ordering::Relaxed),
            truncated_records: self.truncated_records.load(Ordering::Relaxed),
            clv_cache_hits: self.clv_cache_hits.load(Ordering::Relaxed),
            clv_cache_misses: self.clv_cache_misses.load(Ordering::Relaxed),
            clv_cache_evictions: self.clv_cache_evictions.load(Ordering::Relaxed),
            fused_fallbacks: self.fused_fallbacks.load(Ordering::Relaxed),
            tenants,
        }
    }
}

/// One tenant's accumulated service counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TenantSnapshot {
    /// Tenant name as given at submission.
    pub tenant: String,
    /// Submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Admission-control rejections.
    pub rejected: u64,
    /// Submissions shed by the adaptive admission controller.
    pub shed: u64,
    /// Jobs completed with a log-likelihood.
    pub completed: u64,
    /// Jobs that failed evaluation.
    pub failed: u64,
    /// Jobs cancelled before evaluation.
    pub cancelled: u64,
    /// Jobs that missed their deadline before starting.
    pub deadline_missed: u64,
    /// Total queue-wait seconds across completed jobs.
    pub wait_seconds: f64,
    /// Total evaluation seconds across completed jobs.
    pub service_seconds: f64,
}

/// A point-in-time copy of a [`ServiceCounters`] block; the `service`
/// section of `BENCH_plf.json` schema v2 embeds one of these.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServiceSnapshot {
    /// Submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Admission-control rejections (queue full).
    pub rejected: u64,
    /// Jobs completed with a log-likelihood.
    pub completed: u64,
    /// Jobs that failed evaluation.
    pub failed: u64,
    /// Jobs cancelled before evaluation.
    pub cancelled: u64,
    /// Jobs that missed their deadline before starting.
    pub deadline_missed: u64,
    /// Live queue depth when the snapshot was taken.
    pub queue_depth: u64,
    /// High-water mark of the queue depth gauge.
    pub queue_depth_peak: u64,
    /// Total queue-wait seconds across completed jobs.
    pub wait_seconds: f64,
    /// Total evaluation seconds across completed jobs.
    pub service_seconds: f64,
    /// Fused batches dispatched.
    pub batches: u64,
    /// Jobs carried by those batches.
    pub batch_jobs: u64,
    /// Job slots offered by those batches (`batches × max_jobs`).
    pub batch_job_slots: u64,
    /// Submissions shed by the adaptive admission controller
    /// (overload, distinct from hard-capacity `rejected`).
    pub shed: u64,
    /// In-flight jobs recovered from dead workers and re-queued.
    pub requeued_jobs: u64,
    /// Dispatch workers respawned by the watchdog.
    pub watchdog_respawns: u64,
    /// Hung-worker detections (stale heartbeat with jobs in flight).
    pub watchdog_hangs: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_opened: u64,
    /// Circuit-breaker transitions into `HalfOpen`.
    pub breaker_half_opened: u64,
    /// Circuit-breaker transitions back into `Closed`.
    pub breaker_closed: u64,
    /// Half-open probe jobs that succeeded.
    pub probes_ok: u64,
    /// Half-open probe jobs that failed.
    pub probes_failed: u64,
    /// Records appended to the write-ahead job journal.
    pub journal_appends: u64,
    /// Journal segment fsyncs (group commit batches).
    pub journal_fsyncs: u64,
    /// Journal segment rotations.
    pub journal_rotations: u64,
    /// Fully-resolved journal segments compacted (deleted).
    pub journal_compactions: u64,
    /// Admitted-but-unresolved jobs replayed from the journal on
    /// recovery.
    pub replayed_jobs: u64,
    /// Submissions deduplicated by idempotency key (no re-execution).
    pub deduped_jobs: u64,
    /// Corrupt trailing journal records truncated during recovery.
    pub truncated_records: u64,
    /// Subtree CLVs served from the reuse cache instead of recomputed.
    pub clv_cache_hits: u64,
    /// CLV-cache lookups that found no entry (subtree recomputed).
    pub clv_cache_misses: u64,
    /// CLV-cache entries displaced by the capacity bound.
    pub clv_cache_evictions: u64,
    /// Shards whose fused pass failed and were re-run job by job.
    pub fused_fallbacks: u64,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantSnapshot>,
}

impl ServiceSnapshot {
    /// Jobs the queue admitted (attempts minus rejections).
    pub fn admitted(&self) -> u64 {
        self.submitted.saturating_sub(self.rejected)
    }

    /// Jobs that reached a terminal state.
    pub fn resolved(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.deadline_missed
    }

    /// Mean queue wait per completed job, in seconds.
    pub fn mean_wait_seconds(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.wait_seconds / self.completed as f64
        }
    }

    /// Mean evaluation time per completed job, in seconds.
    pub fn mean_service_seconds(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_seconds / self.completed as f64
        }
    }

    /// Mean fraction of batch job slots actually filled, in `[0, 1]`.
    pub fn batch_occupancy(&self) -> f64 {
        if self.batch_job_slots == 0 {
            0.0
        } else {
            (self.batch_jobs as f64 / self.batch_job_slots as f64).clamp(0.0, 1.0)
        }
    }
}

/// Per-tenant accumulators kept under the [`NetCounters`] mutex;
/// plain integers because they are only touched while the map lock is
/// held (once per request, not per byte).
#[derive(Debug, Default, Clone)]
struct NetTenantCell {
    submitted: u64,
    completed: u64,
    rejected: u64,
    rate_limited: u64,
}

/// Connection-layer counters for the `plf-net` socket server: accept /
/// close traffic, frame and byte volume in each direction, protocol
/// errors, and the admission outcomes relayed to remote clients, with
/// a per-tenant breakdown feeding the fairness tests and the BENCH
/// `net_service` section.
///
/// Same contract as [`ServiceCounters`]: independent monotone
/// statistics on relaxed atomics (covered by the module-level
/// `plf-lint` ordering declaration), except `connections_active` — a
/// gauge incremented on accept and decremented on close, with
/// `connections_peak` tracking its high-water mark via `fetch_max`.
/// The per-tenant map takes a short mutex, acceptable because tenant
/// attribution happens once per *request frame*, not per byte or per
/// readiness event.
#[derive(Debug, Default)]
pub struct NetCounters {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    connections_active: AtomicU64,
    connections_peak: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    protocol_errors: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_overloaded: AtomicU64,
    rate_limited: AtomicU64,
    drained_connections: AtomicU64,
    tenants: Mutex<BTreeMap<String, NetTenantCell>>,
}

impl NetCounters {
    /// A fresh, shareable counter block.
    pub fn new() -> Arc<NetCounters> {
        Arc::new(NetCounters::default())
    }

    fn tenant_cell<R>(&self, tenant: &str, f: impl FnOnce(&mut NetTenantCell) -> R) -> R {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        f(map.entry(tenant.to_string()).or_default())
    }

    /// Record one accepted connection.
    pub fn record_conn_open(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
        let live = self.connections_active.fetch_add(1, Ordering::Relaxed) + 1;
        self.connections_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Record one connection closed (peer hangup, protocol error, or
    /// server-side drain).
    pub fn record_conn_close(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
        // Saturating: open/close calls are paired by the reactor, but a
        // miscount must not wrap the gauge to u64::MAX.
        let _ = self
            .connections_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Record one well-formed frame read off a socket (`bytes` on the
    /// wire including header and CRC).
    pub fn record_frame_in(&self, bytes: u64) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one frame written to a socket (`bytes` on the wire).
    pub fn record_frame_out(&self, bytes: u64) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one protocol violation (bad magic, version skew, CRC
    /// mismatch, oversized length prefix, or malformed payload); the
    /// reactor answers with an error frame and closes the connection.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one submit request forwarded from the wire into the
    /// service admission queue for `tenant`.
    pub fn record_net_submitted(&self, tenant: &str) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.submitted += 1);
    }

    /// Record one terminal outcome frame (completed / failed /
    /// cancelled / deadline-missed) delivered to `tenant`'s client.
    pub fn record_net_completed(&self, tenant: &str) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.completed += 1);
    }

    /// Record one queue-full reject frame (with retry-after and
    /// jobs-ahead hints) sent to `tenant`'s client.
    pub fn record_net_reject_queue_full(&self, tenant: &str) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.rejected += 1);
    }

    /// Record one overload-shed reject frame sent to `tenant`'s client.
    pub fn record_net_reject_overloaded(&self, tenant: &str) {
        self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.rejected += 1);
    }

    /// Record one request held back by `tenant`'s token bucket (the
    /// WFQ scheduler skipped the tenant this round; the request stays
    /// queued, it is not rejected).
    pub fn record_net_rate_limited(&self, tenant: &str) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
        self.tenant_cell(tenant, |c| c.rate_limited += 1);
    }

    /// Record one connection flushed and closed by graceful drain.
    pub fn record_drained_connection(&self) {
        self.drained_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Live connection gauge.
    pub fn connections_active(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Zero every counter and drop all tenant rows.
    pub fn reset(&self) {
        for c in [
            &self.connections_opened,
            &self.connections_closed,
            &self.connections_active,
            &self.connections_peak,
            &self.frames_in,
            &self.frames_out,
            &self.bytes_in,
            &self.bytes_out,
            &self.protocol_errors,
            &self.submitted,
            &self.completed,
            &self.rejected_queue_full,
            &self.rejected_overloaded,
            &self.rate_limited,
            &self.drained_connections,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetSnapshot {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, c)| NetTenantSnapshot {
                tenant: name.clone(),
                submitted: c.submitted,
                completed: c.completed,
                rejected: c.rejected,
                rate_limited: c.rate_limited,
            })
            .collect();
        NetSnapshot {
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_peak: self.connections_peak.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            drained_connections: self.drained_connections.load(Ordering::Relaxed),
            tenants,
        }
    }
}

/// One tenant's accumulated connection-layer counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NetTenantSnapshot {
    /// Tenant name as carried in submit frames.
    pub tenant: String,
    /// Submit requests forwarded into the admission queue.
    pub submitted: u64,
    /// Terminal outcome frames delivered.
    pub completed: u64,
    /// Reject frames sent (queue full + overload shed).
    pub rejected: u64,
    /// Requests deferred by the tenant's token bucket.
    pub rate_limited: u64,
}

/// A point-in-time copy of a [`NetCounters`] block; the `net_service`
/// section of `BENCH_plf.json` schema v6 embeds one of these.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NetSnapshot {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections closed (any cause).
    pub connections_closed: u64,
    /// Live connections when the snapshot was taken.
    pub connections_active: u64,
    /// High-water mark of the live-connection gauge.
    pub connections_peak: u64,
    /// Well-formed frames read.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Bytes read off sockets (headers and CRCs included).
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Protocol violations (bad magic, version skew, CRC mismatch,
    /// oversized length, malformed payload).
    pub protocol_errors: u64,
    /// Submit requests forwarded into the admission queue.
    pub submitted: u64,
    /// Terminal outcome frames delivered to clients.
    pub completed: u64,
    /// Queue-full reject frames sent.
    pub rejected_queue_full: u64,
    /// Overload-shed reject frames sent.
    pub rejected_overloaded: u64,
    /// Requests deferred by per-tenant token buckets.
    pub rate_limited: u64,
    /// Connections flushed and closed by graceful drain.
    pub drained_connections: u64,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<NetTenantSnapshot>,
}

/// RAII span timer: started before a kernel body, records one
/// invocation (with patterns and elapsed wall time) into the counters
/// when dropped. With `counters == None` it records nothing.
pub struct KernelTimer {
    counters: Option<Arc<PlfCounters>>,
    kernel: Kernel,
    patterns: u64,
    start: Instant,
}

impl KernelTimer {
    /// Start timing one kernel call over `patterns` patterns.
    pub fn start(counters: Option<&Arc<PlfCounters>>, kernel: Kernel, patterns: usize) -> KernelTimer {
        KernelTimer {
            counters: counters.cloned(),
            kernel,
            patterns: patterns as u64,
            start: Instant::now(),
        }
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        if let Some(c) = &self.counters {
            c.record_kernel(self.kernel, self.patterns, self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_kernel() {
        let c = PlfCounters::new();
        c.record_kernel(Kernel::Down, 100, Duration::from_micros(5));
        c.record_kernel(Kernel::Down, 100, Duration::from_micros(5));
        c.record_kernel(Kernel::Scale, 100, Duration::from_micros(1));
        let s = c.snapshot();
        assert_eq!(s.down.invocations, 2);
        assert_eq!(s.down.patterns, 200);
        assert!((s.down.seconds - 10e-6).abs() < 1e-12);
        assert_eq!(s.root.invocations, 0);
        assert_eq!(s.scale.invocations, 1);
        assert_eq!(s.invocations(), 3);
        assert_eq!(s.patterns(), 300);
        assert!((s.plf_seconds() - 11e-6).abs() < 1e-12);
    }

    #[test]
    fn timer_records_on_drop_only_when_armed() {
        let c = PlfCounters::new();
        {
            let _t = KernelTimer::start(Some(&c), Kernel::Root, 42);
        }
        {
            let _t = KernelTimer::start(None, Kernel::Root, 42);
        }
        let s = c.snapshot();
        assert_eq!(s.root.invocations, 1);
        assert_eq!(s.root.patterns, 42);
    }

    #[test]
    fn transfer_and_overlap_accounting() {
        let c = PlfCounters::new();
        c.record_transfer(32 * 1024, 16 * 1024, 3, 4e-6);
        c.record_overlap_saved(1e-6);
        let s = c.snapshot();
        assert_eq!(s.transfer.total_bytes(), 48 * 1024);
        assert_eq!(s.transfer.commands, 3);
        assert!((s.transfer.seconds - 4e-6).abs() < 1e-12);
        assert!((s.transfer.overlap_ratio() - 0.25).abs() < 1e-9);
        assert!((s.transfer.exposed_seconds() - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_clamped_and_safe_on_empty() {
        let c = PlfCounters::new();
        assert_eq!(c.snapshot().transfer.overlap_ratio(), 0.0);
        c.record_transfer(1, 1, 1, 1e-9);
        c.record_overlap_saved(1.0); // saved > serialized: clamp to 1
        assert_eq!(c.snapshot().transfer.overlap_ratio(), 1.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = PlfCounters::new();
        c.record_kernel(Kernel::Down, 10, Duration::from_nanos(100));
        c.record_rescaled(7);
        c.record_evaluation();
        c.record_retry();
        c.record_degradation();
        c.record_transfer(1, 2, 3, 1e-6);
        c.reset();
        assert_eq!(c.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn service_counters_track_admission_and_latency() {
        let c = ServiceCounters::new();
        c.record_submitted("a");
        c.record_submitted("a");
        c.record_submitted("b");
        c.record_rejected("b");
        c.record_enqueued();
        c.record_enqueued();
        c.record_dequeued(1);
        c.record_completed("a", Duration::from_millis(2), Duration::from_millis(3));
        c.record_batch(3, 4);
        let s = c.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.admitted(), 2);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_depth_peak, 2);
        assert_eq!(s.completed, 1);
        assert!((s.mean_wait_seconds() - 2e-3).abs() < 1e-12);
        assert!((s.mean_service_seconds() - 3e-3).abs() < 1e-12);
        assert!((s.batch_occupancy() - 0.75).abs() < 1e-12);
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, "a");
        assert_eq!(s.tenants[0].submitted, 2);
        assert_eq!(s.tenants[1].rejected, 1);
    }

    #[test]
    fn service_counters_terminal_states_and_reset() {
        let c = ServiceCounters::new();
        c.record_completed("t", Duration::ZERO, Duration::ZERO);
        c.record_failed("t");
        c.record_cancelled("t");
        c.record_deadline_missed("t");
        let s = c.snapshot();
        assert_eq!(s.resolved(), 4);
        assert_eq!(s.tenants[0].failed, 1);
        assert_eq!(s.tenants[0].cancelled, 1);
        assert_eq!(s.tenants[0].deadline_missed, 1);
        c.reset();
        assert_eq!(c.snapshot(), ServiceSnapshot::default());
    }

    #[test]
    fn service_counters_track_self_healing_events() {
        let c = ServiceCounters::new();
        c.record_shed("t");
        c.record_shed("u");
        c.record_requeued(3);
        c.record_watchdog_respawn();
        c.record_watchdog_hang();
        c.record_breaker_open();
        c.record_breaker_half_open();
        c.record_breaker_close();
        c.record_probe(true);
        c.record_probe(true);
        c.record_probe(false);
        c.record_clv_cache(5, 2, 1);
        c.record_clv_cache(1, 0, 0);
        c.record_fused_fallback();
        let s = c.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.requeued_jobs, 3);
        assert_eq!(s.watchdog_respawns, 1);
        assert_eq!(s.watchdog_hangs, 1);
        assert_eq!(s.breaker_opened, 1);
        assert_eq!(s.breaker_half_opened, 1);
        assert_eq!(s.breaker_closed, 1);
        assert_eq!(s.probes_ok, 2);
        assert_eq!(s.probes_failed, 1);
        assert_eq!(s.clv_cache_hits, 6);
        assert_eq!(s.clv_cache_misses, 2);
        assert_eq!(s.clv_cache_evictions, 1);
        assert_eq!(s.fused_fallbacks, 1);
        assert_eq!(s.tenants[0].shed, 1);
        assert_eq!(s.tenants[1].shed, 1);
        c.reset();
        assert_eq!(c.snapshot(), ServiceSnapshot::default());
    }

    #[test]
    fn service_dequeue_saturates_instead_of_wrapping() {
        let c = ServiceCounters::new();
        c.record_dequeued(5);
        assert_eq!(c.queue_depth(), 0);
    }

    #[test]
    fn service_snapshot_serializes() {
        let c = ServiceCounters::new();
        c.record_submitted("tenant-0");
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        assert!(json.contains("\"queue_depth_peak\""));
        assert!(json.contains("\"clv_cache_hits\""));
        assert!(json.contains("\"tenant-0\""));
    }

    #[test]
    fn snapshot_serializes() {
        let c = PlfCounters::new();
        c.record_kernel(Kernel::Scale, 5, Duration::from_nanos(50));
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        assert!(json.contains("\"scale\""));
        assert!(json.contains("\"rescaled_patterns\""));
    }

    #[test]
    fn net_counters_track_connections_and_frames() {
        let c = NetCounters::new();
        c.record_conn_open();
        c.record_conn_open();
        c.record_conn_close();
        c.record_frame_in(24);
        c.record_frame_in(40);
        c.record_frame_out(16);
        c.record_protocol_error();
        let s = c.snapshot();
        assert_eq!(s.connections_opened, 2);
        assert_eq!(s.connections_closed, 1);
        assert_eq!(s.connections_active, 1);
        assert_eq!(s.connections_peak, 2);
        assert_eq!(s.frames_in, 2);
        assert_eq!(s.bytes_in, 64);
        assert_eq!(s.frames_out, 1);
        assert_eq!(s.bytes_out, 16);
        assert_eq!(s.protocol_errors, 1);
        assert_eq!(c.connections_active(), 1);
    }

    #[test]
    fn net_close_saturates_instead_of_wrapping() {
        let c = NetCounters::new();
        c.record_conn_close();
        assert_eq!(c.connections_active(), 0);
    }

    #[test]
    fn net_counters_track_tenant_outcomes_and_reset() {
        let c = NetCounters::new();
        c.record_net_submitted("a");
        c.record_net_submitted("b");
        c.record_net_completed("a");
        c.record_net_reject_queue_full("b");
        c.record_net_reject_overloaded("b");
        c.record_net_rate_limited("b");
        c.record_drained_connection();
        let s = c.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.rejected_overloaded, 1);
        assert_eq!(s.rate_limited, 1);
        assert_eq!(s.drained_connections, 1);
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, "a");
        assert_eq!(s.tenants[0].completed, 1);
        assert_eq!(s.tenants[1].rejected, 2);
        assert_eq!(s.tenants[1].rate_limited, 1);
        c.reset();
        assert_eq!(c.snapshot(), NetSnapshot::default());
    }

    #[test]
    fn net_snapshot_serializes() {
        let c = NetCounters::new();
        c.record_net_submitted("tenant-9");
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        assert!(json.contains("\"connections_peak\""));
        assert!(json.contains("\"rate_limited\""));
        assert!(json.contains("\"tenant-9\""));
    }
}
