//! Persistent-worker backend — the paper's TFlux suggestion.
//!
//! §4.1.1 observes that OpenMP's per-region spawn/join overhead limits
//! fine-grain scalability and suggests exploring "implementations that
//! are more efficient (e.g. the TFlux model, which has minimal
//! synchronization and runtime overheads)". This backend implements
//! that idea: worker threads are spawned **once** and live for the
//! backend's lifetime; each PLF call publishes a job epoch, workers
//! self-schedule pattern chunks off that job's atomic counter, and the
//! caller participates in the work and spin-waits for the last chunk —
//! no thread creation, no parked-thread wakeup on the critical path
//! beyond one condvar broadcast.

use plf_phylo::clv::{Clv, TransitionMatrices};
use plf_phylo::dna::N_STATES;
use plf_phylo::kernels::{simd4, FusedDown, FusedRoot, FusedScale, PlfBackend, SimdSchedule};
use plf_phylo::metrics::{Kernel, KernelTimer, PlfCounters};
use plf_phylo::resilience::PlfError;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Patterns per self-scheduled chunk. Small enough to balance load,
/// large enough that the atomic fetch-add is negligible.
const CHUNK_PATTERNS: usize = 256;

type Task = Box<dyn Fn(usize) + Send + Sync>;

/// One published kernel call: its task plus the claim and completion
/// counters of *this* call. Workers clone the `Arc`, so a worker still
/// draining call k after its caller moved on can only claim from call
/// k's exhausted counter — never a chunk of call k+1, which would run
/// call k's task after `run_job` returned and leave call k+1's chunk
/// unrun.
struct Job {
    task: Task,
    n_chunks: usize,
    next_chunk: AtomicUsize,
    chunks_done: AtomicUsize,
}

impl Job {
    /// Claim and run chunks until this job is exhausted.
    fn drain(&self) {
        loop {
            let i = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break;
            }
            (self.task)(i);
            self.chunks_done.fetch_add(1, Ordering::Release);
        }
    }
}

struct PoolState {
    epoch: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    job_ready: Condvar,
}

/// A pointer that may cross threads; safety is established by the job
/// construction (each chunk index owns a disjoint output region).
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: these impls promise nothing about the pointee on their own —
// SendPtr is a plain address. Soundness is discharged at every deref
// site (the `from_raw_parts_mut` calls below), which must uphold:
// (1) disjointness — chunk `i` derives a slice covering only its own
//     `[lo, hi)` region, and the job's own fetch-add counter hands each
//     index below `n_chunks` to exactly one worker, once, so no two
//     live `&mut [f32]` overlap;
// (2) lifetime — the pointee buffer is borrowed by the caller of
//     `run_job`, and slices are derived only inside a task call for a
//     claimed index. `run_job` returns once the job's `chunks_done`
//     reaches `n_chunks` (an Acquire load pairing with each worker's
//     Release increment), that is, after every such call has returned
//     and its writes are visible. A worker may hold the job, and with
//     it this address, past that point, but its counter is exhausted,
//     so no slice is derived from it after the borrow ends.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Taking `self` forces closures to capture the whole wrapper (2021
    /// edition precise capture would otherwise grab the raw field and
    /// lose the Send/Sync impls).
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Persistent-thread-pool PLF backend with TFlux-style self-scheduling.
pub struct PersistentPoolBackend {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    n_threads: usize,
    schedule: SimdSchedule,
    metrics: Option<Arc<PlfCounters>>,
}

impl PersistentPoolBackend {
    /// Spawn `n_threads` workers (including the caller, so `n_threads-1`
    /// OS threads) using the column-wise SIMD kernels.
    pub fn new(n_threads: usize) -> PersistentPoolBackend {
        assert!(n_threads >= 1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        });
        let workers = (1..n_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen_epoch = 0u64;
                    loop {
                        // Wait for a new job epoch (or shutdown).
                        let job = {
                            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
                            loop {
                                if st.shutdown {
                                    return;
                                }
                                if st.epoch != seen_epoch {
                                    seen_epoch = st.epoch;
                                    // `run_job` publishes the job and
                                    // bumps the epoch under this same
                                    // lock, so a fresh epoch always
                                    // carries one; should that
                                    // invariant ever break, waiting
                                    // again is safe — the caller
                                    // drains its own job regardless.
                                    if let Some(job) = st.job.clone() {
                                        break job;
                                    }
                                }
                                st = shared
                                    .job_ready
                                    .wait(st)
                                    .unwrap_or_else(|p| p.into_inner());
                            }
                        };
                        job.drain();
                    }
                })
            })
            .collect();
        PersistentPoolBackend {
            shared,
            workers,
            n_threads,
            schedule: SimdSchedule::ColWise,
            metrics: None,
        }
    }

    /// Attach shared observability counters (per-kernel invocations,
    /// patterns, wall time, rescale events).
    pub fn with_metrics(mut self, counters: Arc<PlfCounters>) -> PersistentPoolBackend {
        self.metrics = Some(counters);
        self
    }

    /// Number of threads participating in each call.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Publish a job of `n_chunks` chunks, work on it, and wait for the
    /// last chunk to finish.
    fn run_job(&self, n_chunks: usize, task: Task) {
        if n_chunks == 0 {
            return;
        }
        let job = Arc::new(Job {
            task,
            n_chunks,
            next_chunk: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
        });
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
        }
        self.shared.job_ready.notify_all();
        // The caller is worker 0.
        job.drain();
        // Spin for the stragglers (chunks are tiny; parking would cost
        // more than it saves — the TFlux premise).
        while job.chunks_done.load(Ordering::Acquire) < n_chunks {
            std::hint::spin_loop();
        }
    }

    fn n_chunks(m: usize) -> usize {
        m.div_ceil(CHUNK_PATTERNS)
    }
}

impl Drop for PersistentPoolBackend {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl PlfBackend for PersistentPoolBackend {
    fn name(&self) -> String {
        format!("persistent-{}", self.n_threads)
    }

    fn begin_evaluation(&mut self) {
        if let Some(m) = &self.metrics {
            m.record_evaluation();
        }
    }

    fn preferred_batch_patterns(&self, n_rates: usize) -> usize {
        let _ = n_rates;
        // The pool hands out fixed CHUNK_PATTERNS-sized chunks; a fused
        // unit of one chunk per worker saturates it.
        CHUNK_PATTERNS * self.n_threads
    }

    fn cond_like_down(
        &mut self,
        left: &Clv,
        p_left: &TransitionMatrices,
        right: &Clv,
        p_right: &TransitionMatrices,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Down, out.n_patterns());
        let m = out.n_patterns();
        let n_rates = out.n_rates();
        let stride = n_rates * N_STATES;
        let schedule = self.schedule;
        // SAFETY: each worker writes a disjoint chunk region of `out`
        // (chunk indices are claimed exactly once) and `run_job`
        // returns only after the last claimed chunk finished, before
        // `out` can be touched again.
        let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        let left = left.as_slice().to_vec();
        let right = right.as_slice().to_vec();
        let p_left = p_left.clone();
        let p_right = p_right.clone();
        let task: Task = Box::new(move |chunk| {
            let start = chunk * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(m);
            let lo = start * stride;
            let hi = end * stride;
            // SAFETY: each chunk index owns the disjoint region
            // [lo, hi) of the output; the buffer outlives this slice
            // because run_job waits for every claimed chunk (see
            // SendPtr).
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(lo), hi - lo) };
            simd4::cond_like_down_range(
                schedule,
                &left[lo..hi],
                &p_left,
                &right[lo..hi],
                &p_right,
                out_chunk,
                n_rates,
            );
        });
        self.run_job(Self::n_chunks(m), task);
        Ok(())
    }

    fn cond_like_root(
        &mut self,
        a: &Clv,
        p_a: &TransitionMatrices,
        b: &Clv,
        p_b: &TransitionMatrices,
        c: Option<(&Clv, &TransitionMatrices)>,
        out: &mut Clv,
    ) -> Result<(), PlfError> {
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Root, out.n_patterns());
        let m = out.n_patterns();
        let n_rates = out.n_rates();
        let stride = n_rates * N_STATES;
        let schedule = self.schedule;
        // SAFETY: each worker writes a disjoint chunk region of `out`
        // (chunk indices are claimed exactly once) and `run_job`
        // returns only after the last claimed chunk finished, before
        // `out` can be touched again.
        let out_ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        let a = a.as_slice().to_vec();
        let b = b.as_slice().to_vec();
        let c = c.map(|(clv, p)| (clv.as_slice().to_vec(), p.clone()));
        let p_a = p_a.clone();
        let p_b = p_b.clone();
        let task: Task = Box::new(move |chunk| {
            let start = chunk * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(m);
            let lo = start * stride;
            let hi = end * stride;
            // SAFETY: as in cond_like_down — disjoint chunk regions.
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(lo), hi - lo) };
            let cc = c.as_ref().map(|(clv, p)| (&clv[lo..hi], p));
            simd4::cond_like_root_range(
                schedule,
                &a[lo..hi],
                &p_a,
                &b[lo..hi],
                &p_b,
                cc,
                out_chunk,
                n_rates,
            );
        });
        self.run_job(Self::n_chunks(m), task);
        Ok(())
    }

    fn cond_like_scaler(&mut self, clv: &mut Clv, ln_scalers: &mut [f32]) -> Result<(), PlfError> {
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Scale, clv.n_patterns());
        let m = clv.n_patterns();
        let n_rates = clv.n_rates();
        let stride = n_rates * N_STATES;
        // SAFETY: workers scale disjoint pattern ranges of the CLV and
        // write disjoint entries of `ln_scalers`; run_job returns only
        // after the last claimed chunk finished, before either buffer
        // is read.
        let clv_ptr = SendPtr(clv.as_mut_slice().as_mut_ptr());
        let sc_ptr = SendPtr(ln_scalers.as_mut_ptr());
        let rescaled = Arc::new(AtomicU64::new(0));
        let task_rescaled = Arc::clone(&rescaled);
        let task: Task = Box::new(move |chunk| {
            let start = chunk * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(m);
            // SAFETY: chunk `chunk` is claimed by exactly one worker,
            // and this slice covers only its pattern range scaled by
            // `stride`; the CLV buffer outlives this slice because
            // `run_job` waits for every claimed chunk (see SendPtr).
            let clv_chunk = unsafe {
                std::slice::from_raw_parts_mut(clv_ptr.get().add(start * stride), (end - start) * stride)
            };
            // SAFETY: same disjointness/lifetime argument for the
            // per-pattern scaler array (one f32 per pattern, so the
            // chunk owns `[start, end)` of it exclusively).
            let sc_chunk =
                unsafe { std::slice::from_raw_parts_mut(sc_ptr.get().add(start), end - start) };
            let n = simd4::cond_like_scaler_range(clv_chunk, sc_chunk, n_rates);
            task_rescaled.fetch_add(n, Ordering::Relaxed);
        });
        self.run_job(Self::n_chunks(m), task);
        if let Some(counters) = &self.metrics {
            counters.record_rescaled(rescaled.load(Ordering::Relaxed));
        }
        Ok(())
    }

    // Fused overrides: one `run_job` (one epoch publish + one
    // completion barrier) per tree level for the whole batch, instead
    // of one per op per job. A prefix-sum chunk table maps each global
    // chunk index to (op, local chunk); chunks never span ops, so the
    // per-pattern arithmetic — and therefore the result bits — are
    // exactly those of the per-op path.

    fn cond_like_down_fused(&mut self, ops: &mut [FusedDown<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.out.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Down, total_m);
        let schedule = self.schedule;
        struct OpJob {
            chunk_base: usize,
            m: usize,
            n_rates: usize,
            left: Vec<f32>,
            right: Vec<f32>,
            p_left: TransitionMatrices,
            p_right: TransitionMatrices,
            out: SendPtr,
        }
        let mut table: Vec<OpJob> = Vec::with_capacity(ops.len());
        let mut n_chunks = 0usize;
        for op in ops.iter_mut() {
            let m = op.out.n_patterns();
            table.push(OpJob {
                chunk_base: n_chunks,
                m,
                n_rates: op.out.n_rates(),
                left: op.left.as_slice().to_vec(),
                right: op.right.as_slice().to_vec(),
                p_left: op.p_left.clone(),
                p_right: op.p_right.clone(),
                // SAFETY: global chunk indices map to disjoint regions
                // of exactly one op's `out`; run_job returns only after
                // the last claimed chunk finished, before ops are reused.
                out: SendPtr(op.out.as_mut_slice().as_mut_ptr()),
            });
            n_chunks += Self::n_chunks(m);
        }
        let task: Task = Box::new(move |chunk| {
            let idx = table.partition_point(|j| j.chunk_base <= chunk).saturating_sub(1);
            let job = &table[idx];
            let stride = job.n_rates * N_STATES;
            let start = (chunk - job.chunk_base) * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(job.m);
            let lo = start * stride;
            let hi = end * stride;
            // SAFETY: the table assigns each global chunk index to one
            // op and one [lo, hi) region of that op's output; regions
            // of distinct chunks are disjoint and every output buffer
            // outlives this slice because run_job waits for every
            // claimed chunk (see SendPtr).
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(job.out.get().add(lo), hi - lo) };
            simd4::cond_like_down_range(
                schedule,
                &job.left[lo..hi],
                &job.p_left,
                &job.right[lo..hi],
                &job.p_right,
                out_chunk,
                job.n_rates,
            );
        });
        self.run_job(n_chunks, task);
        Ok(())
    }

    fn cond_like_root_fused(&mut self, ops: &mut [FusedRoot<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.out.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Root, total_m);
        let schedule = self.schedule;
        struct OpJob {
            chunk_base: usize,
            m: usize,
            n_rates: usize,
            a: Vec<f32>,
            b: Vec<f32>,
            c: Option<(Vec<f32>, TransitionMatrices)>,
            p_a: TransitionMatrices,
            p_b: TransitionMatrices,
            out: SendPtr,
        }
        let mut table: Vec<OpJob> = Vec::with_capacity(ops.len());
        let mut n_chunks = 0usize;
        for op in ops.iter_mut() {
            let m = op.out.n_patterns();
            table.push(OpJob {
                chunk_base: n_chunks,
                m,
                n_rates: op.out.n_rates(),
                a: op.a.as_slice().to_vec(),
                b: op.b.as_slice().to_vec(),
                c: op.c.map(|(clv, p)| (clv.as_slice().to_vec(), p.clone())),
                p_a: op.p_a.clone(),
                p_b: op.p_b.clone(),
                // SAFETY: global chunk indices map to disjoint regions
                // of exactly one op's `out`; run_job returns only after
                // the last claimed chunk finished, before ops are reused.
                out: SendPtr(op.out.as_mut_slice().as_mut_ptr()),
            });
            n_chunks += Self::n_chunks(m);
        }
        let task: Task = Box::new(move |chunk| {
            let idx = table.partition_point(|j| j.chunk_base <= chunk).saturating_sub(1);
            let job = &table[idx];
            let stride = job.n_rates * N_STATES;
            let start = (chunk - job.chunk_base) * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(job.m);
            let lo = start * stride;
            let hi = end * stride;
            // SAFETY: as in cond_like_down_fused — one op and one
            // disjoint region per global chunk index, buffers alive
            // until every claimed chunk finished (see SendPtr).
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(job.out.get().add(lo), hi - lo) };
            let cc = job.c.as_ref().map(|(clv, p)| (&clv[lo..hi], p));
            simd4::cond_like_root_range(
                schedule,
                &job.a[lo..hi],
                &job.p_a,
                &job.b[lo..hi],
                &job.p_b,
                cc,
                out_chunk,
                job.n_rates,
            );
        });
        self.run_job(n_chunks, task);
        Ok(())
    }

    fn cond_like_scaler_fused(&mut self, ops: &mut [FusedScale<'_>]) -> Result<(), PlfError> {
        let total_m: usize = ops.iter().map(|op| op.clv.n_patterns()).sum();
        let _timer = KernelTimer::start(self.metrics.as_ref(), Kernel::Scale, total_m);
        struct OpJob {
            chunk_base: usize,
            m: usize,
            n_rates: usize,
            clv: SendPtr,
            scalers: SendPtr,
        }
        let mut table: Vec<OpJob> = Vec::with_capacity(ops.len());
        let mut n_chunks = 0usize;
        for op in ops.iter_mut() {
            let m = op.clv.n_patterns();
            table.push(OpJob {
                chunk_base: n_chunks,
                m,
                n_rates: op.clv.n_rates(),
                // SAFETY: global chunk indices map to disjoint pattern
                // ranges of exactly one op's CLV and scaler buffers;
                // run_job returns only after the last claimed chunk
                // finished, before the ops are reused.
                clv: SendPtr(op.clv.as_mut_slice().as_mut_ptr()),
                scalers: SendPtr(op.ln_scalers.as_mut_ptr()),
            });
            n_chunks += Self::n_chunks(m);
        }
        let rescaled = Arc::new(AtomicU64::new(0));
        let task_rescaled = Arc::clone(&rescaled);
        let task: Task = Box::new(move |chunk| {
            let idx = table.partition_point(|j| j.chunk_base <= chunk).saturating_sub(1);
            let job = &table[idx];
            let stride = job.n_rates * N_STATES;
            let start = (chunk - job.chunk_base) * CHUNK_PATTERNS;
            let end = (start + CHUNK_PATTERNS).min(job.m);
            // SAFETY: one op and one disjoint pattern range per global
            // chunk index, for both the CLV region (scaled by `stride`)
            // and the per-pattern scaler region; both buffers outlive
            // these slices because run_job waits for every claimed
            // chunk (see SendPtr).
            let clv_chunk = unsafe {
                std::slice::from_raw_parts_mut(
                    job.clv.get().add(start * stride),
                    (end - start) * stride,
                )
            };
            // SAFETY: same argument for the scaler array (one f32 per
            // pattern; the chunk owns [start, end) exclusively).
            let sc_chunk = unsafe {
                std::slice::from_raw_parts_mut(job.scalers.get().add(start), end - start)
            };
            let n = simd4::cond_like_scaler_range(clv_chunk, sc_chunk, job.n_rates);
            task_rescaled.fetch_add(n, Ordering::Relaxed);
        });
        self.run_job(n_chunks, task);
        if let Some(counters) = &self.metrics {
            counters.record_rescaled(rescaled.load(Ordering::Relaxed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plf_phylo::alignment::Alignment;
    use plf_phylo::kernels::ScalarBackend;
    use plf_phylo::likelihood::TreeLikelihood;
    use plf_phylo::model::{GtrParams, SiteModel};
    use plf_phylo::tree::Tree;

    fn toy() -> (Tree, plf_phylo::alignment::PatternAlignment, SiteModel) {
        let tree = Tree::from_newick(
            "(((a:0.1,b:0.15):0.1,(c:0.2,d:0.1):0.05):0.1,(e:0.1,f:0.3):0.1,g:0.2);",
        )
        .unwrap();
        // > CHUNK_PATTERNS distinct patterns so multiple chunks exist.
        let mut rows = vec![String::new(); 7];
        let bases = ['A', 'C', 'G', 'T'];
        let mut h: u64 = 0x243F6A8885A308D3;
        for _ in 0..600usize {
            for row in rows.iter_mut() {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                row.push(bases[(h >> 33) as usize % 4]);
            }
        }
        let named: Vec<(&str, &str)> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .zip(rows.iter())
            .map(|(n, r)| (*n, r.as_str()))
            .collect();
        let aln = Alignment::from_strings(&named).unwrap().compress();
        let model = SiteModel::gtr_gamma4(GtrParams::hky85(2.0, [0.3, 0.2, 0.2, 0.3]), 0.6).unwrap();
        (tree, aln, model)
    }

    #[test]
    fn matches_scalar_bitwise() {
        let (tree, aln, model) = toy();
        assert!(aln.n_patterns() > CHUNK_PATTERNS, "need multiple chunks");
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        for threads in [1usize, 2, 4] {
            let mut backend = PersistentPoolBackend::new(threads);
            let mut eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
            let got = eval.log_likelihood(&tree, &mut backend).unwrap();
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn repeated_evaluations_stay_consistent() {
        let (tree, aln, model) = toy();
        let mut backend = PersistentPoolBackend::new(3);
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        let first = eval.log_likelihood(&tree, &mut backend).unwrap();
        for _ in 0..10 {
            assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), first);
        }
    }

    #[test]
    fn send_ptr_disjoint_chunk_writes_are_exact() {
        // Drives run_job/SendPtr directly (no kernels): every chunk
        // adds its 1-based index to its own disjoint region, repeated
        // for several rounds. If a chunk ever ran twice, never ran, or
        // ran after run_job returned, the accumulated values would be
        // off; if two workers overlapped, Miri/TSan-style failures or
        // torn sums would show. Also exercises the completion barrier:
        // round N reads what round N-1 wrote.
        const CHUNK_LEN: usize = 512;
        const N_CHUNKS: usize = 64;
        const ROUNDS: usize = 8;
        let pool = PersistentPoolBackend::new(4);
        let mut buf = vec![0.0f32; N_CHUNKS * CHUNK_LEN];
        for _ in 0..ROUNDS {
            let ptr = SendPtr(buf.as_mut_ptr());
            let task: Task = Box::new(move |chunk| {
                // SAFETY: each chunk index is claimed exactly once per
                // job and this slice covers only its own CHUNK_LEN
                // region; `buf` outlives the slice because run_job
                // blocks until every claimed chunk is done.
                let region = unsafe {
                    std::slice::from_raw_parts_mut(ptr.get().add(chunk * CHUNK_LEN), CHUNK_LEN)
                };
                for x in region.iter_mut() {
                    *x += (chunk + 1) as f32;
                }
            });
            pool.run_job(N_CHUNKS, task);
        }
        for (i, &x) in buf.iter().enumerate() {
            let chunk = i / CHUNK_LEN;
            assert_eq!(x, (ROUNDS * (chunk + 1)) as f32, "element {i}");
        }
    }

    #[test]
    fn back_to_back_single_chunk_jobs_each_run_their_own_task() {
        // A worker still inside `drain` for job k used to claim chunk 0
        // of job k+1 from shared counters, run job k's task after
        // run_job returned, and count it done for job k+1, whose chunk
        // then never ran (or, landing between the counter resets, made
        // the caller spin forever). Each job here stores its own index,
        // so a skipped or stale chunk shows as a wrong value, and the
        // loop runs on its own thread so a hang fails the test.
        const JOBS: usize = 200_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let looper = std::thread::spawn(move || {
            let pool = PersistentPoolBackend::new(2);
            let last = Arc::new(AtomicUsize::new(usize::MAX));
            let mut wrong = 0usize;
            for j in 0..JOBS {
                let cell = Arc::clone(&last);
                pool.run_job(1, Box::new(move |_| cell.store(j, Ordering::Relaxed)));
                if last.load(Ordering::Relaxed) != j {
                    wrong += 1;
                }
            }
            let _ = tx.send(wrong);
        });
        let wrong = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_job hung, or the job loop panicked");
        looper.join().expect("job loop thread");
        assert_eq!(wrong, 0, "jobs whose own chunk did not run last");
    }

    #[test]
    fn drop_joins_workers() {
        // Constructing and dropping many pools must not leak or hang.
        for _ in 0..20 {
            let backend = PersistentPoolBackend::new(4);
            drop(backend);
        }
    }

    #[test]
    fn single_thread_pool_has_no_workers() {
        let backend = PersistentPoolBackend::new(1);
        assert_eq!(backend.workers.len(), 0);
        assert_eq!(backend.n_threads(), 1);
    }

    #[test]
    fn tiny_inputs_single_chunk() {
        let tree = Tree::from_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);").unwrap();
        let aln = Alignment::from_strings(&[
            ("a", "ACGT"),
            ("b", "ACGA"),
            ("c", "ACGT"),
            ("d", "ATGT"),
        ])
        .unwrap()
        .compress();
        let model = SiteModel::jc69();
        let mut ref_eval = TreeLikelihood::new(&tree, &aln, model.clone()).unwrap();
        let expect = ref_eval.log_likelihood(&tree, &mut ScalarBackend).unwrap();
        let mut backend = PersistentPoolBackend::new(8);
        let mut eval = TreeLikelihood::new(&tree, &aln, model).unwrap();
        assert_eq!(eval.log_likelihood(&tree, &mut backend).unwrap(), expect);
    }
}
