//! Fault-tolerant distributed GW: task-granular shrink-and-retry over the
//! simulated communicator.
//!
//! The distributed GPP pipeline (CHI allreduce -> Newton-Schulz epsilon
//! inversion -> G'-sliced Sigma) runs here on the fallible `try_*`
//! collectives. The CHI and Sigma stages are decomposed into fixed task
//! sets (one task per valence band, `2 * world` G' slices). When a peer
//! rank crashes mid-collective, the survivors observe a typed
//! [`CommError::PeerCrashed`], agree on a shrunken communicator via
//! [`Comm::shrink`], and re-enqueue only the tasks whose owner died;
//! results already held by a survivor are never recomputed (DESIGN.md
//! Sec. 14). Unrecoverable faults — the crashed rank's own error,
//! exhausted retries, persistent corruption, a poisoned world — propagate
//! out as `Err` instead of deadlocking, which is the ULFM-style contract of
//! paper-scale runs.

use crate::chi::ChiEngine;
use crate::dyson::{qp_gap, solve_qp_diag, three_point_grids, QpState};
use crate::epsilon::{EpsilonError, EpsilonInverse};
use crate::error::GwError;
use crate::service::{finish_screening, prefix};
use crate::sigma::diag::{gpp_sigma_diag_partial, SigmaDiagResult};
use crate::workflow::{window_context, GwConfig, GwTimings};
use bgw_comm::{Comm, CommError};
use bgw_dist::{try_invert_epsilon_distributed, DistError, DistMatrix};
use bgw_linalg::CMatrix;
use bgw_num::{c64, Complex64};
use bgw_par::dag::TaskGraph;
use bgw_pwdft::ModelSystem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Most shrink-and-retry cycles one stage may consume before giving up
/// with [`CommError::RecoveryExhausted`].
const MAX_RECOVERIES: u32 = 8;

/// Borrow-or-owned communicator cursor: starts out borrowing the world
/// communicator handed to a rank closure and switches to owned shrunken
/// communicators as ranks are lost, so every later stage automatically
/// runs on the current survivor set.
struct CommCursor<'a> {
    world: &'a Comm,
    owned: Option<Comm>,
    recoveries: u32,
}

impl<'a> CommCursor<'a> {
    fn new(world: &'a Comm) -> Self {
        Self {
            world,
            owned: None,
            recoveries: 0,
        }
    }

    /// The communicator every operation should currently use.
    fn get(&self) -> &Comm {
        self.owned.as_ref().unwrap_or(self.world)
    }

    /// Shrinks the current communicator to its survivors.
    fn shrink(&mut self) -> Result<(), CommError> {
        self.owned = Some(self.get().shrink()?);
        self.recoveries += 1;
        Ok(())
    }
}

/// Runs `f` against the cursor's communicator, shrinking and retrying on
/// recoverable faults (peer crashes). Non-recoverable errors — including
/// this rank's own injected crash — return immediately.
fn with_recovery<T>(
    cursor: &mut CommCursor<'_>,
    mut f: impl FnMut(&Comm) -> Result<T, CommError>,
) -> Result<T, CommError> {
    for _ in 0..MAX_RECOVERIES {
        match f(cursor.get()) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_recoverable() => cursor.shrink()?,
            Err(e) => return Err(e),
        }
    }
    Err(CommError::RecoveryExhausted {
        attempts: MAX_RECOVERIES,
    })
}

/// [`with_recovery`] for stages built on `bgw-dist`, whose typed
/// [`DistError`] may embed a recoverable communicator fault. Numerical
/// failures ([`DistError::NotConverged`]) return immediately — they are
/// deterministic, so shrinking would just recompute the same failure.
fn with_recovery_dist<T>(
    cursor: &mut CommCursor<'_>,
    mut f: impl FnMut(&Comm) -> Result<T, DistError>,
) -> Result<T, DistError> {
    for _ in 0..MAX_RECOVERIES {
        match f(cursor.get()) {
            Ok(v) => return Ok(v),
            Err(DistError::Comm(e)) if e.is_recoverable() => cursor.shrink()?,
            Err(e) => return Err(e),
        }
    }
    Err(DistError::Comm(CommError::RecoveryExhausted {
        attempts: MAX_RECOVERIES,
    }))
}

/// The epsilon stage. NS diverges (and asserts) on a singular matrix, so a
/// rank-local LU factorization of the replicated eps~ screens for
/// singularity first — every rank sees the same matrix, so every rank
/// agrees on the typed error and no collective is left half-entered. The
/// stage is deliberately *stage*-granular: the Newton-Schulz iterates are
/// global state, so there is no finer-grained task whose loss could be
/// recovered independently.
fn epsilon_stage(
    cursor: &mut CommCursor<'_>,
    chi0: &CMatrix,
    vsqrt: &[f64],
) -> Result<EpsilonInverse, GwError> {
    let eps_m = crate::epsilon::assemble_sym_eps(chi0, vsqrt);
    if !eps_m
        .as_slice()
        .iter()
        .all(|z| z.re.is_finite() && z.im.is_finite())
    {
        return Err(EpsilonError::NonFinite {
            freq_index: 0,
            omega: 0.0,
        }
        .into());
    }
    if bgw_linalg::Lu::new(&eps_m).is_err() {
        return Err(EpsilonError::Singular {
            freq_index: 0,
            omega: 0.0,
        }
        .into());
    }
    let inv = with_recovery_dist(cursor, |c| {
        let chi_dist = DistMatrix::from_replicated(c, chi0);
        let (inv_dist, _iters) = try_invert_epsilon_distributed(c, &chi_dist, vsqrt, 1e-12)?;
        Ok(inv_dist.try_to_replicated(c)?)
    })?;
    Ok(EpsilonInverse::from_parts(
        vec![0.0],
        vec![inv],
        vsqrt.to_vec(),
    ))
}

/// Runs the tasks `ids` through a [`TaskGraph`] (overdecomposed and
/// work-stolen when a worker pool is available), then folds their payloads
/// into `partial` in task order and marks them `done`.
fn run_tasks_into<F>(ids: &[usize], f: &F, done: &mut [bool], partial: &mut [Complex64])
where
    F: Fn(usize) -> Vec<Complex64> + Sync,
{
    let slots: Vec<Mutex<Option<Vec<Complex64>>>> = ids.iter().map(|_| Mutex::new(None)).collect();
    {
        let mut g = TaskGraph::new();
        for (i, &t) in ids.iter().enumerate() {
            let slots = &slots;
            g.add(&[], move || {
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(f(t));
            });
        }
        g.execute();
    }
    for (&t, slot) in ids.iter().zip(slots) {
        let contrib = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("task executed");
        assert_eq!(contrib.len(), partial.len(), "task payload shape");
        for (a, b) in partial.iter_mut().zip(&contrib) {
            *a += *b;
        }
        done[t] = true;
    }
}

/// This rank's round-robin share of `tasks` on communicator `c`.
fn my_share(tasks: impl Iterator<Item = usize>, c: &Comm) -> Vec<usize> {
    tasks
        .enumerate()
        .filter(|(i, _)| i % c.size() == c.rank())
        .map(|(_, t)| t)
        .collect()
}

/// Survivor consensus on which tasks died with the lost ranks: every
/// survivor contributes a presence mask of the tasks it holds locally; a
/// zero count after the sum means no survivor holds that contribution and
/// the task must be re-enqueued. The mask collective itself runs under
/// shrink-and-retry, so a crash *during the census* just shrinks further
/// and the census repeats among the remaining survivors.
fn lost_tasks(cursor: &mut CommCursor<'_>, done: &[bool]) -> Result<Vec<usize>, CommError> {
    let mask: Vec<Complex64> = done
        .iter()
        .map(|&d| c64(if d { 1.0 } else { 0.0 }, 0.0))
        .collect();
    let counts = with_recovery(cursor, |c| c.try_allreduce_sum_c64(mask.clone()))?;
    Ok(counts
        .iter()
        .enumerate()
        .filter(|(_, z)| z.re < 0.5)
        .map(|(t, _)| t)
        .collect())
}

/// One stage of `n_tasks` tasks, each contributing a payload of `len`
/// complex numbers, summed over the world with task-granular recovery.
///
/// Task owners are fixed round-robin over the communicator the stage
/// starts on. Each rank folds its own tasks into a local partial and
/// allreduces it. On a peer crash the survivors shrink, agree on the
/// orphaned tasks via [`lost_tasks`], re-enqueue ONLY those (split
/// round-robin over the survivors), fold the recomputed contributions into
/// the local partial, and retry the collective. Losing one rank of `P`
/// costs `~1/P` of the stage, not the whole stage.
fn reduce_tasks<F>(
    cursor: &mut CommCursor<'_>,
    n_tasks: usize,
    len: usize,
    reenqueued: &mut usize,
    compute: &F,
) -> Result<Vec<Complex64>, GwError>
where
    F: Fn(usize) -> Vec<Complex64> + Sync,
{
    let mut done = vec![false; n_tasks];
    let mut partial = vec![Complex64::ZERO; len];
    let mine = my_share(0..n_tasks, cursor.get());
    run_tasks_into(&mine, compute, &mut done, &mut partial);
    loop {
        match cursor.get().try_allreduce_sum_c64(partial.clone()) {
            Ok(total) => return Ok(total),
            Err(e) if e.is_recoverable() => {
                if cursor.recoveries >= MAX_RECOVERIES {
                    return Err(CommError::RecoveryExhausted {
                        attempts: MAX_RECOVERIES,
                    }
                    .into());
                }
                cursor.shrink()?;
                let lost = lost_tasks(cursor, &done)?;
                let mine = my_share(lost.into_iter(), cursor.get());
                bgw_perf::counters::record_dag_reenqueued(mine.len() as u64);
                *reenqueued += mine.len();
                run_tasks_into(&mine, compute, &mut done, &mut partial);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// What a surviving rank reports after a fault-tolerant GPP run.
#[derive(Clone, Debug)]
pub struct ResilientGwReport {
    /// Band indices whose self-energy was computed.
    pub sigma_bands: Vec<usize>,
    /// Quasiparticle solutions, aligned with `sigma_bands`.
    pub states: Vec<QpState>,
    /// Quasiparticle gap (Ry).
    pub gap_qp_ry: f64,
    /// Macroscopic dielectric constant.
    pub eps_macro: f64,
    /// Communicator size at the end of the run (`< initial` iff ranks
    /// were lost and the survivors recovered).
    pub final_size: usize,
    /// Shrink-and-retry cycles this rank performed.
    pub recoveries: u32,
    /// Fixed task count of the run: one CHI task per valence band plus
    /// the overdecomposed Sigma G' slices. Identical on every rank and
    /// invariant under shrinks — task identity never changes, only
    /// ownership does.
    pub tasks_total: usize,
    /// Orphaned tasks this rank recomputed after their owners died. Zero
    /// on fault-free runs; the sum over survivors after one crash is the
    /// dead rank's task count, not the whole stage.
    pub tasks_reenqueued: usize,
}

/// The distributed G0W0(GPP) pipeline with task-granular fault recovery.
///
/// The CHI sum is decomposed into one task per valence band and the Sigma
/// G' summation into `2 * world` slices; each rank tracks which task
/// results it holds, and on a crash the survivors re-enqueue only the
/// tasks whose owner died. Under a fault-free plan this reproduces the
/// serial [`run_gpp_gw`](crate::workflow::run_gpp_gw) physics through the
/// distributed code path (Newton-Schulz inversion instead of LU, so QP
/// energies agree to the iteration tolerance rather than bitwise). Under a
/// seeded [`bgw_comm::FaultPlan`], surviving ranks recover and reproduce
/// the fault-free run's QP energies to 1e-10; the crashed rank gets its
/// own typed error. A singular dielectric matrix surfaces as
/// [`GwError::Epsilon`] on every rank instead of a panic inside the
/// distributed inversion.
pub fn run_gpp_gw_resilient(
    system: &ModelSystem,
    cfg: &GwConfig,
    comm: &Comm,
) -> Result<ResilientGwReport, GwError> {
    let mut cursor = CommCursor::new(comm);
    let mut reenqueued = 0usize;
    let mut timings = GwTimings::default();
    let p = prefix(system, cfg, &mut timings);

    // CHI: one task per valence band, owners fixed round-robin over the
    // initial ranks — a lost rank orphans exactly its bands.
    let engine = ChiEngine::new(&p.wf, &p.mtxel, p.chi_cfg);
    let ng = engine.n_g();
    let nv = p.wf.n_valence;
    let chi_task = |v: usize| -> Vec<Complex64> {
        engine
            .chi_block_freqs(v, v + 1, &[0.0])
            .pop()
            .expect("single static frequency")
            .as_slice()
            .to_vec()
    };
    let chi0 = CMatrix::from_vec(
        ng,
        ng,
        reduce_tasks(&mut cursor, nv, ng * ng, &mut reenqueued, &chi_task)?,
    );

    // Epsilon: stage-granular by design (see `epsilon_stage`).
    let eps_inv = epsilon_stage(&mut cursor, &chi0, &p.vsqrt)?;

    // Sigma: G' slices overdecomposed 2x over the initial world, so the
    // shrunken world rebalances at task granularity.
    let s = finish_screening(p, eps_inv, None);
    let ctx = window_context(&s, cfg, &mut timings);
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let ng_s = ctx.n_g();
    let n_slices = (comm.size() * 2).clamp(1, ng_s.max(1));
    let sigma_flops = AtomicU64::new(0);
    let sigma_task = |t: usize| -> Vec<Complex64> {
        let lo = t * ng_s / n_slices;
        let hi = (t + 1) * ng_s / n_slices;
        let part = gpp_sigma_diag_partial(&ctx, &grids, lo, hi);
        sigma_flops.fetch_add(part.flops, Ordering::Relaxed);
        part.sigma
            .iter()
            .flat_map(|band| band.iter().map(|&x| c64(x, 0.0)))
            .collect()
    };
    let t_sigma = Instant::now();
    let flat_len: usize = grids.iter().map(Vec::len).sum();
    let reduced = reduce_tasks(
        &mut cursor,
        n_slices,
        flat_len,
        &mut reenqueued,
        &sigma_task,
    )?;
    let mut sigma = Vec::with_capacity(grids.len());
    let mut flat_at = 0;
    for grid in &grids {
        sigma.push(
            reduced[flat_at..flat_at + grid.len()]
                .iter()
                .map(|z| z.re)
                .collect(),
        );
        flat_at += grid.len();
    }
    let diag = SigmaDiagResult {
        sigma,
        e_grids: grids,
        seconds: t_sigma.elapsed().as_secs_f64(),
        flops: sigma_flops.into_inner(),
    };

    let states = solve_qp_diag(&ctx.sigma_energies, &diag);
    let gap_qp = qp_gap(&states, ctx.homo_pos(), ctx.lumo_pos());
    Ok(ResilientGwReport {
        sigma_bands: ctx.sigma_bands.clone(),
        states,
        gap_qp_ry: gap_qp,
        eps_macro: s.eps_macro,
        final_size: cursor.get().size(),
        recoveries: cursor.recoveries,
        tasks_total: nv + n_slices,
        tasks_reenqueued: reenqueued,
    })
}
