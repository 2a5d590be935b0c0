//! Checkpoint/restart drivers for the GW workflows.
//!
//! Leadership-class GW runs burn node-hours by the hundred thousand; a
//! crash at hour N must not restart the pipeline from hour zero. These
//! drivers wrap [`run_gpp_gw`](crate::workflow::run_gpp_gw) and
//! [`run_evgw`](crate::workflow::run_evgw) with periodic snapshots of the
//! expensive accumulated state — partial CHI sums, inverted dielectric
//! blocks, per-band Sigma values, self-consistency iterates — through the
//! checksummed BGWR checkpoint records of `bgw-io`. A restarted run reads
//! the newest *valid* checkpoint (corrupt/truncated residue of the crash
//! is skipped) and resumes mid-stage; the cheap deterministic prefix
//! (mean-field solve, Coulomb setup, MTXEL caches) is recomputed, so only
//! O(N^3)-and-up work is snapshotted.
//!
//! The restart contract, enforced by `tests/restart.rs`: a run killed at
//! any checkpoint boundary and resumed reproduces the uninterrupted run's
//! quasiparticle energies to 1e-10.

use crate::chi::{ChiEngine, ChiTimings};
use crate::dyson::three_point_grids;
use crate::epsilon::EpsilonInverse;
use crate::error::GwError;
use crate::service::{band_subset, finish_screening, prefix};
use crate::sigma::diag::{gpp_sigma_diag, SigmaDiagResult};
use crate::workflow::{
    evgw_iterate, gw_results, screened_context, window_context, EvGwResults, GwConfig, GwResults,
    GwTimings,
};
use bgw_io::{read_latest_checkpoint, write_checkpoint, Checkpoint};
use bgw_linalg::CMatrix;
use bgw_pwdft::ModelSystem;
use std::path::PathBuf;
use std::time::Instant;

/// Stage markers stored in [`Checkpoint::stage`]. The numeric values are
/// part of the on-disk format: renumbering breaks old checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GwStage {
    /// CHI accumulation in progress; `step` = valence chunks summed,
    /// matrix 0 = the partial `chi(0)` accumulator.
    ChiPartial = 1,
    /// Dielectric inversion finished; matrix 0 = `eps~^{-1}(0)`.
    EpsilonDone = 2,
    /// Sigma evaluation in progress; `step` = Sigma bands done, matrix 0 =
    /// `eps~^{-1}(0)`, meta = flattened per-band Sigma values + flops.
    SigmaPartial = 3,
    /// Self-consistent (evGW) iteration finished; `step` = iterations,
    /// meta = current QP energies then the gap history.
    EvGwIter = 4,
    /// Screening artifact record used by the `bgw-serve` artifact store:
    /// matrix 0 = static `eps~^{-1}`, matrices 1.. = full-frequency
    /// `eps~^{-1}(omega_i)` blocks, meta = quadrature nodes then weights.
    WScreening = 5,
}

/// When and where to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory for `ckpt_NNNNNN.bgwr` files (created on first write).
    pub dir: PathBuf,
    /// Valence bands accumulated between CHI checkpoints. `None` uses the
    /// run's `nv_block`, which keeps the chunked accumulation identical to
    /// the uninterrupted [`ChiEngine`] sweep.
    pub chi_stride: Option<usize>,
    /// Test hook simulating a kill: abort with
    /// [`GwError::Aborted`] immediately *after* this many checkpoint
    /// writes, leaving a valid on-disk state to resume from.
    pub abort_after_writes: Option<usize>,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` with default stride and no injected abort.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            chi_stride: None,
            abort_after_writes: None,
        }
    }
}

/// Bookkeeping for one checkpointed invocation: monotonic file indices and
/// the injected-kill countdown.
struct CkptWriter {
    policy: CheckpointPolicy,
    next_index: u64,
    writes: usize,
    t_checkpoint: f64,
}

impl CkptWriter {
    fn write(&mut self, ckpt: &Checkpoint) -> Result<(), GwError> {
        let _s = bgw_trace::span!("workflow.checkpoint");
        let t = Instant::now();
        write_checkpoint(&self.policy.dir, self.next_index, ckpt)?;
        self.t_checkpoint += t.elapsed().as_secs_f64();
        self.next_index += 1;
        self.writes += 1;
        if let Some(limit) = self.policy.abort_after_writes {
            if self.writes >= limit {
                return Err(GwError::Aborted {
                    writes: self.writes,
                });
            }
        }
        Ok(())
    }
}

/// State recovered from disk when a GPP run resumes.
enum GppResume {
    /// Nothing usable on disk: start from scratch.
    Fresh,
    /// CHI partially accumulated over the first `chunks_done` chunks.
    Chi { chunks_done: u64, acc: CMatrix },
    /// Epsilon inverted; Sigma not started.
    Epsilon { inv: CMatrix },
    /// Sigma evaluated for the first `bands_done` bands.
    Sigma {
        inv: CMatrix,
        bands_done: u64,
        sigma: Vec<Vec<f64>>,
        flops: u64,
    },
}

/// A checkpoint matrix must match the G-sphere of the run resuming from
/// it; anything else is residue from a different system or cutoff.
fn check_square(m: &CMatrix, ng: usize, stage: &'static str) -> Result<(), GwError> {
    if m.nrows() != ng || m.ncols() != ng {
        return Err(GwError::Malformed {
            stage,
            reason: format!(
                "matrix is {}x{}, this run needs {ng}x{ng}",
                m.nrows(),
                m.ncols()
            ),
        });
    }
    Ok(())
}

fn classify_gpp(
    found: Option<(u64, Checkpoint)>,
    ng: usize,
    n_chunks: usize,
) -> Result<(GppResume, u64), GwError> {
    let Some((idx, ck)) = found else {
        return Ok((GppResume::Fresh, 0));
    };
    let resume = match ck.stage {
        s if s == GwStage::ChiPartial as u64 => {
            let acc = ck.matrices.into_iter().next().ok_or(GwError::Malformed {
                stage: "chi",
                reason: "record carries no chi accumulator matrix".into(),
            })?;
            check_square(&acc, ng, "chi")?;
            if ck.step as usize > n_chunks {
                return Err(GwError::Malformed {
                    stage: "chi",
                    reason: format!(
                        "claims {} valence chunks accumulated, this run only has {n_chunks}",
                        ck.step
                    ),
                });
            }
            GppResume::Chi {
                chunks_done: ck.step,
                acc,
            }
        }
        s if s == GwStage::EpsilonDone as u64 => {
            let inv = ck.matrices.into_iter().next().ok_or(GwError::Malformed {
                stage: "epsilon",
                reason: "record carries no inverse dielectric matrix".into(),
            })?;
            check_square(&inv, ng, "epsilon")?;
            GppResume::Epsilon { inv }
        }
        s if s == GwStage::SigmaPartial as u64 => {
            let inv = ck.matrices.into_iter().next().ok_or(GwError::Malformed {
                stage: "sigma",
                reason: "record carries no inverse dielectric matrix".into(),
            })?;
            check_square(&inv, ng, "sigma")?;
            // meta = [n_grid, flops, sigma values band-major]
            if ck.meta.len() < 2 {
                return Err(GwError::Malformed {
                    stage: "sigma",
                    reason: format!("metadata has {} values, header needs 2", ck.meta.len()),
                });
            }
            if !(0.0..=1e9).contains(&ck.meta[0]) || !(0.0..=f64::MAX).contains(&ck.meta[1]) {
                return Err(GwError::Malformed {
                    stage: "sigma",
                    reason: format!(
                        "nonsense header: n_grid = {}, flops = {}",
                        ck.meta[0], ck.meta[1]
                    ),
                });
            }
            let n_grid = ck.meta[0] as usize;
            let flops = ck.meta[1] as u64;
            let bands_done = ck.step as usize;
            let need = 2 + bands_done * n_grid.max(1);
            if ck.meta.len() < need {
                return Err(GwError::Malformed {
                    stage: "sigma",
                    reason: format!(
                        "sigma table truncated: {} bands x {n_grid} energies needs {} \
                         meta values, record has {}",
                        bands_done,
                        need,
                        ck.meta.len()
                    ),
                });
            }
            let vals = &ck.meta[2..];
            let sigma: Vec<Vec<f64>> = vals
                .chunks_exact(n_grid.max(1))
                .take(bands_done)
                .map(|c| c.to_vec())
                .collect();
            GppResume::Sigma {
                inv,
                bands_done: ck.step,
                sigma,
                flops,
            }
        }
        _ => GppResume::Fresh, // unknown stage (e.g. evGW residue)
    };
    Ok((resume, idx + 1))
}

/// [`run_gpp_gw`](crate::workflow::run_gpp_gw) with checkpoint/restart.
///
/// On entry the newest valid checkpoint under `policy.dir` (if any) is
/// loaded and the pipeline resumes after it; on success the results are
/// identical to the uninterrupted driver to better than 1e-10 in every QP
/// energy. Checkpoints are written after every `chi_stride` valence bands
/// of CHI accumulation, after the dielectric inversion, and after each
/// Sigma band.
pub fn run_gpp_gw_checkpointed(
    system: &ModelSystem,
    cfg: &GwConfig,
    policy: &CheckpointPolicy,
) -> Result<GwResults, GwError> {
    let counters0 = bgw_perf::counters::snapshot();
    let mut timings = GwTimings::default();
    let p = prefix(system, cfg, &mut timings);
    let engine = ChiEngine::new(&p.wf, &p.mtxel, p.chi_cfg);
    let ng = engine.n_g();
    let stride = policy.chi_stride.unwrap_or(p.chi_cfg.nv_block).max(1);

    let t_read = Instant::now();
    let n_chunks = p.wf.n_valence.div_ceil(stride);
    let (resume, next_index) = classify_gpp(read_latest_checkpoint(&policy.dir)?, ng, n_chunks)?;
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
        t_checkpoint: t_read.elapsed().as_secs_f64(),
    };

    // ---- CHI accumulation, chunk by chunk -------------------------------
    let valence: Vec<usize> = (0..p.wf.n_valence).collect();
    let chunks: Vec<&[usize]> = valence.chunks(stride).collect();
    let (mut chi0, start_chunk, mut have_inv) = match &resume {
        GppResume::Fresh => (CMatrix::zeros(ng, ng), 0usize, None),
        GppResume::Chi { chunks_done, acc } => (acc.clone(), *chunks_done as usize, None),
        GppResume::Epsilon { inv } => (CMatrix::zeros(0, 0), chunks.len(), Some(inv.clone())),
        GppResume::Sigma { inv, .. } => (CMatrix::zeros(0, 0), chunks.len(), Some(inv.clone())),
    };
    for (ci, chunk) in chunks.iter().enumerate().skip(start_chunk) {
        let t = Instant::now();
        let mut ct = ChiTimings::default();
        let partial = engine
            .chi_freqs_subset(&[0.0], Some(chunk), &mut ct)
            .pop()
            .unwrap();
        for (a, b) in chi0.as_mut_slice().iter_mut().zip(partial.as_slice()) {
            *a += *b;
        }
        timings.t_chi += t.elapsed().as_secs_f64();
        writer.write(&Checkpoint {
            stage: GwStage::ChiPartial as u64,
            step: (ci + 1) as u64,
            meta: vec![],
            matrices: vec![chi0.clone()],
        })?;
    }

    // ---- Epsilon inversion ---------------------------------------------
    let eps_inv = match have_inv.take() {
        Some(inv) => EpsilonInverse::from_parts(vec![0.0], vec![inv], p.vsqrt.clone()),
        None => {
            let t = Instant::now();
            let built = EpsilonInverse::build(&[chi0], &[0.0], &p.coulomb, &p.eps_sph)?;
            timings.t_epsilon = t.elapsed().as_secs_f64();
            writer.write(&Checkpoint {
                stage: GwStage::EpsilonDone as u64,
                step: 0,
                meta: vec![],
                matrices: vec![built.inv[0].clone()],
            })?;
            built
        }
    };

    // ---- Sigma, band by band -------------------------------------------
    let s = finish_screening(p, eps_inv, None);
    let ctx = window_context(&s, cfg, &mut timings);
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let n_grid = grids.first().map_or(0, Vec::len);
    let (mut sigma, mut flops, start_band) = match resume {
        GppResume::Sigma {
            sigma,
            flops,
            bands_done,
            ..
        } => (sigma, flops, bands_done as usize),
        _ => (Vec::new(), 0u64, 0usize),
    };
    for band in start_band..ctx.n_sigma() {
        let t = Instant::now();
        let r = gpp_sigma_diag(
            &band_subset(&ctx, &[band]),
            &grids[band..band + 1],
            cfg.variant,
        );
        timings.t_sigma += t.elapsed().as_secs_f64();
        sigma.extend(r.sigma);
        flops += r.flops;
        let mut meta = vec![n_grid as f64, flops as f64];
        for row in &sigma {
            meta.extend_from_slice(row);
        }
        writer.write(&Checkpoint {
            stage: GwStage::SigmaPartial as u64,
            step: (band + 1) as u64,
            meta,
            matrices: vec![s.eps_inv.inv[0].clone()],
        })?;
    }

    let diag = SigmaDiagResult {
        sigma,
        e_grids: grids,
        seconds: timings.t_sigma,
        flops,
    };
    timings.t_checkpoint = writer.t_checkpoint;
    Ok(gw_results(
        &ctx,
        s.wf.gap_ry(),
        s.eps_macro,
        diag,
        timings,
        &counters0,
    ))
}

/// [`run_evgw`](crate::workflow::run_evgw) with per-iteration
/// checkpoint/restart. The screening prefix (CHI, epsilon, Sigma context)
/// is deterministic and recomputed on resume; only the self-consistency
/// iterate (QP energies + gap history) is snapshotted, after every
/// iteration. Like [`run_evgw`](crate::workflow::run_evgw), a run with no
/// iteration left to do returns its starting iterate.
pub fn run_evgw_checkpointed(
    system: &ModelSystem,
    cfg: &GwConfig,
    max_iter: usize,
    tol_ry: f64,
    policy: &CheckpointPolicy,
) -> Result<EvGwResults, GwError> {
    let (_, ctx) = screened_context(system, cfg, &mut GwTimings::default())?;
    let n_sigma = ctx.n_sigma();

    // Resume the iterate if a valid evGW checkpoint exists.
    let found = read_latest_checkpoint(&policy.dir)?;
    let (start, next_index) = match found {
        Some((idx, ck)) if ck.stage == GwStage::EvGwIter as u64 => {
            // meta = [e_qp per sigma band, gap history: one entry per
            // completed iteration]. Anything else is residue from a
            // different band set or a half-rewritten record.
            let expect = n_sigma + ck.step as usize;
            if ck.meta.len() != expect {
                return Err(GwError::Malformed {
                    stage: "evgw",
                    reason: format!(
                        "iterate has {} meta values; step {} with {n_sigma} sigma bands \
                         needs exactly {expect}",
                        ck.meta.len(),
                        ck.step
                    ),
                });
            }
            let e_qp = ck.meta[..n_sigma].to_vec();
            if e_qp.iter().any(|e| !e.is_finite()) {
                return Err(GwError::Malformed {
                    stage: "evgw",
                    reason: "resumed QP energies contain non-finite values".into(),
                });
            }
            let hist = ck.meta[n_sigma..].to_vec();
            ((e_qp, hist, ck.step as usize), idx + 1)
        }
        Some((idx, _)) => ((ctx.sigma_energies.clone(), Vec::new(), 0), idx + 1),
        None => ((ctx.sigma_energies.clone(), Vec::new(), 0), 0),
    };
    let mut writer = CkptWriter {
        policy: policy.clone(),
        next_index,
        writes: 0,
        t_checkpoint: 0.0,
    };
    evgw_iterate(&ctx, cfg.variant, max_iter, tol_ry, start, |it| {
        let mut meta = it.e_qp.clone();
        meta.extend_from_slice(&it.gap_history);
        writer.write(&Checkpoint {
            stage: GwStage::EvGwIter as u64,
            step: it.iterations as u64,
            meta,
            matrices: vec![],
        })
    })
}
