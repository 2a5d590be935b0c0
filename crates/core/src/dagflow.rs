//! DAG-scheduled G0W0(GPP) workflow: the barrier-free spine.
//!
//! [`run_gpp_gw`](crate::workflow::run_gpp_gw) executes the Fig. 1
//! pipeline as a sequence of phase barriers: every CHI panel finishes
//! before the dielectric inversion starts, the inversion finishes before
//! the charge density / GPP / Sigma preparation starts, and so on. This
//! module recasts the same physics as a [`TaskGraph`] of fine-grained
//! tasks — one per NV block of the polarizability, one per frequency
//! node of the dielectric inversion, one per Sigma band — with explicit
//! data dependencies. Readiness-driven execution with work stealing
//! (`bgw-par::dag`) then overlaps everything the dependencies allow:
//!
//! * the charge density builds concurrently with the whole CHI block
//!   sweep (neither needs the other);
//! * each frequency's dielectric inversion starts the moment its CHI
//!   reduction completes, instead of waiting for the CHI *phase*;
//! * Sigma bands are independent tasks, so a straggler band is stolen
//!   instead of stretching a static schedule.
//!
//! Every cross-task combination (the per-frequency block sum, the final
//! Sigma assembly) reads its inputs in a fixed index order, so the DAG
//! path is deterministic for any worker count and reproduces the
//! barrier-ordered oracle to summation-reassociation accuracy (the
//! parity tests gate at 1e-12; the only difference is the association
//! order of the NV-block sum and the band reduction).

use crate::chi::ChiEngine;
use crate::dyson::three_point_grids;
use crate::epsilon::EpsilonInverse;
use crate::error::GwError;
use crate::gpp::GppModel;
use crate::service::prefix;
use crate::sigma::diag::{gpp_sigma_diag, SigmaDiagResult};
use crate::sigma::SigmaContext;
use crate::workflow::{gw_results, GwConfig, GwResults, GwTimings};
use bgw_linalg::CMatrix;
use bgw_num::Complex64;
use bgw_par::dag::{DagStats, TaskGraph};
use bgw_pwdft::{charge_density_g, ModelSystem};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a per-band Sigma task deposits: the band's Sigma(E) grid row,
/// the kernel's counted FLOPs, and its wall seconds.
type SigmaPart = (Vec<f64>, u64, f64);

/// Records the first error of the run; cascading follow-up errors (a
/// missing input *because* an upstream task bailed) are dropped.
fn record_err(slot: &Mutex<Option<GwError>>, e: GwError) {
    let mut g = slot.lock().unwrap_or_else(|p| p.into_inner());
    if g.is_none() {
        *g = Some(e);
    }
}

/// Test-only fault injection: simulates malformed task-graph states the
/// typed error path must catch (a reduction that never deposits, a
/// corrupted polarizability).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DagFaults {
    /// The CHI reduction task completes without depositing its matrix.
    pub(crate) drop_chi_reduction: bool,
    /// The CHI reduction deposits a non-finite matrix.
    pub(crate) corrupt_chi: bool,
}

/// A DAG-scheduled run: the same [`GwResults`] as the barrier oracle,
/// plus the scheduler's execution statistics.
#[derive(Clone, Debug)]
pub struct DagGwResults {
    /// Physics results, shape-identical to [`run_gpp_gw`]'s.
    ///
    /// [`run_gpp_gw`]: crate::workflow::run_gpp_gw
    pub results: GwResults,
    /// Task/steal counts of the graph execution. `timings` inside
    /// `results` are *cumulative task* seconds per stage — overlapping
    /// tasks mean their sum can exceed the run's wall clock.
    pub stats: DagStats,
}

/// Stage-time accumulator shared by the tasks (indices: chi, epsilon,
/// sigma-context, sigma-kernel).
#[derive(Default)]
struct StageSeconds([f64; 4]);

impl StageSeconds {
    const CHI: usize = 0;
    const EPSILON: usize = 1;
    const MTXEL_SIGMA: usize = 2;
    const SIGMA: usize = 3;
}

fn charge(acc: &Mutex<StageSeconds>, stage: usize, t0: Instant) {
    acc.lock().unwrap_or_else(|e| e.into_inner()).0[stage] += t0.elapsed().as_secs_f64();
}

/// Runs the full G0W0(GPP) pipeline as a task DAG.
///
/// Identical configuration surface and result shape as
/// [`run_gpp_gw`](crate::workflow::run_gpp_gw); the parity contract
/// (gated by tests) is agreement to 1e-12 on every quasiparticle energy,
/// both gaps, and the macroscopic dielectric constant, with *exactly*
/// equal counted Sigma FLOPs.
///
/// A malformed task-graph state (a task input that was never deposited)
/// or a failed dielectric inversion returns a typed [`GwError`]
/// instead of panicking the worker pool.
pub fn run_gpp_gw_dag(system: &ModelSystem, cfg: &GwConfig) -> Result<DagGwResults, GwError> {
    run_gpp_gw_dag_injected(system, cfg, DagFaults::default())
}

/// [`run_gpp_gw_dag`] with fault injection (the regression tests for the
/// typed error path drive this).
pub(crate) fn run_gpp_gw_dag_injected(
    system: &ModelSystem,
    cfg: &GwConfig,
    faults: DagFaults,
) -> Result<DagGwResults, GwError> {
    let _run_span = bgw_trace::span!("workflow.gpp_gw_dag");
    let counters0 = bgw_perf::counters::snapshot();
    let mut timings = GwTimings::default();

    // The graph's shape (NV-block count, Sigma band set, energy grids)
    // is a function of the solved bands, so the mean field runs up
    // front — it is internally pool-parallel already. Everything
    // downstream is task-scheduled.
    let p = prefix(system, cfg, &mut timings);
    let sigma_bands = cfg.sigma_bands(&p.wf);
    // ctx.sigma_energies is wf.energies[l] by construction, so the grids
    // can be fixed before the context exists.
    let band_energies: Vec<f64> = sigma_bands.iter().map(|&l| p.wf.energies[l]).collect();
    let grids = three_point_grids(&band_energies, cfg.sampling_delta_ry);

    // Static GPP screening: one frequency node. The per-frequency task
    // layout below generalizes unchanged to a full-frequency grid.
    let omegas = [0.0f64];
    let nv = p.wf.n_valence;
    let nvb = p.chi_cfg.nv_block.max(1);
    let blocks: Vec<(usize, usize)> = (0..nv)
        .step_by(nvb)
        .map(|v0| (v0, (v0 + nvb).min(nv)))
        .collect();

    // The conduction-band FFT cache is internally pool-parallel; running
    // it as a DAG task would serialize it (nested parallel regions inside
    // a worker run inline), so it stays on the spine like the mean field.
    let t = Instant::now();
    let engine = {
        let _s = bgw_trace::span!("workflow.chi");
        ChiEngine::new(&p.wf, &p.mtxel, p.chi_cfg)
    };
    timings.t_chi = t.elapsed().as_secs_f64();

    // Shared single-writer slots the tasks communicate through. Declared
    // before the graph so every task's borrow outlives execution.
    let contribs: Vec<Mutex<Vec<CMatrix>>> =
        blocks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let chi_slots: Vec<Mutex<Option<CMatrix>>> = omegas.iter().map(|_| Mutex::new(None)).collect();
    let inv_slots: Vec<Mutex<Option<CMatrix>>> = omegas.iter().map(|_| Mutex::new(None)).collect();
    let eps_slot: OnceLock<EpsilonInverse> = OnceLock::new();
    let rho_slot: OnceLock<Vec<Complex64>> = OnceLock::new();
    let gpp_slot: Mutex<Option<GppModel>> = Mutex::new(None);
    let ctx_slot: OnceLock<SigmaContext> = OnceLock::new();
    let sigma_parts: Vec<Mutex<Option<SigmaPart>>> =
        sigma_bands.iter().map(|_| Mutex::new(None)).collect();
    let stage_s: Mutex<StageSeconds> = Mutex::new(StageSeconds::default());
    let err_slot: Mutex<Option<GwError>> = Mutex::new(None);

    let stats = {
        let mut g = TaskGraph::new();
        let wf = &p.wf;
        let mtxel = &p.mtxel;
        let wfn_sph = &p.wfn_sph;
        let eps_sph = &p.eps_sph;
        let coulomb = &p.coulomb;
        let vsqrt = &p.vsqrt;
        let volume = p.volume;
        let sigma_bands = &sigma_bands;
        let grids = &grids;
        let omegas = &omegas;
        let engine = &engine;
        let contribs = &contribs;
        let chi_slots = &chi_slots;
        let inv_slots = &inv_slots;
        let eps_slot = &eps_slot;
        let rho_slot = &rho_slot;
        let gpp_slot = &gpp_slot;
        let ctx_slot = &ctx_slot;
        let sigma_parts = &sigma_parts;
        let stage_s = &stage_s;
        let err_slot = &err_slot;

        // One task per NV block: build the M panel and contract it for
        // every frequency (the panel is reused across frequencies,
        // exactly like the barrier-ordered loop).
        let block_ids: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(b, &(v0, v1))| {
                g.add(&[], move || {
                    let _s = bgw_trace::span!("workflow.chi");
                    let t0 = Instant::now();
                    *contribs[b].lock().unwrap_or_else(|e| e.into_inner()) =
                        engine.chi_block_freqs(v0, v1, omegas);
                    charge(stage_s, StageSeconds::CHI, t0);
                })
            })
            .collect();

        // Per frequency: a deterministic block-order reduction, then the
        // dielectric inversion — which becomes *ready* the instant its
        // own reduction finishes, not when the CHI phase does.
        let inv_ids: Vec<_> = (0..omegas.len())
            .map(|f| {
                let t_red = g.add(&block_ids, move || {
                    let _s = bgw_trace::span!("workflow.chi");
                    let t0 = Instant::now();
                    if faults.drop_chi_reduction {
                        // Injected malformed state: complete without
                        // depositing, as a died-mid-write task would.
                        charge(stage_s, StageSeconds::CHI, t0);
                        return;
                    }
                    let mut acc: Option<CMatrix> = None;
                    for c in contribs {
                        // Take this frequency's contribution out of the
                        // block slot (freeing it) and fold it in block
                        // order — fixed association for determinism.
                        let m = {
                            let mut guard = c.lock().unwrap_or_else(|e| e.into_inner());
                            std::mem::replace(&mut guard[f], CMatrix::zeros(0, 0))
                        };
                        match &mut acc {
                            None => acc = Some(m),
                            Some(a) => a.axpy(Complex64::ONE, &m),
                        }
                    }
                    if faults.corrupt_chi {
                        if let Some(a) = &mut acc {
                            a.as_mut_slice()[0] = bgw_num::c64(f64::NAN, 0.0);
                        }
                    }
                    *chi_slots[f].lock().unwrap_or_else(|e| e.into_inner()) = acc;
                    charge(stage_s, StageSeconds::CHI, t0);
                });
                g.add(&[t_red], move || {
                    let _s = bgw_trace::span!("workflow.epsilon");
                    let t0 = Instant::now();
                    let chi = match chi_slots[f]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                    {
                        Some(chi) => chi,
                        None => {
                            record_err(
                                err_slot,
                                GwError::MissingInput {
                                    task: "epsilon.invert",
                                    input: "chi reduction",
                                },
                            );
                            return;
                        }
                    };
                    let built = EpsilonInverse::build(
                        std::slice::from_ref(&chi),
                        &omegas[f..f + 1],
                        coulomb,
                        eps_sph,
                    );
                    let inv = match built {
                        Ok(mut e) => match e.inv.pop() {
                            Some(inv) => inv,
                            None => {
                                record_err(
                                    err_slot,
                                    GwError::MissingInput {
                                        task: "epsilon.invert",
                                        input: "single-frequency inverse",
                                    },
                                );
                                return;
                            }
                        },
                        Err(e) => {
                            record_err(err_slot, GwError::Epsilon(e));
                            return;
                        }
                    };
                    *inv_slots[f].lock().unwrap_or_else(|e| e.into_inner()) = Some(inv);
                    charge(stage_s, StageSeconds::EPSILON, t0);
                })
            })
            .collect();

        // Reassemble the frequency-ordered inverse set.
        let t_eps = g.add(&inv_ids, move || {
            let _s = bgw_trace::span!("workflow.epsilon");
            let t0 = Instant::now();
            let mut inv: Vec<CMatrix> = Vec::with_capacity(inv_slots.len());
            for s in inv_slots {
                match s.lock().unwrap_or_else(|e| e.into_inner()).take() {
                    Some(m) => inv.push(m),
                    None => {
                        record_err(
                            err_slot,
                            GwError::MissingInput {
                                task: "epsilon.assemble",
                                input: "per-frequency inverse",
                            },
                        );
                        return;
                    }
                }
            }
            let _ = eps_slot.set(EpsilonInverse::from_parts(
                omegas.to_vec(),
                inv,
                vsqrt.clone(),
            ));
            charge(stage_s, StageSeconds::EPSILON, t0);
        });

        // Charge density: no dependencies — overlaps the whole CHI /
        // epsilon chain.
        let t_rho = g.add(&[], move || {
            let _ = rho_slot.set(charge_density_g(wf, wfn_sph));
        });

        let t_gpp = g.add(&[t_eps, t_rho], move || {
            let _s = bgw_trace::span!("workflow.mtxel");
            let t0 = Instant::now();
            let (Some(eps), Some(rho)) = (eps_slot.get(), rho_slot.get()) else {
                record_err(
                    err_slot,
                    GwError::MissingInput {
                        task: "gpp.build",
                        input: "epsilon inverse / charge density",
                    },
                );
                return;
            };
            let gpp = GppModel::new(eps, eps_sph, wfn_sph, rho, volume);
            *gpp_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(gpp);
            charge(stage_s, StageSeconds::MTXEL_SIGMA, t0);
        });

        let t_ctx = g.add(&[t_gpp], move || {
            let _s = bgw_trace::span!("workflow.mtxel");
            let t0 = Instant::now();
            let Some(gpp) = gpp_slot.lock().unwrap_or_else(|e| e.into_inner()).take() else {
                record_err(
                    err_slot,
                    GwError::MissingInput {
                        task: "sigma.context",
                        input: "gpp model",
                    },
                );
                return;
            };
            let _ = ctx_slot.set(SigmaContext::build(
                wf,
                mtxel,
                gpp,
                vsqrt,
                sigma_bands,
                coulomb.q0,
            ));
            charge(stage_s, StageSeconds::MTXEL_SIGMA, t0);
        });

        // One task per Sigma band, through the *same* diag kernel with
        // the other bands' grids masked empty (zero-length grids cost
        // zero work and zero counted FLOPs), so each band's numbers are
        // the full kernel's numbers for that band.
        for s in 0..sigma_bands.len() {
            g.add(&[t_ctx], move || {
                let _sp = bgw_trace::span!("workflow.sigma");
                let t0 = Instant::now();
                let Some(ctx) = ctx_slot.get() else {
                    record_err(
                        err_slot,
                        GwError::MissingInput {
                            task: "sigma.band",
                            input: "sigma context",
                        },
                    );
                    return;
                };
                let mut masked: Vec<Vec<f64>> = vec![Vec::new(); grids.len()];
                masked[s].clone_from(&grids[s]);
                let r = gpp_sigma_diag(ctx, &masked, cfg.variant);
                *sigma_parts[s].lock().unwrap_or_else(|e| e.into_inner()) =
                    Some((r.sigma[s].clone(), r.flops, r.seconds));
                charge(stage_s, StageSeconds::SIGMA, t0);
            });
        }

        g.execute()
    };

    // A task recorded a typed failure: surface the first one instead of
    // unwrapping half-filled slots.
    if let Some(e) = err_slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }

    // Final (trivial) assembly on the caller: fixed band order.
    let ctx = ctx_slot.into_inner().ok_or(GwError::MissingInput {
        task: "assembly",
        input: "sigma context",
    })?;
    let eps_inv = eps_slot.into_inner().ok_or(GwError::MissingInput {
        task: "assembly",
        input: "epsilon inverse",
    })?;
    let mut sigma = Vec::with_capacity(sigma_bands.len());
    let mut sigma_flops = 0u64;
    let mut sigma_seconds = 0.0;
    for part in &sigma_parts {
        let (sig, flops, secs) = part
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .ok_or(GwError::MissingInput {
                task: "assembly",
                input: "sigma band part",
            })?;
        sigma.push(sig);
        sigma_flops += flops;
        sigma_seconds += secs;
    }
    let diag = SigmaDiagResult {
        sigma,
        e_grids: grids,
        seconds: sigma_seconds,
        flops: sigma_flops,
    };

    let stage = stage_s.into_inner().unwrap_or_else(|e| e.into_inner());
    timings.t_chi += stage.0[StageSeconds::CHI];
    timings.t_epsilon = stage.0[StageSeconds::EPSILON];
    timings.t_mtxel_sigma = stage.0[StageSeconds::MTXEL_SIGMA];
    timings.t_sigma = sigma_seconds.max(stage.0[StageSeconds::SIGMA]);
    Ok(DagGwResults {
        results: gw_results(
            &ctx,
            p.wf.gap_ry(),
            eps_inv.macroscopic_constant(),
            diag,
            timings,
            &counters0,
        ),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_gpp_gw;
    use bgw_pwdft::si_bulk;

    fn test_system() -> ModelSystem {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        sys
    }

    #[test]
    fn dag_reproduces_barrier_oracle_across_pool_sizes() {
        let sys = test_system();
        let cfg = GwConfig::default();
        let oracle = run_gpp_gw(&sys, &cfg);
        for threads in [1usize, 4] {
            bgw_par::set_num_threads(threads);
            let dag = run_gpp_gw_dag(&sys, &cfg).expect("dag run succeeds");
            bgw_par::set_num_threads(0);
            let r = &dag.results;
            assert_eq!(r.sigma_bands, oracle.sigma_bands);
            assert_eq!(r.dims, oracle.dims);
            assert_eq!(
                r.sigma_flops, oracle.sigma_flops,
                "masked per-band kernel must count exactly the full kernel's FLOPs"
            );
            assert!(
                (r.gap_mf_ry - oracle.gap_mf_ry).abs() < 1e-12,
                "threads {threads}: mean-field gap drifted"
            );
            assert!(
                (r.gap_qp_ry - oracle.gap_qp_ry).abs() < 1e-12,
                "threads {threads}: QP gap {} vs {}",
                r.gap_qp_ry,
                oracle.gap_qp_ry
            );
            assert!(
                (r.eps_macro - oracle.eps_macro).abs() < 1e-12,
                "threads {threads}: eps_macro {} vs {}",
                r.eps_macro,
                oracle.eps_macro
            );
            for (a, b) in r.states.iter().zip(&oracle.states) {
                assert!(
                    (a.e_qp - b.e_qp).abs() < 1e-12,
                    "threads {threads}: QP energy {} vs {}",
                    a.e_qp,
                    b.e_qp
                );
                assert!((a.z - b.z).abs() < 1e-12);
                assert!((a.sigma_mf - b.sigma_mf).abs() < 1e-12);
            }
            // Shape: blocks + (reduce+invert) per freq + assemble + rho
            // + gpp + ctx + one per Sigma band.
            let n_blocks = sys_blocks(&cfg, &oracle);
            assert_eq!(
                dag.stats.tasks,
                n_blocks + 2 + 1 + 1 + 1 + 1 + oracle.sigma_bands.len(),
                "threads {threads}: unexpected task count"
            );
        }
    }

    fn sys_blocks(cfg: &GwConfig, oracle: &GwResults) -> usize {
        // nv = lowest Sigma band + bands_around_gap (the window is
        // centered on the gap by construction of the test system).
        let nv = oracle.sigma_bands[0] + cfg.bands_around_gap.max(1);
        nv.div_ceil(cfg.chi.nv_block.max(1))
    }

    #[test]
    fn dropped_reduction_is_a_typed_error_not_a_panic() {
        // A reduction task that dies before depositing its matrix used to
        // panic the inversion task's worker; now the run fails typed with
        // the root cause (the inversion's missing input), not a cascade.
        let sys = test_system();
        let err = run_gpp_gw_dag_injected(
            &sys,
            &GwConfig::default(),
            DagFaults {
                drop_chi_reduction: true,
                ..DagFaults::default()
            },
        )
        .expect_err("dropped reduction must fail the run");
        assert!(
            matches!(
                err,
                GwError::MissingInput {
                    task: "epsilon.invert",
                    input: "chi reduction",
                }
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn corrupt_chi_surfaces_the_epsilon_error() {
        let sys = test_system();
        let err = run_gpp_gw_dag_injected(
            &sys,
            &GwConfig::default(),
            DagFaults {
                corrupt_chi: true,
                ..DagFaults::default()
            },
        )
        .expect_err("non-finite chi must fail the run");
        assert!(
            matches!(
                err,
                GwError::Epsilon(crate::epsilon::EpsilonError::NonFinite { .. })
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn dag_records_scheduler_counters() {
        let sys = test_system();
        let before = bgw_perf::counters::snapshot();
        let dag = run_gpp_gw_dag(&sys, &GwConfig::default()).expect("dag run succeeds");
        let delta = before.delta(&bgw_perf::counters::snapshot());
        assert!(dag.stats.tasks > 0);
        assert!(
            delta.dag_tasks >= dag.stats.tasks as u64,
            "scheduler must account its tasks: {} < {}",
            delta.dag_tasks,
            dag.stats.tasks
        );
    }
}
