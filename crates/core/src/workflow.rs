//! End-to-end GW drivers (the full Fig. 1 pipeline).
//!
//! Mean field -> Parabands -> MTXEL -> chi (Epsilon) -> GPP or FF ->
//! Sigma -> Dyson. Used by the examples and the benchmark harness; each
//! stage's wall-clock time is recorded.

use crate::chi::ChiConfig;
use crate::dyson::{qp_gap, solve_qp_diag, three_point_grids, QpState};
use crate::epsilon::EpsilonError;
use crate::service::{context, screen, Screening};
use crate::sigma::diag::{gpp_sigma_diag, KernelVariant, SigmaDiagResult};
use crate::sigma::SigmaContext;
use bgw_perf::CounterSnapshot;
use bgw_pwdft::{ModelSystem, Wavefunctions};
use std::time::Instant;

/// Configuration for a one-shot G0W0(GPP) run.
#[derive(Clone, Copy, Debug)]
pub struct GwConfig {
    /// How many bands on each side of the gap get a self-energy
    /// (`N_Sigma = 2 * bands_around_gap`).
    pub bands_around_gap: usize,
    /// Energy offset for the 3-point Sigma sampling (Ry).
    pub sampling_delta_ry: f64,
    /// Diag-kernel implementation variant.
    pub variant: KernelVariant,
    /// Polarizability settings.
    pub chi: ChiConfig,
    /// Use the slab-truncated Coulomb (2-D sheets).
    pub slab: bool,
}

impl GwConfig {
    /// The Sigma band window: `bands_around_gap` bands (at least one) on
    /// each side of the gap, clipped to the bands that exist.
    pub fn sigma_bands(&self, wf: &Wavefunctions) -> Vec<usize> {
        let nv = wf.n_valence;
        let k = self.bands_around_gap.max(1);
        (nv.saturating_sub(k)..(nv + k).min(wf.n_bands())).collect()
    }
}

impl Default for GwConfig {
    fn default() -> Self {
        Self {
            bands_around_gap: 2,
            sampling_delta_ry: 0.05,
            variant: KernelVariant::Optimized,
            chi: ChiConfig::default(),
            slab: false,
        }
    }
}

/// Per-stage wall-clock seconds of a GW run.
#[derive(Clone, Copy, Debug, Default)]
pub struct GwTimings {
    /// Mean-field diagonalization (Parabands).
    pub t_meanfield: f64,
    /// Polarizability (MTXEL + CHI_SUM).
    pub t_chi: f64,
    /// Dielectric inversion.
    pub t_epsilon: f64,
    /// Sigma context construction (matrix elements for Sigma bands).
    pub t_mtxel_sigma: f64,
    /// The GPP diag kernel.
    pub t_sigma: f64,
    /// Checkpoint write/read time (zero for non-checkpointed runs).
    pub t_checkpoint: f64,
    /// Substrate counter deltas over the whole run: worker-pool dispatch
    /// and region time, plus the GEMM packing-vs-microkernel split.
    pub substrate: bgw_perf::CounterSnapshot,
}

/// Problem dimensions of the Sigma stage, recorded so run reports can
/// re-evaluate the paper's FLOP models (Eqs. 7-8, Table 3) against the
/// measured counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigmaDims {
    /// `N_Sigma`: number of bands with a self-energy.
    pub n_sigma: usize,
    /// `N_b`: bands summed over.
    pub n_b: usize,
    /// `N_G`: G-vectors of the epsilon sphere.
    pub n_g: usize,
    /// `N_E`: energy evaluations per Sigma band.
    pub n_e: usize,
}

/// Results of a one-shot GW run.
#[derive(Clone, Debug)]
pub struct GwResults {
    /// Band indices whose self-energy was computed.
    pub sigma_bands: Vec<usize>,
    /// Quasiparticle solutions, aligned with `sigma_bands`.
    pub states: Vec<QpState>,
    /// Mean-field gap (Ry).
    pub gap_mf_ry: f64,
    /// Quasiparticle gap (Ry).
    pub gap_qp_ry: f64,
    /// Macroscopic dielectric constant of the model.
    pub eps_macro: f64,
    /// Stage timings.
    pub timings: GwTimings,
    /// Kernel FLOPs counted in the Sigma stage.
    pub sigma_flops: u64,
    /// Sigma-stage problem sizes, for FLOP-model cross-validation.
    pub dims: SigmaDims,
}

/// Runs the full G0W0(GPP) pipeline on a model system.
pub fn run_gpp_gw(system: &ModelSystem, cfg: &GwConfig) -> GwResults {
    let _run_span = bgw_trace::span!("workflow.gpp_gw");
    let counters0 = bgw_perf::counters::snapshot();
    let mut timings = GwTimings::default();
    let (s, ctx) =
        screened_context(system, cfg, &mut timings).expect("dielectric matrix must be invertible");
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let t = Instant::now();
    let diag = {
        let _s = bgw_trace::span!("workflow.sigma");
        gpp_sigma_diag(&ctx, &grids, cfg.variant)
    };
    timings.t_sigma = t.elapsed().as_secs_f64();
    gw_results(&ctx, s.wf.gap_ry(), s.eps_macro, diag, timings, &counters0)
}

/// The static screening and the Sigma context over `cfg`'s band window —
/// the shared front half of the one-shot drivers — with stage wall times
/// charged to `timings`.
pub(crate) fn screened_context(
    system: &ModelSystem,
    cfg: &GwConfig,
    timings: &mut GwTimings,
) -> Result<(Screening, SigmaContext), EpsilonError> {
    let s = screen(system, cfg, None, timings)?;
    let ctx = window_context(&s, cfg, timings);
    Ok((s, ctx))
}

/// The Sigma context over `cfg`'s band window, charged to
/// `timings.t_mtxel_sigma`.
pub(crate) fn window_context(
    s: &Screening,
    cfg: &GwConfig,
    timings: &mut GwTimings,
) -> SigmaContext {
    let t = Instant::now();
    let ctx = {
        let _s = bgw_trace::span!("workflow.mtxel");
        context(s, &cfg.sigma_bands(&s.wf))
    };
    timings.t_mtxel_sigma = t.elapsed().as_secs_f64();
    ctx
}

/// Solves the QP equation on a finished diag result and assembles the
/// [`GwResults`] every GPP driver returns; the substrate counters are
/// read against `counters0`, taken when the run started.
pub(crate) fn gw_results(
    ctx: &SigmaContext,
    gap_mf_ry: f64,
    eps_macro: f64,
    diag: SigmaDiagResult,
    mut timings: GwTimings,
    counters0: &CounterSnapshot,
) -> GwResults {
    let states = solve_qp_diag(&ctx.sigma_energies, &diag);
    let gap_qp_ry = qp_gap(&states, ctx.homo_pos(), ctx.lumo_pos());
    timings.substrate = counters0.delta(&bgw_perf::counters::snapshot());
    GwResults {
        sigma_bands: ctx.sigma_bands.clone(),
        states,
        gap_mf_ry,
        gap_qp_ry,
        eps_macro,
        timings,
        sigma_flops: diag.flops,
        dims: SigmaDims {
            n_sigma: ctx.n_sigma(),
            n_b: ctx.n_b(),
            n_g: ctx.n_g(),
            n_e: diag.e_grids.first().map_or(0, Vec::len),
        },
    }
}

/// Result of a self-consistent quasiparticle-energy solve.
#[derive(Clone, Debug)]
pub struct EvGwResults {
    /// Gap after each iteration (Ry); entry 0 is the one-shot
    /// (non-linearized) G0W0 value.
    pub gap_history: Vec<f64>,
    /// Final self-consistent gap (Ry).
    pub gap_ry: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Self-consistent QP energies of the Sigma bands (Ry).
    pub e_qp: Vec<f64>,
}

/// Graphical (fixed-point) solution of the quasiparticle equation
/// `E = E^MF + Re Sigma_ll(E)` for every Sigma band, iterated to
/// self-consistency with damping — the beyond-Z-factor solution the
/// off-diag kernel's uniform energy grid enables at scale (paper
/// Sec. 5.6: "much more accurate self-consistent quasiparticle energies
/// from the full solutions of the Dyson's equation"). The screening stays
/// at RPA@mean-field (GW0). With `max_iter = 0` the mean-field energies
/// come back unchanged, with their gap and an empty history.
pub fn run_evgw(system: &ModelSystem, cfg: &GwConfig, max_iter: usize, tol_ry: f64) -> EvGwResults {
    let (_, ctx) = screened_context(system, cfg, &mut GwTimings::default())
        .expect("dielectric matrix must be invertible");
    let start = (ctx.sigma_energies.clone(), Vec::new(), 0);
    evgw_iterate(&ctx, cfg.variant, max_iter, tol_ry, start, |_| {
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {})
}

/// The damped evGW fixed-point loop shared by [`run_evgw`] and the
/// checkpointed driver. Continues from `start = (QP energies, gap
/// history, iterations done)` until `max_iter` iterations are done or
/// the largest update drops below `tol_ry`, and hands each new iterate to
/// `on_iter` (the persistence hook) before the convergence test.
pub(crate) fn evgw_iterate<E>(
    ctx: &SigmaContext,
    variant: KernelVariant,
    max_iter: usize,
    tol_ry: f64,
    start: (Vec<f64>, Vec<f64>, usize),
    mut on_iter: impl FnMut(&EvGwResults) -> Result<(), E>,
) -> Result<EvGwResults, E> {
    const DAMPING: f64 = 0.6;
    let (homo, lumo) = (ctx.homo_pos(), ctx.lumo_pos());
    let (e_qp, gap_history, iterations) = start;
    let mut it = EvGwResults {
        gap_ry: e_qp[lumo] - e_qp[homo],
        gap_history,
        iterations,
        e_qp,
    };
    while it.iterations < max_iter {
        it.iterations += 1;
        // evaluate Sigma at the current QP estimates
        let grids: Vec<Vec<f64>> = it.e_qp.iter().map(|&e| vec![e]).collect();
        let diag = gpp_sigma_diag(ctx, &grids, variant);
        let mut max_delta: f64 = 0.0;
        for (s, e) in it.e_qp.iter_mut().enumerate() {
            let target = ctx.sigma_energies[s] + diag.sigma[s][0];
            let new = *e + DAMPING * (target - *e);
            max_delta = max_delta.max((new - *e).abs());
            *e = new;
        }
        it.gap_ry = it.e_qp[lumo] - it.e_qp[homo];
        it.gap_history.push(it.gap_ry);
        on_iter(&it)?;
        if max_delta < tol_ry && it.iterations > 1 {
            break;
        }
    }
    Ok(it)
}

/// Results of a full-matrix Dyson solution.
#[derive(Clone, Debug)]
pub struct FullDysonResults {
    /// Band indices of the Sigma block.
    pub sigma_bands: Vec<usize>,
    /// Mean-field energies (Ry).
    pub e_mf: Vec<f64>,
    /// Diagonal-approximation QP energies (Ry).
    pub e_qp_diag: Vec<f64>,
    /// Full-matrix QP energies (Ry) from the off-diag kernel grid.
    pub e_qp_full: Vec<f64>,
    /// Off-diag kernel ZGEMM FLOPs.
    pub zgemm_flops: u64,
    /// Off-diag kernel seconds (incl. prep).
    pub kernel_seconds: f64,
}

/// Runs the off-diagonal Sigma kernel on a uniform energy grid and solves
/// Dyson's equation both in the diagonal approximation and with the full
/// Sigma matrix — the paper's "full solutions of the Dyson's equation"
/// workflow (Sec. 5.6).
pub fn run_full_dyson_gw(system: &ModelSystem, cfg: &GwConfig, n_e: usize) -> FullDysonResults {
    use crate::dyson::solve_qp_full;
    use crate::sigma::offdiag::gpp_sigma_offdiag;
    use bgw_num::UniformGrid;

    let (_, ctx) = screened_context(system, cfg, &mut GwTimings::default())
        .expect("dielectric matrix must be invertible");

    // diagonal reference
    let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
    let diag = gpp_sigma_diag(&ctx, &grids, cfg.variant);
    let diag_states = solve_qp_diag(&ctx.sigma_energies, &diag);
    let e_qp_diag: Vec<f64> = diag_states.iter().map(|s| s.e_qp).collect();

    // uniform grid spanning the expected QP window (Sec. 5.6's
    // (l, m)-independent energy grid)
    let lo = e_qp_diag
        .iter()
        .chain(&ctx.sigma_energies)
        .cloned()
        .fold(f64::INFINITY, f64::min)
        - 0.3;
    let hi = e_qp_diag
        .iter()
        .chain(&ctx.sigma_energies)
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        + 0.3;
    let grid = UniformGrid::new(lo, hi, n_e.max(4));
    let off = gpp_sigma_offdiag(&ctx, &grid, bgw_linalg::GemmBackend::Parallel);
    let e_qp_full = solve_qp_full(&ctx.sigma_energies, &off);
    FullDysonResults {
        sigma_bands: ctx.sigma_bands.clone(),
        e_mf: ctx.sigma_energies.clone(),
        e_qp_diag,
        e_qp_full,
        zgemm_flops: off.zgemm_flops,
        kernel_seconds: off.seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_pwdft::si_bulk;

    #[test]
    fn evgw_converges_and_exceeds_g0w0() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let g0w0 = run_gpp_gw(&sys, &GwConfig::default());
        let ev = run_evgw(&sys, &GwConfig::default(), 40, 1e-5);
        assert!(
            ev.iterations >= 2 && ev.iterations < 40,
            "iters {}",
            ev.iterations
        );
        assert!(ev.gap_ry.is_finite() && ev.gap_ry > 0.0);
        // converged: last two gaps nearly equal
        let n = ev.gap_history.len();
        assert!(
            (ev.gap_history[n - 1] - ev.gap_history[n - 2]).abs() < 1e-4,
            "not converged: {:?}",
            &ev.gap_history[n.saturating_sub(3)..]
        );
        // the self-consistent gap opens relative to the mean field and is
        // the same order as the Z-linearized G0W0 gap
        assert!(ev.gap_ry > g0w0.gap_mf_ry);
        let ratio = ev.gap_ry / g0w0.gap_qp_ry;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sc gap {} vs G0W0 {}",
            ev.gap_ry,
            g0w0.gap_qp_ry
        );
    }

    #[test]
    fn evgw_with_zero_iterations_returns_the_mean_field_iterate() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 24;
        let cfg = GwConfig::default();
        let g0w0 = run_gpp_gw(&sys, &cfg);
        let e_mf: Vec<f64> = g0w0.states.iter().map(|s| s.e_mf).collect();
        let dir = std::env::temp_dir().join(format!("bgw_evgw_zero_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = crate::restart::CheckpointPolicy::new(&dir);
        let checkpointed = crate::restart::run_evgw_checkpointed(&sys, &cfg, 0, 1e-5, &policy)
            .expect("zero iterations is a valid run");
        for ev in [run_evgw(&sys, &cfg, 0, 1e-5), checkpointed] {
            assert_eq!(ev.iterations, 0);
            assert!(ev.gap_history.is_empty());
            assert_eq!(ev.e_qp, e_mf);
            assert_eq!(ev.gap_ry, g0w0.gap_mf_ry);
        }
        assert!(!dir.exists(), "no iteration, no checkpoint written");
    }

    #[test]
    fn slab_coulomb_reaches_every_driver() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 24;
        let bulk = GwConfig::default();
        let slab = GwConfig { slab: true, ..bulk };
        let oracle = run_gpp_gw(&sys, &slab);
        assert_ne!(oracle.eps_macro, run_gpp_gw(&sys, &bulk).eps_macro);
        let (ranks, _) = bgw_comm::run_world(2, |c| {
            crate::resilient::run_gpp_gw_resilient(&sys, &slab, c).expect("resilient")
        });
        for r in &ranks {
            assert!(
                (r.eps_macro - oracle.eps_macro).abs() < 1e-10,
                "resilient: eps_macro {}",
                r.eps_macro
            );
            for (a, b) in r.states.iter().zip(&oracle.states) {
                assert!(
                    (a.e_qp - b.e_qp).abs() < 1e-10,
                    "resilient: QP {} vs {}",
                    a.e_qp,
                    b.e_qp
                );
            }
        }
        let dyson = run_full_dyson_gw(&sys, &slab, 8);
        let want: Vec<f64> = oracle.states.iter().map(|s| s.e_qp).collect();
        assert_eq!(dyson.e_qp_diag, want, "full-Dyson diagonal reference");
        let ev_slab = run_evgw(&sys, &slab, 3, 1e-5);
        let ev_bulk = run_evgw(&sys, &bulk, 3, 1e-5);
        assert_ne!(
            ev_slab.gap_ry, ev_bulk.gap_ry,
            "evGW ignored the slab Coulomb"
        );
    }

    #[test]
    fn full_dyson_workflow_runs() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let r = run_full_dyson_gw(&sys, &GwConfig::default(), 24);
        assert_eq!(r.e_qp_full.len(), r.sigma_bands.len());
        assert!(r.zgemm_flops > 0 && r.kernel_seconds > 0.0);
        for (full, diag) in r.e_qp_full.iter().zip(&r.e_qp_diag) {
            assert!(full.is_finite());
            assert!(
                (full - diag).abs() < 0.4,
                "full-matrix and diagonal QP energies diverged: {full} vs {diag}"
            );
        }
    }

    #[test]
    fn gpp_gw_is_bitwise_invariant_under_pool_width() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let cfg = GwConfig::default();
        let bits = |r: &GwResults| -> Vec<u64> {
            let mut b = vec![
                r.gap_mf_ry.to_bits(),
                r.gap_qp_ry.to_bits(),
                r.eps_macro.to_bits(),
                r.sigma_flops,
            ];
            b.extend(r.states.iter().map(|s| s.e_qp.to_bits()));
            b
        };
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            bgw_par::set_num_threads(threads);
            runs.push((threads, bits(&run_gpp_gw(&sys, &cfg))));
        }
        bgw_par::set_num_threads(0);
        for (threads, b) in &runs[1..] {
            assert_eq!(b, &runs[0].1, "{threads} workers vs 1");
        }
    }

    #[test]
    fn full_pipeline_on_bulk_si() {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        let r = run_gpp_gw(&sys, &GwConfig::default());
        assert_eq!(r.sigma_bands.len(), 4);
        assert!(r.gap_qp_ry > r.gap_mf_ry, "GW must open the model gap");
        assert!(r.eps_macro > 1.0);
        assert!(r.sigma_flops > 0);
        assert!(r.timings.t_sigma > 0.0 && r.timings.t_chi > 0.0);
        // the run must have exercised the ZGEMM substrate and accounted it
        assert!(r.timings.substrate.gemm_calls > 0);
        assert!(r.timings.substrate.gemm_compute_ns > 0);
        for st in &r.states {
            assert!(st.e_qp.is_finite() && st.z > 0.0 && st.z <= 1.0);
        }
    }
}
