//! Shared small-system fixtures and serial oracles for tests, examples,
//! and benches.
//!
//! Builds a bulk-silicon model GW setup end to end (bands -> MTXEL ->
//! chi -> epsilon -> GPP -> SigmaContext) at cutoffs small enough for unit
//! tests, cached behind a `OnceLock` so the many test cases pay the cost
//! once per process. The scalar full-frequency Sigma oracles the pooled
//! kernels are validated against live here too, next to the fixtures
//! rather than beside the production kernels in `sigma::fullfreq`.

use crate::chi::ChiEngine;
use crate::coulomb::Coulomb;
use crate::epsilon::EpsilonInverse;
use crate::service::{context, finish_screening, prefix};
use crate::sigma::fullfreq::{self, SigmaFfResult};
use crate::sigma::SigmaContext;
use crate::subspace::Subspace;
use crate::workflow::{GwConfig, GwTimings};
use bgw_linalg::CMatrix;
use bgw_pwdft::{charge_density_g, Crystal, GSphere, ModelSystem, Species, Wavefunctions};
use std::sync::OnceLock;

/// Everything a test might want to poke at.
#[derive(Clone, Debug)]
pub struct TestSetup {
    /// The crystal (bulk Si conventional cell).
    pub crystal: Crystal,
    /// Wavefunction sphere.
    pub wfn_sph: GSphere,
    /// Epsilon sphere.
    pub eps_sph: GSphere,
    /// Mean-field bands.
    pub wf: Wavefunctions,
    /// Static polarizability (plain, unsymmetrized).
    pub chi0: CMatrix,
    /// A finite-frequency polarizability (at `omega = 1.5` Ry).
    pub chi_finite: CMatrix,
    /// `sqrt(v(G))` on the epsilon sphere.
    pub vsqrt: Vec<f64>,
    /// Inverse symmetrized dielectric matrix at `omega = 0`.
    pub eps_inv: EpsilonInverse,
    /// Charge density on the wavefunction sphere.
    pub rho: Vec<bgw_num::Complex64>,
    /// Cell volume (bohr^3).
    pub volume: f64,
    /// The Coulomb interaction used (miniBZ-averaged q0).
    pub coulomb: Coulomb,
}

fn build() -> (SigmaContext, TestSetup) {
    let system = ModelSystem {
        name: "Si8-testkit".into(),
        crystal: Crystal::diamond(Species::Si, bgw_pwdft::pseudo::SI_A0),
        ecut_wfn_ry: 2.2,
        ecut_eps_ry: 0.55,
        n_bands: 28,
    };
    // Default window: HOMO-1, HOMO, LUMO, LUMO+1.
    let cfg = GwConfig::default();
    let p = prefix(&system, &cfg, &mut GwTimings::default());
    let (chis, _) = ChiEngine::new(&p.wf, &p.mtxel, p.chi_cfg).chi_freqs(&[0.0, 1.5]);
    let eps_inv = EpsilonInverse::build(&chis[..1], &[0.0], &p.coulomb, &p.eps_sph)
        .expect("dielectric matrix must be invertible");
    let rho = charge_density_g(&p.wf, &p.wfn_sph);
    let s = finish_screening(p, eps_inv, None);
    let ctx = context(&s, &cfg.sigma_bands(&s.wf));
    let setup = TestSetup {
        volume: system.crystal.lattice.volume(),
        crystal: system.crystal,
        chi0: chis[0].clone(),
        chi_finite: chis[1].clone(),
        rho,
        wfn_sph: s.wfn_sph,
        eps_sph: s.eps_sph,
        wf: s.wf,
        vsqrt: s.vsqrt,
        eps_inv: s.eps_inv,
        coulomb: s.coulomb,
    };
    (ctx, setup)
}

static CACHE: OnceLock<(SigmaContext, TestSetup)> = OnceLock::new();

/// A cached small Si GW context: `(SigmaContext, TestSetup)`.
pub fn small_context() -> (SigmaContext, TestSetup) {
    CACHE.get_or_init(build).clone()
}

/// Full-frequency Sigma on the full basis through the retained scalar
/// oracle — the pre-recast triple-loop kernel, kept for validation (the
/// pooled path must match it to 1e-12; see `tools/check.sh --ff`).
pub fn ff_sigma_diag_serial(
    ctx: &SigmaContext,
    eps_ff: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
) -> SigmaFfResult {
    let spectral = fullfreq::spectral_weights(eps_ff);
    fullfreq::ff_sigma_impl_serial(ctx, &spectral, &eps_ff.omegas, weights, e_grids, eta, None)
}

/// Subspace-contracted FF Sigma through the retained scalar oracle.
pub fn ff_sigma_diag_subspace_serial(
    ctx: &SigmaContext,
    eps_ff: &EpsilonInverse,
    weights: &[f64],
    e_grids: &[Vec<f64>],
    eta: f64,
    sub: &Subspace,
) -> SigmaFfResult {
    let spectral = fullfreq::spectral_weights_projected(eps_ff, sub);
    fullfreq::ff_sigma_impl_serial(
        ctx,
        &spectral,
        &eps_ff.omegas,
        weights,
        e_grids,
        eta,
        Some(sub),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_consistent() {
        let (ctx, setup) = small_context();
        assert_eq!(ctx.n_g(), setup.eps_sph.len());
        assert_eq!(ctx.n_b(), setup.wf.n_bands());
        assert_eq!(ctx.n_sigma(), 4);
        assert_eq!(ctx.homo_pos(), 1);
        assert_eq!(ctx.lumo_pos(), 2);
        assert!(setup.volume > 0.0);
        // cached: same pointer-equal energies on second call
        let (ctx2, _) = small_context();
        assert_eq!(ctx.energies, ctx2.energies);
    }
}
