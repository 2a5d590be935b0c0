//! Request-shaped entry points for the serving layer (`bgw-serve`).
//!
//! The one-shot drivers in [`workflow`](crate::workflow) recompute the
//! expensive screening prefix — CHI, the dielectric inversion, the GPP
//! model — on every invocation, even though requests that differ only in
//! which Sigma diagonals or evaluation energies they ask for share it
//! verbatim. This module splits the pipeline at the W boundary:
//!
//! * [`build_screening`] computes everything up to and including
//!   `eps~^{-1}` (static, and optionally full-frequency on the quadrature
//!   nodes) exactly as [`run_gpp_gw`](crate::workflow::run_gpp_gw) /
//!   `ff_sigma` would, and packages it as a [`Screening`];
//! * [`screening_to_checkpoint`] / [`screening_from_checkpoint`] encode a
//!   `Screening` as a checksummed BGWR [`Checkpoint`] record (stage
//!   [`GwStage::WScreening`]) — the serve artifact store's unit, so a
//!   cache hit *is* a restart: the cheap deterministic prefix (bands,
//!   MTXEL, charge density) is recomputed and the stored `eps~^{-1}`
//!   blocks are re-adopted via [`EpsilonInverse::from_parts`], mirroring
//!   [`restart`](crate::restart)'s `EpsilonDone` resume path;
//! * [`sigma_context`] / [`band_subset`] / [`ff_eval`] evaluate Sigma for
//!   an explicit band list against a `Screening`; `bgw-serve` walks one
//!   `band_subset(ctx, &[s])` view at a time so it can yield between
//!   bands.
//!
//! The same functions are the pipeline's single definition for every
//! driver: `prefix` is the cheap prefix, `finish_screening` the screening
//! tail after `eps~^{-1}` exists, and `screen` the timed builder behind
//! [`build_screening`] and the one-shot drivers.
//!
//! Parity contract (enforced by `tests/serve.rs`): evaluating any band
//! subset through this module reproduces the corresponding one-shot
//! driver's Sigma values to 1e-12.

use crate::chi::{ChiConfig, ChiEngine};
use crate::coulomb::Coulomb;
use crate::dyson::three_point_grids;
use crate::epsilon::{EpsilonError, EpsilonInverse};
use crate::gpp::GppModel;
use crate::mtxel::Mtxel;
use crate::restart::GwStage;
use crate::sigma::fullfreq::ff_sigma_diag;
use crate::sigma::SigmaContext;
use crate::workflow::{GwConfig, GwTimings};
use bgw_io::Checkpoint;
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::Complex64;
use bgw_pwdft::{charge_density_g, solve_bands, GSphere, ModelSystem, Wavefunctions};
use std::time::Instant;

/// Full-frequency screening request: build `eps~^{-1}` on the
/// semi-infinite quadrature (scale 2.0 Ry, matching the `ff_smoke`
/// harness) in addition to the static matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FfSpec {
    /// Quadrature nodes on the positive frequency axis.
    pub n_quad: usize,
}

/// The reusable (and cacheable) screening state shared by every Sigma
/// request against one structure: the W boundary of the GW pipeline.
pub struct Screening {
    /// Mean-field bands (cheap deterministic prefix, never stored).
    pub wf: Wavefunctions,
    /// Wavefunction G-sphere.
    pub wfn_sph: GSphere,
    /// Epsilon/Sigma G-sphere.
    pub eps_sph: GSphere,
    /// Bare Coulomb interaction for this cell.
    pub coulomb: Coulomb,
    /// MTXEL engine (FFT plan + scatter tables), reused across requests.
    pub mtxel: Mtxel,
    /// `sqrt(v(G))` on the epsilon sphere.
    pub vsqrt: Vec<f64>,
    /// Static `eps~^{-1}` (omegas = [0.0]).
    pub eps_inv: EpsilonInverse,
    /// Full-frequency `eps~^{-1}` on the quadrature nodes, with the
    /// quadrature weights; `None` for GPP-only screenings.
    pub ff: Option<(EpsilonInverse, Vec<f64>)>,
    /// Macroscopic dielectric constant.
    pub eps_macro: f64,
    /// Plasmon-pole model derived from the static inverse.
    pub gpp: GppModel,
}

impl Screening {
    /// Decoded in-memory footprint of this screening, in bytes: the
    /// currency a cost-aware cache charges against its budget. Full
    /// frequency blocks dominate — an FF screening carries one
    /// `eps~^{-1}` matrix per quadrature node on top of the static one —
    /// so this is deliberately *not* an entry count. The estimate covers
    /// the large arrays (matrices, coefficient tables, spheres); small
    /// scalar fields are ignored.
    pub fn approx_bytes(&self) -> u64 {
        const C64: u64 = std::mem::size_of::<Complex64>() as u64;
        const F64: u64 = std::mem::size_of::<f64>() as u64;
        let mat = |m: &bgw_linalg::CMatrix| (m.nrows() * m.ncols()) as u64 * C64;
        let eps = |e: &EpsilonInverse| {
            e.inv.iter().map(&mat).sum::<u64>() + (e.omegas.len() + e.vsqrt.len()) as u64 * F64
        };
        let sphere = |s: &GSphere| {
            // miller [i32;3] + cart [f64;3] + norm2 f64 per G-vector.
            s.len() as u64 * (12 + 24 + 8)
        };
        let mut total = 0u64;
        total += mat(&self.wf.coeffs) + self.wf.energies.len() as u64 * F64;
        total += sphere(&self.wfn_sph) + sphere(&self.eps_sph);
        total += self.vsqrt.len() as u64 * F64;
        total += eps(&self.eps_inv);
        if let Some((ff, weights)) = &self.ff {
            total += eps(ff) + weights.len() as u64 * F64;
        }
        total += (self.gpp.pole_strength.len() + self.gpp.mode_freq.len()) as u64 * F64;
        // MTXEL scatter/gather tables: one usize per box point per table
        // plus the wavefunction cartesian list.
        total += (self.wfn_sph.len() * (8 + 8 + 24)) as u64;
        total
    }
}

/// The deterministic cheap prefix of every GW driver: the spheres, the
/// mean-field bands, the Coulomb interaction (bulk or slab-truncated, per
/// [`GwConfig::slab`]), the MTXEL engine, the polarizability settings
/// with the interaction's `q0`, and `sqrt(v(G))`. Serve restores
/// recompute it instead of storing it.
pub(crate) struct Prefix {
    pub(crate) wfn_sph: GSphere,
    pub(crate) eps_sph: GSphere,
    pub(crate) wf: Wavefunctions,
    pub(crate) coulomb: Coulomb,
    pub(crate) mtxel: Mtxel,
    pub(crate) chi_cfg: ChiConfig,
    pub(crate) vsqrt: Vec<f64>,
    pub(crate) volume: f64,
}

/// Builds the cheap prefix, charging the mean-field solve to
/// `timings.t_meanfield`.
pub(crate) fn prefix(system: &ModelSystem, cfg: &GwConfig, timings: &mut GwTimings) -> Prefix {
    let wfn_sph = system.wfn_sphere();
    let eps_sph = system.eps_sphere();
    let t = Instant::now();
    let wf = {
        let _s = bgw_trace::span!("workflow.meanfield");
        solve_bands(&system.crystal, &wfn_sph, system.n_bands.min(wfn_sph.len()))
    };
    timings.t_meanfield = t.elapsed().as_secs_f64();
    let volume = system.crystal.lattice.volume();
    let coulomb = if cfg.slab {
        Coulomb::slab(system.crystal.lattice.a[2][2], volume)
    } else {
        Coulomb::bulk_for_cell(volume)
    };
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let chi_cfg = ChiConfig {
        q0: coulomb.q0,
        ..cfg.chi
    };
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    Prefix {
        wfn_sph,
        eps_sph,
        wf,
        coulomb,
        mtxel,
        chi_cfg,
        vsqrt,
        volume,
    }
}

/// The screening tail: given the prefix and an `eps~^{-1}` (built,
/// resumed from a checkpoint, or inverted on a communicator), derives the
/// charge density and the plasmon-pole model.
pub(crate) fn finish_screening(
    p: Prefix,
    eps_inv: EpsilonInverse,
    ff: Option<(EpsilonInverse, Vec<f64>)>,
) -> Screening {
    let eps_macro = eps_inv.macroscopic_constant();
    let rho = charge_density_g(&p.wf, &p.wfn_sph);
    let gpp = GppModel::new(&eps_inv, &p.eps_sph, &p.wfn_sph, &rho, p.volume);
    Screening {
        wf: p.wf,
        wfn_sph: p.wfn_sph,
        eps_sph: p.eps_sph,
        coulomb: p.coulomb,
        mtxel: p.mtxel,
        vsqrt: p.vsqrt,
        eps_inv,
        ff,
        eps_macro,
        gpp,
    }
}

/// [`build_screening`] with its stage wall times charged to `timings`
/// (`t_meanfield`, `t_chi`, `t_epsilon`).
pub(crate) fn screen(
    system: &ModelSystem,
    cfg: &GwConfig,
    ff: Option<FfSpec>,
    timings: &mut GwTimings,
) -> Result<Screening, EpsilonError> {
    let p = prefix(system, cfg, timings);
    let t = Instant::now();
    let quad = ff.map(|spec| semi_infinite_quadrature(spec.n_quad, 2.0));
    let (chi0, ff_chis) = {
        let _s = bgw_trace::span!("workflow.chi");
        // One pass over the NV blocks: the static point first, then the
        // quadrature nodes, so every MTXEL panel is built once.
        let mut freqs = vec![0.0];
        if let Some((nodes, _)) = &quad {
            freqs.extend_from_slice(nodes);
        }
        let (mut chi0, _) = ChiEngine::new(&p.wf, &p.mtxel, p.chi_cfg).chi_freqs(&freqs);
        let ff_chis = chi0.split_off(1);
        (chi0, ff_chis)
    };
    timings.t_chi = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (eps_inv, ff_built) = {
        let _s = bgw_trace::span!("workflow.epsilon");
        let eps_inv = EpsilonInverse::build(&chi0, &[0.0], &p.coulomb, &p.eps_sph)?;
        let ff_built = match quad {
            None => None,
            Some((nodes, weights)) => Some((
                EpsilonInverse::build(&ff_chis, &nodes, &p.coulomb, &p.eps_sph)?,
                weights,
            )),
        };
        (eps_inv, ff_built)
    };
    timings.t_epsilon = t.elapsed().as_secs_f64();
    Ok(finish_screening(p, eps_inv, ff_built))
}

/// Computes the full screening state for a structure: CHI, the static
/// dielectric inversion (and the full-frequency inversions when `ff` is
/// set), and the GPP model — the exact arithmetic of the one-shot
/// drivers, so downstream Sigma evaluations match them bitwise.
pub fn build_screening(
    system: &ModelSystem,
    cfg: &GwConfig,
    ff: Option<FfSpec>,
) -> Result<Screening, EpsilonError> {
    let _s = bgw_trace::span!("serve.screening.build");
    screen(system, cfg, ff, &mut GwTimings::default())
}

/// Encodes a screening as a BGWR checkpoint record (stage
/// [`GwStage::WScreening`]): matrix 0 = static `eps~^{-1}`, matrices 1..
/// = the full-frequency blocks, meta = `[n_ff, nodes..., weights...]`,
/// `step` = `n_ff`. Only the expensive O(N^3) state is stored; the cheap
/// prefix is recomputed on restore.
pub fn screening_to_checkpoint(s: &Screening) -> Checkpoint {
    let mut matrices = vec![s.eps_inv.inv[0].clone()];
    let mut meta = Vec::new();
    let n_ff = s.ff.as_ref().map_or(0, |(e, _)| e.n_freq());
    meta.push(n_ff as f64);
    if let Some((eps, weights)) = &s.ff {
        matrices.extend(eps.inv.iter().cloned());
        meta.extend_from_slice(&eps.omegas);
        meta.extend_from_slice(weights);
    }
    Checkpoint {
        stage: GwStage::WScreening as u64,
        step: n_ff as u64,
        meta,
        matrices,
    }
}

/// Restores a screening from a [`screening_to_checkpoint`] record: the
/// serve cache-hit path, which *is* a restart. The cheap prefix is
/// recomputed from `system`/`cfg` and the stored `eps~^{-1}` blocks are
/// re-adopted via [`EpsilonInverse::from_parts`]. Returns `None` when the
/// record does not validate against this structure (wrong stage, shape
/// mismatch, non-finite payload, inconsistent meta) — the caller must
/// degrade to a recompute, never serve a wrong hit.
pub fn screening_from_checkpoint(
    system: &ModelSystem,
    cfg: &GwConfig,
    ck: &Checkpoint,
) -> Option<Screening> {
    let _s = bgw_trace::span!("serve.screening.restore");
    if ck.stage != GwStage::WScreening as u64 {
        return None;
    }
    let n_ff = ck.step as usize;
    if ck.matrices.len() != 1 + n_ff || ck.meta.len() != 1 + 2 * n_ff {
        return None;
    }
    if ck.meta[0] as usize != n_ff {
        return None;
    }
    let p = prefix(system, cfg, &mut GwTimings::default());
    let ng = p.eps_sph.len();
    for m in &ck.matrices {
        if m.nrows() != ng || m.ncols() != ng {
            return None;
        }
        if m.as_slice()
            .iter()
            .any(|z| !z.re.is_finite() || !z.im.is_finite())
        {
            return None;
        }
    }
    let nodes = ck.meta[1..1 + n_ff].to_vec();
    let weights = ck.meta[1 + n_ff..].to_vec();
    if nodes.iter().chain(&weights).any(|x| !x.is_finite()) {
        return None;
    }
    let eps_inv =
        EpsilonInverse::from_parts(vec![0.0], vec![ck.matrices[0].clone()], p.vsqrt.clone());
    let ff = if n_ff > 0 {
        let eps = EpsilonInverse::from_parts(nodes, ck.matrices[1..].to_vec(), p.vsqrt.clone());
        Some((eps, weights))
    } else {
        None
    };
    Some(finish_screening(p, eps_inv, ff))
}

/// Builds the Sigma context for an explicit band list against a
/// screening. Kept separate from the evaluators so a coalesced batch pays
/// the matrix-element cost once for its union band set.
pub fn sigma_context(s: &Screening, bands: &[usize]) -> SigmaContext {
    let _s2 = bgw_trace::span!("serve.sigma.mtxel");
    context(s, bands)
}

/// [`sigma_context`] without its serve span: the drivers wrap it in their
/// own stage span and timer.
pub(crate) fn context(s: &Screening, bands: &[usize]) -> SigmaContext {
    SigmaContext::build(
        &s.wf,
        &s.mtxel,
        s.gpp.clone(),
        &s.vsqrt,
        bands,
        s.coulomb.q0,
    )
}

/// A multi-band view of a context: the bands at `positions` of `ctx`'s
/// band list, in that order. Evaluating a subset view reproduces the
/// directly-built context exactly (each band's matrix-element block and
/// energy row are independent) — the coalescing path uses this to serve
/// one member of a batch from the union context, and the checkpointed and
/// serve GPP loops evaluate one band at a time through `&[s]` views.
pub fn band_subset(ctx: &SigmaContext, positions: &[usize]) -> SigmaContext {
    SigmaContext {
        m_tilde: positions.iter().map(|&p| ctx.m_tilde[p].clone()).collect(),
        energies: ctx.energies.clone(),
        n_occ: ctx.n_occ,
        gpp: ctx.gpp.clone(),
        sigma_bands: positions.iter().map(|&p| ctx.sigma_bands[p]).collect(),
        sigma_energies: positions.iter().map(|&p| ctx.sigma_energies[p]).collect(),
    }
}

/// Result of a full-frequency Sigma evaluation through the service path.
#[derive(Clone, Debug)]
pub struct FfEvalResult {
    /// Band indices evaluated.
    pub bands: Vec<usize>,
    /// Mean-field energies of those bands (Ry).
    pub sigma_energies: Vec<f64>,
    /// `sigma[s][e]` (complex, Ry) on the 3-point grids.
    pub sigma: Vec<Vec<Complex64>>,
    /// Kernel FLOPs.
    pub flops: u64,
}

/// Evaluates full-frequency Sigma diagonals for `ctx` against a
/// screening's quadrature blocks. Returns `None` when the screening was
/// built without [`FfSpec`].
pub fn ff_eval(
    s: &Screening,
    ctx: &SigmaContext,
    delta_ry: f64,
    eta_ry: f64,
) -> Option<FfEvalResult> {
    let (eps_ff, weights) = s.ff.as_ref()?;
    let _sp = bgw_trace::span!("serve.sigma.ff");
    let grids = three_point_grids(&ctx.sigma_energies, delta_ry);
    let r = ff_sigma_diag(ctx, eps_ff, weights, &grids, eta_ry);
    Some(FfEvalResult {
        bands: ctx.sigma_bands.clone(),
        sigma_energies: ctx.sigma_energies.clone(),
        sigma: r.sigma,
        flops: r.flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sigma::diag::gpp_sigma_diag;
    use bgw_pwdft::si_bulk;

    fn small_system() -> ModelSystem {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 24;
        sys
    }

    #[test]
    fn screening_checkpoint_roundtrip_preserves_matrices() {
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, Some(FfSpec { n_quad: 6 })).expect("build");
        let ck = screening_to_checkpoint(&s);
        assert_eq!(ck.stage, GwStage::WScreening as u64);
        assert_eq!(ck.matrices.len(), 7);
        let back = screening_from_checkpoint(&sys, &cfg, &ck).expect("restore");
        assert_eq!(
            s.eps_inv.inv[0].as_slice(),
            back.eps_inv.inv[0].as_slice(),
            "static inverse must round-trip bitwise"
        );
        let (ff_a, w_a) = s.ff.as_ref().unwrap();
        let (ff_b, w_b) = back.ff.as_ref().unwrap();
        assert_eq!(ff_a.omegas, ff_b.omegas);
        assert_eq!(w_a, w_b);
        for (a, b) in ff_a.inv.iter().zip(&ff_b.inv) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(s.eps_macro, back.eps_macro);
    }

    #[test]
    fn restore_rejects_malformed_records() {
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, None).expect("build");
        let good = screening_to_checkpoint(&s);
        assert!(screening_from_checkpoint(&sys, &cfg, &good).is_some());
        // Wrong stage.
        let mut bad = good.clone();
        bad.stage = GwStage::EpsilonDone as u64;
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Shape mismatch (record for a different sphere).
        let mut bad = good.clone();
        bad.matrices[0] = bgw_linalg::CMatrix::zeros(3, 3);
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Non-finite payload.
        let mut bad = good.clone();
        bad.matrices[0][(0, 0)] = bgw_num::c64(f64::NAN, 0.0);
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
        // Inconsistent meta.
        let mut bad = good;
        bad.meta[0] = 5.0;
        assert!(screening_from_checkpoint(&sys, &cfg, &bad).is_none());
    }

    #[test]
    fn union_context_band_slices_match_per_request_contexts() {
        // Coalescing contract: a band evaluated through a subset view of
        // the union context of a batch equals the same band through a
        // request-sized context, and one-band views evaluated in turn (the
        // checkpoint and preemption unit) reproduce the full kernel.
        let sys = small_system();
        let cfg = GwConfig::default();
        let s = build_screening(&sys, &cfg, None).expect("build");
        let nv = s.wf.n_valence;
        let narrow: Vec<usize> = vec![nv - 1, nv];
        let wide: Vec<usize> = (nv - 2..nv + 2).collect();
        let ctx_w = sigma_context(&s, &wide);
        let eval = |ctx: &SigmaContext| {
            let grids = three_point_grids(&ctx.sigma_energies, cfg.sampling_delta_ry);
            gpp_sigma_diag(ctx, &grids, cfg.variant)
        };
        let rn = eval(&sigma_context(&s, &narrow));
        let positions: Vec<usize> = narrow
            .iter()
            .map(|b| wide.iter().position(|w| w == b).unwrap())
            .collect();
        let rs = eval(&band_subset(&ctx_w, &positions));
        assert_eq!(
            rs.sigma, rn.sigma,
            "bands differ between the union subset and the request context"
        );
        assert_eq!(rs.flops, rn.flops);
        let rw = eval(&ctx_w);
        for (i, row) in rw.sigma.iter().enumerate() {
            let one = eval(&band_subset(&ctx_w, &[i]));
            assert_eq!(one.sigma[0], *row, "one-band view {i} differs");
        }
    }
}
