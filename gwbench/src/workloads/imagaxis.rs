//! `imagaxis_spacetime`: imaginary-axis screening from the cubic-scaling
//! space-time polarizability, then imaginary-axis Sigma.

use super::{batch_slice, bn867, call, Phase, Workload};
use crate::layers::Layers;
use crate::record::Metrics;
use crate::stats::median;
use bgw_core::chi::ChiTimings;
use bgw_core::spacetime::{
    build_imag_epsilon, ChiBackend, SpaceTimeChi, SpaceTimeConfig, SpaceTimeReport,
};
use bgw_core::{
    imag_axis_sigma_diag, ChiConfig, ChiEngine, Coulomb, EpsilonInverse, GppModel, Mtxel,
    SigmaContext,
};
use bgw_linalg::CMatrix;
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::Xoshiro256StarStar;
use bgw_pwdft::{charge_density_g, solve_bands, GSphere, Wavefunctions};
use std::time::Instant;

/// Imaginary-axis quadrature nodes of the screening.
const N_QUAD: usize = 16;
/// Quadrature scale (Ry), as in `run_imagaxis_gw`.
const QUAD_W0: f64 = 1.5;
/// `Sigma(i w)` samples fed to the Pade continuation.
const IW_SAMPLES: usize = 12;
/// Distinct operation inputs; operation `i` uses input `i % N_INPUTS`.
const N_INPUTS: usize = 2;
/// Space-time vs dense eps^-1 tolerance, in units of the minimax fit
/// residual (the only approximation between the two paths).
const TOL_RESIDUAL_FACTOR: f64 = 10.0;

struct Input {
    ctx: SigmaContext,
    grids: Vec<Vec<f64>>,
}

pub struct ImagAxis {
    wf: Wavefunctions,
    wfn_sph: GSphere,
    eps_sph: GSphere,
    mtxel: Mtxel,
    coulomb: Coulomb,
    nodes: Vec<f64>,
    weights: Vec<f64>,
    /// eps^-1 from the dense polarizability: the oracle.
    dense: EpsilonInverse,
    inputs: Vec<Input>,
    chi_freqs_s: f64,
    reports: Vec<SpaceTimeReport>,
}

impl ImagAxis {
    /// Builds the bands, the dense oracle screening on the quadrature and
    /// a static GPP model for the Sigma contexts; the seed picks each
    /// input's Sigma window and energy grids.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let sys = bn867();
        let wfn_sph = sys.wfn_sphere();
        let eps_sph = sys.eps_sphere();
        let wf = solve_bands(&sys.crystal, &wfn_sph, sys.n_bands.min(wfn_sph.len()));
        let volume = sys.crystal.lattice.volume();
        let coulomb = Coulomb::bulk_for_cell(volume);
        let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
        let engine = ChiEngine::new(
            &wf,
            &mtxel,
            ChiConfig {
                q0: coulomb.q0,
                ..ChiConfig::default()
            },
        );
        let (nodes, weights) = semi_infinite_quadrature(N_QUAD, QUAD_W0);
        let t = Instant::now();
        let chis = engine.chi_imag_freqs(&nodes, &mut ChiTimings::default());
        let chi_freqs_s = t.elapsed().as_secs_f64();
        let dense = EpsilonInverse::build(&chis, &nodes, &coulomb, &eps_sph)
            .map_err(|e| format!("dense epsilon: {e}"))?;
        let eps0 = EpsilonInverse::build(&[engine.chi_static()], &[0.0], &coulomb, &eps_sph)
            .map_err(|e| format!("static epsilon: {e}"))?;
        let rho = charge_density_g(&wf, &wfn_sph);
        let gpp = GppModel::new(&eps0, &eps_sph, &wfn_sph, &rho, volume);
        let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);

        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x6961_7869);
        let nv = wf.n_valence;
        let inputs = (0..N_INPUTS)
            .map(|_| {
                let k = 2 + (rng.next_u64() % 2) as usize;
                let bands: Vec<usize> = (nv - k..nv + k).collect();
                let ctx = SigmaContext::build(&wf, &mtxel, gpp.clone(), &vsqrt, &bands, coulomb.q0);
                let step = 0.02 + 0.03 * rng.next_f64();
                let grids = ctx
                    .sigma_energies
                    .iter()
                    .map(|&e| (-2..=2).map(|j| e + step * f64::from(j)).collect())
                    .collect();
                Input { ctx, grids }
            })
            .collect();
        Ok(Self {
            wf,
            wfn_sph,
            eps_sph,
            mtxel,
            coulomb,
            nodes,
            weights,
            dense,
            inputs,
            chi_freqs_s,
            reports: Vec::new(),
        })
    }

    fn space_time_config(&self) -> SpaceTimeConfig {
        SpaceTimeConfig {
            q0: self.coulomb.q0,
            ..SpaceTimeConfig::default()
        }
    }

    fn op(&mut self, i: usize, mut layers: Option<&mut Layers>) -> Result<(), String> {
        let cfg = self.space_time_config();
        let (eps, report) = match layers.as_deref_mut() {
            None => {
                let backend = ChiBackend::SpaceTime(cfg);
                let (eps, _, report) = build_imag_epsilon(
                    &self.wf,
                    &self.mtxel,
                    &self.wfn_sph,
                    &self.eps_sph,
                    &self.coulomb,
                    &backend,
                    N_QUAD,
                    QUAD_W0,
                )
                .map_err(|e| e.to_string())?;
                (eps, report.ok_or("space-time path returned no report")?)
            }
            Some(l) => {
                let (chis, report) = l
                    .time("spacetime.chi_s", || {
                        SpaceTimeChi::new(&self.wf, &self.mtxel, &self.wfn_sph, &self.eps_sph, cfg)
                            .and_then(|st| st.chi_imag_freqs(&self.nodes))
                    })
                    .map_err(|e| e.to_string())?;
                let eps = l
                    .time("epsilon.build_s", || {
                        EpsilonInverse::build(&chis, &self.nodes, &self.coulomb, &self.eps_sph)
                    })
                    .map_err(|e| e.to_string())?;
                self.reports.push(report);
                (eps, report)
            }
        };
        self.check(&eps, &report)?;
        let inp = &self.inputs[i % N_INPUTS];
        let r = call(&mut layers, "sigma.imagaxis_s", || {
            imag_axis_sigma_diag(&inp.ctx, &eps, &self.weights, &inp.grids, IW_SAMPLES)
        })
        .map_err(|e| format!("imaginary-axis Sigma: {e}"))?;
        if r.sigma
            .iter()
            .flatten()
            .all(|z| z.re.is_finite() && z.im.is_finite())
        {
            Ok(())
        } else {
            Err("imaginary-axis Sigma is not finite".into())
        }
    }

    /// Relative Frobenius error of every eps^-1 block against the dense
    /// oracle, within 10x the fit residual.
    fn check(&self, eps: &EpsilonInverse, report: &SpaceTimeReport) -> Result<(), String> {
        let tol = TOL_RESIDUAL_FACTOR * report.fit_residual + 1e-12;
        for (k, (a, b)) in eps.inv.iter().zip(&self.dense.inv).enumerate() {
            let err = rel_err(a, b);
            if err.is_nan() || err > tol {
                return Err(format!(
                    "eps^-1 at node {k}: relative error {err:e} > {tol:e}"
                ));
            }
        }
        Ok(())
    }
}

fn rel_err(a: &CMatrix, b: &CMatrix) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        num += (*x - *y).norm_sqr();
        den += y.norm_sqr();
    }
    (num / den.max(1e-300)).sqrt()
}

impl Workload for ImagAxis {
    fn slice(&mut self, _: usize, phase: &mut Phase, layers: Option<&mut Layers>) {
        batch_slice(phase, layers, |i, l| self.op(i, l))
    }

    fn report_layers(&self, _: &Layers, m: &mut Metrics) {
        let med = |f: fn(&SpaceTimeReport) -> f64| {
            median(&self.reports.iter().map(f).collect::<Vec<_>>())
        };
        m.set("chi.freqs_s", self.chi_freqs_s);
        m.set("spacetime.green_s", med(|r| r.t_green));
        m.set("spacetime.fft_s", med(|r| r.t_fft));
        m.set("spacetime.transform_s", med(|r| r.t_transform));
    }
}
