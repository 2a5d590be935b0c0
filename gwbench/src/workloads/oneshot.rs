//! `oneshot_gpp`: a cold G0W0(GPP) run from the crystal to a QP gap.

use super::{batch_slice, check_close, eq7_diag_flops, si510, Phase, Workload};
use crate::layers::Layers;
use crate::record::Metrics;
use bgw_core::dyson::qp_gap;
use bgw_core::workflow::{run_gpp_gw, GwConfig};
use bgw_core::{
    gpp_sigma_diag, solve_qp_diag, ChiConfig, ChiEngine, Coulomb, EpsilonInverse, GppModel, Mtxel,
    SigmaContext,
};
use bgw_num::Xoshiro256StarStar;
use bgw_pwdft::{charge_density_g, solve_bands, ModelSystem};

/// QP-gap tolerance (Ry) against the one-thread oracle. Not bitwise: the
/// pooled reductions may sum in another order at another thread count.
const GAP_TOL_RY: f64 = 1e-9;

pub struct Oneshot {
    sys: ModelSystem,
    cfg: GwConfig,
    oracle_gap: f64,
    diag_flops: u64,
}

impl Oneshot {
    /// The seed picks the Sigma window and the QP sampling offset; the
    /// oracle is the same run at one thread.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x6f6e_6573);
        let cfg = GwConfig {
            bands_around_gap: 2 + (rng.next_u64() % 2) as usize,
            sampling_delta_ry: [0.04, 0.05, 0.06][(rng.next_u64() % 3) as usize],
            ..GwConfig::default()
        };
        let sys = si510();
        bgw_par::set_num_threads(1);
        let oracle_gap = run_gpp_gw(&sys, &cfg).gap_qp_ry;
        bgw_par::set_num_threads(0);
        if !oracle_gap.is_finite() {
            return Err(format!("one-thread oracle gap is {oracle_gap}"));
        }
        Ok(Self {
            sys,
            cfg,
            oracle_gap,
            diag_flops: 0,
        })
    }

    /// `run_gpp_gw`'s pipeline, one public call per layer, each timed.
    fn layered_gap(&mut self, l: &mut Layers) -> Result<f64, String> {
        let (sys, cfg) = (&self.sys, &self.cfg);
        let wfn_sph = sys.wfn_sphere();
        let eps_sph = sys.eps_sphere();
        let volume = sys.crystal.lattice.volume();
        let n_bands = sys.n_bands.min(wfn_sph.len());
        let wf = l.time("pwdft.solve_bands_s", || {
            solve_bands(&sys.crystal, &wfn_sph, n_bands)
        });
        let coulomb = Coulomb::bulk_for_cell(volume);
        let mtxel = l.time("mtxel.setup_s", || Mtxel::new(&wfn_sph, &eps_sph));
        let chi_cfg = ChiConfig {
            q0: coulomb.q0,
            ..cfg.chi
        };
        let chi0 = l.time("chi.static_s", || {
            ChiEngine::new(&wf, &mtxel, chi_cfg).chi_static()
        });
        let eps_inv = l
            .time("epsilon.build_s", || {
                EpsilonInverse::build(&[chi0], &[0.0], &coulomb, &eps_sph)
            })
            .map_err(|e| format!("epsilon: {e}"))?;
        let gpp = l.time("gpp.model_s", || {
            let rho = charge_density_g(&wf, &wfn_sph);
            GppModel::new(&eps_inv, &eps_sph, &wfn_sph, &rho, volume)
        });
        let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
        let nv = wf.n_valence;
        let k = cfg.bands_around_gap.max(1);
        let bands: Vec<usize> = (nv.saturating_sub(k)..(nv + k).min(wf.n_bands())).collect();
        let ctx = l.time("mtxel.sigma_context_s", || {
            SigmaContext::build(&wf, &mtxel, gpp, &vsqrt, &bands, coulomb.q0)
        });
        let d = cfg.sampling_delta_ry;
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - d, e, e + d])
            .collect();
        let diag = l.time("sigma.diag_s", || gpp_sigma_diag(&ctx, &grids, cfg.variant));
        let gap = l.time("dyson.solve_s", || {
            let states = solve_qp_diag(&ctx.sigma_energies, &diag);
            qp_gap(&states, ctx.homo_pos(), ctx.lumo_pos())
        });
        let eq7 = eq7_diag_flops(&ctx, 3);
        if diag.flops != eq7 {
            return Err(format!(
                "sigma.diag counted {} FLOPs, Eq. 7 gives {eq7}",
                diag.flops
            ));
        }
        self.diag_flops = diag.flops;
        Ok(gap)
    }
}

impl Workload for Oneshot {
    fn slice(&mut self, _: usize, phase: &mut Phase, layers: Option<&mut Layers>) {
        batch_slice(phase, layers, |_, layers| {
            let gap = match layers {
                None => run_gpp_gw(&self.sys, &self.cfg).gap_qp_ry,
                Some(l) => self.layered_gap(l)?,
            };
            check_close("QP gap (Ry)", gap, self.oracle_gap, GAP_TOL_RY)
        })
    }

    fn report_layers(&self, layers: &Layers, m: &mut Metrics) {
        let flops = self.diag_flops as f64;
        m.set("sigma.diag_flops", flops);
        m.set(
            "sigma.diag_gflops",
            flops / layers.median_secs("sigma.diag_s").max(1e-12) / 1e9,
        );
    }
}
