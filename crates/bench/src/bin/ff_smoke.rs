//! Full-frequency Sigma smoke + parity/speedup/attribution gate (wired
//! into `tools/check.sh --ff`).
//!
//! The FF quadrature kernel was recast from a scalar triple loop onto
//! pooled per-frequency ZGEMMs (`Y_k = M B_k^T` + row-wise conjugated
//! dots); the pre-recast kernel is retained as the `_serial` oracle.
//! This gate holds the recast to its contract:
//!
//! * **Parity**: the pooled path reproduces the serial oracle to 1e-12
//!   (full basis and static subspace) at the testkit shape.
//! * **Speedup**: at the bench shape the pooled path beats the scalar
//!   oracle by >= 3x wall clock (reported but not gated under `--smoke`,
//!   where the shape is too small for stable timing).
//! * **Attribution**: the FLOPs on the `sigma.ff` span equal the
//!   kernel's own count, which equals the `ff_sigma_flops` model, both
//!   within 5% (they are exact identities; the gate allows roundoff).
//! * **Typed failure**: a deliberately singular dielectric matrix comes
//!   back as `EpsilonError::Singular` from `EpsilonInverse::build`, not
//!   as a panic out of the LU factorization.
//!
//! Any violated gate exits nonzero. Writes `BENCH_ff_sigma.json` into
//! the current directory.

use bgw_bench::{build_setup, timed, BenchSetup};
use bgw_core::chi::{ChiConfig, ChiEngine};
use bgw_core::epsilon::{EpsilonError, EpsilonInverse};
use bgw_core::mtxel::Mtxel;
use bgw_core::sigma::fullfreq::{ff_sigma_diag, ff_sigma_diag_subspace, SigmaFfResult};
use bgw_core::subspace::Subspace;
use bgw_core::testkit::{self, ff_sigma_diag_serial, ff_sigma_diag_subspace_serial};
use bgw_linalg::CMatrix;
use bgw_num::c64;
use bgw_num::grid::semi_infinite_quadrature;
use bgw_perf::flopmodel::ff_sigma_flops;
use bgw_perf::ValidationTable;

const GATE_PCT: f64 = 5.0;
const PARITY_TOL: f64 = 1e-12;
const SPEEDUP_GATE: f64 = 3.0;

fn max_diff(a: &SigmaFfResult, b: &SigmaFfResult) -> f64 {
    let mut worst = 0.0f64;
    for (ba, bb) in a.sigma.iter().zip(&b.sigma) {
        for (za, zb) in ba.iter().zip(bb) {
            worst = worst.max((*za - *zb).abs());
        }
    }
    worst
}

/// The FF quadrature inputs for a bench setup: `eps~^{-1}` at the
/// positive quadrature nodes, plus the weights.
fn build_ff_eps(setup: &BenchSetup, n_quad: usize) -> (EpsilonInverse, Vec<f64>) {
    let (nodes, weights) = semi_infinite_quadrature(n_quad, 2.0);
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let cfg = ChiConfig {
        q0: setup.coulomb.q0,
        ..ChiConfig::default()
    };
    let engine = ChiEngine::new(&setup.wf, &mtxel, cfg);
    let (chis, _) = engine.chi_freqs(&nodes);
    let eps = EpsilonInverse::build(&chis, &nodes, &setup.coulomb, &setup.eps_sph)
        .expect("dielectric matrix must be invertible");
    (eps, weights)
}

/// A diagonal `d` and head `c` with `fl(v_d^2 * c) == 1.0` exactly, so a
/// polarizability `c * e_d e_d^T` makes `eps~` exactly singular in
/// floating point (LU flags only an exactly-zero pivot).
fn exactly_singular_head(vsqrt: &[f64]) -> (usize, f64) {
    for (d, &v) in vsqrt.iter().enumerate() {
        let v2 = v * v;
        if v2 <= 0.0 || !v2.is_finite() {
            continue;
        }
        let base = (1.0 / v2).to_bits() as i64;
        for off in -64i64..=64 {
            let c = f64::from_bits((base + off) as u64);
            if v2 * c == 1.0 {
                return (d, c);
            }
        }
    }
    panic!("no diagonal admits an exactly-representable singular head");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failed = false;

    // ---- parity: pooled vs the retained serial oracle, testkit shape ----
    let (ctx, tsetup) = testkit::small_context();
    let (eps_tk, w_tk) = {
        let (nodes, weights) = semi_infinite_quadrature(12, 2.0);
        let mtxel = Mtxel::new(&tsetup.wfn_sph, &tsetup.eps_sph);
        let engine = ChiEngine::new(&tsetup.wf, &mtxel, ChiConfig::default());
        let (chis, _) = engine.chi_freqs(&nodes);
        let eps = EpsilonInverse::build(
            &chis,
            &nodes,
            &bgw_core::coulomb::Coulomb::bulk(),
            &tsetup.eps_sph,
        )
        .expect("dielectric matrix must be invertible");
        (eps, weights)
    };
    let grids_tk: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect();
    let sub_tk = Subspace::from_chi0(&tsetup.chi0, &tsetup.vsqrt, (ctx.n_g() / 2).max(2));
    let parity_full = max_diff(
        &ff_sigma_diag(&ctx, &eps_tk, &w_tk, &grids_tk, 0.05),
        &ff_sigma_diag_serial(&ctx, &eps_tk, &w_tk, &grids_tk, 0.05),
    );
    let parity_sub = max_diff(
        &ff_sigma_diag_subspace(&ctx, &eps_tk, &w_tk, &grids_tk, 0.05, &sub_tk),
        &ff_sigma_diag_subspace_serial(&ctx, &eps_tk, &w_tk, &grids_tk, 0.05, &sub_tk),
    );
    println!(
        "parity vs serial oracle (testkit, tol {PARITY_TOL:.0e}): \
         full {parity_full:.2e}, subspace {parity_sub:.2e}"
    );
    if parity_full > PARITY_TOL || parity_sub > PARITY_TOL {
        eprintln!("FAIL: pooled FF Sigma deviates from the serial oracle");
        failed = true;
    }

    // ---- bench shape: speedup + span attribution ------------------------
    let setup = if smoke {
        let mut sys = bgw_pwdft::si_bulk(1, 2.2);
        sys.n_bands = 24;
        build_setup(sys, 2)
    } else {
        let mut sys = bgw_pwdft::si_divacancy(1, 3.6);
        sys.ecut_eps_ry = sys.ecut_wfn_ry / 2.5;
        sys.n_bands = 80;
        build_setup(sys, 6)
    };
    let (eps_ff, weights) = build_ff_eps(&setup, if smoke { 8 } else { 10 });
    let grids: Vec<Vec<f64>> = setup
        .ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - 0.05, e, e + 0.05])
        .collect();
    println!(
        "bench shape{}: N_Sigma={} N_b={} N_G={} N_k={} N_E=3, {} thread(s)",
        if smoke { " (--smoke)" } else { "" },
        setup.ctx.n_sigma(),
        setup.ctx.n_b(),
        setup.ctx.n_g(),
        eps_ff.n_freq(),
        bgw_par::num_threads(),
    );
    bgw_trace::set_enabled(false);
    let (serial, t_serial) =
        timed(|| ff_sigma_diag_serial(&setup.ctx, &eps_ff, &weights, &grids, 0.05));
    let (pooled, t_pooled) = timed(|| ff_sigma_diag(&setup.ctx, &eps_ff, &weights, &grids, 0.05));
    let bench_parity = max_diff(&pooled, &serial);
    let speedup = t_serial / t_pooled.max(1e-12);
    println!(
        "wall clock: serial oracle {t_serial:.3} s, pooled ZGEMM {t_pooled:.3} s \
         -> {speedup:.2}x (gate {SPEEDUP_GATE}x{}), parity {bench_parity:.2e}",
        if smoke {
            ", not gated under --smoke"
        } else {
            ""
        },
    );
    if bench_parity > PARITY_TOL {
        eprintln!("FAIL: pooled FF Sigma deviates from the oracle at the bench shape");
        failed = true;
    }
    if !smoke && speedup < SPEEDUP_GATE {
        eprintln!("FAIL: ZGEMM recast speedup {speedup:.2}x < {SPEEDUP_GATE}x");
        failed = true;
    }

    // ---- span attribution vs counted vs model ---------------------------
    let mut v = ValidationTable::new(GATE_PCT);
    let span_flops = if bgw_trace::compiled_in() {
        bgw_trace::reset();
        bgw_trace::set_enabled(true);
        let traced = ff_sigma_diag(&setup.ctx, &eps_ff, &weights, &grids, 0.05);
        bgw_trace::set_enabled(false);
        let rep = bgw_trace::report();
        let span = rep.find("sigma.ff").unwrap_or_else(|| {
            eprintln!("FAIL: sigma.ff span missing from the traced run");
            std::process::exit(1);
        });
        for child in ["sigma.ff.qk", "sigma.ff.assemble"] {
            if rep.find(&format!("sigma.ff/{child}")).is_none() {
                eprintln!("FAIL: {child} span missing from the traced run");
                failed = true;
            }
        }
        v.check(
            "sigma.ff span flops vs counted",
            traced.flops as f64,
            span.inclusive_flops() as f64,
        );
        span.inclusive_flops()
    } else {
        println!("note: built without the `spans` feature; span attribution not gated");
        0
    };
    let model = ff_sigma_flops(
        setup.ctx.n_sigma(),
        eps_ff.n_freq(),
        setup.ctx.n_b(),
        setup.ctx.n_g(),
        setup.ctx.n_g(),
        setup.ctx.n_occ,
        3,
        false,
    );
    v.check(
        "counted flops vs ff_sigma_flops model",
        model,
        pooled.flops as f64,
    );
    println!("{}", v.render("FF Sigma FLOP attribution"));
    if !v.pass() {
        eprintln!(
            "FAIL: FLOP attribution worst gated error {:.3}% > {GATE_PCT}%",
            v.worst_gated_err()
        );
        failed = true;
    }

    // ---- singular dielectric surfaces as a typed error ------------------
    let (d, head) = exactly_singular_head(&setup.vsqrt);
    let n = setup.eps_sph.len();
    let mut bad_chi = CMatrix::zeros(n, n);
    bad_chi[(d, d)] = c64(head, 0.0);
    match EpsilonInverse::build(&[bad_chi], &[0.0], &setup.coulomb, &setup.eps_sph) {
        Err(EpsilonError::Singular { freq_index: 0, .. }) => {
            println!("singular dielectric: typed EpsilonError::Singular, no panic");
        }
        other => {
            eprintln!(
                "FAIL: singular dielectric must be a typed error, got {:?}",
                other.map(|_| "Ok(..)")
            );
            failed = true;
        }
    }

    // ---- machine-readable record ----------------------------------------
    let json = format!(
        "{{\n  \"config\": {{\"smoke\": {smoke}, \"n_sigma\": {}, \"n_b\": {}, \
         \"n_g\": {}, \"n_quad\": {}, \"n_e\": 3, \"threads\": {}, \
         \"parity_tol\": {PARITY_TOL:e}, \"speedup_gate\": {SPEEDUP_GATE}, \
         \"gate_pct\": {GATE_PCT}}},\n  \
         \"parity\": {{\"testkit_full\": {parity_full:e}, \
         \"testkit_subspace\": {parity_sub:e}, \"bench_full\": {bench_parity:e}}},\n  \
         \"speedup\": {{\"serial_s\": {t_serial:.6}, \"pooled_s\": {t_pooled:.6}, \
         \"speedup\": {speedup:.3}, \"gated\": {}}},\n  \
         \"attribution\": {{\"counted_flops\": {}, \"model_flops\": {model}, \
         \"span_flops\": {span_flops}, \"worst_gated_err_pct\": {:.6}}},\n  \
         \"singular_typed_error\": true,\n  \"pass\": {}\n}}\n",
        setup.ctx.n_sigma(),
        setup.ctx.n_b(),
        setup.ctx.n_g(),
        eps_ff.n_freq(),
        bgw_par::num_threads(),
        !smoke,
        pooled.flops,
        v.worst_gated_err(),
        !failed,
    );
    std::fs::write("BENCH_ff_sigma.json", &json).expect("write BENCH_ff_sigma.json");
    println!("wrote BENCH_ff_sigma.json");

    if failed {
        std::process::exit(1);
    }
    println!(
        "ff smoke: all gates passed (speedup {speedup:.2}x, worst attribution error {:.4}%)",
        v.worst_gated_err()
    );
}
