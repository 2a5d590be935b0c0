//! End-to-end and per-layer benchmark of the GW pipeline.
//!
//! ```text
//! cargo run --release --manifest-path gwbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up (several times when that is
//! cheap, reporting the median), runs it with the default thread count
//! for two thirds of `--seconds` and at one thread for the rest, in
//! alternating slices, and prints the end-to-end metrics. With
//! `--trace 1` it alternates untraced operations with traced ones, which
//! go through one timed call per layer, and prints the per-layer
//! metrics. Every operation is checked against an oracle; the run exits 1
//! if any check failed. README.md describes the workloads and what each
//! metric should predict.

mod host;
mod layers;
mod record;
mod stats;
mod workloads;

use layers::Layers;
use record::{Metrics, Record, Summary, END_TO_END, PER_LAYER};
use stats::{median, percentile, samples_beyond, tail_percentile};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
/// Set-up is repeated, up to this many times, while the repetitions fit
/// in [`SETUP_BUDGET_S`].
const SETUP_MAX_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 6.0;
/// Share of `--seconds` given to the default-thread measurement; the rest
/// goes to the one-thread baseline.
const DEFAULT_SHARE: f64 = 2.0 / 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(1..=3600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=3600"));
    }
    let trace = match trace.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is neither 0 nor 1")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(host::STREAM_FLAG) {
        let bytes = argv.get(1).and_then(|b| b.parse().ok()).unwrap_or(1 << 26);
        println!("{}", host::stream_triad(bytes));
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Run state (autotune table, serve store) lives inside the benchmark's
    // own directory. The table path must be set before any thread starts.
    let work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    let tune_path = work_dir.join("autotune.json");
    std::env::set_var(bgw_linalg::autotune::PATH_ENV, &tune_path);
    match run(&args, &work_dir, &tune_path) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("gwbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an operation failed its check.
fn run(args: &Args, work_dir: &Path, tune_path: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    bgw_trace::set_enabled(false);
    let llc = host::llc_bytes();
    let stream_bytes = host::stream_array_bytes(llc);

    // Set-up: autotune sweep, ceiling probes, then the workload's inputs
    // and oracles.
    let mut setup_s = Vec::new();
    let mut workload = None;
    let (mut zgemm_gflops, mut stream_gbs) = (0.0, 0.0);
    while setup_s.len() < SETUP_MAX_REPS {
        drop(workload.take());
        let t = Instant::now();
        host::warm_autotune(tune_path).map_err(|e| format!("autotune table: {e}"))?;
        zgemm_gflops = host::zgemm_ceiling_gflops(host::ZGEMM_CEILING_N);
        stream_gbs = host::stream_gbs(stream_bytes)?;
        workload = Some(workloads::setup(&args.workload, args.seed, work_dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
        let spent: f64 = setup_s.iter().sum();
        if spent + setup_s[setup_s.len() - 1] > SETUP_BUDGET_S {
            break;
        }
    }
    let mut workload = workload.expect("set-up ran at least once");
    let secs = args.seconds as f64;

    let mut notes: Vec<(&'static str, f64)> = vec![
        ("setup_reps", setup_s.len() as f64),
        ("zgemm_ceiling_gflops", zgemm_gflops),
        ("zgemm_ceiling_n", host::ZGEMM_CEILING_N as f64),
        ("stream_gbs", stream_gbs),
        ("stream_array_bytes", stream_bytes as f64),
    ];
    let mut layers = Layers::default();
    let (metrics, attempted, failed) = if args.trace {
        let [untraced, traced] = measure(
            workload.as_mut(),
            secs,
            [(Mode::Default, 0.5), (Mode::Traced, 0.5)],
            &mut layers,
        );
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;

        let mut m = Metrics::new(PER_LAYER);
        for &(name, unit) in PER_LAYER {
            if unit == "s" {
                m.set(name, layers.median_secs(name));
            }
        }
        layers.mean_work().report(&mut m);
        workload.report_layers(&layers, &mut m);
        m.set("linalg.zgemm_ceiling_gflops", zgemm_gflops);
        m.set("host.stream_gbs", stream_gbs);
        m.set(
            "trace.overhead_frac",
            median(&traced.latencies) / median(&untraced.latencies) - 1.0,
        );
        m.set("trace.layer_coverage", layers.coverage());
        m.set("failed_frac", failed as f64 / attempted as f64);
        notes.push(("untraced_ops", untraced.attempted as f64));
        notes.push(("traced_ops", traced.attempted as f64));
        print_layer_table(&m);
        (m, attempted, failed)
    } else {
        let [default, single] = measure(
            workload.as_mut(),
            secs,
            [
                (Mode::Default, DEFAULT_SHARE),
                (Mode::OneThread, 1.0 - DEFAULT_SHARE),
            ],
            &mut layers,
        );
        let attempted = default.attempted + single.attempted;
        let failed = default.failed + single.failed;
        let ok = default.attempted - default.failed;

        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", median(&setup_s));
        m.set("time_to_solution_s", median(&default.latencies));
        m.set("time_to_solution_1t_s", median(&single.latencies));
        m.set("throughput_ops_s", ok as f64 / default.wall);
        m.set("latency_p50_s", median(&default.latencies));
        let n = default.latencies.len();
        let q = tail_percentile(n, 0.95, 10);
        m.set("latency_p95_s", percentile(&default.latencies, q));
        m.set("success_frac", 1.0 - failed as f64 / attempted as f64);
        m.set("peak_rss_mib", host::peak_rss_mib());
        notes.push(("latency_samples", n as f64));
        notes.push(("latency_p95_percentile", q));
        notes.push(("latency_samples_beyond_p95", samples_beyond(n, q) as f64));
        notes.push(("ops_1t", single.attempted as f64));
        (m, attempted, failed)
    };
    drop(workload);

    let bad = metrics.non_finite();
    if !bad.is_empty() {
        eprintln!("gwbench: non-finite metrics: {}", bad.join(", "));
    }
    let correct = failed == 0 && bad.is_empty();
    let summary = Summary {
        correct,
        attempted,
        failed,
        metrics,
    };
    let host = host::fingerprint(llc);
    let record = Record {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        host: &host,
        notes: &notes,
        summary: &summary,
    };
    println!("{}", record.to_json());
    println!("{}", summary.to_json());
    Ok(correct)
}

/// How a measurement runs the program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Default thread count, tracing off.
    Default,
    /// `set_num_threads(1)`, tracing off.
    OneThread,
    /// Default thread count, spans on, layer calls timed.
    Traced,
}

impl Mode {
    fn enter(self) {
        bgw_par::set_num_threads(if self == Mode::OneThread { 1 } else { 0 });
        bgw_trace::set_enabled(self == Mode::Traced);
    }
}

/// Runs the measurements `(mode, share)` in alternating slices, each
/// time the one furthest behind its share of `secs`, until every one has
/// had its share and its minimum operations. Alternating makes every
/// measurement sample the whole run, so a slow spell on a shared host
/// lands on all of them instead of on one.
fn measure<const N: usize>(
    w: &mut dyn workloads::Workload,
    secs: f64,
    plan: [(Mode, f64); N],
    layers: &mut Layers,
) -> [workloads::Phase; N] {
    let mut phases: [workloads::Phase; N] = std::array::from_fn(|_| Default::default());
    loop {
        let progress = |k: usize| phases[k].wall / plan[k].1;
        let behind = (0..N)
            .filter(|&k| phases[k].wall < plan[k].1 * secs || phases[k].attempted < w.min_ops())
            .min_by(|&a, &b| progress(a).total_cmp(&progress(b)));
        let Some(k) = behind else { break };
        plan[k].0.enter();
        let traced = (plan[k].0 == Mode::Traced).then_some(&mut *layers);
        w.slice(k, &mut phases[k], traced);
    }
    Mode::Default.enter();
    phases
}

/// Human-readable per-layer table; rates are labelled against the
/// ceilings measured on this host in the same run.
fn print_layer_table(m: &Metrics) {
    println!("per-layer breakdown (rates measured on this host; ceilings from set-up):");
    for &(name, unit) in PER_LAYER {
        println!("  {name:<30} {:>14.6} {unit}", m.get(name));
    }
    let ceiling = m.get("linalg.zgemm_ceiling_gflops");
    for rate in ["sigma.diag_gflops", "sigma.offdiag_gflops"] {
        println!(
            "  {rate} = {:.2} GF/s = {:.1}% of the measured ZGEMM ceiling {ceiling:.2} GF/s",
            m.get(rate),
            100.0 * m.get(rate) / ceiling
        );
    }
}
