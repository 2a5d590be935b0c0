//! Task-DAG CI gate (`tools/check.sh --dag`): task-granular recovery.
//!
//! Under a rank crash at world size 4, the fault-tolerant distributed
//! driver must re-enqueue exactly the dead rank's orphaned tasks,
//! reproduce the fault-free QP energies to 1e-10, and recompute a strict
//! subset of the CHI stage (fewer than its `nv` tasks). Any failure exits
//! nonzero.
//!
//! A watchdog aborts with exit 2 on a hang; worker threads must return to
//! baseline. Writes `BENCH_task_dag.json` into the current directory.

use bgw_comm::{try_run_world, CommError, FaultPlan, WorldReport};
use bgw_core::workflow::GwConfig;
use bgw_core::{run_gpp_gw_resilient, GwError, ResilientGwReport};
use bgw_pwdft::{si_bulk, ModelSystem};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WORLD: usize = 4;
const RECOVERY_TOL: f64 = 1e-10;
const WATCHDOG_SECS: u64 = 300;

static DONE: AtomicBool = AtomicBool::new(false);

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(1)
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn recovery_system() -> ModelSystem {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    sys
}

fn dag_world(plan: FaultPlan) -> WorldReport<ResilientGwReport> {
    let sys = recovery_system();
    let cfg = GwConfig::default();
    try_run_world(WORLD, plan, move |comm| {
        run_gpp_gw_resilient(&sys, &cfg, comm).map_err(|e| match e {
            GwError::Comm(c) => c,
            other => panic!("unexpected non-comm failure: {other}"),
        })
    })
}

fn main() {
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(WATCHDOG_SECS));
        if !DONE.load(Ordering::SeqCst) {
            eprintln!("FAIL: watchdog fired after {WATCHDOG_SECS}s — the DAG smoke hung");
            std::process::exit(2);
        }
    });
    let t_start = Instant::now();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The worker pool is a persistent singleton whose threads never exit
    // by design: spawn all of them with one full-width region before the
    // baseline, so the gate only catches leaked world-rank threads.
    bgw_par::parallel_for_chunked(bgw_par::num_threads(), 1, |_, _| {});
    let threads_baseline = thread_count();

    // Task-granular recovery under a rank crash.
    let free = dag_world(FaultPlan::none());
    if !free.all_ok() {
        fail(&format!(
            "recovery: fault-free run: {:?}",
            free.first_error()
        ));
    }
    let free_qp: Vec<f64> = free.results[0]
        .as_ref()
        .unwrap()
        .states
        .iter()
        .map(|s| s.e_qp)
        .collect();
    let tasks_total = free.results[0].as_ref().unwrap().tasks_total;

    let t = Instant::now();
    let dag_crash = dag_world(FaultPlan::none().crash_at(2, 0));
    let dag_wall = t.elapsed().as_secs_f64();
    if dag_crash.faults.crashes != 1 || dag_crash.faults.shrinks == 0 {
        fail("recovery: DAG crash scenario did not fire");
    }
    let mut reenqueued_total = 0usize;
    let mut nv = 0usize;
    for (rank, res) in dag_crash.results.iter().enumerate() {
        match res {
            Ok(rep) => {
                nv = rep.sigma_bands[0] + 2;
                if rep.final_size != WORLD - 1 {
                    fail(&format!(
                        "recovery: rank {rank} final_size {}",
                        rep.final_size
                    ));
                }
                reenqueued_total += rep.tasks_reenqueued;
                for (a, b) in rep.states.iter().map(|s| s.e_qp).zip(&free_qp) {
                    if (a - b).abs() >= RECOVERY_TOL {
                        fail(&format!(
                            "recovery: rank {rank} QP drift {:.3e} (gate {RECOVERY_TOL:.0e})",
                            (a - b).abs()
                        ));
                    }
                }
            }
            Err(CommError::SelfCrashed { rank: 2, .. }) if rank == 2 => {}
            Err(e) => fail(&format!("recovery: rank {rank}: unexpected error {e}")),
        }
    }
    // The dead rank orphaned exactly its CHI band tasks (the crash fires
    // at the CHI allreduce); task-granular recovery recomputes those and
    // nothing else, a strict subset of the stage's `nv` tasks.
    let orphaned = (0..nv).filter(|v| v % WORLD == 2).count();
    if reenqueued_total != orphaned {
        fail(&format!(
            "recovery: re-enqueued {reenqueued_total} tasks, expected exactly the {orphaned} \
             orphaned ones"
        ));
    }
    let reenq_fraction = reenqueued_total as f64 / nv as f64;
    if reenqueued_total >= nv {
        fail("recovery: recompute must be a strict subset of the CHI stage");
    }
    println!(
        "recovery : {reenqueued_total}/{nv} CHI tasks re-enqueued ({:.0}% of the stage), \
         recovered wall {dag_wall:.3}s",
        reenq_fraction * 100.0
    );

    let mut threads_now = thread_count();
    for _ in 0..50 {
        if threads_now <= threads_baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        threads_now = thread_count();
    }
    if threads_now > threads_baseline {
        fail(&format!(
            "thread leak — baseline {threads_baseline}, now {threads_now}"
        ));
    }

    let json = format!(
        "{{\n  \"host\": {{\"cores\": {cores}}},\n  \
         \"recovery\": {{\n    \"world\": {WORLD},\n    \"tasks_total\": {tasks_total},\n    \
         \"chi_tasks\": {nv},\n    \"tasks_reenqueued\": {reenqueued_total},\n    \
         \"reenqueued_fraction_of_chi_stage\": {reenq_fraction:.3},\n    \
         \"dag_recovered_wall_s\": {dag_wall:.3},\n    \"qp_tol\": 1e-10\n  }}\n}}\n",
    );
    std::fs::write("BENCH_task_dag.json", &json).expect("write BENCH_task_dag.json");
    println!("wrote BENCH_task_dag.json");

    DONE.store(true, Ordering::SeqCst);
    println!(
        "dag smoke: all gates passed in {:.2}s (threads {threads_baseline} -> {threads_now})",
        t_start.elapsed().as_secs_f64()
    );
}
