//! The kernel benchmark suite: tiled vs naive kernels across pipeline
//! shapes, with bitwise parity asserted in-bench. See
//! [`ceaff_bench::kernels`] for the methodology (warm-up, median-of-N,
//! the 10 ms speedup floor, honest core reporting).
//!
//! Flags and their `--check` overrides: the table in the [`ceaff_bench`]
//! crate docs.

use ceaff_bench::harness::{write_report, Args};
use ceaff_bench::kernels::{run_kernel_bench, KernelBenchOpts};

fn main() {
    let args = Args::from_env(&["--scale", "--reps", "--threads", "--out"], &["--check"]);
    let check = args.switch("--check");
    let scales = match args.all("--scale") {
        given if !given.is_empty() => given,
        _ if check => vec![0.2],
        _ => vec![0.2, 1.0, 5.0],
    };
    let opts = KernelBenchOpts {
        scales,
        reps: args.get("--reps", 5),
        check,
        parallel_threads: args.get("--threads", 4),
    };
    let report = run_kernel_bench(&opts);
    write_report(&args.get("--out", "BENCH_kernels.json".to_owned()), &report);
}
