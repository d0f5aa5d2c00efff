//! Paper Fig. 8: SHGEMM (FP16 operands, FP32 accumulation) vs SGEMM vs
//! DGEMM throughput.
//!
//! The paper measures BLIS's SHGEMM against SSL SGEMM on A64FX and finds
//! SHGEMM *slower* than SGEMM (no hardware FP16-with-FP32-accumulation
//! path), so it falls back to SGEMM "for performance, without trading off
//! accuracy". Our SHGEMM promotes its binary16 operands while it packs
//! them (`vcvtph2ps`) into the FP32 register tile's panels, so it runs at
//! SGEMM's rate and reads half the bytes: at or slightly above SGEMM, where
//! the paper's BLIS kernel sat below — the same conclusion either way,
//! FP16 *storage* with SGEMM-rate compute.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin fig8_shgemm
//! ```

use xgs_bench::{random_buffer, timed};
use xgs_kernels::{gemm, gemm_flops, shgemm, Half, Trans};

fn main() {
    println!("GEMM throughput on this machine (column: Gflop/s, best of 3)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>14}",
        "n", "dgemm", "sgemm", "shgemm", "shgemm/sgemm"
    );
    for n in [64usize, 128, 256, 384, 512] {
        let a64 = random_buffer(n * n, 1);
        let b64 = random_buffer(n * n, 2);
        let a32: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
        let b32: Vec<f32> = b64.iter().map(|&x| x as f32).collect();
        let a16: Vec<Half> = a64.iter().map(|&x| Half::from_f64(x)).collect();
        let b16: Vec<Half> = b64.iter().map(|&x| Half::from_f64(x)).collect();
        let flops = gemm_flops(n, n, n);

        let mut c64 = vec![0f64; n * n];
        let mut t_d = f64::INFINITY;
        for _ in 0..3 {
            let (_, s) = timed(|| {
                gemm(
                    Trans::No,
                    Trans::Yes,
                    n,
                    n,
                    n,
                    1.0,
                    &a64,
                    n,
                    &b64,
                    n,
                    0.0,
                    &mut c64,
                    n,
                )
            });
            t_d = t_d.min(s);
        }

        let mut c32 = vec![0f32; n * n];
        let mut t_s = f64::INFINITY;
        for _ in 0..3 {
            let (_, s) = timed(|| {
                gemm(
                    Trans::No,
                    Trans::Yes,
                    n,
                    n,
                    n,
                    1.0f32,
                    &a32,
                    n,
                    &b32,
                    n,
                    0.0,
                    &mut c32,
                    n,
                )
            });
            t_s = t_s.min(s);
        }

        let mut ch = vec![0f32; n * n];
        let mut t_h = f64::INFINITY;
        for _ in 0..3 {
            let (_, s) = timed(|| {
                shgemm(
                    Trans::No,
                    Trans::Yes,
                    n,
                    n,
                    n,
                    1.0,
                    &a16,
                    n,
                    &b16,
                    n,
                    0.0,
                    &mut ch,
                    n,
                )
            });
            t_h = t_h.min(s);
        }

        println!(
            "{:>6} {:>10.2} {:>10.2} {:>10.2} {:>13.0}%",
            n,
            flops / t_d / 1e9,
            flops / t_s / 1e9,
            flops / t_h / 1e9,
            100.0 * t_s / t_h
        );
    }
    println!("\npaper finding: SHGEMM < SGEMM on A64FX (no native FP16+FP32-accum GEMM),");
    println!("so the application falls back to SGEMM while keeping FP16 storage;");
    println!("here SHGEMM is SGEMM with the promotion fused into packing.");
}
