//! The kernel figures, timed on this machine: Fig. 5 (dense vs TLR GEMM)
//! and Fig. 8 (SHGEMM vs SGEMM vs DGEMM).

use super::{best_of_3, random_buffer};
use xgs_kernels::{gemm, gemm_flops, shgemm, Half, Precision, Real, Trans};
use xgs_linalg::{LowRank, Matrix};
use xgs_perfmodel::A64fxKernelModel;
use xgs_tile::{auto_tune_band_size, KernelTimeModel};

/// Fig. 5: dense FP64 GEMM vs TLR FP64 GEMM time, and their ratio, by tile
/// rank on one core. Three panels: measured on this machine at tile 256
/// (LR product + QR/SVD rounding on real buffers); the calibrated A64FX
/// model at the paper's tile 2700, whose crossover the paper pins at rank
/// ~200; and Algorithm 2's `band_size_dense` from the same model.
pub fn fig5() {
    measured_panel(256);
    modeled_panel();
    band_tuning_panel();
}

fn measured_panel(nb: usize) {
    println!("-- measured on this machine, tile size {nb}, accuracy-1e-8-style ranks --");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "rank", "dense (ms)", "tlr (ms)", "ratio"
    );
    let a = Matrix::from_vec(nb, nb, random_buffer(nb * nb, 1));
    let b = Matrix::from_vec(nb, nb, random_buffer(nb * nb, 2));
    let mut c = Matrix::from_vec(nb, nb, random_buffer(nb * nb, 3));
    let dense_s = best_of_3(|| {
        gemm(
            Trans::No,
            Trans::Yes,
            nb,
            nb,
            nb,
            -1.0,
            a.as_slice(),
            nb,
            b.as_slice(),
            nb,
            1.0,
            c.as_mut_slice(),
            nb,
        )
    });

    for rank in [4usize, 8, 16, 32, 48, 64, 96, 128] {
        if rank * 2 > nb {
            break;
        }
        let mk = |s: u64| LowRank {
            u: Matrix::from_vec(nb, rank, random_buffer(nb * rank, s)),
            v: Matrix::from_vec(nb, rank, random_buffer(nb * rank, s + 9)),
        };
        let (a_lr, b_lr, c_lr) = (mk(10), mk(20), mk(30));
        let tlr_s = best_of_3(|| {
            let prod = a_lr.matmul_lr_transposed(&b_lr);
            std::hint::black_box(c_lr.add_rounded(-1.0, &prod, 1e-8));
        });
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>8.2}",
            rank,
            dense_s * 1e3,
            tlr_s * 1e3,
            dense_s / tlr_s
        );
    }
    println!();
}

fn modeled_panel() {
    let model = A64fxKernelModel;
    let nb = 2700;
    println!("-- modeled A64FX core, tile size {nb} (the paper's Fig. 5 setting) --");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "rank", "dense (s)", "tlr (s)", "ratio"
    );
    let dense = model.dense_gemm_time(nb, Precision::F64);
    let mut crossover = None;
    for rank in [20usize, 50, 100, 150, 200, 250, 300, 400, 600] {
        let tlr = model.tlr_gemm_time(nb, rank, Precision::F64);
        println!(
            "{:>6} {:>14.4} {:>14.4} {:>8.2}",
            rank,
            dense,
            tlr,
            dense / tlr
        );
        if crossover.is_none() && tlr >= dense {
            crossover = Some(rank);
        }
    }
    println!(
        "\ncrossover (TLR no longer wins): rank ~{} — paper reports ~200\n",
        crossover.unwrap_or(0)
    );
}

fn band_tuning_panel() {
    // Algorithm 2 on a synthetic rank profile (high near the diagonal,
    // decaying geometrically) at the paper's tile size.
    let model = A64fxKernelModel;
    let nt = 371; // 1M / 2700
    let nb = 2700;
    println!("-- Algorithm 2: auto-tuned band_size_dense at tile {nb}, NT {nt} --");
    for (label, near_rank, tau) in [
        ("weak correlation", 500.0, 0.04),
        ("medium correlation", 900.0, 0.10),
        ("strong correlation", 1500.0, 0.25),
    ] {
        let ranks: Vec<(usize, usize, usize)> = (0..nt)
            .flat_map(|j| (j + 1..nt).map(move |i| (i, j)))
            .map(|(i, j)| {
                let u = (i - j) as f64 / nt as f64;
                let r = (near_rank * (-u / tau).exp()).max(12.0) as usize;
                (i, j, r.min(nb))
            })
            .collect();
        let band = auto_tune_band_size(&ranks, nt, nb, &model);
        println!("{label:>20}: band_size_dense = {band}");
    }
}

/// Best-of-3 seconds of `C = A·Bᵀ` on `n x n` operands in precision `T`.
fn time_gemm<T: Real>(a: &[f64], b: &[f64], n: usize) -> f64 {
    let cast = |x: &[f64]| -> Vec<T> { x.iter().map(|&v| T::from_f64(v)).collect() };
    let (a, b) = (cast(a), cast(b));
    let mut c = vec![T::ZERO; n * n];
    best_of_3(|| {
        gemm(
            Trans::No,
            Trans::Yes,
            n,
            n,
            n,
            T::ONE,
            &a,
            n,
            &b,
            n,
            T::ZERO,
            &mut c,
            n,
        )
    })
}

/// Fig. 8: SHGEMM (FP16 operands, FP32 accumulation) vs SGEMM vs DGEMM.
/// The paper finds BLIS's SHGEMM *slower* than SGEMM on A64FX (no hardware
/// FP16-with-FP32-accumulation path) and falls back to SGEMM "for
/// performance, without trading off accuracy". Our SHGEMM promotes its
/// binary16 operands while packing them (`vcvtph2ps`) into the FP32
/// panels, so it runs at SGEMM's rate reading half the bytes — the same
/// conclusion either way: FP16 *storage* with SGEMM-rate compute.
pub fn fig8() {
    println!("GEMM throughput on this machine (column: Gflop/s, best of 3)\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>14}",
        "n", "dgemm", "sgemm", "shgemm", "shgemm/sgemm"
    );
    for n in [64usize, 128, 256, 384, 512] {
        let a64 = random_buffer(n * n, 1);
        let b64 = random_buffer(n * n, 2);
        let a16: Vec<Half> = a64.iter().map(|&x| Half::from_f64(x)).collect();
        let b16: Vec<Half> = b64.iter().map(|&x| Half::from_f64(x)).collect();
        let flops = gemm_flops(n, n, n);
        let t_d = time_gemm::<f64>(&a64, &b64, n);
        let t_s = time_gemm::<f32>(&a64, &b64, n);
        let mut ch = vec![0f32; n * n];
        let t_h = best_of_3(|| {
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
