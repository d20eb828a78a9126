//! The paper's heterogeneous-HPC scenario (§I issue 2): data is compressed
//! on one device and decompressed on another. A cosmology simulation
//! "running on the GPU" compresses its snapshot there; analysts without
//! GPUs decompress on CPUs — and every implementation produces bit-for-bit
//! identical bytes in both directions.
//!
//! ```sh
//! cargo run --release --example cross_device_pipeline
//! ```

use pfpl::types::{ErrorBound, Mode};
use pfpl_data::{suite_by_name, FieldData, SizeClass};
use pfpl_device_sim::{configs, GpuDevice};

fn main() {
    let suite = suite_by_name("NYX", SizeClass::Small).expect("suite");
    let field = &suite.fields[0]; // baryon-density-like, high dynamic range
    let FieldData::F32(data) = &field.data else {
        unreachable!()
    };
    let bound = ErrorBound::Rel(1e-3); // REL suits multi-decade densities
    println!(
        "snapshot: {} ({} values, {:.1} MB), bound {bound:?}\n",
        field.name,
        field.len(),
        field.byte_len() as f64 / 1e6
    );

    // 1. The simulation compresses on the "GPU".
    let gpu = GpuDevice::new(configs::A100);
    let gpu_archive = gpu.compress(data, bound).expect("gpu compress");
    println!(
        "GPU (A100 sim) compressed to {:.2} MB ({:.1}x)",
        gpu_archive.len() as f64 / 1e6,
        field.byte_len() as f64 / gpu_archive.len() as f64
    );

    // 2. Cross-implementation check: serial CPU, parallel CPU, and a
    // different GPU generation must produce the *same bytes*.
    let serial = pfpl::compress(data, bound, Mode::Serial).unwrap();
    let parallel = pfpl::compress(data, bound, Mode::Parallel).unwrap();
    let other_gpu = GpuDevice::new(configs::TITAN_XP)
        .compress(data, bound)
        .unwrap();
    assert_eq!(gpu_archive, serial, "GPU vs CPU-serial archives differ!");
    assert_eq!(
        gpu_archive, parallel,
        "GPU vs CPU-parallel archives differ!"
    );
    assert_eq!(gpu_archive, other_gpu, "A100 vs TITAN Xp archives differ!");
    println!("archives identical across CPU-serial / CPU-parallel / 2 GPU generations ✓");

    // 3. The analyst decompresses on a CPU; a collaborator uses a GPU.
    let on_cpu: Vec<f32> = pfpl::decompress(&gpu_archive, Mode::Parallel).unwrap();
    let on_gpu: Vec<f32> = gpu.decompress(&gpu_archive).unwrap();
    assert!(on_cpu
        .iter()
        .zip(&on_gpu)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    println!("decompressed values bit-identical on CPU and GPU ✓");

    // 4. And the REL bound held everywhere.
    let max_rel = data
        .iter()
        .zip(&on_cpu)
        .filter(|(a, _)| **a != 0.0)
        .map(|(a, b)| ((*a as f64 - *b as f64) / *a as f64).abs())
        .fold(0.0, f64::max);
    println!("max point-wise relative error: {max_rel:.3e} (bound 1e-3) ✓");
    assert!(max_rel <= 1e-3);
}
