//! §V-F: PFPL across GPU generations. Wall-clock on the simulated device
//! measures algorithmic work; the modeled throughput scales it by each
//! config's compute score, reproducing the paper's finding that PFPL's
//! performance "correlates primarily with the amount of compute" (it is
//! not memory-bound: only 15% of A100 DRAM throughput was used).

use pfpl::types::ErrorBound;
use pfpl_bench::Args;
use pfpl_data::timing::median_seconds;
use pfpl_data::{all_suites, FieldData};
use pfpl_device_sim::{configs, GpuDevice};

fn main() {
    let args = Args::parse();
    let suites = all_suites(args.size);
    let cesm = suites.iter().find(|s| s.name == "CESM-ATM").unwrap();
    let field = &cesm.fields[0];
    let FieldData::F32(data) = &field.data else {
        unreachable!()
    };
    let bytes = field.byte_len();
    let bound = ErrorBound::Abs(1e-3);

    println!("§V-F: PFPL compression across simulated GPU generations");
    println!("(measured = wall clock of the simulated kernels on this host;");
    println!(" modeled = measured work scaled by the device's compute score,");
    println!(" normalized to the RTX 4090 — see EXPERIMENTS.md for the model)\n");
    println!(
        "{:<16} {:>14} {:>12} {:>16} {:>18}",
        "device", "compute score", "resident", "measured GB/s", "modeled rel. tput"
    );

    let reference = configs::RTX_4090.compute_score();
    for cfg in configs::ALL_DEVICES {
        let dev = GpuDevice::new(cfg);
        let secs = median_seconds(args.runs, || {
            let _ = dev.compress(data, bound);
        });
        let gbs = bytes as f64 / secs / 1e9;
        println!(
            "{:<16} {:>14.0} {:>12} {:>16.3} {:>17.2}x",
            cfg.name,
            cfg.compute_score(),
            cfg.resident_blocks(),
            gbs,
            cfg.compute_score() / reference
        );
    }
    println!("\nPaper shape check: 4090 > A100 > 3080 Ti > 2070 Super ≈ TITAN Xp.");
}
