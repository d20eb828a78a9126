//! Table I: the systems used for the experiments — the paper's two
//! testbeds alongside the host this reproduction actually runs on.

fn main() {
    println!("Table I: Systems used for experiments (paper) + this reproduction's host\n");
    println!(
        "{:<22} {:<22} {:<18} {:<}",
        "", "System 1 (paper)", "System 2 (paper)", "This host (simulated devices)"
    );
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let rows = [
        (
            "CPU",
            "Threadripper 2950X",
            "Xeon Gold 6226R",
            format!("{host_threads} hw threads"),
        ),
        ("Cores/Socket", "16", "16", "-".into()),
        (
            "GPU",
            "RTX 4090",
            "A100",
            "simulated (pfpl-device-sim)".into(),
        ),
        ("Compute Capability", "8.9", "8.0", "-".into()),
        (
            "GPU SMs",
            "128",
            "108",
            "worker threads model SM residency".into(),
        ),
    ];
    for (k, s1, s2, host) in rows {
        println!("{k:<22} {s1:<22} {s2:<18} {host}");
    }
    println!();
    println!("Simulated device configs (crates/device-sim/src/configs.rs):");
    for d in pfpl_device_sim::configs::ALL_DEVICES {
        println!(
            "  {:<16} {:>3} SMs × {:>3} cores @ {:.2} GHz (max {} thr/block, {} GB/s) → compute score {:.0}",
            d.name, d.sm_count, d.cores_per_sm, d.boost_clock_ghz,
            d.max_threads_per_block, d.mem_bw_gbs, d.compute_score()
        );
    }
}
