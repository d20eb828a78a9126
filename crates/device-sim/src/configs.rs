//! Device models for the §V-F GPU-generation study and Table I.
//!
//! The paper finds that PFPL's performance "correlates primarily with the
//! amount of compute provided by the GPU" (it uses only ~15% of A100 DRAM
//! bandwidth). The simulated device therefore models a GPU by (a) how many
//! blocks it keeps resident (worker parallelism, capped by the host) and
//! (b) an analytic compute throughput used to *scale* measured kernel work
//! into modeled device throughput for the generations figure. The modeling
//! is clearly labeled in EXPERIMENTS.md; the bit-exact archive contents do
//! not depend on any of it.

/// Parameters of a simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Boost clock in GHz.
    pub boost_clock_ghz: f64,
    /// Maximum threads per block supported.
    pub max_threads_per_block: u32,
    /// Memory bandwidth in GB/s (context only; PFPL is compute-bound).
    pub mem_bw_gbs: f64,
}

impl DeviceConfig {
    /// Relative compute capability: SMs × cores × clock.
    pub fn compute_score(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.boost_clock_ghz
    }

    /// How many blocks the simulation keeps in flight. Scales with SM count
    /// and the paper's observation that lower max-threads-per-block reduces
    /// resident blocks (the RTX 2070 Super discussion), capped by the host.
    pub fn resident_blocks(&self) -> usize {
        let per_sm = if self.max_threads_per_block >= 1536 {
            2
        } else {
            1
        };
        (self.sm_count as usize * per_sm).min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }
}

/// RTX 4090 (System 1's GPU in Table I).
pub const RTX_4090: DeviceConfig = DeviceConfig {
    name: "RTX 4090",
    sm_count: 128,
    cores_per_sm: 128,
    boost_clock_ghz: 2.5,
    max_threads_per_block: 1536,
    mem_bw_gbs: 1008.0,
};

/// A100 40 GB (System 2's GPU in Table I).
pub const A100: DeviceConfig = DeviceConfig {
    name: "A100",
    sm_count: 108,
    cores_per_sm: 64,
    boost_clock_ghz: 1.4,
    max_threads_per_block: 2048,
    mem_bw_gbs: 1555.0,
};

/// RTX 3080 Ti (§V-F).
pub const RTX_3080_TI: DeviceConfig = DeviceConfig {
    name: "RTX 3080 Ti",
    sm_count: 80,
    cores_per_sm: 128,
    boost_clock_ghz: 1.67,
    max_threads_per_block: 1536,
    mem_bw_gbs: 912.0,
};

/// RTX 2070 Super (§V-F: only 1024 threads/block → fewer resident blocks).
pub const RTX_2070_SUPER: DeviceConfig = DeviceConfig {
    name: "RTX 2070 Super",
    sm_count: 40,
    cores_per_sm: 64,
    boost_clock_ghz: 1.77,
    max_threads_per_block: 1024,
    mem_bw_gbs: 448.0,
};

/// TITAN Xp (§V-F).
pub const TITAN_XP: DeviceConfig = DeviceConfig {
    name: "TITAN Xp",
    sm_count: 30,
    cores_per_sm: 128,
    boost_clock_ghz: 1.58,
    max_threads_per_block: 1024,
    mem_bw_gbs: 547.0,
};

/// All §V-F devices, newest first.
pub const ALL_DEVICES: [DeviceConfig; 5] = [RTX_4090, A100, RTX_3080_TI, RTX_2070_SUPER, TITAN_XP];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_ordering_matches_paper() {
        // §V-F: 4090 fastest; 2070 Super ≈ TITAN Xp (within ~15%).
        assert!(RTX_4090.compute_score() > A100.compute_score());
        assert!(A100.compute_score() > RTX_2070_SUPER.compute_score());
        let ratio = RTX_2070_SUPER.compute_score() / TITAN_XP.compute_score();
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn resident_blocks_positive() {
        for d in ALL_DEVICES {
            assert!(d.resident_blocks() >= 1);
        }
    }
}
