//! Host facts: CPU pinning for the serial measurements, and the
//! provenance every result record carries.

use crate::json::Json;

/// Words in a Linux `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Most CPUs serial rounds rotate over.
pub const ROTATION: usize = 2;

/// The CPUs serial rounds rotate over, and pinning of the calling thread.
///
/// Serial timings are taken alternately on the first [`ROTATION`] allowed
/// CPUs and combined per rotation: on a VM whose vCPUs run at different
/// speeds, a process that happens to stay on one vCPU would otherwise
/// read 10-20% faster or slower than the next one. The width is fixed,
/// not the host's CPU count, so a run on a large host still gets as many
/// samples as one on a 2-vCPU VM.
pub struct Cpus {
    rotation: Vec<usize>,
    full: [u64; SET_WORDS],
    /// False when the OS refused to report or change the affinity; the
    /// serial timings then run wherever the scheduler puts them.
    pub pinning: bool,
}

impl Cpus {
    /// Read the calling thread's affinity (call before spawning threads).
    pub fn detect() -> Self {
        let mut full = [0u64; SET_WORDS];
        #[cfg(target_os = "linux")]
        // SAFETY: `full` is a writable cpu_set_t-sized buffer.
        let ok = unsafe { sched_getaffinity(0, SET_WORDS * 8, full.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        let allowed: Vec<usize> = (0..SET_WORDS * 64)
            .filter(|&c| full[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let pinning = ok && !allowed.is_empty();
        Cpus {
            rotation: if pinning {
                allowed.into_iter().take(ROTATION).collect()
            } else {
                vec![0]
            },
            full,
            pinning,
        }
    }

    /// Number of CPUs serial rounds rotate over: 1 or [`ROTATION`].
    pub fn rotation(&self) -> usize {
        self.rotation.len()
    }

    /// The CPU serial work of round `r` runs on.
    pub fn for_round(&self, r: usize) -> usize {
        self.rotation[r % self.rotation.len()]
    }

    /// Pin the calling thread to `cpu`.
    pub fn pin(&self, cpu: usize) {
        let mut set = [0u64; SET_WORDS];
        set[cpu / 64] |= 1 << (cpu % 64);
        self.set(&set);
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        self.set(&self.full);
    }

    fn set(&self, set: &[u64; SET_WORDS]) {
        if self.pinning {
            #[cfg(target_os = "linux")]
            // SAFETY: `set` is a readable cpu_set_t-sized buffer. Failure
            // leaves the affinity unchanged, which only costs steadiness.
            unsafe {
                sched_setaffinity(0, SET_WORDS * 8, set.as_ptr());
            }
        }
    }
}

/// One cache level as CPUID describes it.
struct Cache {
    level: u32,
    bytes: u64,
    /// Logical CPUs sharing it.
    shared_by: u32,
}

/// Data and unified caches from CPUID (leaf 4 on Intel, 0x8000_001D on
/// AMD); empty elsewhere.
fn caches() -> Vec<Cache> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86-64 CPU.
        let (vendor, leaf) = unsafe {
            let v = __cpuid(0);
            let amd = (v.ebx, v.edx, v.ecx) == (0x6874_7541, 0x6974_6e65, 0x444d_4163);
            (v, if amd { 0x8000_001D } else { 4 })
        };
        if leaf == 4 && vendor.eax < 4 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for sub in 0..16 {
            #[allow(unused_unsafe)]
            // SAFETY: as above; unknown subleaves report type 0.
            let r = unsafe { __cpuid_count(leaf, sub) };
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            if kind == 2 {
                continue; // instruction cache
            }
            let ways = (r.ebx >> 22) as u64 + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
            let line = (r.ebx & 0xfff) as u64 + 1;
            let sets = r.ecx as u64 + 1;
            out.push(Cache {
                level: (r.eax >> 5) & 7,
                bytes: ways * parts * line * sets,
                shared_by: ((r.eax >> 14) & 0xfff) + 1,
            });
        }
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// Runtime-detected CPU features the kernels care about.
fn features() -> Json {
    #[cfg(target_arch = "x86_64")]
    {
        let f = |detected: bool, compiled: bool| {
            Json::obj([
                ("detected", Json::Bool(detected)),
                ("compiled_in", Json::Bool(compiled)),
            ])
        };
        Json::obj([
            (
                "avx2",
                f(
                    is_x86_feature_detected!("avx2"),
                    cfg!(target_feature = "avx2"),
                ),
            ),
            (
                "gfni",
                f(
                    is_x86_feature_detected!("gfni"),
                    cfg!(target_feature = "gfni"),
                ),
            ),
            (
                "avx512vbmi2",
                f(
                    is_x86_feature_detected!("avx512vbmi2"),
                    cfg!(target_feature = "avx512vbmi2"),
                ),
            ),
        ])
    }
    #[cfg(not(target_arch = "x86_64"))]
    Json::obj::<&str>([])
}

/// The git revision of the working directory, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

const MIB: f64 = (1u64 << 20) as f64;

/// The provenance record: revision, toolchain, flags, host, and how the
/// workload's working set compares with the caches.
pub fn provenance(
    cpus: &Cpus,
    workload: &str,
    seed: u64,
    rounds: usize,
    working_set: usize,
) -> Json {
    let caches = caches();
    let l2 = caches.iter().find(|c| c.level == 2);
    let llc = caches.iter().max_by_key(|c| c.level);
    let mib = |c: Option<&Cache>| c.map_or(Json::Null, |c| Json::Num(c.bytes as f64 / MIB));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("git_rev", Json::str(git_rev())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("rustflags", Json::str(env!("PERFBENCH_RUSTFLAGS"))),
        ("nproc", Json::Int(nproc as u64)),
        (
            "pool_threads",
            Json::Int(rayon::current_num_threads() as u64),
        ),
        (
            "pool_workers_spawned",
            Json::Int(rayon::pool_thread_count() as u64),
        ),
        ("serial_pinning", Json::Bool(cpus.pinning)),
        (
            "serial_rotation",
            Json::Arr(cpus.rotation.iter().map(|&c| Json::Int(c as u64)).collect()),
        ),
        ("cpu_features", features()),
        ("l2_mib", mib(l2)),
        (
            "l2_shared_by_cpus",
            l2.map_or(Json::Null, |c| Json::Int(c.shared_by as u64)),
        ),
        ("llc_mib", mib(llc)),
        (
            "llc_level",
            llc.map_or(Json::Null, |c| Json::Int(c.level as u64)),
        ),
        ("working_set_mib", Json::Num(working_set as f64 / MIB)),
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("rounds", Json::Int(rounds as u64)),
    ])
}
