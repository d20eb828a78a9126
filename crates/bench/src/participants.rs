//! Uniform wrapper over everything the harness can benchmark: the three
//! PFPL implementations and the seven baselines.

use pfpl::types::{ErrorBound, Mode};
use pfpl_baselines::{BaselineError, Compressor};
use pfpl_data::{Field, FieldData};
use pfpl_device_sim::{configs, GpuDevice};

/// Which side of the figures a participant's points land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Single-threaded CPU.
    CpuSerial,
    /// Multi-threaded CPU (OpenMP analogue).
    CpuParallel,
    /// Simulated GPU.
    Gpu,
}

impl Side {
    /// Label used in the output tables.
    pub fn label(self) -> &'static str {
        match self {
            Side::CpuSerial => "CPU-serial",
            Side::CpuParallel => "CPU-parallel",
            Side::Gpu => "GPU(sim)",
        }
    }
}

enum Engine {
    Pfpl(Mode),
    PfplGpu(GpuDevice),
    Baseline(Box<dyn Compressor>),
}

/// One benchmarked compressor configuration.
pub struct Participant {
    /// Display name (e.g. `PFPL_OMP`, `SZ3_Serial`).
    pub name: String,
    /// Device side.
    pub side: Side,
    engine: Engine,
}

impl Participant {
    /// PFPL single-threaded.
    pub fn pfpl_serial() -> Self {
        Self {
            name: "PFPL_Serial".into(),
            side: Side::CpuSerial,
            engine: Engine::Pfpl(Mode::Serial),
        }
    }
    /// PFPL chunk-parallel (PFPL_OMP analogue).
    pub fn pfpl_omp() -> Self {
        Self {
            name: "PFPL_OMP".into(),
            side: Side::CpuParallel,
            engine: Engine::Pfpl(Mode::Parallel),
        }
    }
    /// PFPL on the simulated GPU (PFPL_CUDA analogue). `system` selects
    /// Table I's System 1 (RTX 4090) or System 2 (A100).
    pub fn pfpl_gpu(system: u8) -> Self {
        let cfg = if system == 2 {
            configs::A100
        } else {
            configs::RTX_4090
        };
        Self {
            name: "PFPL_CUDA".into(),
            side: Side::Gpu,
            engine: Engine::PfplGpu(GpuDevice::new(cfg)),
        }
    }
    /// Wrap a baseline compressor; `side` tells the harness where the
    /// original runs (cuSZp/FZ-GPU are GPU codes in the paper).
    pub fn baseline(c: Box<dyn Compressor>, side: Side) -> Self {
        Self {
            name: c.capabilities().name.to_string(),
            side,
            engine: Engine::Baseline(c),
        }
    }

    /// The baseline's capability row, if this is a baseline.
    pub fn capabilities(&self) -> Option<pfpl_baselines::Capabilities> {
        match &self.engine {
            Engine::Baseline(c) => Some(c.capabilities()),
            _ => None,
        }
    }

    /// Compress `field` under `bound`. `Ok(None)` means the combination is
    /// unsupported (the compressor is simply absent from that figure, as
    /// in the paper); `Err` is a real failure.
    pub fn compress(&self, field: &Field, bound: ErrorBound) -> Result<Option<Vec<u8>>, String> {
        match (&self.engine, &field.data) {
            (Engine::Pfpl(mode), FieldData::F32(v)) => pfpl::compress(v, bound, *mode)
                .map(Some)
                .map_err(|e| e.to_string()),
            (Engine::Pfpl(mode), FieldData::F64(v)) => pfpl::compress(v, bound, *mode)
                .map(Some)
                .map_err(|e| e.to_string()),
            (Engine::PfplGpu(dev), FieldData::F32(v)) => {
                dev.compress(v, bound).map(Some).map_err(|e| e.to_string())
            }
            (Engine::PfplGpu(dev), FieldData::F64(v)) => {
                dev.compress(v, bound).map(Some).map_err(|e| e.to_string())
            }
            (Engine::Baseline(c), FieldData::F32(v)) => {
                match c.compress_f32(v, &field.dims, bound) {
                    Ok(a) => Ok(Some(a)),
                    Err(BaselineError::Unsupported(_)) => Ok(None),
                    Err(e) => Err(e.to_string()),
                }
            }
            (Engine::Baseline(c), FieldData::F64(v)) => {
                if !c.capabilities().double {
                    return Ok(None);
                }
                match c.compress_f64(v, &field.dims, bound) {
                    Ok(a) => Ok(Some(a)),
                    Err(BaselineError::Unsupported(_)) => Ok(None),
                    Err(e) => Err(e.to_string()),
                }
            }
        }
    }

    /// Decompress an archive produced by [`Participant::compress`] for a
    /// field of the same precision. Returns the values widened to f64 for
    /// metric computation.
    pub fn decompress(&self, archive: &[u8], double: bool) -> Result<Vec<f64>, String> {
        match (&self.engine, double) {
            (Engine::Pfpl(mode), false) => pfpl::decompress::<f32>(archive, *mode)
                .map(|v| v.into_iter().map(|x| x as f64).collect())
                .map_err(|e| e.to_string()),
            (Engine::Pfpl(mode), true) => {
                pfpl::decompress::<f64>(archive, *mode).map_err(|e| e.to_string())
            }
            (Engine::PfplGpu(dev), false) => dev
                .decompress::<f32>(archive)
                .map(|v| v.into_iter().map(|x| x as f64).collect())
                .map_err(|e| e.to_string()),
            (Engine::PfplGpu(dev), true) => {
                dev.decompress::<f64>(archive).map_err(|e| e.to_string())
            }
            (Engine::Baseline(c), false) => c
                .decompress_f32(archive)
                .map(|v| v.into_iter().map(|x| x as f64).collect())
                .map_err(|e| e.to_string()),
            (Engine::Baseline(c), true) => c.decompress_f64(archive).map_err(|e| e.to_string()),
        }
    }

    /// Run decompression for timing purposes (result discarded).
    pub fn decompress_timed(&self, archive: &[u8], double: bool) {
        match (&self.engine, double) {
            (Engine::Pfpl(mode), false) => {
                let _ = pfpl::decompress::<f32>(archive, *mode);
            }
            (Engine::Pfpl(mode), true) => {
                let _ = pfpl::decompress::<f64>(archive, *mode);
            }
            (Engine::PfplGpu(dev), false) => {
                let _ = dev.decompress::<f32>(archive);
            }
            (Engine::PfplGpu(dev), true) => {
                let _ = dev.decompress::<f64>(archive);
            }
            (Engine::Baseline(c), false) => {
                let _ = c.decompress_f32(archive);
            }
            (Engine::Baseline(c), true) => {
                let _ = c.decompress_f64(archive);
            }
        }
    }
}

/// The three PFPL implementations (always all shown, as in §IV).
pub fn pfpl_trio(system: u8) -> Vec<Participant> {
    vec![
        Participant::pfpl_serial(),
        Participant::pfpl_omp(),
        Participant::pfpl_gpu(system),
    ]
}
