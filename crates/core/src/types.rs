//! Public configuration types: error-bound selection, precision, execution mode.

/// The three point-wise error-bound types supported by PFPL (paper §II).
///
/// The inner value is the user-requested bound `eb`. For data of precision
/// `F`, the bound is rounded *toward zero* into `F` before use, so the
/// guarantee always holds with respect to the exact `f64` value supplied
/// here, not a possibly-larger rounding of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Point-wise absolute error: `|v - v'| <= eb` for every value.
    Abs(f64),
    /// Point-wise relative error: `|v - v'| <= eb * |v|`, and `v'` has the
    /// sign of `v`. (Strictly stronger than the `|v|/(1+eb) <= |v'| <=
    /// |v|*(1+eb)` formulation in the paper.)
    Rel(f64),
    /// Point-wise normalized absolute error: ABS with the bound multiplied by
    /// the value range `max - min` of the finite values in the input.
    Noa(f64),
}

impl ErrorBound {
    /// The bound type without its value.
    pub fn kind(&self) -> BoundKind {
        match self {
            ErrorBound::Abs(_) => BoundKind::Abs,
            ErrorBound::Rel(_) => BoundKind::Rel,
            ErrorBound::Noa(_) => BoundKind::Noa,
        }
    }

    /// The user-requested bound value.
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Abs(v) | ErrorBound::Rel(v) | ErrorBound::Noa(v) => v,
        }
    }
}

/// Error-bound type tag (used in archive headers and capability tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// Point-wise absolute.
    Abs,
    /// Point-wise relative.
    Rel,
    /// Point-wise normalized absolute.
    Noa,
}

impl BoundKind {
    /// Stable numeric tag used in the archive header.
    pub fn tag(self) -> u8 {
        match self {
            BoundKind::Abs => 0,
            BoundKind::Rel => 1,
            BoundKind::Noa => 2,
        }
    }

    /// Inverse of [`BoundKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(BoundKind::Abs),
            1 => Some(BoundKind::Rel),
            2 => Some(BoundKind::Noa),
            _ => None,
        }
    }

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            BoundKind::Abs => "ABS",
            BoundKind::Rel => "REL",
            BoundKind::Noa => "NOA",
        }
    }
}

/// Floating-point precision of the data in an archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit IEEE 754 binary32.
    Single,
    /// 64-bit IEEE 754 binary64.
    Double,
}

impl Precision {
    /// Stable numeric tag used in the archive header.
    pub fn tag(self) -> u8 {
        match self {
            Precision::Single => 0,
            Precision::Double => 1,
        }
    }

    /// Inverse of [`Precision::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Precision::Single),
            1 => Some(Precision::Double),
            _ => None,
        }
    }

    /// Size of one value of this precision in bytes.
    pub fn word_bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }
}

/// Execution policy: the PFPL_Serial / PFPL_OMP analogues of the paper.
///
/// As in the paper (§III-E), both modes run the same loop over independent
/// chunks and differ only in how many threads run it, so they produce
/// **bit-for-bit identical** archives; only wall-clock time differs. (The
/// simulated-GPU backend in `pfpl-device-sim` is the third compatible
/// implementation.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The chunk loop at one thread: it runs inline on the caller, in
    /// chunk order, with one reused scratch set, and never wakes the pool.
    Serial,
    /// The chunk loop on [`rayon::current_num_threads`] threads of the
    /// persistent pool, which claim chunk indices in ascending order
    /// (PFPL_OMP analogue). At one thread it is the `Serial` loop.
    #[default]
    Parallel,
}

impl Mode {
    /// The number of threads that run the chunk loop.
    pub(crate) fn threads(self) -> usize {
        match self {
            Mode::Serial => 1,
            Mode::Parallel => rayon::current_num_threads(),
        }
    }
}
