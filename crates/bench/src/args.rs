//! Minimal command-line parsing shared by the harness binaries
//! (flag style: `--key value`).

use pfpl_data::SizeClass;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input scale (`--size tiny|small|large`, default small).
    pub size: SizeClass,
    /// `comp` or `decomp` throughput axis (`--op`, default comp).
    pub op: Op,
    /// Precision filter (`--precision single|double`, default single).
    pub double: bool,
    /// Timing repetitions (`--runs N`, default 3; the paper uses 9).
    pub runs: usize,
    /// Emit CSV instead of the pretty table (`--csv`).
    pub csv: bool,
    /// Simulated system for throughput labeling (`--system 1|2`).
    pub system: u8,
}

/// Which throughput direction a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compression throughput (Figs. 6, 8, 9, 12, 13).
    Compress,
    /// Decompression throughput (Figs. 7, 10, 11, 14, 15).
    Decompress,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            size: SizeClass::Small,
            op: Op::Compress,
            double: false,
            runs: 3,
            csv: false,
            system: 1,
        }
    }
}

impl Args {
    /// Parse `std::env::args()`; exits with usage on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--size" => {
                    args.size = match value("--size").as_str() {
                        "tiny" => SizeClass::Tiny,
                        "small" => SizeClass::Small,
                        "large" => SizeClass::Large,
                        other => {
                            eprintln!("unknown size {other}");
                            std::process::exit(2);
                        }
                    }
                }
                "--op" => {
                    args.op = match value("--op").as_str() {
                        "comp" => Op::Compress,
                        "decomp" => Op::Decompress,
                        other => {
                            eprintln!("unknown op {other}");
                            std::process::exit(2);
                        }
                    }
                }
                "--precision" => {
                    args.double = match value("--precision").as_str() {
                        "single" => false,
                        "double" => true,
                        other => {
                            eprintln!("unknown precision {other}");
                            std::process::exit(2);
                        }
                    }
                }
                "--runs" => {
                    args.runs = value("--runs").parse().unwrap_or_else(|_| {
                        eprintln!("bad --runs value");
                        std::process::exit(2);
                    })
                }
                "--csv" => args.csv = true,
                "--system" => {
                    args.system = value("--system").parse().unwrap_or(1);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --size tiny|small|large  --op comp|decomp  \
                         --precision single|double  --runs N  --csv  --system 1|2"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = Args::parse_from(Vec::new());
        assert_eq!(a.runs, 3);
        assert!(!a.double);
        assert_eq!(a.op, Op::Compress);
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse_from(
            [
                "--size",
                "tiny",
                "--op",
                "decomp",
                "--precision",
                "double",
                "--runs",
                "9",
                "--csv",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(a.size, SizeClass::Tiny);
        assert_eq!(a.op, Op::Decompress);
        assert!(a.double);
        assert_eq!(a.runs, 9);
        assert!(a.csv);
    }
}
