//! Flag parsing for the `pfpl` binary (no external dependencies).

use pfpl::types::ErrorBound;
use std::collections::HashMap;

/// Usage text printed on invocation errors (runtime failures skip it).
pub const USAGE: &str = "\
usage:
  pfpl compress   -i <raw floats> -o <archive> --type f32|f64 --bound abs|rel|noa --eb <value> [--threads N]
  pfpl decompress -i <archive> -o <raw floats> [--threads N]
  pfpl info       -i <archive>
  pfpl verify     -a <archive> [-i <raw floats>] [--threads N]
  pfpl salvage    -i <archive> -o <raw floats> [--fill <value>] [--threads N]
  pfpl fuzz       [--seed N] [--iters M] [--mode decode|salvage]";

/// Parsed flag map.
pub struct Opts {
    flags: HashMap<String, String>,
}

impl Opts {
    /// Split `argv` into (command, options).
    pub fn parse(argv: &[String]) -> Result<(String, Opts), String> {
        let Some((cmd, rest)) = argv.split_first() else {
            return Err("missing command".into());
        };
        let mut flags = HashMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with('-') {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            flags.insert(flag.clone(), value.clone());
        }
        Ok((cmd.clone(), Opts { flags }))
    }

    /// Fetch a required flag value.
    pub fn require(&self, flag: &str) -> Result<&str, String> {
        self.get(flag)
            .ok_or_else(|| format!("missing required flag {flag}"))
    }

    /// Fetch an optional flag value.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Parse `--type`.
    pub fn is_double(&self) -> Result<bool, String> {
        match self.require("--type")? {
            "f32" => Ok(false),
            "f64" => Ok(true),
            other => Err(format!("unknown --type `{other}` (f32|f64)")),
        }
    }

    /// Parse `--bound` + `--eb` into an [`ErrorBound`].
    pub fn bound(&self) -> Result<ErrorBound, String> {
        let kind = self.require("--bound")?;
        let eb: f64 = self
            .require("--eb")?
            .parse()
            .map_err(|_| "bad --eb value".to_string())?;
        crate::make_bound(kind, eb)
    }

    /// Parse `--threads` (worker count for the parallel mode), if given.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        match self.flags.get("--threads") {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("bad --threads value `{v}` (positive integer)")),
            },
        }
    }

    /// Parse an optional u64 flag with a default (used by `fuzz`).
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{v}` (unsigned integer)")),
        }
    }

    /// Parse an optional f64 flag with a default (used by `salvage
    /// --fill`). Accepts anything `f64::from_str` does, including `nan`
    /// and `inf`.
    pub fn f64_or(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("bad {flag} value `{v}` (float)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_compress_invocation() {
        let (cmd, o) = Opts::parse(&sv(&[
            "compress",
            "-i",
            "in.f32",
            "-o",
            "out.pfpl",
            "--type",
            "f32",
            "--bound",
            "rel",
            "--eb",
            "1e-4",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert_eq!(cmd, "compress");
        assert_eq!(o.require("-i").unwrap(), "in.f32");
        assert!(!o.is_double().unwrap());
        assert!(matches!(o.bound().unwrap(), ErrorBound::Rel(v) if v == 1e-4));
        assert_eq!(o.threads().unwrap(), Some(1));
    }

    #[test]
    fn parses_threads_flag() {
        let (_, o) = Opts::parse(&sv(&["compress", "--threads", "4"])).unwrap();
        assert_eq!(o.threads().unwrap(), Some(4));
        let (_, o) = Opts::parse(&sv(&["compress", "--threads", "0"])).unwrap();
        assert!(o.threads().is_err());
        let (_, o) = Opts::parse(&sv(&["compress", "--threads", "four"])).unwrap();
        assert!(o.threads().is_err());
    }

    #[test]
    fn parses_fuzz_flags() {
        let (cmd, o) = Opts::parse(&sv(&["fuzz", "--seed", "7", "--iters", "100"])).unwrap();
        assert_eq!(cmd, "fuzz");
        assert_eq!(o.u64_or("--seed", 42).unwrap(), 7);
        assert_eq!(o.u64_or("--iters", 1000).unwrap(), 100);
        let (_, o) = Opts::parse(&sv(&["fuzz"])).unwrap();
        assert_eq!(o.u64_or("--seed", 42).unwrap(), 42);
        let (_, o) = Opts::parse(&sv(&["fuzz", "--seed", "-1"])).unwrap();
        assert!(o.u64_or("--seed", 42).is_err());
    }

    #[test]
    fn parses_salvage_fill_flag() {
        let (_, o) = Opts::parse(&sv(&["salvage", "--fill", "-1.5"])).unwrap();
        assert_eq!(o.f64_or("--fill", f64::NAN).unwrap(), -1.5);
        let (_, o) = Opts::parse(&sv(&["salvage"])).unwrap();
        assert!(o.f64_or("--fill", f64::NAN).unwrap().is_nan());
        let (_, o) = Opts::parse(&sv(&["salvage", "--fill", "nan"])).unwrap();
        assert!(o.f64_or("--fill", 0.0).unwrap().is_nan());
        let (_, o) = Opts::parse(&sv(&["salvage", "--fill", "wide"])).unwrap();
        assert!(o.f64_or("--fill", 0.0).is_err());
        assert_eq!(o.get("--fill"), Some("wide"));
        assert_eq!(o.get("--nope"), None);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Opts::parse(&sv(&[])).is_err());
        assert!(Opts::parse(&sv(&["compress", "stray"])).is_err());
        assert!(Opts::parse(&sv(&["compress", "-i"])).is_err());
        let (_, o) = Opts::parse(&sv(&["compress", "--bound", "nope", "--eb", "1"])).unwrap();
        assert!(o.bound().is_err());
        assert!(o.require("-i").is_err());
    }
}
