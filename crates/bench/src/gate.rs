//! The performance-regression gate behind `experiments gate` and
//! `scripts/verify.sh` step 7.
//!
//! Reads two or more `BENCH_*.json` documents (the format written by
//! [`crate::timing::write_json`]), pairs benchmarks by `group/name`, and
//! fails when the newest document's median regresses by more than the
//! allowed factor against the **best** (smallest) baseline median of any
//! older document. Comparing against the best baseline keeps the gate
//! monotone: a regression cannot be laundered by first committing a slow
//! baseline.
//!
//! Only the groups named in [`GateConfig::groups`] are gated — timing on
//! shared CI boxes is noisy, so the gate watches the algorithmic suites
//! (`convolution`, `rbf` by default) whose medians are stable, not the
//! thread-scaling suite whose numbers are machine-relative by design.

use std::collections::BTreeMap;

/// One parsed benchmark median, keyed `group/name`.
pub type Medians = BTreeMap<String, f64>;

/// Gate parameters: the allowed slow-down factor and the gated groups.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Newest median may be at most `factor ×` the best baseline median.
    pub factor: f64,
    /// Benchmark groups the gate applies to.
    pub groups: Vec<String>,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            factor: 1.5,
            groups: vec!["convolution".into(), "rbf".into()],
        }
    }
}

/// Extracts `group/name → median_ns` from a `srtw-bench-v1` document.
///
/// This is a purpose-built scanner, not a general JSON parser: it walks
/// the one shape [`crate::timing::to_json`] writes (an object with a
/// `"groups"` object of arrays of flat objects) and rejects anything
/// else with a message naming the offending position.
pub fn parse_medians(text: &str) -> Result<Medians, String> {
    let mut p = Scanner {
        b: text.as_bytes(),
        i: 0,
    };
    let mut out = Medians::new();
    p.skip_ws();
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        if key == "groups" {
            p.expect(b'{')?;
            loop {
                p.skip_ws();
                let group = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                p.expect(b'[')?;
                loop {
                    p.skip_ws();
                    let (name, median) = p.bench_entry()?;
                    out.insert(format!("{group}/{name}"), median);
                    p.skip_ws();
                    if !p.eat(b',') {
                        break;
                    }
                }
                p.skip_ws();
                p.expect(b']')?;
                p.skip_ws();
                if !p.eat(b',') {
                    break;
                }
            }
            p.skip_ws();
            p.expect(b'}')?;
        } else {
            p.skip_value()?;
        }
        p.skip_ws();
        if !p.eat(b',') {
            break;
        }
    }
    p.skip_ws();
    p.expect(b'}')?;
    Ok(out)
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl Scanner<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of the bench document",
                c as char, self.i
            ))
        }
    }

    /// A JSON string (the bench writer never emits escapes other than
    /// `\"` and `\\`, but all standard escapes are tolerated).
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.i += 1;
                    if self.i < self.b.len() {
                        s.push(self.b[self.i] as char);
                        self.i += 1;
                    }
                }
                c => {
                    s.push(c as char);
                    self.i += 1;
                }
            }
        }
        Err("unterminated string in the bench document".into())
    }

    /// One `{"name": …, "median_ns": …, …}` benchmark entry.
    fn bench_entry(&mut self) -> Result<(String, f64), String> {
        self.expect(b'{')?;
        let mut name: Option<String> = None;
        let mut median: Option<f64> = None;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "name" => name = Some(self.string()?),
                "median_ns" => median = Some(self.number()?),
                _ => self.skip_value()?,
            }
            self.skip_ws();
            if !self.eat(b',') {
                break;
            }
        }
        self.skip_ws();
        self.expect(b'}')?;
        match (name, median) {
            (Some(n), Some(m)) => Ok((n, m)),
            _ => Err("bench entry without name/median_ns".into()),
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start} of the bench document"))
    }

    /// Skips any JSON value (used for the fields the gate ignores).
    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => {
                self.i += 1;
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_value()?;
                    self.skip_ws();
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.skip_ws();
                self.expect(b'}')
            }
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    self.skip_ws();
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.skip_ws();
                self.expect(b']')
            }
            Some(_) => {
                // number / true / false / null
                while self.i < self.b.len()
                    && !matches!(self.b[self.i], b',' | b'}' | b']')
                    && !self.b[self.i].is_ascii_whitespace()
                {
                    self.i += 1;
                }
                Ok(())
            }
            None => Err("unexpected end of the bench document".into()),
        }
    }
}

/// Compares the newest medians against the element-wise **best** baseline
/// medians; returns one violation message per gated benchmark whose
/// median exceeds `factor ×` its best baseline. Benchmarks present on
/// only one side are skipped (suites are allowed to grow).
pub fn violations(newest: &Medians, baselines: &[Medians], cfg: &GateConfig) -> Vec<String> {
    let mut out = Vec::new();
    for (key, &new_ns) in newest {
        let group = key.split('/').next().unwrap_or("");
        if !cfg.groups.iter().any(|g| g == group) {
            continue;
        }
        let best = baselines
            .iter()
            .filter_map(|b| b.get(key))
            .copied()
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() && new_ns > best * cfg.factor {
            out.push(format!(
                "{key}: {new_ns:.0} ns vs best baseline {best:.0} ns ({:.2}x > {:.2}x allowed)",
                new_ns / best,
                cfg.factor
            ));
        }
    }
    out
}

/// Gated groups with **no baseline coverage**: no older document carries
/// a single benchmark of the group, so there is nothing to gate against.
/// The gate must skip these (a freshly added suite cannot fail its first
/// commit), but the skip has to be announced — silence reads as "checked
/// and fine" when nothing was checked.
pub fn fresh_groups(newest: &Medians, baselines: &[Medians], cfg: &GateConfig) -> Vec<String> {
    cfg.groups
        .iter()
        .filter(|g| {
            let prefix = format!("{g}/");
            let in_newest = newest.keys().any(|k| k.starts_with(&prefix));
            let in_baselines = baselines
                .iter()
                .any(|b| b.keys().any(|k| k.starts_with(&prefix)));
            in_newest && !in_baselines
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{to_json, Sample};

    fn sample(group: &'static str, name: &str, median: f64) -> Sample {
        Sample {
            group,
            name: name.into(),
            median_ns: median,
            min_ns: median * 0.9,
            max_ns: median * 1.1,
            samples: 3,
            iters: 10,
        }
    }

    #[test]
    fn parses_the_writer_format_roundtrip() {
        let doc = to_json(&[
            sample("convolution", "conv_upto/50", 1234.5),
            sample("rbf", "rbf_by_graph_size/5", 88.0),
            sample("parallel_structural", "conv_concave/fast/200", 9.0),
        ])
        .render();
        let m = parse_medians(&doc).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m["convolution/conv_upto/50"], 1234.5);
        assert_eq!(m["rbf/rbf_by_graph_size/5"], 88.0);
    }

    #[test]
    fn gate_fails_only_on_gated_group_regressions() {
        let old = parse_medians(
            &to_json(&[
                sample("convolution", "conv_upto/50", 100.0),
                sample("rbf", "rbf_by_horizon/100", 100.0),
                sample("parallel_structural", "conv_concave/fast/200", 100.0),
            ])
            .render(),
        )
        .unwrap();
        let new = parse_medians(
            &to_json(&[
                sample("convolution", "conv_upto/50", 140.0), // within 1.5x
                sample("rbf", "rbf_by_horizon/100", 200.0),   // regression
                sample("parallel_structural", "conv_concave/fast/200", 900.0), // ungated
                sample("rbf", "brand_new_case", 1e9),         // no baseline
            ])
            .render(),
        )
        .unwrap();
        let v = violations(&new, &[old], &GateConfig::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("rbf/rbf_by_horizon/100:"));
    }

    #[test]
    fn best_baseline_wins_across_documents() {
        let mk = |ns: f64| {
            parse_medians(&to_json(&[sample("rbf", "x", ns)]).render()).unwrap()
        };
        let new = mk(160.0);
        // 160 ≤ 1.5×120 against the slow document alone, but the best
        // baseline is 100 → violation.
        let v = violations(&new, &[mk(120.0), mk(100.0)], &GateConfig::default());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn fresh_suites_are_skipped_with_a_notice_not_an_error() {
        let old = parse_medians(&to_json(&[sample("rbf", "x", 100.0)]).render()).unwrap();
        let new = parse_medians(
            &to_json(&[
                sample("rbf", "x", 110.0),
                // A brand-new gated suite, absurdly slow: no baseline →
                // must not violate, must be reported as fresh.
                sample("server_throughput", "analyze_roundtrip", 1e12),
            ])
            .render(),
        )
        .unwrap();
        let cfg = GateConfig {
            factor: 1.5,
            groups: vec!["rbf".into(), "server_throughput".into()],
        };
        assert!(violations(&new, std::slice::from_ref(&old), &cfg).is_empty());
        assert_eq!(fresh_groups(&new, std::slice::from_ref(&old), &cfg), ["server_throughput"]);
        // Once any baseline carries the group, it is no longer fresh.
        assert!(fresh_groups(&new, &[old, new.clone()], &cfg).is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_medians("{").is_err());
        assert!(parse_medians("{\"groups\":{\"g\":[{\"name\":\"x\"}]}}").is_err());
    }
}
