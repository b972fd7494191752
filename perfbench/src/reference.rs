//! Pinned reference outputs for the default seed.
//!
//! `reference.tsv` holds one line per (workload, trial or point):
//! `workload <TAB> key <TAB> field=value <TAB> ...`, where every value is
//! written with Rust's shortest round-trip float formatting, so string
//! equality is bit equality. A speed-only change leaves every line intact;
//! a change to what is simulated shows up as failed trials.
//! Regenerate with `--pin` (see README.md).

use std::collections::BTreeMap;

use staleload_core::RunResult;

/// The reference file, embedded at build time.
const REFERENCE: &str = include_str!("../reference.tsv");

pub struct Reference {
    entries: BTreeMap<(String, String), String>,
}

impl Reference {
    pub fn load() -> Reference {
        let entries = REFERENCE
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.splitn(3, '\t');
                let workload = parts.next()?.to_string();
                let key = parts.next()?.to_string();
                let fields = parts.next()?.to_string();
                Some(((workload, key), fields))
            })
            .collect();
        Reference { entries }
    }

    /// Checks `fields` against the pinned line for `(workload, key)`; a
    /// key with nothing pinned passes.
    pub fn check(&self, workload: &str, key: &str, fields: &str) -> Result<(), String> {
        match self.entries.get(&(workload.to_string(), key.to_string())) {
            Some(pinned) if pinned != fields => Err(format!(
                "{workload} {key}: simulated outputs changed\n  pinned: {pinned}\n  now:    {fields}"
            )),
            _ => Ok(()),
        }
    }
}

/// The reference line for one single-run trial.
pub fn trial_fields(r: &RunResult) -> String {
    format!(
        "mean={:?}\tp99={:?}\tend_time={:?}\tgenerated={}",
        r.mean_response,
        r.detail.response_sketch.quantile(0.99),
        r.end_time,
        r.generated
    )
}
