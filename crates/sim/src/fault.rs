//! Deterministic, scriptable fault injection for the store/driver/serve
//! stack.
//!
//! A [`FaultPlan`] is a seeded script of failures to inject at named
//! *sites* — instrumentation points threaded through [`crate::store`],
//! [`crate::driver`] and the `elsq-serve` daemon. Each [`FaultSpec`] arms
//! one fault: "the `at`-th time site S is reached, perform action A".
//! Sites count their hits deterministically (they are reached on the
//! orchestrating thread, in plan order), so a given plan reproduces the
//! same failure on every run — chaos tests are ordinary deterministic
//! tests.
//!
//! The plan comes from the `FAULT_PLAN` environment variable (a file path,
//! or inline JSON when the value starts with `{`) or the `--fault-plan
//! FILE` CLI flag, and is installed process-globally with
//! [`install_fault_plan`] (restore-on-drop guard). When no plan is installed every hook is a
//! single relaxed atomic load — the no-fault path is a behavioral no-op,
//! which the byte-identity tests pin.
//!
//! # Sites and their allowed actions
//!
//! | site | where | actions |
//! |---|---|---|
//! | `store.point.write` | point-file write in [`crate::store::ResultStore::insert`] | `Torn`, `Lost`, `Enospc`, `BitFlip` |
//! | `store.manifest.write` | manifest rewrite after a point insert | `Torn`, `Lost`, `Enospc`, `BitFlip` |
//! | `store.point.read` | point-file read in [`crate::store::ResultStore::lookup`] | `ShortRead`, `BitFlip` |
//! | `job.record.write` | serve job-journal record write | `Torn`, `Lost`, `Enospc`, `BitFlip` |
//! | `point.sim` | one fresh (cache-miss) plan point, counted in plan order | `Panic`, `Stall` |
//! | `serve.event` | one event write on a serve client connection | `Drop`, `Stall` |
//!
//! `docs/ROBUSTNESS.md` documents the plan format and the failure
//! taxonomy end to end.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use serde::{Deserialize, Serialize};

/// Environment variable consulted by the CLI entry points when no
/// `--fault-plan` flag is given: a path to a plan file, or an inline JSON
/// plan when the value starts with `{`.
pub const ENV_VAR: &str = "FAULT_PLAN";

/// Prefix of panic payloads raised by injected faults; [`split_panic_site`]
/// recovers the site name from such a payload.
pub const PANIC_PREFIX: &str = "fault[";

/// What to do when an armed fault fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Panic with this message (wrapped in a `fault[site]` marker so the
    /// failure outcome can name the site).
    Panic {
        /// The panic message.
        msg: String,
    },
    /// Torn write: a strict prefix of the bytes lands in the final file
    /// (no atomic rename), simulating a crash mid-write. The write call
    /// reports an error.
    Torn,
    /// Lost write: the write is silently skipped, simulating a crash
    /// after the caller's previous write but before this one (the classic
    /// point-written / manifest-lost window that orphan adoption covers).
    Lost,
    /// The write fails with an ENOSPC-style error; nothing lands on disk.
    Enospc,
    /// One seed-chosen bit of the payload is flipped before it is written
    /// (or after it is read, for read sites). The operation itself
    /// "succeeds" — the corruption must be caught by checksums.
    BitFlip,
    /// Read returns a seed-chosen strict prefix of the file.
    ShortRead,
    /// Serve connection: close the socket abruptly, mid-stream.
    Drop,
    /// Sleep this many milliseconds before proceeding normally (wedged
    /// worker / stalled connection).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

impl FaultAction {
    fn kind(&self) -> &'static str {
        match self {
            FaultAction::Panic { .. } => "Panic",
            FaultAction::Torn => "Torn",
            FaultAction::Lost => "Lost",
            FaultAction::Enospc => "Enospc",
            FaultAction::BitFlip => "BitFlip",
            FaultAction::ShortRead => "ShortRead",
            FaultAction::Drop => "Drop",
            FaultAction::Stall { .. } => "Stall",
        }
    }
}

/// One armed fault: the `at`-th hit of `site` performs `action`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Site name (see the module table).
    pub site: String,
    /// 1-based hit count at which the fault fires (each spec fires at most
    /// once).
    pub at: u64,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// A full fault plan: a seed (drives the bit/offset choices of `BitFlip`,
/// `Torn` and `ShortRead`, so corruption is reproducible) plus the armed
/// faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the deterministic corruption choices.
    pub seed: u64,
    /// The armed faults.
    pub faults: Vec<FaultSpec>,
}

/// Every known site with its allowed action kinds — the validation table.
pub const SITES: &[(&str, &[&str])] = &[
    ("store.point.write", &["Torn", "Lost", "Enospc", "BitFlip"]),
    (
        "store.manifest.write",
        &["Torn", "Lost", "Enospc", "BitFlip"],
    ),
    ("store.point.read", &["ShortRead", "BitFlip"]),
    ("job.record.write", &["Torn", "Lost", "Enospc", "BitFlip"]),
    ("point.sim", &["Panic", "Stall"]),
    ("serve.event", &["Drop", "Stall"]),
];

impl FaultPlan {
    /// Parses and validates a plan from its JSON text.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let plan: FaultPlan = serde_json::from_str(text)
            .map_err(|e| format!("malformed fault plan: {e} (payload {:?})", text.trim()))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Reads and parses a plan file.
    pub fn load(path: &Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan {}: {e}", path.display()))?;
        FaultPlan::parse(&text).map_err(|e| format!("fault plan {}: {e}", path.display()))
    }

    /// Reads the plan named by the `FAULT_PLAN` environment variable:
    /// inline JSON when the value starts with `{`, a file path otherwise.
    /// `Ok(None)` when the variable is unset or empty.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var(ENV_VAR) {
            Ok(value) if !value.trim().is_empty() => {
                let value = value.trim().to_string();
                let plan = if value.starts_with('{') {
                    FaultPlan::parse(&value)?
                } else {
                    FaultPlan::load(Path::new(&value))?
                };
                Ok(Some(plan))
            }
            _ => Ok(None),
        }
    }

    /// Checks every spec against the site table: unknown sites,
    /// site-incompatible actions and `at == 0` are loud errors.
    pub fn validate(&self) -> Result<(), String> {
        for spec in &self.faults {
            let allowed = SITES
                .iter()
                .find(|(site, _)| *site == spec.site)
                .map(|(_, actions)| *actions)
                .ok_or_else(|| {
                    let known: Vec<&str> = SITES.iter().map(|(s, _)| *s).collect();
                    format!(
                        "unknown fault site {:?} (known sites: {})",
                        spec.site,
                        known.join(", ")
                    )
                })?;
            if !allowed.contains(&spec.action.kind()) {
                return Err(format!(
                    "fault action {} is not valid at site {:?} (allowed: {})",
                    spec.action.kind(),
                    spec.site,
                    allowed.join(", ")
                ));
            }
            if spec.at == 0 {
                return Err(format!(
                    "fault at site {:?} has at=0; hit counts are 1-based",
                    spec.site
                ));
            }
        }
        Ok(())
    }
}

/// A fault that just fired at a site: the action plus the plan seed that
/// parameterizes its corruption choices.
#[derive(Debug, Clone, PartialEq)]
pub struct Injected {
    /// The action to perform.
    pub action: FaultAction,
    /// The plan seed.
    pub seed: u64,
}

struct Armed {
    plan: FaultPlan,
    counters: Mutex<std::collections::HashMap<String, u64>>,
}

fn slot() -> &'static RwLock<Option<Arc<Armed>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Armed>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Fast-path flag mirroring `slot().is_some()`, so disabled hooks cost one
/// relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Returns `true` when a fault plan is installed. The cheap gate every
/// hook checks first.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Guard returned by [`install_fault_plan`]; dropping it restores the
/// previously installed plan (usually none).
pub struct FaultPlanGuard {
    previous: Option<Arc<Armed>>,
}

impl Drop for FaultPlanGuard {
    fn drop(&mut self) {
        let mut slot = slot().write().expect("fault slot poisoned");
        ACTIVE.store(self.previous.is_some(), Ordering::Relaxed);
        *slot = self.previous.take();
    }
}

/// Validates and installs `plan` as the process-global fault plan until
/// the returned guard drops. Hit counters start at zero on each install.
pub fn install_fault_plan(plan: FaultPlan) -> Result<FaultPlanGuard, String> {
    plan.validate()?;
    let armed = Arc::new(Armed {
        plan,
        counters: Mutex::new(std::collections::HashMap::new()),
    });
    let mut slot = slot().write().expect("fault slot poisoned");
    let previous = slot.replace(armed);
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(FaultPlanGuard { previous })
}

/// Records one hit of `site` and returns the armed fault for exactly that
/// hit, if any. Always `None` when no plan is installed (and then the
/// counter is not advanced — disabled runs stay stateless).
pub fn fire(site: &str) -> Option<Injected> {
    if !enabled() {
        return None;
    }
    let armed = slot().read().expect("fault slot poisoned").clone()?;
    let hit = {
        let mut counters = armed.counters.lock().expect("fault counters poisoned");
        let n = counters.entry(site.to_string()).or_insert(0);
        *n += 1;
        *n
    };
    armed
        .plan
        .faults
        .iter()
        .find(|f| f.site == site && f.at == hit)
        .map(|f| Injected {
            action: f.action.clone(),
            seed: armed.plan.seed,
        })
}

/// Formats the panic payload for an injected [`FaultAction::Panic`] so the
/// site survives into the caught failure: `fault[site] msg`.
pub fn panic_payload(site: &str, msg: &str) -> String {
    format!("{PANIC_PREFIX}{site}] {msg}")
}

/// Splits a panic payload produced by [`panic_payload`] back into
/// `(site, msg)`; `None` for ordinary (non-injected) panics.
pub fn split_panic_site(payload: &str) -> Option<(&str, &str)> {
    let rest = payload.strip_prefix(PANIC_PREFIX)?;
    let (site, msg) = rest.split_once("] ")?;
    Some((site, msg))
}

/// Flips one seed-chosen bit of `bytes` in place (no-op on empty input).
pub fn flip_bit(bytes: &mut [u8], seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let bit = seed % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
}

/// Returns the seed-chosen strict-prefix length for a torn write or short
/// read of `len` bytes: between 1/8 and 7/8 of the payload, always shorter
/// than `len` (0 for empty payloads).
pub fn torn_len(len: usize, seed: u64) -> usize {
    if len == 0 {
        return 0;
    }
    let num = (seed % 7) + 1;
    (len * num as usize / 8).min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(faults: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { seed: 42, faults }
    }

    fn spec(site: &str, at: u64, action: FaultAction) -> FaultSpec {
        FaultSpec {
            site: site.into(),
            at,
            action,
        }
    }

    /// The fault slot is process-global state shared by every test in this
    /// binary; serialize the tests that install plans.
    fn slot_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = plan(vec![
            spec("point.sim", 2, FaultAction::Panic { msg: "boom".into() }),
            spec("store.point.write", 1, FaultAction::Torn),
            spec("serve.event", 3, FaultAction::Stall { ms: 50 }),
        ]);
        let text = serde_json::to_string(&p).unwrap();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn validation_rejects_unknown_sites_and_wrong_actions() {
        let bad_site = plan(vec![spec("store.nope", 1, FaultAction::Torn)]);
        let err = bad_site.validate().unwrap_err();
        assert!(err.contains("unknown fault site"), "{err}");
        assert!(err.contains("store.point.write"), "{err}");

        let bad_action = plan(vec![spec("point.sim", 1, FaultAction::Torn)]);
        let err = bad_action.validate().unwrap_err();
        assert!(err.contains("not valid at site"), "{err}");

        let zero = plan(vec![spec(
            "point.sim",
            0,
            FaultAction::Panic { msg: "x".into() },
        )]);
        let err = zero.validate().unwrap_err();
        assert!(err.contains("1-based"), "{err}");
    }

    // NOTE: these tests arm only the serve-side sites (`serve.event`,
    // `job.record.write`) — nothing in this crate's other unit tests
    // reaches those, so a concurrently running store test can never
    // consume or trigger a fault armed here.
    #[test]
    fn fire_counts_hits_per_site_and_fires_exactly_once() {
        let _serial = slot_lock();
        let _guard = install_fault_plan(plan(vec![
            spec("serve.event", 2, FaultAction::Stall { ms: 0 }),
            spec("job.record.write", 1, FaultAction::Lost),
        ]))
        .unwrap();
        assert!(fire("serve.event").is_none(), "hit 1 is not armed");
        let second = fire("serve.event").expect("hit 2 is armed");
        assert_eq!(second.action, FaultAction::Stall { ms: 0 });
        assert_eq!(second.seed, 42);
        assert!(fire("serve.event").is_none(), "a spec fires at most once");
        // Sites count independently.
        assert!(fire("job.record.write").is_some());
        assert!(fire("job.record.write").is_none());
    }

    #[test]
    fn disabled_hooks_fire_nothing() {
        let _serial = slot_lock();
        assert!(!enabled());
        assert!(fire("serve.event").is_none());
    }

    #[test]
    fn guard_restores_the_previous_plan() {
        let _serial = slot_lock();
        let outer =
            install_fault_plan(plan(vec![spec("serve.event", 1, FaultAction::Drop)])).unwrap();
        {
            let _inner = install_fault_plan(plan(vec![spec(
                "serve.event",
                1,
                FaultAction::Stall { ms: 1 },
            )]))
            .unwrap();
            assert_eq!(
                fire("serve.event").unwrap().action,
                FaultAction::Stall { ms: 1 }
            );
        }
        // Back to the outer plan, with its own (still fresh) counters.
        assert_eq!(fire("serve.event").unwrap().action, FaultAction::Drop);
        drop(outer);
        assert!(!enabled());
    }

    #[test]
    fn panic_payloads_round_trip_the_site() {
        let payload = panic_payload("point.sim", "injected chaos");
        assert_eq!(
            split_panic_site(&payload),
            Some(("point.sim", "injected chaos"))
        );
        assert_eq!(split_panic_site("ordinary panic"), None);
    }

    #[test]
    fn corruption_helpers_are_deterministic_and_in_range() {
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        flip_bit(&mut a, 99);
        flip_bit(&mut b, 99);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|x| x.count_ones()).sum::<u32>(), 1);

        for seed in 0..16 {
            for len in [1usize, 2, 7, 4096] {
                let torn = torn_len(len, seed);
                assert!(torn < len, "torn_len must be a strict prefix");
            }
        }
        assert_eq!(torn_len(0, 3), 0);
    }

    #[test]
    fn env_parsing_accepts_inline_json_and_files() {
        let p = plan(vec![spec("serve.event", 1, FaultAction::Drop)]);
        let text = serde_json::to_string(&p).unwrap();
        assert_eq!(FaultPlan::parse(&text).unwrap(), p);

        let dir = std::env::temp_dir().join(format!("elsq-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(FaultPlan::load(&path).unwrap(), p);
        let err = FaultPlan::load(&dir.join("missing.json")).unwrap_err();
        assert!(err.contains("cannot read fault plan"), "{err}");
        std::fs::remove_dir_all(&dir).ok();

        let err = FaultPlan::parse("{nope").unwrap_err();
        assert!(err.contains("malformed fault plan"), "{err}");
    }
}
