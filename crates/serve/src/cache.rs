//! Per-worker session memoisation over the process-wide kernel caches.
//!
//! A [`Session`] owns the full-clip inspection system,
//! which keeps per-instance FFT scratch and therefore cannot be shared
//! across threads. Each job worker instead owns a `SessionCache`: the
//! first job at a given scale builds that worker's session, every later
//! job at the same scale reuses it. The genuinely expensive state is still
//! deduplicated *globally* underneath — SOCS kernel banks by
//! [`ilt_litho::shared_bank`] (keyed on the optical and resist
//! parameters) and FFT plans by `ilt_fft::shared_plan` (keyed on
//! length) — so even a cold session on worker 2 reuses the bank worker 1
//! built, and only the cheap per-thread scratch is duplicated.
//!
//! Hits and misses are counted as `serve.session_cache.hit` /
//! `serve.session_cache.miss`; the bank-level signal the loopback test
//! asserts on is `litho.bank_cache.hit`.

use std::collections::HashMap;

use ilt_core::{CoreError, ExperimentConfig, Session};

/// The experiment configuration a scale name denotes — the same mapping
/// `ILT_SCALE` uses for the batch binaries.
///
/// Returns `None` for unknown scale names (the job parser rejects them
/// first; this keeps the mapping total and honest).
pub fn config_for_scale(scale: &str) -> Option<ExperimentConfig> {
    match scale {
        "tiny" => Some(ExperimentConfig::test_tiny()),
        "default" => Some(ExperimentConfig::paper_default()),
        _ => None,
    }
}

/// Session memoisation key: the scale plus the per-job `s_max` override,
/// the only job field that changes the session's `ExperimentConfig`. Two
/// jobs share a session exactly when they resolve to the same configuration.
type SessionKey = (String, Option<usize>);

/// Config-keyed session memoisation for one worker thread.
#[derive(Default)]
pub struct SessionCache {
    sessions: HashMap<SessionKey, Session>,
}

impl SessionCache {
    /// An empty cache.
    pub fn new() -> Self {
        SessionCache::default()
    }

    /// Number of sessions this worker holds.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session for a scale with the scale's default hierarchy depth,
    /// building it on first use.
    ///
    /// # Errors
    ///
    /// [`CoreError::Litho`] if kernel or system construction fails;
    /// failures are not cached, so a later retry rebuilds.
    ///
    /// # Panics
    ///
    /// Panics on unknown scale names — callers must validate scales at
    /// admission (the job parser does).
    pub fn session(&mut self, scale: &str) -> Result<&Session, CoreError> {
        self.session_with(scale, None)
    }

    /// The session for a scale with an optional `s_max` override applied on
    /// top of the scale's defaults. Sessions are keyed by the override, so
    /// jobs with different hierarchy depths never share (their config
    /// fingerprints differ and the mask store keys with them), while repeat
    /// jobs at the same override reuse.
    ///
    /// # Errors
    ///
    /// [`CoreError::Litho`] if kernel or system construction fails;
    /// failures are not cached, so a later retry rebuilds.
    ///
    /// # Panics
    ///
    /// Panics on unknown scale names or override combinations the job
    /// parser should have rejected (e.g. an `s_max` whose coarsest level
    /// does not fit the clip) — callers must validate at admission.
    pub fn session_with(
        &mut self,
        scale: &str,
        s_max: Option<usize>,
    ) -> Result<&Session, CoreError> {
        let key: SessionKey = (scale.to_string(), s_max);
        if !self.sessions.contains_key(&key) {
            ilt_telemetry::counter_add("serve.session_cache.miss", 1);
            let mut config = config_for_scale(scale)
                .unwrap_or_else(|| panic!("unvalidated scale {scale:?} reached the cache"));
            if let Some(s) = s_max {
                config.s_max = s;
            }
            let session = Session::new(config)?;
            self.sessions.insert(key.clone(), session);
            ilt_telemetry::gauge_add("serve.session_cache.entries", 1.0);
        } else {
            ilt_telemetry::counter_add("serve.session_cache.hit", 1);
        }
        Ok(&self.sessions[&key])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_mapping_is_total_over_valid_names() {
        assert!(config_for_scale("tiny").is_some());
        assert!(config_for_scale("default").is_some());
        assert!(config_for_scale("huge").is_none());
    }

    #[test]
    fn second_lookup_reuses_the_session() {
        let mut cache = SessionCache::new();
        assert!(cache.is_empty());
        let first = cache.session("tiny").unwrap().inspection() as *const _;
        let second = cache.session("tiny").unwrap().inspection() as *const _;
        assert_eq!(first, second, "same scale must reuse the same session");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn overrides_get_their_own_sessions() {
        let mut cache = SessionCache::new();
        let default = cache.session("tiny").unwrap().config().clone();
        assert_eq!(default.s_max, 2);
        let flat = cache
            .session_with("tiny", Some(1))
            .unwrap()
            .config()
            .clone();
        assert_eq!(flat.s_max, 1);
        assert_eq!(cache.len(), 2, "distinct overrides must not share");
        // Same override reuses the existing session.
        cache.session_with("tiny", Some(1)).unwrap();
        assert_eq!(cache.len(), 2);
        // A different hierarchy solves different masks: the store must not
        // serve one to the other.
        assert_ne!(default.fingerprint(), flat.fingerprint());
    }

    #[test]
    #[should_panic(expected = "unvalidated scale")]
    fn unknown_scale_panics() {
        let _ = SessionCache::new().session("huge");
    }
}
