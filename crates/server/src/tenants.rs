//! Per-tenant admission control: in-flight quotas and token-bucket rate
//! limits keyed on the `X-Cicero-Tenant` header.
//!
//! This layers *fairness* on top of the existing capacity admission
//! (bounded dispatch queue + connection cap): the global limits protect
//! the server, these protect tenants from each other. A denied request
//! is a `429` whose `Retry-After` comes from the same p50-scaled clamp
//! helper as every other backpressure answer
//! (`retry_after_secs` in the crate root) — one function, every path.
//!
//! The token bucket is the classic shape: each tenant accrues
//! `rate_per_sec` tokens up to `burst`; a request spends one token or is
//! rate-limited. Refill is computed lazily from elapsed time at each
//! admission, so there is no background thread. The quota is a plain
//! in-flight counter released by the RAII [`TenantPermit`].
//!
//! Requests with no tenant header share the `"default"` tenant, so
//! enabling the governor covers anonymous traffic too. Tracked tenants
//! are bounded ([`MAX_TRACKED_TENANTS`]); past the cap, new tenant names
//! share one overflow bucket rather than growing the map unboundedly.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cicero_telemetry::Telemetry;

/// The tenant label applied when the request carries no
/// `X-Cicero-Tenant` header.
pub const DEFAULT_TENANT: &str = "default";

/// Bound on distinct tenant buckets; later tenants share `"overflow"`.
pub const MAX_TRACKED_TENANTS: usize = 1024;

/// Per-tenant limits. A field at `0` disables that check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Maximum concurrently admitted requests per tenant (`0` = no
    /// quota).
    pub max_in_flight: usize,
    /// Steady-state admissions per second per tenant (`0.0` = no rate
    /// limit).
    pub rate_per_sec: f64,
    /// Token-bucket capacity: how large a burst a freshly idle tenant
    /// may send. Clamped to at least 1 when rate limiting is on.
    pub burst: f64,
}

impl TenantPolicy {
    /// A policy with both checks disabled (every request admitted).
    pub fn unlimited() -> TenantPolicy {
        TenantPolicy { max_in_flight: 0, rate_per_sec: 0.0, burst: 0.0 }
    }

    /// Whether any check is active.
    pub fn is_active(&self) -> bool {
        self.max_in_flight > 0 || self.rate_per_sec > 0.0
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantDenial {
    /// The token bucket is empty: the tenant exceeded its sustained
    /// rate.
    RateLimited,
    /// The tenant is at its in-flight quota.
    QuotaExceeded,
}

impl TenantDenial {
    /// The stable wire label used in error bodies and metrics.
    pub fn label(self) -> &'static str {
        match self {
            TenantDenial::RateLimited => "rate_limited",
            TenantDenial::QuotaExceeded => "quota_exceeded",
        }
    }
}

struct Bucket {
    tokens: f64,
    refilled_at: Instant,
    in_flight: usize,
}

struct Inner {
    policy: TenantPolicy,
    buckets: Mutex<HashMap<String, Bucket>>,
    telemetry: Telemetry,
}

/// The per-tenant admission governor. Clone-cheap (`Arc` inside).
#[derive(Clone)]
pub struct TenantGovernor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for TenantGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantGovernor").field("policy", &self.inner.policy).finish()
    }
}

/// An admitted request's hold on its tenant's quota slot; released on
/// drop.
pub struct TenantPermit {
    inner: Arc<Inner>,
    tenant: String,
}

impl std::fmt::Debug for TenantPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantPermit").field("tenant", &self.tenant).finish()
    }
}

impl Drop for TenantPermit {
    fn drop(&mut self) {
        let mut buckets = self.inner.buckets.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(bucket) = buckets.get_mut(&self.tenant) {
            bucket.in_flight = bucket.in_flight.saturating_sub(1);
        }
    }
}

impl TenantGovernor {
    /// Build a governor; an inactive policy admits everything without
    /// touching the map.
    pub fn new(policy: TenantPolicy, telemetry: Telemetry) -> TenantGovernor {
        TenantGovernor {
            inner: Arc::new(Inner { policy, buckets: Mutex::new(HashMap::new()), telemetry }),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> TenantPolicy {
        self.inner.policy
    }

    /// Admit one request for `tenant` now.
    ///
    /// # Errors
    ///
    /// The denial reason; the caller turns it into a `429`.
    pub fn admit(&self, tenant: &str) -> Result<TenantPermit, TenantDenial> {
        self.admit_at(tenant, Instant::now())
    }

    /// [`TenantGovernor::admit`] with an explicit clock, so tests can
    /// drive refill deterministically.
    ///
    /// # Errors
    ///
    /// The denial reason; the caller turns it into a `429`.
    pub fn admit_at(&self, tenant: &str, now: Instant) -> Result<TenantPermit, TenantDenial> {
        let policy = self.inner.policy;
        let tenant = normalize_tenant(tenant);
        if !policy.is_active() {
            // No accounting at all: the permit's drop is a no-op lookup.
            return Ok(TenantPermit { inner: Arc::clone(&self.inner), tenant });
        }
        let mut buckets = self.inner.buckets.lock().unwrap_or_else(|p| p.into_inner());
        let key = if buckets.len() >= MAX_TRACKED_TENANTS && !buckets.contains_key(&tenant) {
            "overflow".to_owned()
        } else {
            tenant
        };
        let burst = if policy.rate_per_sec > 0.0 { policy.burst.max(1.0) } else { 0.0 };
        let bucket = buckets.entry(key.clone()).or_insert(Bucket {
            tokens: burst,
            refilled_at: now,
            in_flight: 0,
        });
        if policy.rate_per_sec > 0.0 {
            let elapsed = now.saturating_duration_since(bucket.refilled_at).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * policy.rate_per_sec).min(burst);
            bucket.refilled_at = now;
            if bucket.tokens < 1.0 {
                self.note_denial(&key, TenantDenial::RateLimited);
                return Err(TenantDenial::RateLimited);
            }
        }
        if policy.max_in_flight > 0 && bucket.in_flight >= policy.max_in_flight {
            self.note_denial(&key, TenantDenial::QuotaExceeded);
            return Err(TenantDenial::QuotaExceeded);
        }
        if policy.rate_per_sec > 0.0 {
            bucket.tokens -= 1.0;
        }
        bucket.in_flight += 1;
        drop(buckets);
        self.inner.telemetry.counter_add(&format!("server.tenant.{key}.requests"), 1);
        Ok(TenantPermit { inner: Arc::clone(&self.inner), tenant: key })
    }

    fn note_denial(&self, tenant: &str, denial: TenantDenial) {
        self.inner.telemetry.counter_add("server.tenant_rejections", 1);
        self.inner.telemetry.counter_add(&format!("server.tenant.{tenant}.{}", denial.label()), 1);
    }
}

/// Tenant names feed metric names, so the alphabet is conservative:
/// anything else (or an over-long name) folds to `"other"`.
fn normalize_tenant(tenant: &str) -> String {
    let ok = !tenant.is_empty()
        && tenant.len() <= 64
        && tenant.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'));
    if ok {
        tenant.to_owned()
    } else if tenant.is_empty() {
        DEFAULT_TENANT.to_owned()
    } else {
        "other".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inactive_policy_admits_everything() {
        let governor = TenantGovernor::new(TenantPolicy::unlimited(), Telemetry::new());
        for _ in 0..100 {
            let permit = governor.admit("t").unwrap();
            drop(permit);
        }
    }

    #[test]
    fn quota_caps_in_flight_and_releases_on_drop() {
        let policy = TenantPolicy { max_in_flight: 2, rate_per_sec: 0.0, burst: 0.0 };
        let telemetry = Telemetry::new();
        let governor = TenantGovernor::new(policy, telemetry.clone());
        let a = governor.admit("acme").unwrap();
        let _b = governor.admit("acme").unwrap();
        assert_eq!(governor.admit("acme").unwrap_err(), TenantDenial::QuotaExceeded);
        // Another tenant is unaffected.
        let _c = governor.admit("globex").unwrap();
        // Releasing one slot re-admits.
        drop(a);
        let _d = governor.admit("acme").unwrap();
        assert_eq!(telemetry.counter("server.tenant.acme.quota_exceeded"), 1);
        assert_eq!(telemetry.counter("server.tenant_rejections"), 1);
        assert_eq!(telemetry.counter("server.tenant.acme.requests"), 3);
        assert_eq!(telemetry.counter("server.tenant.globex.requests"), 1);
    }

    #[test]
    fn token_bucket_spends_burst_then_refills_at_rate() {
        let policy = TenantPolicy { max_in_flight: 0, rate_per_sec: 10.0, burst: 3.0 };
        let telemetry = Telemetry::new();
        let governor = TenantGovernor::new(policy, telemetry.clone());
        let t0 = Instant::now();
        // The burst admits 3 back-to-back, then the bucket is dry.
        for _ in 0..3 {
            drop(governor.admit_at("t", t0).unwrap());
        }
        assert_eq!(governor.admit_at("t", t0).unwrap_err(), TenantDenial::RateLimited);
        // 100ms at 10/s refills exactly one token.
        let t1 = t0 + Duration::from_millis(100);
        drop(governor.admit_at("t", t1).unwrap());
        assert_eq!(governor.admit_at("t", t1).unwrap_err(), TenantDenial::RateLimited);
        // A long idle period caps at the burst, not unbounded credit.
        let t2 = t1 + Duration::from_secs(3600);
        for _ in 0..3 {
            drop(governor.admit_at("t", t2).unwrap());
        }
        assert_eq!(governor.admit_at("t", t2).unwrap_err(), TenantDenial::RateLimited);
        assert_eq!(telemetry.counter("server.tenant.t.rate_limited"), 3);
    }

    #[test]
    fn rate_and_quota_compose() {
        let policy = TenantPolicy { max_in_flight: 1, rate_per_sec: 100.0, burst: 100.0 };
        let governor = TenantGovernor::new(policy, Telemetry::new());
        let t0 = Instant::now();
        let held = governor.admit_at("t", t0).unwrap();
        // Tokens remain, but the quota is the binding constraint.
        assert_eq!(governor.admit_at("t", t0).unwrap_err(), TenantDenial::QuotaExceeded);
        drop(held);
        governor.admit_at("t", t0).unwrap();
    }

    #[test]
    fn tenant_names_are_normalized_for_metric_safety() {
        assert_eq!(normalize_tenant("acme-prod_1"), "acme-prod_1");
        assert_eq!(normalize_tenant(""), DEFAULT_TENANT);
        assert_eq!(normalize_tenant("weird name!"), "other");
        assert_eq!(normalize_tenant(&"x".repeat(65)), "other");
    }
}
