//! Versioned handles for compiled pattern sets, for zero-downtime hot
//! reload.
//!
//! A [`SetHandle`] couples one compiled [`Program`] with the pattern
//! list it came from and a content-hash version string. The serving
//! layer keeps the *current* handle behind a swap point; every request
//! [`pin`](SetHandle::pin)s the handle it was admitted against and holds
//! the [`PinGuard`] for the duration of the scan, so a swap installs a
//! new current version without disturbing in-flight work.
//!
//! A pin is a clone of the handle's [`Arc`], so the `Arc`'s reference
//! count is the drain accounting: a superseded version stays alive
//! exactly as long as some scan still holds it, and the registry counts
//! it released once its [`Weak`](std::sync::Weak) reference is dead.

use std::sync::Arc;

use cicero_isa::Program;

/// One immutable compiled version of a ruleset. Share it behind an
/// [`Arc`]; every holder of that `Arc` keeps the version alive.
#[derive(Debug)]
pub struct SetHandle {
    version: String,
    patterns: Vec<String>,
    program: Arc<Program>,
}

impl SetHandle {
    /// Wrap a compiled program with its source patterns and version tag.
    pub fn new(version: String, patterns: Vec<String>, program: Arc<Program>) -> SetHandle {
        SetHandle { version, patterns, program }
    }

    /// The content-hash version tag.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The pattern list this version was compiled from; match
    /// identifiers index this slice in order.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// The compiled program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Pin this version for one in-flight scan: the guard holds the
    /// version alive until it drops.
    pub fn pin(self: &Arc<SetHandle>) -> PinGuard {
        PinGuard { handle: Arc::clone(self) }
    }
}

/// A pin on a [`SetHandle`]: one reference to the version, held for the
/// duration of one scan.
#[derive(Debug)]
pub struct PinGuard {
    handle: Arc<SetHandle>,
}

impl PinGuard {
    /// The pinned handle.
    pub fn handle(&self) -> &Arc<SetHandle> {
        &self.handle
    }

    /// The pinned version tag.
    pub fn version(&self) -> &str {
        self.handle.version()
    }

    /// The pinned compiled program.
    pub fn program(&self) -> &Arc<Program> {
        self.handle.program()
    }
}
