//! A [`MapStore`] decorator that counts what the store layer does: ops,
//! bytes, wall time and errors per operation kind. Used in traced runs
//! only; untraced runs talk to the plain store.

use ags_store::{MapStore, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters of one operation kind. Statistics only: `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct OpCounter {
    ops: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
    errors: AtomicU64,
}

/// A plain-number copy of an [`OpCounter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTotals {
    pub ops: u64,
    pub bytes: u64,
    pub nanos: u64,
    pub errors: u64,
}

impl OpTotals {
    /// Mean wall time per operation in ms; 0 without operations.
    pub fn ms_per_op(&self) -> f64 {
        if self.ops > 0 {
            self.nanos as f64 / 1e6 / self.ops as f64
        } else {
            0.0
        }
    }
}

impl std::iter::Sum for OpTotals {
    fn sum<I: Iterator<Item = OpTotals>>(iter: I) -> Self {
        iter.fold(OpTotals::default(), |a, t| OpTotals {
            ops: a.ops + t.ops,
            bytes: a.bytes + t.bytes,
            nanos: a.nanos + t.nanos,
            errors: a.errors + t.errors,
        })
    }
}

impl OpCounter {
    fn record(&self, bytes: usize, start: Instant, failed: bool) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.errors.fetch_add(failed as u64, Ordering::Relaxed);
    }

    pub fn totals(&self) -> OpTotals {
        OpTotals {
            ops: self.ops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Counters shared between the decorated store (which lives inside a
/// checkpoint writer thread) and the benchmark.
#[derive(Debug, Default)]
pub struct StoreCounters {
    pub put: OpCounter,
    pub get: OpCounter,
    pub delete: OpCounter,
    pub keys: OpCounter,
}

/// The decorator.
pub struct Counted<S> {
    inner: S,
    counters: Arc<StoreCounters>,
}

impl<S: MapStore> Counted<S> {
    pub fn new(inner: S, counters: Arc<StoreCounters>) -> Self {
        Self { inner, counters }
    }
}

impl<S: MapStore> MapStore for Counted<S> {
    fn put(&mut self, key: &str, value: Vec<u8>) -> Result<(), StoreError> {
        let (bytes, start) = (value.len(), Instant::now());
        let result = self.inner.put(key, value);
        self.counters.put.record(bytes, start, result.is_err());
        result
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let start = Instant::now();
        let result = self.inner.get(key);
        let bytes = result.as_ref().map_or(0, |v| v.as_ref().map_or(0, Vec::len));
        self.counters.get.record(bytes, start, result.is_err());
        result
    }

    fn delete(&mut self, key: &str) -> Result<(), StoreError> {
        let start = Instant::now();
        let result = self.inner.delete(key);
        self.counters.delete.record(0, start, result.is_err());
        result
    }

    fn keys(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let start = Instant::now();
        let result = self.inner.keys(prefix);
        let bytes = result.as_ref().map_or(0, |k| k.iter().map(String::len).sum());
        self.counters.keys.record(bytes, start, result.is_err());
        result
    }
}
