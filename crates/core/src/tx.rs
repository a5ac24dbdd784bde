//! The transactional interface workloads are written against.

use sim_mem::{Addr, Heap};

use crate::algorithms::common::{DirectCtx, FastCtx};
use crate::algorithms::norec::{EagerCtx, LazyCtx};
use crate::algorithms::rh_norec::RhCtx;
use crate::algorithms::tl2::Tl2Ctx;
use crate::error::{TxFault, TxResult, RESTART};
use crate::trace;
use crate::TxKind;

/// Engine-side operations backing a [`Tx`].
///
/// Each algorithm path (hardware fast path, software slow path, mixed slow
/// path, serial section) implements this trait; workload code only ever
/// sees [`Tx`]. The trait is crate-private, and since the dispatch enum
/// below names every implementor, calls through it are resolved
/// statically — no vtable is ever built.
pub(crate) trait TxOps {
    fn read(&mut self, addr: Addr) -> TxResult<u64>;
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()>;
    fn alloc(&mut self, words: u64) -> TxResult<Addr>;
    fn free(&mut self, addr: Addr) -> TxResult<()>;
}

/// The closed set of engine execution contexts, one variant per path.
///
/// This enum is the dispatch mechanism of the hot path: [`Tx`] owns it by
/// value and every operation matches on it, so each arm is a direct
/// (inlinable) call into the engine. Within one attempt the variant never
/// changes, making the match branch perfectly predictable — unlike the
/// opaque indirect call of the former `&mut dyn TxOps` handle, which also
/// blocked inlining of the per-access engine code. See DESIGN.md
/// ("Dispatch architecture") for why an enum was chosen over a generic
/// `Tx<O: TxOps>`.
pub(crate) enum TxCtx<'a> {
    /// Hardware transaction (fast path of the hybrid algorithms).
    Fast(FastCtx<'a>),
    /// Serialized direct execution (Lock Elision's lock fallback).
    Direct(DirectCtx<'a>),
    /// Eager NOrec STM (standalone, and Hybrid NOrec's slow path).
    Eager(EagerCtx<'a>),
    /// Lazy NOrec STM (standalone, and the lazy hybrid's slow path).
    Lazy(LazyCtx<'a>),
    /// TL2 STM.
    Tl2(Tl2Ctx<'a>),
    /// RH NOrec's mixed slow path (prefix/software/postfix).
    Rh(RhCtx<'a>),
}

/// Statically dispatches `$body` over the context variants.
macro_rules! dispatch {
    ($tx:expr, $ctx:ident => $body:expr) => {
        match &mut $tx.ctx {
            TxCtx::Fast($ctx) => $body,
            TxCtx::Direct($ctx) => $body,
            TxCtx::Eager($ctx) => $body,
            TxCtx::Lazy($ctx) => $body,
            TxCtx::Tl2($ctx) => $body,
            TxCtx::Rh($ctx) => $body,
        }
    };
}

/// A live transaction, passed to the transaction body.
///
/// All shared-memory access inside a transaction goes through this handle;
/// the engine behind it provides atomicity, opacity and privatization per
/// the configured algorithm. Operations return [`TxResult`] — bodies
/// propagate failures with `?`, and the engine restarts them transparently.
///
/// # Examples
///
/// Transaction bodies look like this (see [`Session`] for the full
/// setup):
///
/// ```rust,ignore
/// session.run(|tx| {
///     let v = tx.read(counter)?;
///     tx.write(counter, v + 1)?;
///     Ok(v)
/// })?;
/// ```
///
/// [`Session`]: crate::Session
pub struct Tx<'a> {
    ctx: TxCtx<'a>,
    kind: TxKind,
    fault: Option<TxFault>,
}

impl<'a> Tx<'a> {
    pub(crate) fn new(ctx: TxCtx<'a>, kind: TxKind) -> Self {
        Tx { ctx, kind, fault: None }
    }

    /// Dismantles the handle after the body returned, giving the engine
    /// its context back plus any fault the body tripped.
    pub(crate) fn into_parts(self) -> (TxCtx<'a>, Option<TxFault>) {
        (self.ctx, self.fault)
    }

    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TxRestart`](crate::TxRestart) when the attempt must
    /// restart; propagate it with `?`.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        sim_htm::sched::yield_point();
        if self.fault.is_some() {
            return Err(RESTART);
        }
        let value = dispatch!(self, ctx => ctx.read(addr))?;
        trace::read(addr, value);
        Ok(value)
    }

    /// Transactionally writes `value` to `addr`.
    ///
    /// # Contract
    ///
    /// Writing is only legal in a transaction declared
    /// [`TxKind::ReadWrite`](crate::TxKind::ReadWrite). Inside a
    /// [`TxKind::ReadOnly`](crate::TxKind::ReadOnly) transaction the write
    /// is refused before it reaches any engine: this call returns
    /// [`TxRestart`](crate::TxRestart) (propagate it with `?` as usual),
    /// the attempt is torn down cleanly, and the enclosing
    /// [`Session::run_read`](crate::Session::run_read) returns
    /// [`TxFault::WriteInReadOnly`] instead of retrying
    /// ([`Session::execute`](crate::Session::execute) panics). The read-only hint
    /// models compiler static analysis, so a write under it is a
    /// programming error, never a transient condition.
    ///
    /// # Errors
    ///
    /// Returns [`TxRestart`](crate::TxRestart) when the attempt must
    /// restart, or — inside a read-only transaction — to carry the
    /// [`TxFault`] out of the body.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        sim_htm::sched::yield_point();
        if self.fault.is_some() {
            return Err(RESTART);
        }
        if self.kind != TxKind::ReadWrite {
            self.fault = Some(TxFault::WriteInReadOnly);
            return Err(RESTART);
        }
        dispatch!(self, ctx => ctx.write(addr, value))?;
        trace::write(addr, value);
        Ok(())
    }

    /// Allocates a zeroed block of `words` words, visible to this
    /// transaction immediately and rolled back if it aborts.
    ///
    /// # Errors
    ///
    /// Returns [`TxRestart`](crate::TxRestart) when the attempt must
    /// restart.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted (the workloads treat simulated OOM
    /// as fatal, as STAMP does).
    #[inline]
    pub fn alloc(&mut self, words: u64) -> TxResult<Addr> {
        sim_htm::sched::yield_point();
        if self.fault.is_some() {
            return Err(RESTART);
        }
        dispatch!(self, ctx => ctx.alloc(words))
    }

    /// Frees `addr`'s block. The free takes effect only if the transaction
    /// commits (deferred reclamation keeps concurrent optimistic readers
    /// safe).
    ///
    /// # Errors
    ///
    /// Returns [`TxRestart`](crate::TxRestart) when the attempt must
    /// restart.
    #[inline]
    pub fn free(&mut self, addr: Addr) -> TxResult<()> {
        sim_htm::sched::yield_point();
        if self.fault.is_some() {
            return Err(RESTART);
        }
        dispatch!(self, ctx => ctx.free(addr))
    }

    /// Reads a word and decodes it as a pointer.
    #[inline]
    pub fn read_addr(&mut self, addr: Addr) -> TxResult<Addr> {
        Ok(Addr::from_word(self.read(addr)?))
    }

    /// Writes a pointer value.
    #[inline]
    pub fn write_addr(&mut self, addr: Addr, value: Addr) -> TxResult<()> {
        self.write(addr, value.to_word())
    }

    /// Reads a word and reinterprets it as a signed integer.
    #[inline]
    pub fn read_i64(&mut self, addr: Addr) -> TxResult<i64> {
        Ok(self.read(addr)? as i64)
    }

    /// Writes a signed integer.
    #[inline]
    pub fn write_i64(&mut self, addr: Addr, value: i64) -> TxResult<()> {
        self.write(addr, value as u64)
    }

    /// Reads a word and reinterprets its bits as a float.
    #[inline]
    pub fn read_f64(&mut self, addr: Addr) -> TxResult<f64> {
        Ok(f64::from_bits(self.read(addr)?))
    }

    /// Writes a float's bit pattern.
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, value: f64) -> TxResult<()> {
        self.write(addr, value.to_bits())
    }
}

impl std::fmt::Debug for Tx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let path = match self.ctx {
            TxCtx::Fast(_) => "fast",
            TxCtx::Direct(_) => "direct",
            TxCtx::Eager(_) => "norec-eager",
            TxCtx::Lazy(_) => "norec-lazy",
            TxCtx::Tl2(_) => "tl2",
            TxCtx::Rh(_) => "rh-mixed",
        };
        f.debug_struct("Tx")
            .field("path", &path)
            .field("kind", &self.kind)
            .field("fault", &self.fault)
            .finish()
    }
}

/// Transaction-scoped memory management: immediate allocation with
/// abort-time undo, and commit-deferred frees.
///
/// Allocations become usable the moment they are made (the paper's
/// workloads initialize freshly allocated nodes inside the transaction);
/// if the attempt aborts they are returned to the pool. Frees are logged
/// and only executed after a successful commit, so a concurrent optimistic
/// reader can never have its memory recycled under it mid-attempt.
#[derive(Debug, Default)]
pub(crate) struct TxMem {
    allocs: Vec<Addr>,
    frees: Vec<Addr>,
}

impl TxMem {
    pub(crate) fn alloc(&mut self, heap: &Heap, tid: usize, words: u64) -> Addr {
        let addr = heap
            .allocator()
            .alloc(tid, words)
            .expect("simulated heap exhausted");
        self.allocs.push(addr);
        addr
    }

    pub(crate) fn free(&mut self, addr: Addr) {
        self.frees.push(addr);
    }

    /// Commit: execute deferred frees, keep allocations.
    pub(crate) fn commit(&mut self, heap: &Heap, tid: usize) {
        for addr in self.frees.drain(..) {
            heap.allocator().free(tid, addr);
        }
        self.allocs.clear();
    }

    /// Abort: undo allocations, forget deferred frees.
    pub(crate) fn rollback(&mut self, heap: &Heap, tid: usize) {
        for addr in self.allocs.drain(..) {
            heap.allocator().free(tid, addr);
        }
        self.frees.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::HeapConfig;

    #[test]
    fn rollback_returns_allocations() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let mut mem = TxMem::default();
        let a = mem.alloc(&heap, 0, 4);
        mem.rollback(&heap, 0);
        // The block is back in the pool: the next same-class alloc reuses it.
        let b = mem.alloc(&heap, 0, 4);
        assert_eq!(a, b);
        mem.commit(&heap, 0);
    }

    #[test]
    fn frees_are_deferred_to_commit() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let mut mem = TxMem::default();
        let a = mem.alloc(&heap, 0, 4);
        mem.commit(&heap, 0);

        mem.free(a);
        // Before commit the block is still live: a fresh alloc must differ.
        let b = mem.alloc(&heap, 0, 4);
        assert_ne!(a, b);
        mem.commit(&heap, 0);
        // After commit the freed block is reusable.
        let c = mem.alloc(&heap, 0, 4);
        assert_eq!(c, a);
    }

    #[test]
    fn rollback_cancels_frees() {
        let heap = Heap::new(HeapConfig { words: 1 << 12 });
        let mut mem = TxMem::default();
        let a = mem.alloc(&heap, 0, 4);
        mem.commit(&heap, 0);

        mem.free(a);
        mem.rollback(&heap, 0);
        // The free never happened; `a` is still live.
        let b = mem.alloc(&heap, 0, 4);
        assert_ne!(a, b);
    }
}
