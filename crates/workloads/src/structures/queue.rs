//! A transactional FIFO queue (STAMP's `queue`: intruder's packet and
//! decoded-flow streams).
//!
//! Singly-linked with head/tail pointers; node layout: `[next, value]`.
//! A dummy node keeps enqueue and dequeue footprints small.

use rh_norec::prelude::{Tx, TxResult};
use sim_mem::{Addr, Heap};

const NEXT: u64 = 0;
const VALUE: u64 = 1;
const NODE_WORDS: u64 = 2;

/// Queue header layout: `[head, tail]`.
const HEAD: u64 = 0;
const TAIL: u64 = 1;

/// A transactional FIFO queue of words.
#[derive(Clone, Copy, Debug)]
pub struct Queue {
    header: Addr,
}

impl Queue {
    /// Allocates an empty queue (non-transactional, for setup).
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn create(heap: &Heap) -> Queue {
        let alloc = heap.allocator();
        let header = alloc.alloc(0, 2).expect("heap exhausted allocating queue");
        let dummy = alloc.alloc(0, NODE_WORDS).expect("heap exhausted allocating queue");
        heap.store(header.offset(HEAD), dummy.to_word());
        heap.store(header.offset(TAIL), dummy.to_word());
        Queue { header }
    }

    /// Appends `value`.
    ///
    /// # Errors
    ///
    /// Propagates transaction restarts.
    pub fn push(&self, tx: &mut Tx<'_>, value: u64) -> TxResult<()> {
        let node = tx.alloc(NODE_WORDS)?;
        tx.write_addr(node.offset(NEXT), Addr::NULL)?;
        tx.write(node.offset(VALUE), value)?;
        let tail = tx.read_addr(self.header.offset(TAIL))?;
        tx.write_addr(tail.offset(NEXT), node)?;
        tx.write_addr(self.header.offset(TAIL), node)?;
        Ok(())
    }

    /// Removes and returns the oldest value, or `None` when empty.
    ///
    /// # Errors
    ///
    /// Propagates transaction restarts.
    pub fn pop(&self, tx: &mut Tx<'_>) -> TxResult<Option<u64>> {
        let dummy = tx.read_addr(self.header.offset(HEAD))?;
        let first = tx.read_addr(dummy.offset(NEXT))?;
        if first.is_null() {
            return Ok(None);
        }
        let value = tx.read(first.offset(VALUE))?;
        // The popped node becomes the new dummy; free the old dummy.
        tx.write_addr(self.header.offset(HEAD), first)?;
        tx.free(dummy)?;
        Ok(Some(value))
    }

    /// Whether the queue is empty.
    ///
    /// # Errors
    ///
    /// Propagates transaction restarts.
    pub fn is_empty_tx(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        let dummy = tx.read_addr(self.header.offset(HEAD))?;
        Ok(tx.read_addr(dummy.offset(NEXT))?.is_null())
    }

    /// Collects remaining values in FIFO order (quiescent heap only).
    pub fn collect(&self, heap: &Heap) -> Vec<u64> {
        let mut out = Vec::new();
        let dummy = Addr::from_word(heap.load(self.header.offset(HEAD)));
        let mut node = Addr::from_word(heap.load(dummy.offset(NEXT)));
        while !node.is_null() {
            out.push(heap.load(node.offset(VALUE)));
            node = Addr::from_word(heap.load(node.offset(NEXT)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::single_runtime;
    use rh_norec::prelude::{Algorithm, TxKind};
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let (heap, rt) = single_runtime(Algorithm::Norec);
        let q = Queue::create(&heap);
        let mut w = rt.open_session().expect("free worker slot");
        for v in 1..=5u64 {
            w.execute(TxKind::ReadWrite, |tx| q.push(tx, v));
        }
        assert_eq!(q.collect(&heap), vec![1, 2, 3, 4, 5]);
        assert_eq!(w.execute(TxKind::ReadWrite, |tx| q.pop(tx)), Some(1));
        assert_eq!(w.execute(TxKind::ReadWrite, |tx| q.pop(tx)), Some(2));
        w.execute(TxKind::ReadWrite, |tx| q.push(tx, 6));
        assert_eq!(q.collect(&heap), vec![3, 4, 5, 6]);
    }

    #[test]
    fn pop_empty_returns_none() {
        let (heap, rt) = single_runtime(Algorithm::Norec);
        let q = Queue::create(&heap);
        let mut w = rt.open_session().expect("free worker slot");
        assert!(w.execute(TxKind::ReadOnly, |tx| q.is_empty_tx(tx)));
        assert_eq!(w.execute(TxKind::ReadWrite, |tx| q.pop(tx)), None);
        w.execute(TxKind::ReadWrite, |tx| q.push(tx, 9));
        assert!(!w.execute(TxKind::ReadOnly, |tx| q.is_empty_tx(tx)));
        assert_eq!(w.execute(TxKind::ReadWrite, |tx| q.pop(tx)), Some(9));
        assert_eq!(w.execute(TxKind::ReadWrite, |tx| q.pop(tx)), None);
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let (heap, rt) = single_runtime(Algorithm::RhNorec);
        let q = Queue::create(&heap);
        let producers = 2usize;
        let per = 300u64;
        let consumed = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for tid in 0..producers {
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut w = rt.open_session().expect("free worker slot");
                    for i in 0..per {
                        let v = (tid as u64) << 32 | i;
                        w.execute(TxKind::ReadWrite, |tx| q.push(tx, v));
                    }
                });
            }
            for _ in 0..2usize {
                let rt = Arc::clone(&rt);
                let consumed = &consumed;
                s.spawn(move || {
                    let mut w = rt.open_session().expect("free worker slot");
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while misses < 200 {
                        match w.execute(TxKind::ReadWrite, |tx| q.pop(tx)) {
                            Some(v) => {
                                got.push(v);
                                misses = 0;
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    consumed.lock().unwrap().extend(got);
                });
            }
        });
        let mut all = consumed.into_inner().unwrap();
        all.extend(q.collect(&heap));
        all.sort_unstable();
        let mut expected: Vec<u64> = (0..producers as u64)
            .flat_map(|t| (0..per).map(move |i| t << 32 | i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected, "items lost or duplicated");
    }
}
