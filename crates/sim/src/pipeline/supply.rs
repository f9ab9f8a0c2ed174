//! The supply buffer: fetched instruction byte ranges parked between
//! the fetch unit and the backend (the decode/queue stages of a real
//! machine). Capacity is enforced by the fetch stage against
//! [`SUPPLY_CAP`](super::SUPPLY_CAP) in *instructions*, not ranges.

use std::collections::VecDeque;

use fe_model::{Addr, INSTR_BYTES};

/// Supplied (fetched) instruction byte range awaiting the backend.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SupplyRange {
    pub(crate) start: Addr,
    pub(crate) end: Addr,
}

/// FIFO of supplied byte ranges with an instruction-count occupancy.
#[derive(Clone, Debug, Default)]
pub(crate) struct SupplyBuffer {
    ranges: VecDeque<SupplyRange>,
    instrs: u64,
}

impl SupplyBuffer {
    pub(crate) fn new() -> Self {
        SupplyBuffer {
            ranges: VecDeque::with_capacity(16),
            instrs: 0,
        }
    }

    /// Appends the fetched bytes `[start, end)`, coalescing with the
    /// previous range when contiguous.
    pub(crate) fn deliver(&mut self, start: Addr, end: Addr) {
        self.instrs += ((end - start) as u64) / INSTR_BYTES;
        match self.ranges.back_mut() {
            Some(back) if back.end == start => back.end = end,
            _ => self.ranges.push_back(SupplyRange { start, end }),
        }
    }

    /// Oldest supplied range.
    pub(crate) fn front(&self) -> Option<&SupplyRange> {
        self.ranges.front()
    }

    /// Consumes `step` instructions from the head range, dropping it
    /// when emptied. Returns `false` — consuming nothing — when the
    /// buffer is empty or the head holds fewer than `step`
    /// instructions, so a drained supply surfaces as a typed stall at
    /// the caller instead of a panic.
    #[must_use]
    pub(crate) fn consume(&mut self, step: u64) -> bool {
        let Some(front) = self.ranges.front_mut() else {
            return false;
        };
        if ((front.end - front.start) as u64) / INSTR_BYTES < step {
            return false;
        }
        front.start += step * INSTR_BYTES;
        if front.start == front.end {
            self.ranges.pop_front();
        }
        self.instrs -= step;
        true
    }

    /// Buffered instruction count.
    pub(crate) fn instrs(&self) -> u64 {
        self.instrs
    }

    /// `true` when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Discards everything (pipeline squash).
    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
        self.instrs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u64) -> Addr {
        Addr::new(x)
    }

    #[test]
    fn contiguous_ranges_coalesce() {
        let mut s = SupplyBuffer::new();
        s.deliver(a(0), a(16));
        s.deliver(a(16), a(32));
        assert_eq!(s.ranges.len(), 1, "contiguous deliveries merge");
        assert_eq!(s.instrs(), 32 / INSTR_BYTES);
        s.deliver(a(64), a(80));
        assert_eq!(s.ranges.len(), 2, "gap starts a new range");
    }

    #[test]
    fn consume_advances_and_pops() {
        let mut s = SupplyBuffer::new();
        s.deliver(a(0), a(4 * INSTR_BYTES));
        assert!(s.consume(3));
        assert_eq!(s.front().unwrap().start, a(3 * INSTR_BYTES));
        assert_eq!(s.instrs(), 1);
        assert!(s.consume(1));
        assert!(s.is_empty());
        assert_eq!(s.instrs(), 0);
    }

    #[test]
    fn consume_from_empty_supply_is_a_typed_refusal() {
        let mut s = SupplyBuffer::new();
        assert!(!s.consume(1), "empty supply refuses instead of panicking");
        assert_eq!(s.instrs(), 0);
    }

    #[test]
    fn clear_squashes() {
        let mut s = SupplyBuffer::new();
        s.deliver(a(0), a(64));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.instrs(), 0);
    }
}
