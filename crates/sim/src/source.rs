//! Enum dispatch over the retired-stream producers.
//!
//! Every source the simulator reads is known at compile time, and
//! `next_block` sits on the hot path (once per retired basic block,
//! tens of millions of times per cell). Dispatching over this enum
//! instead of a `Box<dyn BlockSource>` lets the compiler inline the
//! executor walk and the trace decoder straight into the tick loop.

use fe_cfg::Executor;
use fe_model::{BlockSource, RetiredBlock};
use fe_trace::{StoreReplayer, TraceReplayer};

/// Where the retired control-flow stream comes from, dispatched
/// statically over the kinds the sweeps use.
pub enum SourceKind<'p> {
    /// A live executor walk over the program.
    Live(Executor<'p>),
    /// Replay of an `fe-trace` recording — in-memory or loaded from
    /// disk, both replay through the same decoder.
    Replay(TraceReplayer<'p>),
    /// Replay of a chunk-compressed v2 trace store — same stream as
    /// [`SourceKind::Replay`] over the same recording, but `skip_instrs`
    /// seeks via the chunk index, decoding only the chunk it lands in.
    Store(StoreReplayer<'p>),
}

impl BlockSource for SourceKind<'_> {
    #[inline]
    fn next_block(&mut self) -> Option<RetiredBlock> {
        match self {
            SourceKind::Live(exec) => BlockSource::next_block(exec),
            SourceKind::Replay(replay) => replay.next_block(),
            SourceKind::Store(replay) => replay.next_block(),
        }
    }

    #[inline]
    fn skip_instrs(&mut self, min_instrs: u64) -> u64 {
        match self {
            SourceKind::Live(exec) => BlockSource::skip_instrs(exec, min_instrs),
            SourceKind::Replay(replay) => replay.skip_instrs(min_instrs),
            SourceKind::Store(replay) => replay.skip_instrs(min_instrs),
        }
    }
}

impl<'p> From<Executor<'p>> for SourceKind<'p> {
    fn from(exec: Executor<'p>) -> Self {
        SourceKind::Live(exec)
    }
}

impl<'p> From<TraceReplayer<'p>> for SourceKind<'p> {
    fn from(replay: TraceReplayer<'p>) -> Self {
        SourceKind::Replay(replay)
    }
}

impl<'p> From<StoreReplayer<'p>> for SourceKind<'p> {
    fn from(replay: StoreReplayer<'p>) -> Self {
        SourceKind::Store(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::workloads;
    use fe_trace::{Trace, TraceStore};

    #[test]
    fn every_kind_yields_the_same_stream() {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, 7, 2_000);
        let store = TraceStore::from_trace_with(&trace, "source test", 128);
        let mut live = SourceKind::from(Executor::new(&program, 7));
        let mut others = [
            SourceKind::from(trace.replayer()),
            SourceKind::from(store.replayer()),
        ];
        assert!(matches!(live, SourceKind::Live(_)));
        assert!(matches!(others[0], SourceKind::Replay(_)));
        assert!(matches!(others[1], SourceKind::Store(_)));
        for _ in 0..trace.header().block_count {
            let expected = live.next_block();
            for other in &mut others {
                assert_eq!(other.next_block(), expected);
            }
        }
    }

    #[test]
    fn skip_agrees_across_kinds() {
        let program = workloads::apache().scaled(0.05).build();
        let trace = Trace::record(&program, 9, 5_000);
        let mut live = SourceKind::from(Executor::new(&program, 9));
        let mut replay = SourceKind::from(trace.replayer());
        assert_eq!(live.skip_instrs(1_234), replay.skip_instrs(1_234));
        assert_eq!(live.next_block(), replay.next_block());
    }

    #[test]
    fn store_kind_replays_the_recorded_stream() {
        let program = workloads::zeus().scaled(0.05).build();
        let trace = Trace::record(&program, 11, 5_000);
        let store = TraceStore::from_trace_with(&trace, "source test", 128);
        let mut flat = SourceKind::from(trace.replayer());
        let mut chunked = SourceKind::from(store.replayer());
        assert!(matches!(chunked, SourceKind::Store(_)));
        assert_eq!(flat.skip_instrs(2_000), chunked.skip_instrs(2_000));
        loop {
            let expected = flat.next_block();
            assert_eq!(chunked.next_block(), expected);
            if expected.is_none() {
                break;
            }
        }
    }
}
