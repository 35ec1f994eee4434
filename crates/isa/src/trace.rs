//! Trace sources: the interface between workload generators and CPU models.
//!
//! A [`TraceSource`] produces the correct-path dynamic instruction stream one
//! instruction at a time, and additionally synthesizes *wrong-path*
//! instructions that the front end fetches after a mispredicted branch until
//! that branch resolves. Wrong-path instructions never commit, but their
//! loads search the LSQ and access the caches, which is essential to
//! reproduce the paper's Table 2 observation that SPEC INT LSQ activity
//! grows with window aggressiveness — so the wrong-path stream must stay
//! exact.
//!
//! Most wrong-path instructions are ALU operations that the timing model
//! only counts, so sources hand them out in runs:
//! [`TraceSource::wrong_path_run`] draws instructions up to and including
//! the next memory instruction and builds only that one, and
//! [`TraceSource::wrong_path_skip`] draws instructions and builds none.

use crate::inst::DynInst;
use crate::wrongpath::WrongPathSpec;

/// A source of dynamic instructions.
///
/// Implementations must be deterministic for a given construction seed so
/// experiments are reproducible, and `Send` so the suite driver can fan the
/// independent `(config, workload)` pairs of a suite out across threads.
pub trait TraceSource: Send {
    /// Returns the next correct-path instruction, or `None` when the trace is
    /// exhausted. Most synthetic generators are infinite and never return
    /// `None`; the simulator stops after a configured number of commits.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Draws up to `max` wrong-path instructions fetched 4 bytes apart from
    /// `pc`, stopping after the first memory instruction. Returns how many
    /// non-memory instructions came before it, and the memory instruction
    /// itself (fetched at `pc + 4 * count`) if one was drawn; without one
    /// the count is `max`. Wrong paths draw only loads: the memory
    /// instruction is never a store, so a wrong path never writes the LSQ
    /// state that a search reads.
    ///
    /// The default models sources with no wrong-path spec: every wrong-path
    /// instruction is an integer ALU op, which consumes no state, so the run
    /// is `(max, None)`. Generators override this with a
    /// [`crate::wrongpath::WrongPathSynth`] to produce a realistic mix
    /// including wrong-path loads.
    fn wrong_path_run(&mut self, _pc: u64, max: u64) -> (u64, Option<DynInst>) {
        (max, None)
    }

    /// Draws `n` wrong-path instructions the caller has no use for, leaving
    /// the wrong-path stream exactly where `n` instructions' worth of
    /// [`TraceSource::wrong_path_run`] calls would leave it, without
    /// building any of them.
    ///
    /// The default does nothing, like the default run: sources with no
    /// wrong-path spec draw nothing. Every source that overrides
    /// `wrong_path_run` with a [`crate::wrongpath::WrongPathSynth`] must
    /// override this with [`crate::wrongpath::WrongPathSynth::skip`], which
    /// makes the skipped draws; a [`crate::SharedCursor`] reads its
    /// capture's wrong path from a tape drawn once for all its cursors, so
    /// its skip only moves its position on the tape.
    fn wrong_path_skip(&mut self, _n: u64) {}

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "trace"
    }

    /// Skips up to `n` correct-path instructions, advancing architectural
    /// position without handing them to the caller, and returns how many
    /// were actually skipped (fewer only when the trace ends first).
    ///
    /// The default decode-discards through [`TraceSource::next_inst`];
    /// sources with random access (an in-memory capture, a checkpointed
    /// `.etrc` file) override it with an O(1)-per-checkpoint jump. Skipped
    /// instructions are invisible to the skipper, so a fast-forwarding
    /// simulator that wants to warm caches must consume them with
    /// `next_inst` instead.
    fn skip_insts(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n {
            if self.next_inst().is_none() {
                break;
            }
            skipped += 1;
        }
        skipped
    }

    /// The parameters of this source's wrong-path synthesis, if it is a
    /// pure function of a [`WrongPathSpec`].
    ///
    /// Sources that return `Some` can be recorded to an `.etrc` trace file
    /// (see [`crate::etrc`]) and replayed bit-for-bit: the recorder stores
    /// the spec in the trace header instead of recording the demand-driven
    /// wrong-path stream, and the replaying [`crate::etrc::FileTrace`]
    /// rebuilds an identical synthesizer from it. The default is `None`,
    /// which records as "no spec": replays then fall back to the trait's
    /// default ALU-only wrong path.
    fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
        None
    }
}

/// A finite trace backed by a vector of instructions; mainly used by tests.
///
/// # Example
///
/// ```
/// use elsq_isa::trace::VecTrace;
/// use elsq_isa::{InstBuilder, OpClass, TraceSource};
///
/// let insts = vec![
///     InstBuilder::alu(0, OpClass::IntAlu).build(),
///     InstBuilder::alu(4, OpClass::FpAlu).build(),
/// ];
/// let mut t = VecTrace::new(insts);
/// assert!(t.next_inst().is_some());
/// assert!(t.next_inst().is_some());
/// assert!(t.next_inst().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct VecTrace {
    insts: Vec<DynInst>,
    pos: usize,
    name: String,
}

impl VecTrace {
    /// Creates a trace that yields `insts` in order, once.
    pub fn new(insts: Vec<DynInst>) -> Self {
        Self {
            insts,
            pos: 0,
            name: "vec-trace".to_owned(),
        }
    }

    /// Creates a named trace (the name shows up in experiment reports).
    #[cfg(test)]
    pub(crate) fn with_name(insts: Vec<DynInst>, name: impl Into<String>) -> Self {
        Self {
            insts,
            pos: 0,
            name: name.into(),
        }
    }

    /// Number of instructions remaining.
    #[cfg(test)]
    pub(crate) fn remaining(&self) -> usize {
        self.insts.len() - self.pos
    }
}

impl TraceSource for VecTrace {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.insts.get(self.pos).copied();
        if inst.is_some() {
            self.pos += 1;
        }
        inst
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A trace source that repeats an inner finite sequence forever.
///
/// Useful for turning a hand-written kernel (e.g. in integration tests) into
/// an infinite stream the simulator can run for an arbitrary number of
/// committed instructions.
#[derive(Debug, Clone)]
pub struct LoopTrace {
    insts: Vec<DynInst>,
    pos: usize,
    name: String,
}

impl LoopTrace {
    /// Creates a looping trace over `insts`.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty.
    pub fn new(insts: Vec<DynInst>) -> Self {
        assert!(
            !insts.is_empty(),
            "LoopTrace requires at least one instruction"
        );
        Self {
            insts,
            pos: 0,
            name: "loop-trace".to_owned(),
        }
    }

    /// Sets the report name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl TraceSource for LoopTrace {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.insts[self.pos];
        self.pos += 1;
        if self.pos == self.insts.len() {
            self.pos = 0;
        }
        Some(inst)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::op::OpClass;

    fn mk(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| InstBuilder::alu(i as u64 * 4, OpClass::IntAlu).build())
            .collect()
    }

    #[test]
    fn vec_trace_yields_in_order_then_none() {
        let mut t = VecTrace::new(mk(3));
        assert_eq!(t.remaining(), 3);
        assert_eq!(t.next_inst().unwrap().pc, 0);
        assert_eq!(t.next_inst().unwrap().pc, 4);
        assert_eq!(t.next_inst().unwrap().pc, 8);
        assert!(t.next_inst().is_none());
        assert_eq!(t.remaining(), 0);
    }

    #[test]
    fn loop_trace_wraps_and_counts_iterations() {
        let insts = mk(2);
        let mut t = LoopTrace::new(insts.clone()).named("kernel");
        assert_eq!(t.name(), "kernel");
        // Two whole iterations, then the third begins.
        let seen: Vec<DynInst> = (0..5).map(|_| t.next_inst().unwrap()).collect();
        assert_eq!(seen, [insts[0], insts[1], insts[0], insts[1], insts[0]]);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_loop_trace_panics() {
        let _ = LoopTrace::new(vec![]);
    }

    #[test]
    fn default_wrong_path_inst_is_wrong_path_alu() {
        // Spec-less sources fetch nothing but ALU ops: every run is full
        // length and carries no memory instruction.
        let mut t = VecTrace::new(mk(1));
        assert_eq!(t.wrong_path_run(0x999, 17), (17, None));
        assert_eq!(t.wrong_path_run(0x999, 0), (0, None));
        t.wrong_path_skip(1_000);
        assert_eq!(
            t.remaining(),
            1,
            "wrong-path fetch never consumes the trace"
        );
    }
}
