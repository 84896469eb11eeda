//! Cost models: the seam between functional and timing simulation.
//!
//! The MSSP engine is generic over a [`CostModel`], so one orchestration
//! code path serves two purposes:
//!
//! * correctness work uses [`UnitCost`] (every instruction one cycle, free
//!   overheads), and
//! * the `mssp-timing` crate plugs in a CMP model: in-order latency-sum
//!   cores with private L1I/L1D caches and gshare + BTB predictors over a
//!   shared L2, plus checkpoint/dispatch/verify/commit/squash latencies.
//!
//! Crucially, the *committed architected state* of a run is independent of
//! the cost model — costs reorder speculative work but commits are always
//! in program order. Integration tests assert this.

use mssp_machine::StepInfo;

/// Which core executed an instruction (lets models keep per-core state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRole {
    /// The master, executing the distilled program.
    Master,
    /// Slave `i`, executing a speculative task of the original program.
    Slave(usize),
    /// A slave executing a non-speculative recovery segment.
    Recovery(usize),
}

/// Per-event costs of an MSSP machine, in cycles.
///
/// Implementations must return **at least 1** from
/// [`CostModel::instr_cost`]; zero-cost instructions would let a component
/// act forever without advancing simulated time.
pub trait CostModel {
    /// Cost of executing one instruction on the given core.
    fn instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> u64;

    /// [`CostModel::instr_cost`]'s answer for the same call, with the same
    /// effect on the model, when that touches nothing another core shares;
    /// otherwise `None`, and the model is left as it was.
    ///
    /// The engine runs a slave's task and the master's distilled program
    /// in bursts, several instructions per visit (see `engine.rs`, "How it
    /// schedules"), pricing each with this method ahead of its instant. At
    /// the first `None` it stops, and prices that instruction with
    /// `instr_cost` at its own instant, in the order one visit per instant
    /// makes. So a model that answers
    /// only for instructions whose cost depends on their own core's state
    /// sees every shared access in the per-instant order. The default,
    /// `None`, keeps every call in that order, as a model whose answers
    /// depend on the order of all calls (a seeded stream of costs) or
    /// that observes it (a recording wrapper) needs.
    fn private_instr_cost(&mut self, role: CoreRole, info: &StepInfo) -> Option<u64> {
        let _ = (role, info);
        None
    }

    /// Master-side overhead of taking a checkpoint of `cells` live cells.
    fn spawn_overhead(&mut self, cells: usize) -> u64 {
        let _ = cells;
        0
    }

    /// Latency from spawn until the slave can start executing (checkpoint
    /// transfer over the interconnect).
    fn dispatch_latency(&mut self, cells: usize) -> u64 {
        let _ = cells;
        0
    }

    /// Verify-unit cost of checking `live_ins` recorded cells.
    fn verify_cost(&mut self, live_ins: usize) -> u64 {
        let _ = live_ins;
        0
    }

    /// Verify-unit cost of atomically committing `live_outs` cells.
    fn commit_cost(&mut self, live_outs: usize) -> u64 {
        let _ = live_outs;
        0
    }

    /// Pipeline-flush penalty charged when the machine squashes.
    fn squash_penalty(&mut self) -> u64 {
        0
    }

    /// Called when a core's speculative state is squashed, so stateful
    /// models can flush per-core structures (e.g. dirty L1 lines).
    fn on_squash(&mut self, role: CoreRole) {
        let _ = role;
    }
}

/// The functional cost model: one cycle per instruction, free overheads.
///
/// Under `UnitCost` the reported cycle count of a run equals a
/// deterministic interleaving-step count; it exists to drive the engine's
/// *functional* behaviour, not to predict performance.
///
/// # Examples
///
/// ```
/// use mssp_core::{CoreRole, CostModel, UnitCost};
///
/// let mut c = UnitCost;
/// // All instruction costs are 1 under the functional model.
/// assert_eq!(c.verify_cost(100), 0);
/// assert_eq!(c.squash_penalty(), 0);
/// # let _ = CoreRole::Master;
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCost;

impl CostModel for UnitCost {
    fn instr_cost(&mut self, _role: CoreRole, _info: &StepInfo) -> u64 {
        1
    }

    fn private_instr_cost(&mut self, _role: CoreRole, _info: &StepInfo) -> Option<u64> {
        Some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_isa::Instr;

    fn dummy_info() -> StepInfo {
        StepInfo {
            pc: 0,
            instr: Instr::Halt,
            next_pc: 0,
            halted: true,
            taken: None,
            mem: None,
        }
    }

    #[test]
    fn unit_cost_is_one_cycle_everywhere() {
        let mut c = UnitCost;
        assert_eq!(c.instr_cost(CoreRole::Master, &dummy_info()), 1);
        assert_eq!(c.instr_cost(CoreRole::Slave(3), &dummy_info()), 1);
        assert_eq!(c.instr_cost(CoreRole::Recovery(0), &dummy_info()), 1);
        assert_eq!(
            c.private_instr_cost(CoreRole::Slave(3), &dummy_info()),
            Some(1)
        );
        assert_eq!(c.spawn_overhead(10), 0);
        assert_eq!(c.dispatch_latency(10), 0);
        assert_eq!(c.commit_cost(10), 0);
    }
}
