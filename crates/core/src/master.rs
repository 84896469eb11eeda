//! The master processor: executes the distilled program and generates
//! checkpoints.
//!
//! The master is deliberately untrusted — the engine treats it as a black
//! box emitting (start-PC, overlay) predictions. Its state is:
//!
//! * `dpc` — program counter in *distilled* space;
//! * `segment` — writes since the last spawn (becomes the next overlay
//!   segment);
//! * `live_segments` — one predicted-write set per in-flight task, pruned
//!   as tasks commit (committed values are visible in architected state).
//!
//! The master executes in a **private machine state**: a snapshot of
//! architected state taken at restart — its cache view — that its own
//! writes go straight into, so a read is one plain state read. It runs
//! `exec::step` on that state, as the sequential machine does, and adds
//! the cells each step wrote to `segment` from the step's own report
//! ([`StepInfo::record_writes`]). The snapshot's memory pages are
//! copy-on-write, shared with architected state until the master first
//! stores to them; a restart therefore pays one 4 KiB page copy per page
//! the master goes on to write, and nothing per instruction. Reading
//! *live* architected state instead would let the verify pipeline (which
//! can run ahead of a cache-cold master) feed the master values from its
//! own future, desynchronizing it by a segment on every such race; the
//! private state makes the master's view time-consistent, and staleness
//! is resolved the MSSP way (squash and reseed).
//!
//! Indirect jumps land on *original*-space targets (the distiller
//! preserves the original register/memory image), which the master
//! translates back to distilled space via the distiller's PC map; an
//! untranslatable target marks the master *lost* until the engine restarts
//! it at the next recovery point.

use std::collections::VecDeque;
use std::sync::Arc;

use mssp_distill::{Distilled, MAX_GUARD_WINDOW, MAX_SLICE_LEN};
use mssp_isa::{Reg, NUM_REGS};
use mssp_machine::{eval_slice, step, Delta, MachineState, SliceEval, StepInfo};

/// Why the master is not currently producing predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterStall {
    /// Executing normally.
    Active,
    /// Executed the distilled program's `halt`.
    Halted,
    /// Jumped somewhere untranslatable or faulted; waiting for restart.
    Lost,
}

/// The master processor state.
#[derive(Debug, Clone)]
pub struct Master {
    dpc: u64,
    /// Architected state as of this master's restart (its cache view)
    /// under every write the master has made since.
    state: MachineState,
    /// Writes since the last spawn (becomes the next overlay segment).
    segment: Delta,
    live_segments: VecDeque<(u64, Arc<Delta>)>,
    status: MasterStall,
    /// Boundary crossings since the last spawn trigger.
    crossings: u64,
    /// Boundary crossings since restart — bounds how far back a spawn
    /// guard may probe (the restart snapshot is architecturally true, so
    /// no divergence can predate it).
    crossings_since_restart: u64,
    /// Pending spawn: original-space start PC for the next task.
    pending_spawn: Option<u64>,
    /// Spawns suppressed by a spawn-guard slice since the last
    /// [`Master::take_vetoed_spawns`] (each one also marks the master
    /// lost, handing the window to sequential recovery).
    vetoed_spawns: u64,
}

impl Master {
    /// Creates a master restarted at original-space PC `orig_pc`, seeded
    /// with `base` (a snapshot of architected state at a consistent
    /// point) and spawning its first task there.
    ///
    /// If `orig_pc` has no distilled image the master starts lost (the
    /// engine will fall back to sequential recovery segments).
    #[must_use]
    pub fn restart_at(
        distilled: &Distilled,
        orig_pc: u64,
        spawn_first: bool,
        base: MachineState,
    ) -> Master {
        let (dpc, status) = match distilled.to_dist(orig_pc) {
            Some(d) => (d, MasterStall::Active),
            None => (0, MasterStall::Lost),
        };
        Master {
            dpc,
            state: base,
            segment: Delta::new(),
            live_segments: VecDeque::new(),
            status,
            crossings: 0,
            crossings_since_restart: 0,
            pending_spawn: if spawn_first && status == MasterStall::Active {
                Some(orig_pc)
            } else {
                None
            },
            vetoed_spawns: 0,
        }
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> MasterStall {
        self.status
    }

    /// Whether the master wants to spawn a task and is waiting for a free
    /// slave. While pending, the master does not execute.
    #[must_use]
    pub fn pending_spawn(&self) -> Option<u64> {
        self.pending_spawn
    }

    /// Spawn-guard vetoes since the last call (reset on read).
    pub(crate) fn take_vetoed_spawns(&mut self) -> u64 {
        std::mem::take(&mut self.vetoed_spawns)
    }

    /// Completes a pending spawn: closes the current segment under
    /// `prev_task` (the last task spawned before this one, if any) and
    /// returns `(start_pc, overlay)` for the new task.
    ///
    /// # Panics
    ///
    /// Panics if no spawn is pending.
    pub fn take_spawn(&mut self, prev_task: Option<u64>) -> (u64, Vec<Arc<Delta>>) {
        // why: the `# Panics` contract above; the drivers spawn only on
        // `pending_spawn().is_some()`.
        let start = self.pending_spawn.take().expect("spawn must be pending");
        if let Some(prev) = prev_task {
            let seg = Arc::new(std::mem::take(&mut self.segment));
            self.live_segments.push_back((prev, seg));
        }
        // Overlay: newest segment first.
        let overlay: Vec<Arc<Delta>> = self
            .live_segments
            .iter()
            .rev()
            .map(|(_, d)| Arc::clone(d))
            .collect();
        (start, overlay)
    }

    /// Marks the master lost (used by the engine's run-ahead bound). A
    /// lost master produces nothing until restarted at a recovery point.
    pub fn mark_lost(&mut self) {
        self.status = MasterStall::Lost;
        self.pending_spawn = None;
    }

    /// Prunes predicted segments for tasks up to and including `task_id`.
    /// This trims only the overlays handed to *future* tasks (committed
    /// results are visible to them in architected state); the master's own
    /// read view (its private state) is unaffected.
    pub fn on_commit(&mut self, task_id: u64) {
        while matches!(self.live_segments.front(), Some((id, _)) if *id <= task_id) {
            self.live_segments.pop_front();
        }
    }

    /// Executes one distilled instruction on the master's private state
    /// and binds the cells it wrote, with their new values, in the open
    /// segment. Returns the step info, or `None` if the master is stalled
    /// (halted/lost/pending spawn).
    /// Landing on a task boundary arms a pending spawn, which also stalls
    /// the master until the engine dispatches it. Always inlined, as
    /// `exec::step` is: the drivers call it once per master instruction.
    #[inline(always)]
    pub fn step(&mut self, distilled: &Distilled) -> Option<StepInfo> {
        if self.status != MasterStall::Active || self.pending_spawn.is_some() {
            return None;
        }
        let info = match step(&mut self.state, distilled.program(), self.dpc) {
            Ok(info) => info,
            Err(_) => {
                self.status = MasterStall::Lost;
                return None;
            }
        };
        info.record_writes(&self.state, &mut self.segment);
        if info.halted {
            self.status = MasterStall::Halted;
            return Some(info);
        }
        let mut next = info.next_pc;
        if info.instr.is_indirect_jump() {
            // Indirect targets are original-space addresses (preserved
            // image); translate back into distilled space.
            match distilled.to_dist(next) {
                Some(d) => next = d,
                None => {
                    self.status = MasterStall::Lost;
                    return Some(info);
                }
            }
        }
        self.dpc = next;
        if let Some(orig_pc) = distilled.boundary_at_dist(next) {
            self.crossings += 1;
            self.crossings_since_restart += 1;
            if self.crossings >= distilled.crossings_per_task() {
                self.crossings = 0;
                if self.spawn_allowed(distilled, orig_pc) {
                    self.pending_spawn = Some(orig_pc);
                } else {
                    // A guard says the asserted path breaks inside this
                    // window: spawning would feed verify a doomed task.
                    // Go lost instead — the engine's recovery machinery
                    // runs the window sequentially and restarts us.
                    self.vetoed_spawns += 1;
                    self.status = MasterStall::Lost;
                }
            }
        }
        Some(info)
    }

    /// The master's current value of `r` — the view a spawned task's
    /// checkpoint ships.
    fn view(&self, r: Reg) -> u64 {
        self.state.reg(r)
    }

    /// Runs the spawn guards attached to boundary `orig_pc`.
    ///
    /// Each guard probes its asserted branch over every crossing of the
    /// upcoming window (seeding each input with its per-crossing stride);
    /// any resolution against the asserted direction vetoes the spawn.
    /// An inconclusive guard (fault, budget) is ignored: guards steer
    /// performance, never correctness. So is a guard with more inputs
    /// than there are registers, and no guard probes more than
    /// [`MAX_GUARD_WINDOW`] crossings each way: `with_slices` takes any
    /// guard, and a hostile one must not stall the master's step.
    fn spawn_allowed(&mut self, distilled: &Distilled, orig_pc: u64) -> bool {
        let budget = MAX_SLICE_LEN as u64 + 1;
        let mut inputs = [(Reg::ZERO, 0); NUM_REGS];
        for slice in distilled.slices_at(orig_pc) {
            let Some(probe) = inputs.get_mut(..slice.inputs.len()) else {
                continue;
            };
            let window = slice.window.min(MAX_GUARD_WINDOW);
            // Inputs the slice itself redefines (loop induction updates,
            // pointer-chase loads) are fed back across probes: probe `j+1`
            // starts from probe `j`'s result. The rest advance by their
            // statically recovered per-crossing stride.
            let defs = slice
                .program
                .iter_pcs()
                .filter_map(|(_, i)| i.def_reg())
                .fold(0u32, |mask, r| mask | 1 << r.index());
            let fed = slice
                .inputs
                .iter()
                .fold(0, |mask, &(r, _)| mask | defs & 1 << r.index());
            // Retrospective probes: the rare path may have fallen *behind*
            // the master already — an asserted branch deviating at crossing
            // -k leaves the master silently diverged, and every task it
            // spawns from here is doomed. Probing the recent past (bounded
            // by the restart point, which is architecturally true) turns
            // that into a veto, and the recovery restart heals the
            // divergence. Only stride-recoverable inputs can rewind;
            // slices with fed-back inputs probe forward only.
            let lookback = if fed == 0 {
                window.min(self.crossings_since_restart) as i64
            } else {
                0
            };
            // The previous probe's register file, which fed-back inputs
            // read. A guard with fed-back inputs starts at `j = 0`, where
            // they read the view.
            let mut last: Option<SliceEval> = None;
            for j in -lookback..=window as i64 {
                for (input, &(r, stride)) in probe.iter_mut().zip(&slice.inputs) {
                    let v = match last {
                        Some(last) if fed & 1 << r.index() != 0 => last.reg(r),
                        _ => self.view(r).wrapping_add_signed(stride.wrapping_mul(j)),
                    };
                    *input = (r, v);
                }
                let eval = eval_slice(&slice.program, probe, budget, |widx| {
                    self.state.load_word(widx)
                });
                let Some(eval) = eval else { break };
                match eval.taken {
                    Some(taken) if taken != slice.asserted_taken => return false,
                    Some(_) => {}
                    None => break,
                }
                last = Some(eval);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssp_analysis::Profile;
    use mssp_distill::{distill, DistillConfig, DistillLevel};
    use mssp_isa::asm::assemble;
    use mssp_machine::{Cell, Storage};

    fn setup(src: &str, target: u64) -> (mssp_isa::Program, Distilled) {
        let p = assemble(src).unwrap();
        let prof = Profile::collect(&p, u64::MAX).unwrap();
        let cfg = DistillConfig {
            target_task_size: target,
            ..DistillConfig::at_level(DistillLevel::None)
        };
        (p.clone(), distill(&p, &prof, &cfg).unwrap())
    }

    const LOOP: &str = "
        main: addi s0, zero, 40
        loop: addi s1, s1, 1
              addi s0, s0, -1
              bnez s0, loop
              halt";

    #[test]
    fn master_spawns_at_entry_then_at_boundaries() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        assert_eq!(m.pending_spawn(), Some(p.entry()));
        let (start, overlay) = m.take_spawn(None);
        assert_eq!(start, p.entry());
        assert!(overlay.is_empty());

        // Run until the next spawn trigger.
        let mut steps = 0;
        while m.pending_spawn().is_none() && m.status() == MasterStall::Active {
            m.step(&d).unwrap();
            steps += 1;
            assert!(steps < 1000);
        }
        let next = m.pending_spawn().unwrap();
        assert!(d.boundaries().contains(&next));
    }

    #[test]
    fn overlay_accumulates_segments_in_flight() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        let (_, ov0) = m.take_spawn(None);
        assert!(ov0.is_empty());

        let mut last_task = 0u64;
        let mut overlays = Vec::new();
        for task_id in 1..=3u64 {
            while m.pending_spawn().is_none() {
                assert!(m.step(&d).is_some());
            }
            let (_, ov) = m.take_spawn(Some(last_task));
            last_task = task_id;
            overlays.push(ov);
        }
        assert_eq!(overlays[0].len(), 1);
        assert_eq!(overlays[1].len(), 2);
        assert_eq!(overlays[2].len(), 3);
        // Newest-first: the first overlay entry of the last spawn holds
        // the most recent s0 value.
        let newest = &overlays[2][0];
        let oldest = &overlays[2][2];
        let newest_s0 = newest.get(Cell::Reg(Reg::S0)).unwrap();
        let oldest_s0 = oldest.get(Cell::Reg(Reg::S0)).unwrap();
        assert!(newest_s0 < oldest_s0, "{newest_s0} vs {oldest_s0}");
    }

    #[test]
    fn commit_prunes_old_segments() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), true, arch.clone());
        let _ = m.take_spawn(None);
        // Spawns task `id` after task `id - 1`: the overlay holds every
        // live segment, the one closed for `id - 1` included.
        let spawn = |m: &mut Master, id: u64| {
            while m.pending_spawn().is_none() {
                assert!(m.step(&d).is_some());
            }
            m.take_spawn(Some(id - 1)).1.len()
        };
        assert_eq!(spawn(&mut m, 1), 1);
        assert_eq!(spawn(&mut m, 2), 2);
        assert_eq!(spawn(&mut m, 3), 3);
        m.on_commit(0);
        assert_eq!(spawn(&mut m, 4), 3, "task 0's segment pruned");
        m.on_commit(3);
        assert_eq!(spawn(&mut m, 5), 1, "only task 4's segment left");
    }

    #[test]
    fn master_halts_with_program() {
        let (p, d) = setup(LOOP, 10);
        let arch = MachineState::boot(&p);
        let mut m = Master::restart_at(&d, p.entry(), false, arch.clone());
        for _ in 0..10_000 {
            if m.pending_spawn().is_some() {
                let _ = m.take_spawn(None);
            }
            if m.step(&d).is_none() {
                break;
            }
        }
        assert_eq!(m.status(), MasterStall::Halted);
    }

    /// The master's storage as it was before it wrote into its snapshot:
    /// reads resolve "writes since restart, then restart snapshot".
    struct LayeredReference {
        base: MachineState,
        since_restart: Delta,
        segment: Delta,
    }

    impl Storage for LayeredReference {
        fn read_reg(&mut self, r: Reg) -> u64 {
            let written = self.since_restart.get(Cell::Reg(r));
            written.unwrap_or_else(|| self.base.reg(r))
        }

        fn write_reg(&mut self, r: Reg, value: u64) {
            if !r.is_zero() {
                self.since_restart.set(Cell::Reg(r), value);
                self.segment.set(Cell::Reg(r), value);
            }
        }

        fn load_word(&mut self, widx: u64) -> u64 {
            let written = self.since_restart.get(Cell::Mem(widx));
            written.unwrap_or_else(|| self.base.load_word(widx))
        }

        fn store_word(&mut self, widx: u64, value: u64) {
            self.since_restart.set(Cell::Mem(widx), value);
            self.segment.set(Cell::Mem(widx), value);
        }
    }

    /// Steps the reference from `dpc` to its next spawn point; returns
    /// the spawn's original-space PC (`None`: halted) and the new `dpc`.
    fn reference_run(d: &Distilled, st: &mut LayeredReference, mut dpc: u64) -> (Option<u64>, u64) {
        let mut crossings = 0;
        loop {
            let info = step(st, d.program(), dpc).unwrap();
            if info.halted {
                return (None, dpc);
            }
            dpc = info.next_pc;
            if info.instr.is_indirect_jump() {
                dpc = d.to_dist(dpc).unwrap();
            }
            if let Some(orig_pc) = d.boundary_at_dist(dpc) {
                crossings += 1;
                if crossings >= d.crossings_per_task() {
                    return (Some(orig_pc), dpc);
                }
            }
        }
    }

    /// Runs the master and the layered reference side by side over `d`,
    /// squashing every seventh task, and checks that they spawn the same
    /// tasks with the same overlays and that no master store reaches
    /// architected state. Returns the tasks spawned and the restarts.
    fn run_against_the_reference(p: &mssp_isa::Program, d: &Distilled) -> (u64, u64) {
        assert!(d.slices().is_empty(), "the reference runs no slices");
        let mut arch = MachineState::boot(p);
        // Architected state built alongside `arch` but never snapshotted,
        // so it shares no page with a master.
        let mut unshared = MachineState::boot(p);
        let mut m = Master::restart_at(d, p.entry(), true, arch.clone());
        let mut reference = LayeredReference {
            base: arch.clone(),
            since_restart: Delta::new(),
            segment: Delta::new(),
        };
        let mut ref_dpc = d.to_dist(p.entry()).unwrap();
        let mut ref_spawn = Some(p.entry());
        let mut ref_live: VecDeque<(u64, Delta)> = VecDeque::new();
        let mut prev: Option<u64> = None;
        let (mut spawned, mut restarts) = (0u64, 0);

        while let Some(want_start) = ref_spawn {
            assert_eq!(m.pending_spawn(), Some(want_start), "task {spawned}");
            if let Some(prev) = prev {
                let closed = std::mem::take(&mut reference.segment);
                arch.apply(&closed);
                unshared.apply(&closed);
                ref_live.push_back((prev, closed));
            }
            let (start, overlay) = m.take_spawn(prev);
            assert_eq!(start, want_start);
            let got: Vec<&Delta> = overlay.iter().map(|seg| &**seg).collect();
            let want: Vec<&Delta> = ref_live.iter().rev().map(|(_, seg)| seg).collect();
            assert_eq!(got, want, "overlay of task {spawned}");
            prev = Some(spawned);
            spawned += 1;

            if spawned % 3 == 0 {
                // All but the newest task commit.
                m.on_commit(spawned - 2);
                ref_live.retain(|&(id, _)| id > spawned - 2);
            }
            if spawned % 7 == 0 {
                // Squash: both restart here, from architected state as
                // the segments closed so far left it.
                restarts += 1;
                m = Master::restart_at(d, start, true, arch.clone());
                reference = LayeredReference {
                    base: arch.clone(),
                    since_restart: Delta::new(),
                    segment: Delta::new(),
                };
                ref_live.clear();
                ref_dpc = d.to_dist(start).unwrap();
                let (restart_pc, restart_overlay) = m.take_spawn(None);
                assert_eq!(restart_pc, start);
                assert!(restart_overlay.is_empty());
                prev = None;
            }

            while m.pending_spawn().is_none() && m.status() == MasterStall::Active {
                m.step(d);
            }
            (ref_spawn, ref_dpc) = reference_run(d, &mut reference, ref_dpc);
            // The master stored into pages it shares with `arch`.
            assert_eq!(
                arch, unshared,
                "master writes leaked into architected state"
            );
        }
        assert_eq!(m.status(), MasterStall::Halted);
        (spawned, restarts)
    }

    #[test]
    fn private_state_master_predicts_like_the_layered_reader_across_a_restart() {
        // Byte, half-word and straddling word stores over two pages, read
        // back at other widths: every store is a read-modify-write of a
        // word the master may or may not have written since restart.
        let (p, d) = setup(
            "
            .data
            buf: .space 8192
            .text
            main: la   s2, buf
                  addi s0, zero, 90
            loop: andi t0, s0, 31
                  add  t1, s2, t0
                  sb   s0, 0(t1)
                  lbu  t2, 1(t1)
                  add  s1, s1, t2
                  sh   s1, 4090(s2)
                  sw   s0, 4094(s2)
                  ld   t3, 4088(s2)
                  add  s1, s1, t3
                  call bump
                  addi s0, s0, -1
                  bnez s0, loop
                  halt
            bump: addi s3, s3, 3
                  sb   s3, 70(s2)
                  ret",
            12,
        );
        let mut runs = vec![(p, d)];
        // Real distillations: a profile without squash feedback attaches
        // no spawn guard, so the reference can run them too.
        for name in ["gzip_like", "mcf_like", "gap_like"] {
            let p = mssp_workloads::Workload::by_name(name)
                .unwrap()
                .program(400);
            let prof = Profile::collect(&p, u64::MAX).unwrap();
            let d = distill(&p, &prof, &DistillConfig::default()).unwrap();
            runs.push((p, d));
        }
        for (p, d) in &runs {
            let (spawned, restarts) = run_against_the_reference(p, d);
            assert!(
                spawned > 20 && restarts >= 3,
                "{spawned} tasks, {restarts} restarts"
            );
        }
    }

    #[test]
    fn unmapped_restart_is_lost() {
        let (_, d) = setup(LOOP, 10);
        let m = Master::restart_at(&d, 0xDEAD_BEE0, true, MachineState::new());
        assert_eq!(m.status(), MasterStall::Lost);
        assert_eq!(m.pending_spawn(), None);
    }
}
