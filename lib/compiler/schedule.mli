(** Instruction scheduling for one multistencil width (section 5.3).

    Produces the unrolled register-access patterns (the dynamic-part
    table) for a strip plan:

    - the {e leading edge} loads: one element per multistencil column
      per line (per source, in the multi-source generalization),
      placed in the next slot of that column's ring buffer;
    - the multiply-add chains, computed in interleaved pairs to match
      the WTL3164 timing: the two chains of a pair issue on alternate
      cycles, each accumulating into the register that holds the tagged
      (bottom-row leftmost) data element of its own stencil occurrence,
      seeded from the pinned zero register;
    - within a chain, taps are ordered by the {e deadline} of the
      register they read: a tap whose register is about to be
      overwritten by an accumulation (its own tag, or the pair
      partner's tag — the paper's "just barely allow" case) issues
      first, so every read lands before the overwriting write;
    - the result stores, recycled from the tagged registers.

    Scheduling fails only if some tap cannot meet its deadline, which
    the pair structure makes impossible for left-to-right processing —
    but the checker verifies rather than assumes. *)

exception Infeasible of Ccc_analysis.Finding.t
(** A deadline the scheduler could not meet, as a structured finding
    (check {!Ccc_analysis.Finding.Infeasible}), so the compiler driver
    and CLI report it uniformly with the analyzer's own output. *)

val build :
  Ccc_cm2.Config.t ->
  Ccc_stencil.Multistencil.t ->
  Regalloc.allocation ->
  Ccc_microcode.Plan.t
(** Build the full plan for an ordinary single-source stencil: rings,
    phases for every unroll step, and the warmup prologue.  Raises
    {!Infeasible} if a deadline cannot be met (defensive; no
    recognizable pattern triggers it) and [Failure] if the register
    file is too small for the pinned registers plus the allocation. *)

val build_multi :
  Ccc_cm2.Config.t ->
  Ccc_stencil.Multi.t ->
  (int * Ccc_stencil.Multistencil.t) list ->
  Regalloc.merged_allocation ->
  Ccc_microcode.Plan.t
(** The future-work generalization: one plan over several source
    arrays, each contributing its own multistencil (all of the same
    width) and ring buffers.  The tagged accumulators come from
    {!Ccc_stencil.Multi.primary_source}, whose bottom-most-row
    argument survives the generalization. *)

val check_hazards : Ccc_cm2.Config.t -> Ccc_microcode.Plan.t -> unit
(** Static verification of one plan: simulate issue cycles for every
    phase and confirm that each data-register read occurs strictly
    before the first in-flight write to that register lands, that
    stores read landed values, and that loads target exactly the slot
    their column's ring rotation designates.  Raises
    {!Ccc_analysis.Finding.Failed} on violation, a load whose ring has
    size 0 included (a [Ring_layout] finding).

    This is the builder's own inline check; the standalone analyzer
    ([Ccc_analysis.Verify], run by [Compile] on every produced plan)
    re-proves the same properties — and more — from an independent
    abstract interpretation. *)
