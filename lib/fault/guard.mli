(** Runtime self-checking for the simulated substrate.

    The paper's correctness story is static: verify the microcode
    once, trust the hardware forever (section 8, "we tested the
    microcode loops thoroughly").  {!Inject} deliberately breaks the
    hardware half of that bargain, so this module supplies the
    matching runtime half — independent recomputation of what each
    phase must have produced:

    - {!check_halo} re-derives every padded halo cell from the
      distributed source with the same owner arithmetic as
      {!Ccc_runtime.Halo.exchange_into} and compares exactly
      (clean runs recompute the identical value, so exact equality
      has zero false positives);
    - {!check_output} compares a gathered result against
      {!Ccc_runtime.Reference.apply} to the suite-wide 1e-9;
    - {!check_kernel} re-proves a cached lowered kernel on the
      one-node sandbox ({!Ccc_runtime.Kernel.verify});
    - {!revalidate} re-runs the standalone dataflow verifier
      ({!Ccc_analysis.Verify}) over every cached plan.

    All checks return structured {!Ccc_analysis.Finding.t} lists
    ([Halo_integrity] / [Output_integrity] / [Kernel_integrity]) with
    the corrupted location in the message — detection is data, never
    a crash.

    The two exact checks of every guarded run are cheap enough to stay
    on: {!check_halo} compares strips and {!check_output}'s reference
    is a resolved loop, so on the traced [serve] benchmark they take
    about a fifth of a guarded singleton's time where they took three
    quarters (DESIGN.md section 9).  They stay exact rather than
    becoming a tolerance-based checksum (ABFT): once the exact check
    costs less than the run it guards, a checksum would save little
    and would miss corruption confined to the low mantissa bits. *)

type watch = {
  hooks : Ccc_runtime.Exec.hooks;
      (** runs {!check_halo} after every halo exchange *)
  caught : Ccc_analysis.Finding.t list ref;
      (** findings accumulated by the hooks, newest first *)
}

val watch : Ccc_stencil.Pattern.t -> watch
(** In-flight guard hooks for one statement: the halo check fires on
    the ["halo"] phase (the padded temporaries are released before
    [run] returns, so the check cannot run after the fact).  Compose
    after an injector with {!Ccc_runtime.Exec.compose_hooks} so the
    guard sees what the fault corrupted. *)

val check_halo :
  source:Ccc_runtime.Dist.t ->
  halo:Ccc_runtime.Halo.exchange ->
  boundary:Ccc_stencil.Boundary.t ->
  needs_corners:bool ->
  Ccc_analysis.Finding.t list
(** Recompute every padded cell on every node (wraparound or fill via
    {!Ccc_runtime.Dist.owner}, NaN corner poison when corners are
    skipped) and report each cell whose stored value differs under
    [Float.compare], in node, row, column order.  The work is done by
    strips: each padded row splits into its west frame, body and east
    frame, whose owner is resolved once — NaN poison, EOSHIFT fill, or
    one contiguous row of one node's subgrid, since an exchange's pad
    never exceeds the subgrid side — and the run is compared word by
    word.  The findings are exactly those of a cell-by-cell
    derivation: same cells, order and messages. *)

val check_output :
  ?limit:int ->
  Ccc_stencil.Pattern.t ->
  Ccc_runtime.Reference.env ->
  Ccc_runtime.Grid.t ->
  Ccc_analysis.Finding.t list
(** Compare a result grid against the reference evaluator; at most
    [limit] (default 8) per-cell findings plus a summary when more
    cells diverge. *)

val check_kernel :
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t ->
  Ccc_runtime.Kernel.t ->
  Ccc_analysis.Finding.t list
(** {!Ccc_runtime.Kernel.verify} with failures rendered as findings
    instead of exceptions (a poisoned kernel may fail the sandbox
    comparison or the specialization bounds check — both are
    [Kernel_integrity]). *)

val revalidate :
  Ccc_cm2.Config.t -> Ccc_compiler.Compile.t -> Ccc_analysis.Finding.t list
(** The PR-1 dataflow verifier over every plan of a cached
    compilation — the plan-cache revalidation step of the recovery
    ladder. *)

val grid_checksum : Ccc_runtime.Grid.t -> int64
(** An order-sensitive checksum of the grid's float bits: equal
    checksums are the retry ladder's cheap witness that a recovered
    run reproduced the clean result bit for bit. *)

val region_checksum : Ccc_cm2.Machine.t -> Ccc_cm2.Memory.region -> int64
(** The same checksum over one region across every node memory — the
    arena-reuse guard fingerprints standing regions between calls. *)
