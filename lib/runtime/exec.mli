(** The run-time library's outer loop (section 5): distribute the
    arrays, perform all interprocessor communication up front, then
    drive the microcode over strips and half-strips.

    There is one driver, {!exec}, and it runs a {!program}: source
    arrays with their borders, plus statements over them.  A one-shot
    Fortran statement ({!run}) is a one-statement program on a
    transient arena; the engine's batch is a program of n statements,
    compiled or transform, behind one halo exchange per source array; a
    fused multi-source statement is a program with several sources;
    the transform path is a statement whose plan is an {!Fft} plan
    instead of microcode.  The driver's statistics are the output of
    one price walk, which {!estimate} and {!attribute} expose without
    running anything.

    Compiled statements run in one of two modes, which share every
    phase except the inner loop:

    - [Simulate] runs the cycle-accurate microcode interpreter against
      the FPU pipeline model on every node — the mode the correctness
      tests use, and the mode that validates the analytic cycle model;
    - [Fast] computes the same data directly from each node's padded
      temporaries and prices the inner loop with {!Ccc_microcode.Cost}
      (which [Simulate] provably matches), so large benchmark
      configurations run in reasonable host time.

    Both modes report identical statistics.

    Two host-side levers speed the per-node work without changing any
    result bit: [inner] selects the Fast inner loop (the precompiled
    {!Kernel} offset walk by default, or the bounds-checked tapwalk as
    the measurable baseline), and [pool] runs the per-node loops —
    compute, scatter/gather, halo fill — across a {!Pool} of domains.
    The [Lowered] inner loop additionally blocks each node's subgrid
    into [tile]-sized tiles (default {!Ccc_cm2.Config.t}[.tile]): the
    pool's shared queue schedules (node, tile) items instead of whole
    nodes, so jobs can outnumber nodes and an expensive node no longer
    serializes its whole subgrid.  Outputs are bit-identical across
    all four combinations, every jobs value and every tile geometry;
    [Simulate] keeps asserting Cost = Interp on every node under the
    pool. *)

type mode = Simulate | Fast

(** The Fast inner loop: [Lowered] (default) is {!Kernel}'s
    preresolved offset walk; [Tapwalk] re-derives operand addresses
    from the tap list per element — kept as the measurable baseline
    the scaling benchmark compares against, and as one of the five
    paths of the conformance matrix. *)
type inner = Tapwalk | Lowered

type result = { output : Grid.t; stats : Stats.t }

type batch = { batch_results : result list; batch_stats : Stats.t }
(** A program's results, one per statement in order, plus its total.
    Each statement's own stats carry only its own cycles: compute,
    dispatch stalls and, on the transform path, the transposes.  What
    the statements share — one halo exchange per source and one
    front-end launch — is paid once and appears in [batch_stats]. *)

exception Too_small of string
(** The subgrid cannot accommodate the stencil (border width exceeds a
    subgrid side). *)

exception Invalid_program of string
(** The statements cannot run as one program: there are none, or two
    of them read one source array under different boundary semantics
    (an array is exchanged once, under one boundary). *)

(** {1 Chaos hooks}

    The fault-injection seam (see [Ccc_fault]): callbacks fired
    between the runtime phases and inside the pooled per-node compute
    loop.  The paper's CM-2 trusted ECC memory and a lock-step
    sequencer; the simulated substrate instead lets a deterministic
    injector corrupt state at exactly these points, and the guards of
    [Ccc_fault.Guard] prove the corruption is caught.  The default
    {!no_hooks} does nothing and costs one closure call per phase. *)

type phase_ctx = {
  phase : string;
      (** ["halo"] (after each source's exchange) or ["compute"] (after
          each statement's inner loops) *)
  machine : Ccc_cm2.Machine.t;
  source : Dist.t option;
      (** the distributed source array feeding the halo exchange *)
  halo : Halo.exchange option;
  dst : Dist.t option;
  streams : Dist.t array;
}

type hooks = {
  on_phase : phase_ctx -> unit;
  on_compute_node : int -> unit;
      (** fired inside {!Pool.iter}, once per node before its inner
          loop (on the node's first tile under the tiled [Lowered]
          walk) — an exception here models a dying worker domain and
          surfaces through the pool's deterministic lowest-item
          re-raise *)
}

val no_hooks : hooks

val compose_hooks : hooks -> hooks -> hooks
(** [compose_hooks a b] fires [a] then [b] at every point — the way
    the conformance harness stacks a corrupting injector in front of
    the guards that must catch it. *)

(** {1 Programs} *)

(** How a statement computes. *)
type plan =
  | Compiled of {
      plans : Ccc_microcode.Plan.t list;  (** descending by width *)
      kernel : Kernel.t;  (** the [Lowered] inner loop *)
    }
  | Transform of Fft.plan option
      (** one global circular convolution through {!Fft}: a supplied
          (cached) plan is re-bound against each call's coefficient
          values; [None] builds one on the fly, unverified (use
          {!Fft.build} for the verifying variant).  Raises
          {!Fft.Varying} on a spatially non-uniform coefficient.
          Output is bit-identical across jobs values, and 1e-9-close
          (not bit-identical) to the direct paths. *)

type statement = { taps : Ccc_stencil.Multi.t; plan : plan }

type program = statement list
(** Statements in execution order.  Their source arrays are the
    program's sources: each is exchanged once, padded to the widest
    border any statement reads it with, corners fetched if any
    statement reads a diagonal (sound for the others, which never read
    corners).  Every statement reading a source must use the same
    boundary semantics; the driver and the price walk raise
    {!Invalid_program} otherwise, and on an empty program. *)

val compiled : ?kernel:Kernel.t -> Ccc_compiler.Compile.t -> statement
(** A compiled single-source statement.  [kernel] supplies a
    pre-verified lowering (the engine's cached one); when absent the
    statement lowers on the fly, unverified (the qcheck properties
    cover it). *)

val fused : Ccc_compiler.Compile.fused -> statement
(** A compiled multi-source statement — the future-work
    generalization that handles "all ten terms as one stencil
    pattern" (section 7). *)

val transform : ?plan:Fft.plan -> Ccc_stencil.Pattern.t -> statement
(** A transform-path statement: no compilation is needed, which is the
    point — dense kernels the compiler rejects still run here. *)

(** {1 Arenas} *)

module Arena : sig
  type t
  (** The regions a program runs in: source and destination subgrids,
      coefficient streams and padded halo temporaries.  The node
      memories are bump allocators, so an arena caches exactly one
      shape profile (subgrid sides, per-source border widths, stream
      count): a matching call reuses every region in place; a
      different profile frees back to the arena's floor watermark and
      rebuilds. *)

  val create : Ccc_cm2.Machine.t -> t
  (** A standing arena, as a persistent engine
      ({!Ccc_service.Engine}) keeps one: take the floor watermark at
      the machine's current allocation top.  Anything allocated
      afterwards is managed by the arena and released by profile
      changes and {!reset}, so a repeated call of the same shape skips
      the allocate/release cycle entirely and pays only data
      movement. *)

  val transient : Ccc_cm2.Machine.t -> t
  (** Like {!create}, but {!exec} releases the arena's regions back to
      the floor before it returns — the faithful rendering of one
      Fortran statement, and the arena of {!run}. *)

  val reuses : t -> int
  (** Calls served from the standing regions. *)

  val rebuilds : t -> int
  (** Calls that had to (re)build the regions: the first call, and
      every shape-profile change. *)

  val reset : t -> unit
  (** Release the regions back to the floor watermark. *)
end

(** {1 Execution} *)

val check :
  Arena.t -> Ccc_stencil.Multi.t list -> streams:int -> Reference.env -> int * int
(** {!exec}'s input check, run before anything is allocated: the
    statements form a program ({!Invalid_program} otherwise), every
    array each statement reads is bound ({!Reference.Unbound}
    otherwise) and has the shape of the program's first source, which
    must divide over the node grid ({!Reference.Shape_mismatch}
    otherwise), every source's border fits the per-node subgrid
    ({!Too_small} otherwise), and the regions the arena builds for
    the program — each source and its padded halo, [streams]
    coefficient streams and the destination — fit the node memory the
    arena can still allocate ({!Reference.Shape_mismatch} otherwise).
    Returns the per-node subgrid shape. *)

val exec :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?tile:int * int ->
  ?hooks:hooks ->
  Arena.t ->
  program ->
  Reference.env ->
  batch
(** The driver.  In order: {!check} the environment and resolve every
    transform plan; acquire the arena's regions; scatter each source
    (the first statement's coefficient streams fill alongside); run
    one halo exchange per source (the ["halo"] hook after each); then,
    per statement, refill its streams, compute, fire the ["compute"]
    hook and gather.  Statistics are {!estimate}'s for the same
    program, by construction.

    [iterations] (default 1) scales the timing statistics the way the
    paper's sustained measurements loop the computation; the data
    result is that of a single application.  [mode] applies to
    compiled statements (the transform has no microcode to
    interpret).  [tile] overrides the machine config's kernel blocking
    (clamped to the subgrid; the result is bit-identical at every
    geometry).

    [obs] (default disabled — one branch per phase, no allocation)
    opens a [run] span ([run.batch] for several statements, with a
    [statements] attribute; [run.fused] for one statement over several
    sources) with [run.scatter] / [run.streams] / [run.halo] /
    [run.compute] (one [run.halfstrip] child per half-strip,
    cycle-priced by the analytic model) / [run.gather] children, plus
    [run.frontend] on a transient arena, and folds the total
    {!Stats.t} into the context's metrics registry.  Spans and metrics
    are recorded only from the coordinating domain, outside the pooled
    loops. *)

val single : batch -> result
(** A one-statement program's result: its output with the program's
    total statistics.  Raises [Invalid_argument] on any other
    program. *)

val run :
  ?obs:Ccc_obs.Obs.t ->
  ?mode:mode ->
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  ?pool:Pool.t ->
  ?inner:inner ->
  ?kernel:Kernel.t ->
  ?tile:int * int ->
  ?hooks:hooks ->
  Ccc_cm2.Machine.t ->
  Ccc_compiler.Compile.t ->
  Reference.env ->
  result
(** Execute one compiled stencil over host arrays: {!exec} of the
    one-statement program [[compiled ?kernel c]] on a transient arena,
    so every temporary allocated on the machine is released before
    returning. *)

(** {1 Pricing} *)

val estimate :
  ?primitive:Halo.primitive ->
  ?iterations:int ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  program ->
  Stats.t
(** Timing without data: the total statistics {!exec} reports for the
    program on a per-node subgrid of the given shape — the same walk,
    not a model of it.  The benchmark harness uses this for the
    paper's production-size rows (10^13 flops would be unreasonable to
    move through the simulator).  Raises {!Too_small} when a border
    exceeds the subgrid. *)

val attribute :
  ?primitive:Halo.primitive ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  program ->
  Ccc_obs.Profiler.breakdown
(** Per-phase cycle attribution: {!estimate}'s walk with the compute
    share opened up into the nine microcode phases of
    {!Ccc_obs.Profiler} (and the transform's compute as a tenth).  The
    breakdown's compute total equals {!estimate}'s [compute_cycles]
    (and therefore the interpreter's cycle count) by construction —
    the paper's Table-1 split as live telemetry.  Raises {!Too_small}
    like {!estimate}. *)

(** {1 Backend selection}

    The per-request planner of the serve plane: compiled multistencil
    or transform path, by predicted cycles. *)

type backend = Auto | Force_compiled | Force_fft

val backend_of_string : string -> backend option
(** ["auto"], ["compiled"], ["fft"] — the CLI's [--backend] values. *)

val backend_name : backend -> string

val select_backend :
  ?backend:backend ->
  sub_rows:int ->
  sub_cols:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t option ->
  [ `Compiled | `Fft ]
(** Choose the execution path for one request: a pure, deterministic
    function of the configuration, the compiled plans (or [None] when
    compilation was rejected) and the grid shape.  Under [Auto] both
    paths are priced by {!estimate} — communication plus compute, the
    halo exchange included on both sides; ties go to the compiled
    path, whose results are bit-identical to the simulator.  [Auto]
    with no compiled plans is the dense-kernel fallthrough: [`Fft]
    instead of a resource rejection.  The caller remains responsible
    for FFT eligibility (spatially uniform coefficients). *)

(** {1 Debugging and oracles} *)

val trace :
  ?width:int ->
  ?lines:int ->
  Ccc_cm2.Config.t ->
  Ccc_compiler.Compile.t ->
  string list
(** A cycle-by-cycle issue trace of one half-strip on a synthetic
    one-node sandbox: a header naming the plan width actually selected
    (and whether it was requested or the widest-available fallback),
    then one line per dynamic part showing the sequencer cycle, the
    subgrid row being processed, and the part issued.  [width] selects
    a plan (default: the widest); [lines] is the half-strip height
    (default 3).  Implemented over the span tracer: the half-strip is
    a span, each issue a cycle-timestamped child, and the lines are
    rendered from the recorded tree.  A debugging and teaching aid —
    the paper's authors "tested the microcode loops thoroughly" in
    exactly this style under the Lisp prototype's debugger. *)

val reference_fused : Ccc_stencil.Multi.t -> Reference.env -> Grid.t
(** Direct evaluation of a multi-source pattern: the oracle for fused
    statements. *)
