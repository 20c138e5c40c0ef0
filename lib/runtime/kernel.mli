(** Precompiled flat kernels for the Fast backend.

    The paper's inner loop never re-decides anything: the compiler
    fixes the microcode once and the run-time library precomputes the
    "dynamic parts" — the operand addresses — per stencil call
    (section 5).  The Fast backend's tapwalk loop, by contrast,
    re-derives every operand address from the tap list with
    bounds-checked accessors on every element.  This module is the
    Fast backend's rendering of the paper's move: {!lower} flattens the
    validated pattern into per-tap displacement tables, {!specialize}
    resolves them once per statement against the node's region layouts
    ({!Ccc_cm2.Machine.alloc_all} guarantees all nodes share one
    layout, so one specialization serves every node), and
    {!exec_tile}/{!exec_node} are branch-free offset walks over the
    raw store with unchecked accesses — licensed by the bounds
    validation that {!specialize} performs over the whole sweep up
    front, plus one check per call that the store handed in reaches
    the walk's {!extent} (node stores are materialized lazily, so the
    capacity a walk was validated against may exceed the store).
    Specialization also blocks the subgrid into cache-sized
    tiles (the [tile] parameter, default {!Ccc_cm2.Config.t}[.tile]
    threaded through {!Exec}): a tile is the unit of work the pool's
    shared queue schedules, and within a tile row every tap sweeps a
    contiguous destination span as a unit-stride multiply-accumulate
    trip, so coefficient and source rows are cache-resident when
    reused instead of being reloaded per cell.

    {!build} additionally verifies the lowering once, on a one-node
    sandbox, against both {!Reference.apply} and the cycle-accurate
    {!Ccc_microcode.Interp}; mismatches raise
    {!Ccc_analysis.Finding.Failed} with structured findings.  The
    engine caches the verified kernel alongside the plan. *)

type t
(** A lowered kernel: geometry-independent per-tap displacement
    tables in pattern (= coefficient stream) order. *)

val lower : Ccc_stencil.Multi.t -> t
(** Flatten a pattern, single-source ({!Ccc_stencil.Multi.of_pattern})
    or multi-source (tap [i] reads the padded temporary of its own
    source).  Unverified — the cheap path for one-shot runs; {!build}
    is the verifying path the engine uses. *)

val ntaps : t -> int

val nstreams : t -> int
(** Taps plus the bias stream if any: the coefficient stream count the
    plan must carry. *)

val build : Ccc_cm2.Config.t -> Ccc_compiler.Compile.t -> t
(** {!lower}, then verify on a one-node sandbox (deterministic data,
    halo filled exactly as {!Halo.exchange_into} would — boundary
    semantics of the subgrid itself, NaN-poisoned corners when no tap
    is diagonal): the kernel must match {!Reference.apply} to 1e-9,
    and the cycle-accurate interpreter run over the same bindings must
    match both.  Raises {!Ccc_analysis.Finding.Failed} on any
    mismatch. *)

val verify : Ccc_cm2.Config.t -> Ccc_compiler.Compile.t -> t -> unit
(** The sandbox check of {!build} alone: verify an already-lowered
    kernel against [Reference.apply] and the interpreter for the given
    compilation.  Raises {!Ccc_analysis.Finding.Failed} on mismatch.
    This is the plan-cache revalidation hook: a cached kernel suspected
    of corruption (see [Ccc_fault]) is re-proven here before reuse. *)

val corrupt : ?seed:int -> t -> t
(** A deterministically corrupted copy: one tap's column displacement
    (chosen by [seed], default 1) is shifted by one word.  The walk
    usually still passes {!specialize}'s bounds validation — the
    corruption is silent at specialization time and visible only as
    wrong data, exactly the failure mode a poisoned plan-cache entry
    would produce.  {!verify} rejects it.  Fault injection only. *)

type source_layout = { base : int; pcols : int; pad : int }
(** One padded source temporary: base address, row stride, halo
    width — the same triple as {!Ccc_microcode.Interp.source_binding}. *)

type spec
(** A kernel specialized to one statement's region layouts: absolute
    offset tables, bounds-validated over the whole sweep, plus the
    row-major tile decomposition of the subgrid ({!tile_count} tiles
    with clamped edges) that {!exec_tile} executes. *)

val specialize :
  t ->
  ?tile:int * int ->
  sub_rows:int ->
  sub_cols:int ->
  sources:source_layout array ->
  coeff_bases:int array ->
  dst_base:int ->
  words:int ->
  unit ->
  spec
(** Resolve the kernel against concrete layouts.  [coeff_bases] are
    the stream region bases in plan order ({!nstreams} of them);
    [words] is the node memory capacity every resolved walk is
    validated against.  Raises [Invalid_argument] if any walk could
    escape [0, words); otherwise records the walks' {!extent}, and the
    unchecked accesses of {!exec_tile} and {!exec_node} are safe on
    any store at least that long.  [tile] is the requested (rows, cols)
    blocking, clamped into [1, sub_rows] x [1, sub_cols] (so
    degenerate 1x1 tiles and tiles larger than the subgrid are both
    legal); edge tiles absorb any non-dividing remainder, and the
    default is one tile covering the whole subgrid.  The per-tile
    offset tables are precomputed here, so the execution loops divide
    nothing. *)

val tile_count : spec -> int
(** Number of tiles the specialization cut the subgrid into; the valid
    {!exec_tile} indices are [0 .. tile_count - 1], in row-major
    order (tile 0 holds the subgrid origin). *)

val extent : spec -> int
(** One past the highest word any validated walk touches: the store
    length {!exec_tile} and {!exec_node} require.  Callers running on a
    lazily materialized {!Ccc_cm2.Memory} {!Ccc_cm2.Memory.reserve} it
    on every node before the pool phase. *)

val exec_tile : spec -> int -> float array -> unit
(** Run one tile of the specialized kernel over one node's raw store
    ({!Ccc_cm2.Memory.raw}): per tile row the destination span is
    zeroed, then every tap — and last the bias — sweeps it as a
    unit-stride multiply-accumulate trip with the coefficient and
    source row bases hoisted out of the column loop.  Per cell the
    additions run in exactly the tapwalk's order (taps in pattern
    order, bias last), so any tile decomposition writes bits identical
    to the checking inner loop.  Tiles touch disjoint destination
    spans, so distinct tiles — of one node or of many — may run on
    concurrent domains; the loop allocates nothing.  Raises
    [Invalid_argument] if the store is shorter than {!extent} or the
    tile index is out of range. *)

val exec_node : spec -> float array -> unit
(** All of the node's tiles in order: {!exec_tile} over
    [0 .. tile_count - 1].  The sequential spelling of the same
    walk — bit-identical to running the tiles in any order or on any
    number of domains.  Raises [Invalid_argument] if the store is
    shorter than {!extent}. *)
