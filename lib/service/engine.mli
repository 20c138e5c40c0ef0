(** A persistent execution engine over one simulated machine.

    The paper's workflow is one subroutine at a time: compile, launch,
    release.  Section 7's sustained measurements instead loop the same
    stencil thousands of times, and there "the microcode loops are so
    fast that the front end computer is hard pressed to keep up" — the
    per-call costs (compilation, temporary allocation, launch
    overhead) dominate unless they are amortized.  The engine is that
    amortization layer:

    - a {e plan cache}, content-addressed by {!Fingerprint.key}, so a
      stencil recompiles only when its geometry, coefficient shape,
      boundary or the machine configuration actually changes —
      renamed coefficients and variables are served by
      {!Ccc_compiler.Compile.rebind} without rescheduling;
    - a standing {e arena} ({!Ccc_runtime.Exec.Arena}) of machine
      regions, so repeated same-shape calls skip the per-call
      allocate/release cycle of {!Ccc_runtime.Exec.run};
    - {!run_batch}, which executes several statements over the same
      source array behind a single halo exchange and a single
      front-end launch — the strength-reduced host loop of section 7.

    Every request passes one resolve step before the driver
    ({!Ccc_runtime.Exec.exec}) runs it: the input is checked, the
    cache looked up, the plans rebound to the request's names, the
    backend chosen and the kernel or transform plan fetched.  Input
    errors are refused there as {!Outcome.reject} values, never as
    escaping exceptions: an unbound or mis-shaped array, and a grid
    that does not divide over the node grid, as [Parse_error]; a
    border wider than the per-node subgrid as [Too_small]. *)

type t

(** {1 Engine lifecycle} *)

type settings = {
  capacity : int;  (** plan-cache entries (default 32) *)
  jobs : int;  (** resident pool size (default 1, fully sequential) *)
  memory_words : int option;
      (** per-node memory capacity ([None] = machine default); the
          host materializes only the words the engine's runs reach *)
  queue_depth : int;
      (** serving: per-tenant admission bound enforced by the PR-7
          scheduler above this engine (default 64) *)
  tenants : int;
      (** serving: distinct tenants the scheduler admits (default 16) *)
  widths : int list option;
      (** multistencil widths offered to the compiler; [None] (the
          default) defers to
          {!Ccc_compiler.Compile.candidate_widths}.  Restricting to
          [[8]] reproduces the paper's section-6 rejections (cross9,
          diamond13) inside a serving engine, which then serves them
          from the transform path. *)
}

val default_settings : settings

val create :
  ?obs:Ccc_obs.Obs.t ->
  ?flight:Ccc_obs.Flight.t ->
  ?settings:settings ->
  Ccc_cm2.Config.t ->
  t
(** One machine, one arena, an empty plan cache holding up to
    [settings.capacity] compiled plans with least-recently-used
    eviction.  [settings.jobs] sizes the resident {!Ccc_runtime.Pool}
    spawned once here and threaded through every pooled per-node loop
    of every run — outputs and statistics are bit-identical for every
    jobs value.  Configuration arrives as the labeled [settings]
    record ({!default_settings} with [{ default_settings with ... }]
    overrides).  [obs] supplies the
    observability context the engine threads through every compile and
    run; by default the tracer is disabled and the engine keeps a
    private metrics registry.  [flight] attaches a
    {!Ccc_obs.Flight} ring (the serving shard's flight recorder):
    cache evictions, guard trips and degradations leave breadcrumbs
    there in addition to the log.  Cache hits, misses and evictions are
    also reported on the ["ccc.engine"] {!Logs} source (debug/info),
    and every rejection is a structured warning carrying the stencil
    fingerprint. *)

val config : t -> Ccc_cm2.Config.t
val machine : t -> Ccc_cm2.Machine.t

val pool : t -> Ccc_runtime.Pool.t
(** The resident domain pool (spawned once at {!create}, next to the
    arena). *)

val jobs : t -> int
(** The pool's size; [1] means fully sequential. *)

val shutdown : t -> unit
(** Join the pool's worker domains.  Call when the engine is no longer
    needed; OCaml caps live domains, so long-lived processes must not
    leak pools.  Idempotent and safe to repeat; a run attempted
    afterwards raises [Ccc_analysis.Finding.Failed] with a [Lifecycle]
    finding from {!Ccc_runtime.Pool.iter} rather than hanging on dead
    workers.

    {b Ownership.}  The engine handle itself is single-owner: the plan
    cache, LRU tick and arena are deliberately lock-free coordinator
    state (DESIGN.md section 8), so every entry point checks that the
    calling domain is the creating domain and raises
    [Ccc_analysis.Finding.Failed] with an [Ownership] finding
    otherwise.  Parallelism belongs {e inside} a run (the [jobs] pool),
    not across engine handles. *)

val obs : t -> Ccc_obs.Obs.t
(** The engine's observability context. *)

val metrics : t -> Ccc_obs.Metrics.t
(** The metrics registry behind {!stats}: every engine counter lives
    here under [engine.*] names (plan cache, compiles/runs/batches,
    accumulated cycles, per-call compute histogram, and the arena
    reuse/rebuild family, synced on each {!stats} call), alongside the
    [run.*] accounting {!Ccc_runtime.Stats.record} folds in. *)

val reset : t -> unit
(** Drop every cached plan, release the arena's standing regions and
    zero all counters (the entire metrics registry is reset). *)

(** {1 Compilation through the cache} *)

val compile :
  t -> Ccc_stencil.Pattern.t -> (Ccc_compiler.Compile.t, Outcome.reject) result
(** Compile through the plan cache: a hit reuses the cached schedules
    verbatim (rebound to the request's coefficient names); a miss
    compiles, caches, and evicts the least recently used entry when
    the cache is full.  Each cached entry also carries the statement's
    lowered {!Ccc_runtime.Kernel}, built and verified once at miss
    time (against both {!Ccc_runtime.Reference.apply} and the
    cycle-accurate interpreter) and served to every subsequent run —
    sound across rebinds, which retarget names but never tap offsets,
    stream count or bias arity.

    Since PR 10 rejections are cached too: a dense stencil no width
    fits is remembered with its per-width findings, so this still
    returns [Error (Resource_error _)] on every call but runs the
    scheduler only once; {!run} and {!run_guarded} serve such entries
    from the transform path.  Each entry may
    additionally hold one standing {!Ccc_runtime.Fft.plan} for the
    transform path (one shape at a time, like the arena), counted
    under [engine.fft.builds] / [engine.fft.rebinds]. *)

val compile_statement :
  t -> string -> (Ccc_compiler.Compile.t, Outcome.reject) result
(** Parse and recognize one bare Fortran assignment, then {!compile}. *)

val recognize_statement :
  string -> (Ccc_stencil.Pattern.t, Outcome.reject) result
(** The front half of {!compile_statement}: parse and recognize one
    bare assignment without touching any engine (pure, callable from
    any domain).  The serve scheduler resolves [Request.Text] stencils
    through this before routing, so a malformed request is refused at
    admission rather than on a worker. *)

(** {1 Execution} *)

val run :
  ?mode:Ccc_runtime.Exec.mode ->
  ?iterations:int ->
  t ->
  Ccc_stencil.Pattern.t ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.result, Outcome.reject) result
(** Resolve the request and execute it.  The planner
    ({!Ccc_runtime.Exec.select_backend}) picks compiled or transform
    per request by predicted cycles, and a stencil the compiler
    rejects falls through to the transform path instead of
    [Resource_error].  On the compiled path the statement runs
    against the arena's standing regions, and the output and
    statistics are bit-identical to {!Ccc_runtime.Exec.run} on a
    fresh machine; on the transform path it runs with the entry's
    standing plan on a transient arena above the standing one
    (1e-9-close to the direct paths, bit-identical across [jobs];
    [mode] is ignored — there is no microcode to interpret).  A
    pattern with spatially-varying coefficients is not a convolution:
    the transform path refuses it and the engine falls back to the
    compiled plan when one exists, [Error (Resource_error _)]
    otherwise. *)

val run_statement :
  ?mode:Ccc_runtime.Exec.mode ->
  ?iterations:int ->
  t ->
  string ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.result, Outcome.reject) result

(** {1 Guarded execution}

    {!run} trusts the substrate the way the paper trusted the CM-2's
    ECC memory and lock-step sequencer.  {!run_guarded} does not: it
    rides the {!Ccc_fault.Guard} self-checks on every run (halo
    integrity after the exchange, output against the reference
    evaluator) and climbs a recovery ladder when they fire —
    bounded same-artifact retries (transient faults are one-shot),
    then a diagnose-and-rebuild rung, and finally graceful degradation
    to the host reference path.  Only the rebuild rung depends on the
    backend: on the compiled path it revalidates the cached plan and
    kernel ({!Ccc_fault.Guard.check_kernel},
    {!Ccc_fault.Guard.revalidate}) and replaces the cache entry with a
    from-scratch recompile; on the transform path it re-proves the
    cached spectrum ({!Ccc_runtime.Fft.verify}) and replaces it with a
    fresh {!Ccc_runtime.Fft.build} (counted under [engine.fft.builds]).
    A detected fault therefore never escapes as a wrong answer or an
    uncaught exception: the worst case is a slow, correct
    [Degraded] outcome carrying every finding gathered on the way
    down.  Input errors never reach the ladder — the resolve step
    refuses them first.  The ladder counts under [engine.guard.*] and
    [engine.kernel.verifies] in the metrics registry. *)

val run_guarded :
  ?mode:Ccc_runtime.Exec.mode ->
  ?iterations:int ->
  ?inject:Ccc_runtime.Exec.hooks ->
  ?max_retries:int ->
  t ->
  Ccc_stencil.Pattern.t ->
  Ccc_runtime.Reference.env ->
  Outcome.t
(** {!run} under the guards and the recovery ladder, answered as an
    {!Outcome.t} tagged with the stencil's fingerprint: [Completed]
    (possibly after retries or a rebuild — see the [engine.guard.*]
    counters), [Degraded], or [Refused] for a request {!run} would
    reject.  [inject] (default {!Ccc_runtime.Exec.no_hooks}) is the
    fault-injection seam — the conformance tests compose an
    {!Ccc_fault.Inject} injector here; [max_retries] (default 2)
    bounds the same-artifact rung of the ladder.  On a clean substrate
    the guarded run costs one halo recomputation and one reference
    evaluation per call and always completes. *)

val run_batch :
  ?mode:Ccc_runtime.Exec.mode ->
  t ->
  Ccc_stencil.Pattern.t list ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.batch, Outcome.reject) result
(** Execute several statements over the same source array as one
    program: one halo exchange and one front-end launch; see
    {!Ccc_runtime.Exec.batch} for the statistics contract.  Batches
    are always compiled.  All statements must name the same source
    variable and boundary semantics ([Error (Invalid_batch _)]
    otherwise), and each passes the resolve step of {!run}. *)

val run_batch_statements :
  ?mode:Ccc_runtime.Exec.mode ->
  t ->
  string list ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.batch, Outcome.reject) result

(** {1 Counters} *)

type stats = {
  jobs : int;  (** the resident pool's size (settings echo) *)
  queue_depth : int;  (** serving admission bound (settings echo) *)
  tenants : int;  (** serving tenant limit (settings echo) *)
  hits : int;  (** cache hits (plans served without compilation) *)
  misses : int;  (** cache misses (including failed compilations) *)
  evictions : int;
  entries : int;  (** live cache entries *)
  capacity : int;
  compiles : int;  (** successful compilations = misses that compiled *)
  runs : int;  (** single-statement executions (either path) *)
  batches : int;  (** batched executions *)
  fft_runs : int;  (** executions served by the transform path *)
  fft_builds : int;
      (** transform plans built and sandbox-proved (misses, shape or
          renaming changes, and guard-ladder rebuilds) *)
  fft_rebinds : int;
      (** cache hits whose coefficient values changed, re-transforming
          only the coefficient image *)
  arena_reuses : int;  (** calls served from the standing regions *)
  arena_rebuilds : int;  (** first call and every shape change *)
  comm_cycles : int;  (** accumulated halo-exchange cycles *)
  compute_cycles : int;  (** accumulated microcode cycles *)
  frontend_s : float;  (** accumulated front-end seconds *)
  per_call_compute : (int * float * int) option;
      (** min, mean and max compute cycles per recorded run or batch
          ([None] before the first execution) — the summary of the
          [engine.compute_cycles_per_call] histogram *)
  per_call_quantiles : (float * float * float) option;
      (** p50, p95 and p99 compute cycles per recorded run or batch,
          estimated from the histogram's log-spaced buckets ([None]
          before the first execution) *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Renders {!stats} in a stable field order — identity line (jobs,
    queue depth, tenants), plan cache, work counts, transform path,
    arena, accumulated cycles, per-call histogram — shared with the
    serve scheduler's stats printer, which prints its own
    identity/admission/work lines in the same discipline and embeds
    this table per shard. *)
