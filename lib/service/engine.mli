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

    All entry points return [result] values; in particular a too-small
    array surfaces as [Error (Too_small _)], never as an escaping
    exception. *)

type t

(** {1 Errors}

    Deprecated alias: since PR 7 the one definition of the rejection
    shape is {!Outcome.reject}, shared by [Ccc.error], this alias and
    the serve scheduler.  Kept so existing callers (and their pattern
    matches) migrate in place. *)

type error = Outcome.reject =
  | Parse_error of string
  | Rejected of Ccc_frontend.Diagnostics.t list
      (** the statement does not fit the stylized stencil form *)
  | Resource_error of (int * Ccc_analysis.Finding.t) list
      (** no multistencil width fits registers or scratch memory: the
          per-width rejection findings, widest first (the structured
          section-6 feedback) *)
  | Too_small of string
      (** the subgrid cannot accommodate the stencil's border *)
  | Invalid_batch of string
      (** the batch statements do not share a source array and
          boundary semantics *)

val error_to_string : error -> string
(** Deprecated alias of {!Outcome.reject_to_string}. *)

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
  tile : (int * int) option;
      (** kernel tile geometry ((rows, cols) per tile) forwarded to
          every run of this engine; [None] (the default) defers to
          {!Ccc_cm2.Config.t}[.tile].  Purely a host-side execution
          parameter: results are bit-identical at every geometry. *)
  backend : Ccc_runtime.Exec.backend;
      (** execution-path policy for {!run} and {!run_guarded}
          (default [Auto]): [Auto] picks compiled vs transform per
          request by predicted cycles
          ({!Ccc_runtime.Exec.select_backend}), with a stencil the
          compiler rejects falling through to the transform path
          instead of [Resource_error]; [Force_compiled] and
          [Force_fft] pin one path for ablation runs.  Batches are
          always compiled: the shared-halo-exchange contract of
          {!run_batch} has no transform analogue. *)
  widths : int list option;
      (** multistencil widths offered to the compiler; [None] (the
          default) defers to
          {!Ccc_compiler.Compile.candidate_widths}.  Restricting to
          [[8]] reproduces the paper's section-6 rejections (cross9,
          diamond13) inside a serving engine, where [Auto] then
          serves them from the transform path. *)
}

val default_settings : settings

val create :
  ?obs:Ccc_obs.Obs.t ->
  ?flight:Ccc_obs.Flight.t ->
  ?capacity:int ->
  ?jobs:int ->
  ?memory_words:int ->
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
    overrides); the positional [?capacity]/[?jobs]/[?memory_words]
    optionals are deprecated spellings kept for existing callers and
    are ignored when [settings] is passed.  [obs] supplies the
    observability context the engine threads through every compile and
    run; by default the tracer is disabled and the engine keeps a
    private metrics registry.  [flight] attaches a
    {!Ccc_obs.Flight} ring (the serving shard's flight recorder):
    cache evictions, guard trips and degradations leave breadcrumbs
    there in addition to the log.  Cache hits, misses and evictions are
    also reported on the ["ccc.engine"] {!Logs} source (debug/info),
    and every rejection is a structured warning carrying the stencil
    fingerprint. *)

val settings_of : t -> settings
(** The resolved configuration record this engine was created with. *)

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

val compile : t -> Ccc_stencil.Pattern.t -> (Ccc_compiler.Compile.t, error) result
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
    from the transform path under the [Auto] backend.  Each entry may
    additionally hold one standing {!Ccc_runtime.Fft.plan} for the
    transform path (one shape at a time, like the arena), counted
    under [engine.fft.builds] / [engine.fft.rebinds]. *)

val compile_statement : t -> string -> (Ccc_compiler.Compile.t, error) result
(** Parse and recognize one bare Fortran assignment, then {!compile}. *)

val recognize_statement :
  string -> (Ccc_stencil.Pattern.t, error) result
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
  (Ccc_runtime.Exec.result, error) result
(** Compile through the cache and execute against the arena's standing
    regions.  The backend policy in {!settings} decides the path: on
    the compiled path the output is bit-identical to
    {!Ccc_runtime.Exec.run} on a fresh machine, and so are the
    statistics; on the transform path it is
    {!Ccc_runtime.Exec.run_fft} against the engine's machine and the
    entry's standing plan (1e-9-close to the direct paths,
    bit-identical across [jobs]; [mode] is ignored — there is no
    microcode to interpret).  A pattern with spatially-varying
    coefficients is not a convolution: the transform path refuses it
    and the engine falls back to the compiled plan when one exists,
    [Error (Resource_error _)] otherwise. *)

val run_statement :
  ?mode:Ccc_runtime.Exec.mode ->
  ?iterations:int ->
  t ->
  string ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.result, error) result

(** {1 Guarded execution}

    {!run} trusts the substrate the way the paper trusted the CM-2's
    ECC memory and lock-step sequencer.  {!run_guarded} does not: it
    rides the {!Ccc_fault.Guard} self-checks on every run (halo
    integrity after the exchange, output against the reference
    evaluator) and climbs a recovery ladder when they fire —
    bounded same-kernel retries (transient faults are one-shot),
    then revalidation of the cached plan and kernel
    ({!Ccc_fault.Guard.check_kernel}, {!Ccc_fault.Guard.revalidate})
    with a from-scratch recompile replacing the cache entry, and
    finally graceful degradation to the host reference path.  A
    detected fault therefore never escapes as a wrong answer or an
    uncaught exception: the worst case is a slow, correct
    {!Degraded} result carrying every finding gathered on the way
    down.  The ladder counts under [engine.guard.*] and
    [engine.kernel.verifies] in the metrics registry. *)

type degraded = Outcome.degraded = {
  output : Ccc_runtime.Grid.t;
      (** the reference evaluator's result — correct by construction *)
  findings : Ccc_analysis.Finding.t list;
      (** every detection and diagnosis gathered on the ladder *)
  retries : int;
  recompiled : bool;
}
(** Deprecated alias of {!Outcome.degraded} (the shared definition
    since PR 7). *)

type outcome =
  | Completed of Ccc_runtime.Exec.result
      (** a guarded run came back clean (possibly after retries or a
          recompile — see the [engine.guard.*] counters) *)
  | Degraded of degraded
      (** Deprecated shape: prefer the unified {!Outcome.t}, which
          adds fingerprint and shed/refusal arms;
          {!outcome_of_guarded} converts. *)

val outcome_of_guarded :
  fingerprint:string -> (outcome, error) result -> Outcome.t
(** Fold a {!run_guarded} result into the unified {!Outcome.t}:
    [Ok (Completed r)] to [Outcome.Completed], [Ok (Degraded d)] to
    [Outcome.Degraded], [Error e] to [Outcome.Refused], each tagged
    with the request's [fingerprint]. *)

val run_guarded :
  ?mode:Ccc_runtime.Exec.mode ->
  ?iterations:int ->
  ?inject:Ccc_runtime.Exec.hooks ->
  ?max_retries:int ->
  t ->
  Ccc_stencil.Pattern.t ->
  Ccc_runtime.Reference.env ->
  (outcome, error) result
(** {!run} under the guards and the recovery ladder.  [inject]
    (default {!Ccc_runtime.Exec.no_hooks}) is the fault-injection
    seam — the conformance tests compose an {!Ccc_fault.Inject}
    injector here; [max_retries] (default 2) bounds the same-kernel
    rung of the ladder.  On a clean substrate the guarded run costs
    one halo recomputation and one reference evaluation per call and
    always returns [Completed].

    When the backend policy routes a request to the transform path,
    the ladder is mirrored rung for rung: bounded same-plan retries,
    then {!Ccc_runtime.Fft.verify} as the root-cause re-proof of the
    cached spectrum (a corrupted plan fails it and is replaced by a
    fresh {!Ccc_runtime.Fft.build}, counted under
    [engine.guard.recompiles] and [engine.fft.builds]), and finally
    the same degradation to the host reference evaluator. *)

val run_batch :
  ?mode:Ccc_runtime.Exec.mode ->
  t ->
  Ccc_stencil.Pattern.t list ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.batch, error) result
(** Execute several statements over the same source array behind one
    halo exchange and one front-end launch; see
    {!Ccc_runtime.Exec.run_batch_arena} for the aggregate-statistics
    contract.  All statements must name the same source variable and
    boundary semantics ([Error (Invalid_batch _)] otherwise). *)

val run_batch_statements :
  ?mode:Ccc_runtime.Exec.mode ->
  t ->
  string list ->
  Ccc_runtime.Reference.env ->
  (Ccc_runtime.Exec.batch, error) result

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
