(** Multi-tenant stencil service: an admission/queueing scheduler over
    a pool of sharded resident engines.

    The paper's production story (section 7) is one front-end computer
    driving one CM-2 as hard as it can.  This module is what sits in
    front of that when many users share the machine: requests
    ({!Request.t}) are admitted, fair-queued per tenant, sharded by
    stencil fingerprint across a pool of worker domains — each owning
    its own resident {!Ccc_service.Engine} — and answered with one
    unified {!Ccc_service.Outcome.t}.

    {b Sharding.}  A request routes to shard
    [hash (Fingerprint.pattern p) mod shards], so fingerprint-identical
    requests land on the same shard (and hit the same plan cache).
    Each worker domain {e creates} its engine in-domain — the engine is
    single-owner (see {!Ccc_service.Engine.shutdown}) and never crosses
    a domain boundary.

    {b Coalescing.}  Within a dispatch window a worker groups jobs
    that share a (physically equal) environment and boundary
    semantics.  Structurally equal patterns in a group collapse into
    one execution whose outcome every coalesced requester receives;
    two or more {e distinct} patterns in a group run as a single
    {!Ccc_service.Engine.run_batch} — one halo exchange per source
    array, one front-end launch (the section-7 amortization: ~90%
    communication and ~55% front-end savings for a ten-statement
    batch), each statement on the backend it would get alone.  Fingerprint equality alone is {e not} sufficient to share
    a result (a rebind-compatible stencil may name different
    coefficient arrays), so coalescing requires structural equality
    plus the same environment.

    {b Execution primitive.}  Singleton classes — a lone request and
    its coalesced duplicates — run under
    {!Ccc_service.Engine.run_guarded}: they inherit the
    retry/recompile/degrade ladder, so a detected substrate fault
    degrades rather than escapes.  The classes of a multi-class
    window do {e not}: {!Ccc_service.Engine.run_batch} runs them
    unguarded, with no halo or output check and no ladder.  A batch
    the engine refuses, or whose fresh transform plan fails its
    proof, falls back to per-class guarded runs.

    {b Admission and shedding.}  {!submit} never blocks and never
    raises on bad input: it refuses malformed stencils
    ([Outcome.Refused]), and sheds with structured outcomes when a
    tenant exceeds its queue bound ([Overloaded]), when the deadline
    has already passed ([Deadline_exceeded], re-checked at dispatch),
    or after {!shutdown} ([Shutting_down]).  Per-tenant queues are
    bounded by {!create}'s [queue_depth]; the tenant table itself by
    its [tenants].

    {b Domain safety.}  One scheduler mutex guards the queues, ticket
    states and key catalog; workers park on a condition variable and
    log their probe events after the wait loop exits, so the
    [serve.*] access families replay clean under the PR-6 analyzer
    ([ccc race]) and event counts stay deterministic. *)

type t

(** {1 Lifecycle} *)

val create :
  ?obs:Ccc_obs.Obs.t ->
  ?settings:Ccc_service.Engine.settings ->
  ?shards:int ->
  ?max_batch:int ->
  ?queue_depth:int ->
  ?tenants:int ->
  ?clock:(unit -> float) ->
  ?paused:bool ->
  Ccc_cm2.Config.t ->
  t
(** Spawn [shards] (default 2) worker domains, each owning one
    resident engine built from [settings]
    ({!Ccc_service.Engine.default_settings} if omitted).  [max_batch]
    (default 16) caps a dispatch window.  Admission is bounded by
    [queue_depth] (default 64) queued requests per tenant and by
    [tenants] (default 16) distinct tenants; [Invalid_argument] if
    [shards], [max_batch], [queue_depth] or [tenants] is below 1.
    [clock] returns microseconds and must be
    safe to call from any domain (default: [Sys.time] scaled, as
    {!Ccc_obs.Trace.create}); inject a fake clock for deterministic
    deadline tests.  [paused] (default false) starts the scheduler
    admitting but not dispatching — submit a whole trace, then
    {!resume} for a deterministic dispatch schedule.  [obs] carries
    the registry the [serve.*] metrics live in. *)

val shards : t -> int

val key_of : t -> Ccc_stencil.Pattern.t -> string
(** The {!Ccc_service.Fingerprint.key} under which this service
    catalogs [pattern] — what a client passes back as
    {!Request.Key} on later requests. *)

val pause : t -> unit
(** Stop dispatching (admission continues).  Idempotent. *)

val resume : t -> unit
(** Resume (or start, after [~paused:true]) dispatching. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop admitting ([submit] now sheds [Shutting_down]), then join the
    workers.  With [drain] (default [true]) queued jobs are served
    first; with [~drain:false] they are shed as [Shutting_down].
    Either way every outstanding ticket resolves — no request is ever
    lost.  Idempotent.  Also unpauses: a paused scheduler drains on
    shutdown. *)

(** {1 Submitting work} *)

type ticket
(** A claim on one request's response. *)

type response = {
  outcome : Ccc_service.Outcome.t;
  trace_id : int;
      (** the request's trace id, assigned at {!submit} (the ticket's
          sequence number); every span and flight-recorder breadcrumb
          this request leaves carries it *)
  shard : int;  (** the shard that served (or would have served) it *)
  window : int;
      (** the shard's dispatch-window sequence number, [-1] if the
          request never reached a worker (refused or shed at
          admission) *)
  batched : int;
      (** distinct statements in the shared execution this request
          rode ([1] for a singleton or fallback run, [0] if never
          executed) *)
  coalesced : int;
      (** requests served by this request's execution, including
          itself ([0] if never executed) *)
  queued_us : float;  (** admission to dispatch, scheduler clock *)
  service_us : float;  (** dispatch to completion of its window group *)
}

val submit : t -> Request.t -> ticket
(** Admit one request.  Never blocks: the result is always a ticket,
    which may already hold a [Refused] or [Shed] response.  Admitted
    [Text]/[Pattern] stencils are cataloged under {!key_of} for later
    {!Request.Key} submissions. *)

val wait : t -> ticket -> response
(** Block until the ticket resolves.  Tickets shed or refused at
    admission return immediately. *)

val peek : t -> ticket -> response option
(** [Some response] if resolved, without blocking. *)

(** {1 Statistics} *)

type stats = {
  shards_ : int;  (** worker/engine count (identity echo) *)
  max_batch : int;  (** dispatch-window cap (identity echo) *)
  queue_depth : int;  (** per-tenant admission bound (identity echo) *)
  tenant_limit : int;  (** tenant-table bound (identity echo) *)
  tenants : (string * int) list;
      (** per-tenant requests served to completion (any outcome),
          sorted by tenant name *)
  admitted : int;  (** requests that entered a queue *)
  coalesced : int;  (** admitted requests served by another's run *)
  completed : int;
  degraded : int;
  refused : int;
  shed : int;
  windows : int;  (** dispatch windows across all shards *)
  queued_q : (float * float * float) option;
      (** p50/p95/p99 of admission-to-dispatch microseconds, estimated
          from the [serve.queued_us] histogram's log-spaced buckets
          ([None] before the first served request) *)
  service_q : (float * float * float) option;
      (** p50/p95/p99 of dispatch-to-completion microseconds
          ([serve.service_us]; [None] before the first served
          request) *)
  engines : (int * Ccc_service.Engine.stats) list;
      (** per-shard engine counters, published by each worker after
          every window and at exit; a shard yet to dispatch is absent *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Stable field order, same discipline as
    {!Ccc_service.Engine.pp_stats}: identity line, admission line,
    work line, latency quantile lines, per-tenant lines, then each
    shard's engine table indented beneath its [shard N:] header. *)

(** {1 Observability surfaces}

    A serving scheduler records three artifacts beyond the registry
    the [serve.*] metrics live in: per-shard span buffers (one tracer
    per worker domain, merged into pid/tid lanes), per-shard flight
    rings (the incident memory dumped when an outcome turns
    [Degraded]/[Refused]), and per-shard engine metric registries.
    When [obs] was created without tracing, the shard tracers are the
    no-op singleton and the span surfaces are empty — the flight rings
    and registries are always live. *)

val trace_lanes : t -> Ccc_obs.Trace.lane list
(** The merged cross-domain trace: lane 0 ([tid 0], "scheduler") holds
    the coordinator's admission spans from [obs]'s tracer, lane [s+1]
    ("shard [s]") holds shard [s]'s queue-wait, window, execute and
    engine spans.  {b Call after {!shutdown}}: a shard's span buffer
    is written by its worker domain, and joining the workers is the
    happens-before edge that makes reading it safe. *)

val chrome_trace : t -> string
(** {!trace_lanes} rendered by {!Ccc_obs.Trace.to_chrome_json_lanes} —
    a Perfetto-loadable Chrome trace with one named track per shard,
    queue-wait visibly separate from compute.  Call after
    {!shutdown}. *)

val flight_rings : t -> Ccc_obs.Flight.t list
(** The per-shard flight recorders, shard order.  Safe from any
    domain at any time (each ring carries its own lock).  Admission
    refusals that never chose a shard land on ring 0. *)

val shard_registries : t -> Ccc_obs.Metrics.t list
(** Each shard engine's private metrics registry, shard order.  Kept
    separate so per-shard counters never merge; registries are
    internally locked and safe to read live. *)

val prometheus : t -> string
(** The scheduler registry plus every shard registry (labeled
    [shard="N"]) rendered through {!Ccc_obs.Expo.render} — the
    [ccc stats] scrape surface. *)
