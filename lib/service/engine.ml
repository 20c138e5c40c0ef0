module Config = Ccc_cm2.Config
module Machine = Ccc_cm2.Machine
module Pattern = Ccc_stencil.Pattern
module Compile = Ccc_compiler.Compile
module Exec = Ccc_runtime.Exec
module Fft = Ccc_runtime.Fft
module Grid = Ccc_runtime.Grid
module Stats = Ccc_runtime.Stats
module Kernel = Ccc_runtime.Kernel
module Pool = Ccc_runtime.Pool
module Reference = Ccc_runtime.Reference
module Finding = Ccc_analysis.Finding
module Access = Ccc_analysis.Access
module Guard = Ccc_fault.Guard
module Obs = Ccc_obs.Obs
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight

let src =
  Logs.Src.create "ccc.engine"
    ~doc:"Plan-cache, arena and rejection events of the persistent engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* The cached kernel is verified once at miss time (against the
   reference evaluator and the cycle-accurate interpreter) and then
   reused verbatim across rebind hits: rebinding retargets coefficient
   and variable names only, never tap offsets, bias arity or stream
   count — exactly the data the lowering depends on.

   Since PR 10 an entry caches the compilation *result*, not just
   successes: a dense stencil the compiler rejects is remembered with
   its per-width findings, so every subsequent request falls through
   to the transform path without re-running the scheduler.  The entry
   also carries one standing {!Fft.plan} (like the arena, one standing
   shape: a shape change rebuilds it) together with the array names it
   was resolved from — a hit under renamed arrays rebuilds rather than
   trusting names the fingerprint deliberately canonicalizes away. *)
type entry = {
  compiled : (Compile.t * Kernel.t, (int * Finding.t) list) result;
  mutable fft : (string list * Fft.plan) option;
  mutable last_used : int;
}

(* Every counter the engine keeps lives in the metrics registry; the
   record below is just the resolved handles, so the hot paths touch
   one mutable cell instead of re-hashing the metric name. *)
type settings = {
  capacity : int;
  jobs : int;
  memory_words : int option;
  widths : int list option;
      (* multistencil widths offered to the compiler; [None] defers to
         [Compile.candidate_widths] *)
}

let default_settings =
  {
    capacity = 32;
    jobs = 1;
    memory_words = None;
    widths = None;
  }

type t = {
  config : Config.t;
  config_fp : string;
  machine : Machine.t;
  arena : Exec.Arena.t;
  pool : Pool.t;
  settings : settings;
  eid : int;
      (* process-globally-unique engine id: the coordinator-only
         cache/tick probes are namespaced by it, so several engines
         alive at once (one per serve shard) each have their own owner
         in the access log *)
  cache : (string, entry) Hashtbl.t;
  obs : Obs.t;
  flight : Flight.t option;
      (* the shard's flight recorder, when serving; evictions, guard
         trips and degradations leave incident breadcrumbs there *)
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  evictions : Metrics.Counter.t;
  compiles : Metrics.Counter.t;
  runs : Metrics.Counter.t;
  batches : Metrics.Counter.t;
  comm_cycles : Metrics.Counter.t;
  compute_cycles : Metrics.Counter.t;
  frontend_s : Metrics.Gauge.t;
  per_call_compute : Metrics.Histogram.t;
  arena_reuses : Metrics.Gauge.t;
  arena_rebuilds : Metrics.Gauge.t;
  kernel_verifies : Metrics.Counter.t;
  fft_runs : Metrics.Counter.t;
  fft_builds : Metrics.Counter.t;
  fft_rebinds : Metrics.Counter.t;
  fft_per_call : Metrics.Histogram.t;
  guard_detections : Metrics.Counter.t;
  guard_retries : Metrics.Counter.t;
  guard_recompiles : Metrics.Counter.t;
  guard_degraded : Metrics.Counter.t;
  mutable tick : int;
  owner : int;  (* raw id of the creating domain; entry points check it *)
}

type stats = {
  jobs : int;
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  compiles : int;
  runs : int;
  batches : int;
  fft_runs : int;
  fft_builds : int;
  fft_rebinds : int;
  arena_reuses : int;
  arena_rebuilds : int;
  comm_cycles : int;
  compute_cycles : int;
  frontend_s : float;
  per_call_compute : (int * float * int) option;
  per_call_quantiles : (float * float * float) option;
}

(* One id per engine in the process (see the [eid] field). *)
let engine_ids = Atomic.make 0

let create ?obs ?flight ?(settings = default_settings) config =
  if settings.capacity < 1 then invalid_arg "Engine.create: capacity < 1";
  let obs =
    match obs with
    | Some o -> o
    | None -> Obs.v ~trace:Ccc_obs.Trace.disabled ~metrics:(Metrics.create ())
  in
  let m = obs.Obs.metrics in
  let machine = Machine.create ?memory_words:settings.memory_words config in
  {
    config;
    config_fp = Fingerprint.config config;
    machine;
    arena = Exec.Arena.create machine;
    pool = Pool.create ~jobs:settings.jobs;
    settings;
    eid = Atomic.fetch_and_add engine_ids 1;
    cache = Hashtbl.create 16;
    obs;
    flight;
    hits = Metrics.counter m "engine.cache.hits";
    misses = Metrics.counter m "engine.cache.misses";
    evictions = Metrics.counter m "engine.cache.evictions";
    compiles = Metrics.counter m "engine.compiles";
    runs = Metrics.counter m "engine.runs";
    batches = Metrics.counter m "engine.batches";
    comm_cycles = Metrics.counter m "engine.cycles.comm";
    compute_cycles = Metrics.counter m "engine.cycles.compute";
    frontend_s = Metrics.gauge m "engine.frontend_s";
    per_call_compute = Metrics.histogram m "engine.compute_cycles_per_call";
    arena_reuses = Metrics.gauge m "engine.arena.reuses";
    arena_rebuilds = Metrics.gauge m "engine.arena.rebuilds";
    kernel_verifies = Metrics.counter m "engine.kernel.verifies";
    fft_runs = Metrics.counter m "engine.fft.runs";
    fft_builds = Metrics.counter m "engine.fft.builds";
    fft_rebinds = Metrics.counter m "engine.fft.rebinds";
    fft_per_call = Metrics.histogram m "engine.fft.compute_cycles_per_call";
    guard_detections = Metrics.counter m "engine.guard.detections";
    guard_retries = Metrics.counter m "engine.guard.retries";
    guard_recompiles = Metrics.counter m "engine.guard.recompiles";
    guard_degraded = Metrics.counter m "engine.guard.degraded";
    tick = 0;
    owner = (Domain.self () :> int);
  }

(* The engine's cache, LRU tick and arena are coordinator-only state
   (DESIGN.md section 8): they are deliberately lock-free, so calling
   an entry point from any other domain would race.  The check makes
   the ownership rule fail fast with a structured finding instead of
   corrupting the cache. *)
let check_owner t who =
  let me = (Domain.self () :> int) in
  if me <> t.owner then
    raise
      (Finding.Failed
         [
           Finding.makef Finding.Ownership
             "Engine.%s called from domain %d: the engine (plan cache, \
              arena, pool) is owned by the domain that created it (%d); \
              share work through the pool, not the engine handle"
             who me t.owner;
         ])

let config t = t.config
let machine t = t.machine
let obs t = t.obs
let metrics t = t.obs.Obs.metrics
let pool t = t.pool
let jobs t = Pool.jobs t.pool
let shutdown t = Pool.shutdown t.pool

let stats (t : t) : stats =
  (* Absorb the arena's own counter family into the registry view. *)
  Metrics.Gauge.set t.arena_reuses (float_of_int (Exec.Arena.reuses t.arena));
  Metrics.Gauge.set t.arena_rebuilds
    (float_of_int (Exec.Arena.rebuilds t.arena));
  {
    jobs = t.settings.jobs;
    hits = Metrics.Counter.value t.hits;
    misses = Metrics.Counter.value t.misses;
    evictions = Metrics.Counter.value t.evictions;
    entries = Hashtbl.length t.cache;
    capacity = t.settings.capacity;
    compiles = Metrics.Counter.value t.compiles;
    runs = Metrics.Counter.value t.runs;
    batches = Metrics.Counter.value t.batches;
    fft_runs = Metrics.Counter.value t.fft_runs;
    fft_builds = Metrics.Counter.value t.fft_builds;
    fft_rebinds = Metrics.Counter.value t.fft_rebinds;
    arena_reuses = Exec.Arena.reuses t.arena;
    arena_rebuilds = Exec.Arena.rebuilds t.arena;
    comm_cycles = Metrics.Counter.value t.comm_cycles;
    compute_cycles = Metrics.Counter.value t.compute_cycles;
    frontend_s = Metrics.Gauge.value t.frontend_s;
    per_call_compute =
      (if Metrics.Histogram.count t.per_call_compute = 0 then None
       else
         Some
           ( int_of_float (Metrics.Histogram.min t.per_call_compute),
             Metrics.Histogram.mean t.per_call_compute,
             int_of_float (Metrics.Histogram.max t.per_call_compute) ));
    per_call_quantiles =
      (if Metrics.Histogram.count t.per_call_compute = 0 then None
       else
         Some
           ( Metrics.Histogram.p50 t.per_call_compute,
             Metrics.Histogram.p95 t.per_call_compute,
             Metrics.Histogram.p99 t.per_call_compute ));
  }

(* The field order below — identity, cache, work, arena, accumulated
   cycles, per-call — is shared with [Serve.pp_stats], which prints
   its own identity/admission/work lines in the same discipline and
   embeds this printer per shard.  Keep the two in lockstep: the cram
   suite pins both tables. *)
let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "engine: %d jobs@\n\
     plan cache: %d hits, %d misses, %d evictions (%d/%d entries)@\n\
     compiles: %d  runs: %d  batches: %d@\n\
     fft: %d runs, %d builds, %d rebinds@\n\
     arena: %d reuses, %d rebuilds@\n\
     accumulated: comm %d cycles, compute %d cycles, front end %.6f s"
    s.jobs s.hits s.misses s.evictions s.entries
    s.capacity s.compiles s.runs s.batches s.fft_runs s.fft_builds
    s.fft_rebinds s.arena_reuses s.arena_rebuilds s.comm_cycles
    s.compute_cycles s.frontend_s;
  (match s.per_call_compute with
  | None -> ()
  | Some (min, mean, max) ->
      Format.fprintf ppf "@\nper call: compute min %d, mean %.0f, max %d cycles"
        min mean max);
  match s.per_call_quantiles with
  | None -> ()
  | Some (p50, p95, p99) ->
      Format.fprintf ppf "@\nper call: compute p50 %.0f, p95 %.0f, p99 %.0f cycles"
        p50 p95 p99

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (key, entry))
      t.cache None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.cache key;
      Access.write "engine.cache" t.eid;
      Metrics.Counter.incr t.evictions;
      Option.iter
        (fun ring -> Flight.record ring Flight.Cache_evict key)
        t.flight;
      Log.info (fun m -> m "plan cache eviction: %s" key)
  | None -> ()

(* Find or create the cache entry for [pattern].  Both outcomes of
   the scheduler are cached: a success with its verified kernel, and a
   rejection with its per-width findings — the latter so a dense
   stencil that falls through to the transform path pays the scheduler
   exactly once, then hits like any other plan. *)
let lookup_entry t ~fp pattern =
  Access.set_phase "compile";
  let key = fp ^ "|" ^ t.config_fp in
  match Hashtbl.find_opt t.cache key with
  | Some entry ->
      Access.read "engine.cache" t.eid;
      Metrics.Counter.incr t.hits;
      t.tick <- t.tick + 1;
      Access.write "engine.tick" t.eid;
      entry.last_used <- t.tick;
      Log.debug (fun m -> m "plan cache hit: %s" fp);
      entry
  | None ->
      Access.read "engine.cache" t.eid;
      Metrics.Counter.incr t.misses;
      Log.debug (fun m -> m "plan cache miss: %s" fp);
      let compiled =
        match
          Compile.compile ~obs:t.obs ?widths:t.settings.widths t.config pattern
        with
        | Error rejections ->
            Log.warn (fun m ->
                m "stencil %s rejected: %s" fp (Compile.no_workable rejections));
            Error rejections
        | Ok compiled ->
            Metrics.Counter.incr t.compiles;
            let kernel = Kernel.build t.config compiled in
            Metrics.Counter.incr t.kernel_verifies;
            Ok (compiled, kernel)
      in
      if Hashtbl.length t.cache >= t.settings.capacity then evict_lru t;
      t.tick <- t.tick + 1;
      Access.write "engine.tick" t.eid;
      let entry = { compiled; fft = None; last_used = t.tick } in
      Hashtbl.add t.cache key entry;
      Access.write "engine.cache" t.eid;
      entry

(* A hit may carry different coefficient or variable names than the
   cached compilation; rebind retargets the plans without redoing any
   scheduling, and the verified kernel carries over unchanged (it
   depends only on tap geometry and stream count, which the
   fingerprint pins). *)
let rebound entry pattern =
  match entry.compiled with
  | Ok (compiled, kernel) -> Some (Compile.rebind compiled pattern, kernel)
  | Error _ -> None

let rejections_of entry =
  match entry.compiled with Error r -> r | Ok _ -> []

let compile t pattern =
  check_owner t "compile";
  let entry = lookup_entry t ~fp:(Fingerprint.pattern pattern) pattern in
  match rebound entry pattern with
  | Some (compiled, _) -> Ok compiled
  | None -> Error (Outcome.Resource_error (rejections_of entry))

let recognize_statement source =
  match Ccc_frontend.Parser.parse_statement source with
  | stmt -> (
      match Ccc_frontend.Recognize.statement stmt with
      | Ok pattern -> Ok pattern
      | Error diags -> Error (Outcome.Rejected diags))
  | exception Ccc_frontend.Parser.Error { line; message } ->
      Error (Outcome.Parse_error (Printf.sprintf "line %d: %s" line message))

let warn_rejection fp e =
  Log.warn (fun m ->
      m "stencil %s rejected: %s" fp (Outcome.reject_to_string e))

(* The entry's standing transform plan, resolved for this request:
   reuse when the shape and array names match (re-transforming only
   the coefficient image when values changed — counted as a rebind),
   rebuild otherwise.  Raises [Fft.Varying] on a non-uniform
   coefficient and [Finding.Failed] if the fresh plan fails its
   sandbox proof. *)
let fft_plan_for (t : t) entry pattern ~rows ~cols env =
  let names = Reference.referenced_arrays pattern in
  match entry.fft with
  | Some (cached_names, plan)
    when cached_names = names && Fft.rows plan = rows && Fft.cols plan = cols
    ->
      if Fft.rebind plan env then Metrics.Counter.incr t.fft_rebinds;
      plan
  | _ ->
      let plan = Fft.build pattern ~rows ~cols env in
      Metrics.Counter.incr t.fft_builds;
      entry.fft <- Some (names, plan);
      Access.write "engine.cache" t.eid;
      plan

(* The backend a resolved request runs on. *)
type backend = On_compiled of Compile.t * Kernel.t | On_fft of Fft.plan

type resolved = {
  fp : string;
  entry : entry;
  backend : backend;
  prior : Finding.t list;
      (* a fresh transform plan that failed its sandbox proof, when the
         request fell back to its compiled plan *)
}

(* The coefficient streams of a compiled statement: one per tap, and
   the bias. *)
let compiled_streams pattern =
  Pattern.tap_count pattern
  + Option.fold ~none:0 ~some:(fun _ -> 1) (Pattern.bias pattern)

(* The resolve step every request — and every statement of a batch —
   takes before {!Exec.exec}: check the input, look up the cache,
   rebind, choose the backend and get the kernel or the plan.  Every
   input error — an unbound array, a mis-shaped array, a grid that does
   not divide over the node grid, a border wider than the subgrid — is
   refused here, before the cache is touched, so neither the executor nor
   the guard ladder ever sees one; so are regions larger than the node
   memory left to the backend's arena, once the backend is known.  The
   planner prices both backends (ties to compiled; a stencil the
   compiler rejects falls through to the transform), and a pattern with
   spatially-varying coefficients — not a convolution — is served by
   its compiled plan when one exists, as is one whose regions do not
   fit above the standing arena.  Raises [Finding.Failed] when a fresh
   transform plan fails its proof and there is no compiled plan to
   fall back on. *)
let resolve (t : t) pattern env =
  let fp = Fingerprint.pattern pattern in
  let refuse e =
    warn_rejection fp e;
    Error (fp, e)
  in
  (* The compiled statement runs on the standing arena, the transform
     on a transient arena above it, without coefficient streams. *)
  let fits arena ~streams =
    Outcome.checked (fun () ->
        Exec.check arena [ Ccc_stencil.Multi.of_pattern pattern ] ~streams env)
  in
  let streams = compiled_streams pattern in
  match fits t.arena ~streams:0 with
  | Error e -> refuse e
  | Ok (sub_rows, sub_cols) -> (
      let entry = lookup_entry t ~fp pattern in
      let compiled = rebound entry pattern in
      let on_compiled prior =
        match compiled with
        | Some (c, k) -> (
            match fits t.arena ~streams with
            | Ok _ -> Ok { fp; entry; backend = On_compiled (c, k); prior }
            | Error e -> refuse e)
        | None -> refuse (Outcome.Resource_error (rejections_of entry))
      in
      match
        Exec.select_backend ~sub_rows ~sub_cols t.config
          (Option.map fst compiled)
      with
      | `Compiled -> on_compiled []
      | `Fft -> (
          match fits (Exec.Arena.transient t.machine) ~streams:0 with
          | Error _ -> on_compiled []
          | Ok _ -> (
              match
                fft_plan_for t entry pattern
                  ~rows:(sub_rows * t.config.Config.node_rows)
                  ~cols:(sub_cols * t.config.Config.node_cols)
                  env
              with
              | plan -> Ok { fp; entry; backend = On_fft plan; prior = [] }
              | exception Fft.Varying _ -> on_compiled []
              | exception (Finding.Failed fs as failed) ->
                  if Option.is_none compiled then raise failed
                  else on_compiled fs)))

let statement pattern = function
  | On_compiled (c, k) -> Exec.compiled ~kernel:k c
  | On_fft plan -> Exec.transform ~plan pattern

(* A program holding a compiled statement runs on the standing arena;
   a transform-only program runs on a transient arena above it, so the
   arena counters count compiled reuse only. *)
let execute ?mode ?iterations ?hooks (t : t) program env =
  let arena =
    if
      List.exists
        (fun st ->
          match st.Exec.plan with
          | Exec.Compiled _ -> true
          | Exec.Transform _ -> false)
        program
    then t.arena
    else Exec.Arena.transient t.machine
  in
  Exec.exec ~obs:t.obs ?mode ?iterations ~pool:t.pool ?hooks arena program env

(* Count one execution under [counter] ([runs] or [batches]) and fold
   in its totals; every transform statement is also an [fft_runs]
   execution, observed with its own compute cycles. *)
let record (t : t) counter program (b : Exec.batch) =
  let s = b.Exec.batch_stats in
  Metrics.Counter.incr counter;
  Metrics.Counter.incr ~by:s.Stats.comm_cycles t.comm_cycles;
  Metrics.Counter.incr ~by:s.Stats.compute_cycles t.compute_cycles;
  Metrics.Gauge.add t.frontend_s s.Stats.frontend_s;
  Metrics.Histogram.observe t.per_call_compute
    (float_of_int s.Stats.compute_cycles);
  List.iter2
    (fun st (r : Exec.result) ->
      match st.Exec.plan with
      | Exec.Compiled _ -> ()
      | Exec.Transform _ ->
          Metrics.Counter.incr t.fft_runs;
          Metrics.Histogram.observe t.fft_per_call
            (float_of_int r.Exec.stats.Stats.compute_cycles))
    program b.Exec.batch_results

(* The one unguarded path, of {!run} (one statement, counted under
   [runs]) and {!run_batch} (counted under [batches]): resolve every
   statement as a lone request would be, execute them as one program
   and record it.  Only the executor's own check can still refuse the
   program as a whole — its regions against the arena, or one array
   read under two boundary semantics. *)
let run_program ?mode ?iterations t counter patterns env =
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match resolve t p env with
        | Ok r -> resolve_all (statement p r.backend :: acc) rest
        | Error (_, e) -> Error e)
  in
  match resolve_all [] patterns with
  | Error _ as e -> e
  | Ok program -> (
      match
        Outcome.checked (fun () -> execute ?mode ?iterations t program env)
      with
      | Ok batch ->
          record t counter program batch;
          Ok batch
      | Error e ->
          Log.warn (fun m ->
              m "program [%s] rejected: %s"
                (String.concat ", " (List.map Fingerprint.pattern patterns))
                (Outcome.reject_to_string e));
          Error e)

let run ?mode ?iterations t pattern env =
  check_owner t "run";
  Result.map Exec.single (run_program ?mode ?iterations t t.runs [ pattern ] env)

let run_batch ?mode t patterns env =
  check_owner t "run_batch";
  run_program ?mode t t.batches patterns env

(* The recovery ladder: guarded run -> bounded same-artifact retries
   (a transient fault leaves nothing behind, so a re-run of the same
   cached kernel or plan comes back clean) -> diagnose and rebuild the
   cached artifact (a poisoned entry fails its sandbox re-proof and is
   replaced) -> degrade to the host reference evaluator, which shares
   nothing with the simulated substrate.  Only the diagnose-and-rebuild
   rung depends on the backend.  The ladder never lets a detected fault
   escape as a wrong answer or a crash: the worst case is a slow,
   correct [Degraded] outcome. *)
let run_guarded ?mode ?iterations ?(inject = Exec.no_hooks) ?(max_retries = 2)
    t pattern env =
  check_owner t "run_guarded";
  let retries = ref 0 in
  let note_detection fp fs =
    Metrics.Counter.incr t.guard_detections;
    let first_finding =
      match fs with f :: _ -> Finding.to_string f | [] -> "unknown"
    in
    Option.iter
      (fun ring ->
        Flight.record ring Flight.Guard_trip (fp ^ ": " ^ first_finding))
      t.flight;
    Log.warn (fun m -> m "guard detected a fault (%s): %s" fp first_finding)
  in
  let degrade fp findings recompiled =
    Metrics.Counter.incr t.guard_degraded;
    Option.iter
      (fun ring ->
        Flight.record ring Flight.Degraded
          (Printf.sprintf "%s: reference path after %d retries" fp !retries))
      t.flight;
    Log.warn (fun m ->
        m "degrading %s to the reference path after %d retries" fp !retries);
    let output = Reference.apply pattern env in
    Outcome.degraded ~fingerprint:fp
      { output; findings; retries = !retries; recompiled }
  in
  let attempt backend =
    let watch = Guard.watch pattern in
    let hooks = Exec.compose_hooks inject watch.Guard.hooks in
    let program = [ statement pattern backend ] in
    match execute ?mode ?iterations ~hooks t program env with
    | batch -> (
        let result = Exec.single batch in
        match
          !(watch.Guard.caught) @ Guard.check_output pattern env result.Exec.output
        with
        | [] ->
            record t t.runs program batch;
            Ok result
        | fs -> Error fs)
    | exception Finding.Failed fs -> Error fs
    | exception exn ->
        Error
          [
            Finding.makef Finding.Output_integrity "guarded run crashed: %s"
              (Printexc.to_string exn);
          ]
  in
  (* The backend-specific rung: root-cause the cached artifact, then
     replace it.  Compiled: the sandbox re-proof of the kernel and the
     dataflow verifier over every cached plan, then a from-scratch
     recompile replacing the cache entry.  Transform: {!Fft.verify}
     over the cached spectrum, then a fresh {!Fft.build}. *)
  let rebuild (r : resolved) = function
    | On_compiled (compiled, kernel) -> (
        let diagnosis =
          Guard.check_kernel t.config compiled kernel
          @ Guard.revalidate t.config compiled
        in
        Metrics.Counter.incr t.kernel_verifies;
        Metrics.Counter.incr t.guard_recompiles;
        match
          Compile.compile ~obs:t.obs ?widths:t.settings.widths t.config pattern
        with
        | Error _ -> Error diagnosis
        | Ok fresh ->
            Metrics.Counter.incr t.compiles;
            let fresh_kernel = Kernel.build t.config fresh in
            Metrics.Counter.incr t.kernel_verifies;
            t.tick <- t.tick + 1;
            Access.write "engine.tick" t.eid;
            Hashtbl.replace t.cache
              (r.fp ^ "|" ^ t.config_fp)
              {
                compiled = Ok (fresh, fresh_kernel);
                fft = r.entry.fft;
                last_used = t.tick;
              };
            Access.write "engine.cache" t.eid;
            Ok (On_compiled (fresh, fresh_kernel), diagnosis))
    | On_fft plan -> (
        let diagnosis =
          match Fft.verify pattern plan with
          | () -> []
          | exception Finding.Failed fs -> fs
        in
        Metrics.Counter.incr t.guard_recompiles;
        match
          Fft.build pattern ~rows:(Fft.rows plan) ~cols:(Fft.cols plan) env
        with
        | fresh ->
            Metrics.Counter.incr t.fft_builds;
            r.entry.fft <- Some (Reference.referenced_arrays pattern, fresh);
            Access.write "engine.cache" t.eid;
            Ok (On_fft fresh, diagnosis)
        | exception Finding.Failed fs -> Error (diagnosis @ fs))
  in
  let rec ladder r backend budget acc rebuilt =
    match attempt backend with
    | Ok result -> Outcome.completed ~fingerprint:r.fp result
    | Error fs ->
        note_detection r.fp fs;
        let acc = acc @ fs in
        if budget > 0 then begin
          Metrics.Counter.incr t.guard_retries;
          incr retries;
          ladder r backend (budget - 1) acc rebuilt
        end
        else if not rebuilt then
          match rebuild r backend with
          | Ok (fresh, diagnosis) -> ladder r fresh 0 (acc @ diagnosis) true
          | Error diagnosis -> degrade r.fp (acc @ diagnosis) rebuilt
        else degrade r.fp acc rebuilt
  in
  match resolve t pattern env with
  | Error (fp, e) -> Outcome.refused ~fingerprint:fp e
  | Ok r -> ladder r r.backend max_retries r.prior false
  | exception Finding.Failed fs ->
      (* The fresh transform plan failed its own sandbox proof and no
         compiled plan exists: the guarded contract still holds —
         degrade, never crash. *)
      let fp = Fingerprint.pattern pattern in
      Metrics.Counter.incr t.guard_detections;
      degrade fp fs false

let reset t =
  check_owner t "reset";
  Hashtbl.reset t.cache;
  Access.write "engine.cache" t.eid;
  Exec.Arena.reset t.arena;
  t.tick <- 0;
  Metrics.reset t.obs.Obs.metrics
