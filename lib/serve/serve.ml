(* The admission/queueing scheduler over sharded resident engines.

   One mutex [m] guards everything the domains share: the per-tenant
   bounded queues, the round-robin rotation, the ticket states, the
   stencil-key catalog and the per-shard window counters.  Workers
   park on [work]; requesters park on [donec].  Probe events for the
   [serve.*] access families are logged while [m] is held — and the
   acquire is logged once, after the condition-wait loop exits — so
   the logged order is a legal linearization and event counts stay
   deterministic under spurious wakeups (the same discipline as
   [Ccc_runtime.Pool]).  Slots are namespaced by scheduler uid so two
   schedulers alive at once never alias.

   Each worker domain creates and owns its engine: the engine handle
   is single-owner by design (lock-free coordinator state), so it is
   born on the domain that will drive it and never crosses the
   boundary.  Parallelism across requests comes from sharding;
   parallelism inside a run comes from the engine's own pool. *)

module Access = Ccc_analysis.Access
module Obs = Ccc_obs.Obs
module Trace = Ccc_obs.Trace
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight
module Expo = Ccc_obs.Expo
module Engine = Ccc_service.Engine
module Outcome = Ccc_service.Outcome
module Fingerprint = Ccc_service.Fingerprint
module Pattern = Ccc_stencil.Pattern
module Exec = Ccc_runtime.Exec

let src = Logs.Src.create "ccc.serve" ~doc:"Serve scheduler events"

module Log = (val Logs.src_log src : Logs.LOG)

type response = {
  outcome : Outcome.t;
  trace_id : int;
  shard : int;
  window : int;
  batched : int;
  coalesced : int;
  queued_us : float;
  service_us : float;
}

type state = Waiting | Done of response
type ticket = { id : int; mutable state : state }

type job = {
  ticket : ticket;
  tenant : string;
  pattern : Pattern.t;
  fp : string;
  env : Ccc_runtime.Reference.env;
  deadline_us : float option;
  submitted_us : float;
}

(* Each tenant carries its own counter family
   ([serve.tenant.<name>.<field>], the shape {!Ccc_obs.Expo} folds
   into labeled Prometheus families) plus a queue-depth gauge, all in
   the scheduler's registry. *)
type tenantq = {
  queues : job Queue.t array;  (* one per shard *)
  mutable queued : int;  (* across all shards; bounded by queue_depth *)
  served : Metrics.Counter.t;
  t_admitted : Metrics.Counter.t;
  t_coalesced : Metrics.Counter.t;
  t_shed : Metrics.Counter.t;
  t_deadline_missed : Metrics.Counter.t;
  t_degraded : Metrics.Counter.t;
  depth_g : Metrics.Gauge.t;
}

type shard_state = {
  mutable windows : int;  (* dispatch windows this shard has opened *)
  mutable engine_stats : Engine.stats option;
      (* published by the owning worker after each window and at exit;
         the worker is the only domain that may call [Engine.stats] *)
}

type t = {
  config : Ccc_cm2.Config.t;
  settings : Engine.settings;
  nshards : int;
  max_batch : int;
  clock : unit -> float;
  obs : Obs.t;
  suid : int;  (* probe-slot namespace: see [Access] registry *)
  m : Mutex.t;
  work : Condition.t;
  donec : Condition.t;
  tenants_tbl : (string, tenantq) Hashtbl.t;
  mutable rotation : string list;  (* fair-queueing order, head next *)
  keys : (string, Pattern.t) Hashtbl.t;  (* Fingerprint.key catalog *)
  shard_state : shard_state array;
  tracers : Trace.t array;
      (* one span buffer per shard, written only by that shard's
         worker domain; the coordinator reads them after the workers
         join (the happens-before edge), merging into lanes *)
  flights : Flight.t array;
      (* one flight ring per shard (internally locked: the coordinator
         records admission/shed, the worker records window/guard) *)
  shard_metrics : Metrics.t array;
      (* one registry per shard engine (registries are internally
         locked); kept separate so per-shard counters never merge *)
  mutable next_ticket : int;
  mutable stopping : bool;
  mutable drain : bool;
  mutable paused : bool;
  mutable workers : unit Domain.t array;
  admitted_c : Metrics.Counter.t;
  coalesced_c : Metrics.Counter.t;
  completed_c : Metrics.Counter.t;
  degraded_c : Metrics.Counter.t;
  refused_c : Metrics.Counter.t;
  shed_c : Metrics.Counter.t;
  windows_c : Metrics.Counter.t;
  queued_h : Metrics.Histogram.t;
  service_h : Metrics.Histogram.t;
}

let suids = Atomic.make 0
let default_clock () = Sys.time () *. 1e6

let unserved ~trace_id ~shard outcome =
  {
    outcome;
    trace_id;
    shard;
    window = -1;
    batched = 0;
    coalesced = 0;
    queued_us = 0.;
    service_us = 0.;
  }

(* ------------------------------------------------------------------ *)
(* Queue plumbing (all under [m]).                                     *)

let has_work t s =
  Hashtbl.fold
    (fun _ q acc -> acc || not (Queue.is_empty q.queues.(s)))
    t.tenants_tbl false

(* One job per tenant per pass over the rotation, repeated until the
   window is full or the shard's queues are dry; then the rotation
   advances by one so no tenant keeps the head slot. *)
let collect t s ~limit =
  let take = ref [] and n = ref 0 in
  let progressed = ref true in
  while !n < limit && !progressed do
    progressed := false;
    List.iter
      (fun name ->
        if !n < limit then
          let q = Hashtbl.find t.tenants_tbl name in
          match Queue.take_opt q.queues.(s) with
          | Some job ->
              q.queued <- q.queued - 1;
              Metrics.Gauge.set q.depth_g (float_of_int q.queued);
              take := job :: !take;
              incr n;
              progressed := true
          | None -> ())
      t.rotation
  done;
  (match t.rotation with [] -> () | x :: rest -> t.rotation <- rest @ [ x ]);
  List.rev !take

(* When a dispatch-time outcome is bad news, the shard's flight ring
   already holds the story (window, guard trips, evictions); dump it
   to the log so the incident explains itself. *)
let autodump t (r : response) =
  if r.shard >= 0 && r.shard < t.nshards then
    let why =
      match r.outcome with
      | Outcome.Degraded _ -> Some "degraded"
      | Outcome.Refused _ -> Some "refused"
      | _ -> None
    in
    Option.iter
      (fun why ->
        Flight.record t.flights.(r.shard) Flight.Info
          (Printf.sprintf "ticket %d %s: dumping" r.trace_id why);
        Log.warn (fun m ->
            m "ticket %d %s on shard %d; flight recorder:@\n%s" r.trace_id
              why r.shard
              (Flight.dump t.flights.(r.shard))))
      why

let finish t (j : job) (r : response) =
  j.ticket.state <- Done r;
  Access.write "serve.ticket" t.suid;
  (match r.outcome with
  | Outcome.Completed _ -> Metrics.Counter.incr t.completed_c
  | Outcome.Degraded _ -> Metrics.Counter.incr t.degraded_c
  | Outcome.Refused _ -> Metrics.Counter.incr t.refused_c
  | Outcome.Shed _ -> Metrics.Counter.incr t.shed_c);
  autodump t r;
  match Hashtbl.find_opt t.tenants_tbl j.tenant with
  | Some q ->
      Metrics.Counter.incr q.served;
      (match r.outcome with
      | Outcome.Shed { shed = Outcome.Deadline_exceeded _; _ } ->
          Metrics.Counter.incr q.t_shed;
          Metrics.Counter.incr q.t_deadline_missed
      | Outcome.Shed _ -> Metrics.Counter.incr q.t_shed
      | Outcome.Degraded _ -> Metrics.Counter.incr q.t_degraded
      | _ -> ());
      if r.coalesced > 1 then Metrics.Counter.incr q.t_coalesced
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Window execution (no scheduler lock held).                          *)

(* Serve one dispatch window: re-check deadlines, group jobs that can
   share an execution (same physical env, source variable, boundary),
   collapse structurally equal patterns into one run, and execute each
   group — several distinct patterns as one [run_batch] (one halo
   exchange, one front-end launch), a singleton under the guarded
   ladder.  A batch that fails as a batch falls back to per-pattern
   guarded runs. *)
let execute t engine s w jobs =
  let now0 = t.clock () in
  let expired, live =
    List.partition
      (fun j -> match j.deadline_us with Some d -> d < now0 | None -> false)
      jobs
  in
  let shed_late =
    List.map
      (fun j ->
        let outcome =
          Outcome.shed ~fingerprint:j.fp
            (Outcome.Deadline_exceeded
               {
                 tenant = j.tenant;
                 deadline_us = Option.get j.deadline_us;
                 now_us = now0;
               })
        in
        ( j,
          {
            outcome;
            trace_id = j.ticket.id;
            shard = s;
            window = w;
            batched = 0;
            coalesced = 0;
            queued_us = now0 -. j.submitted_us;
            service_us = 0.;
          } ))
      expired
  in
  let groups = ref [] in
  List.iter
    (fun j ->
      let sv = Pattern.source_var j.pattern in
      let b = Pattern.boundary j.pattern in
      match
        List.find_opt
          (fun (e, sv', b', _) -> e == j.env && String.equal sv' sv && b' = b)
          !groups
      with
      | Some (_, _, _, members) -> members := j :: !members
      | None -> groups := !groups @ [ (j.env, sv, b, ref [ j ]) ])
    live;
  let served =
    List.concat_map
      (fun (env, _, _, members) ->
        let members = List.rev !members in
        let classes = ref [] in
        List.iter
          (fun j ->
            match
              List.find_opt
                (fun (rep, _) -> Pattern.equal rep.pattern j.pattern)
                !classes
            with
            | Some (_, mem) -> mem := j :: !mem
            | None -> classes := !classes @ [ (j, ref [ j ]) ])
          members;
        let classes = List.map (fun (rep, mem) -> (rep, List.rev !mem)) !classes in
        let nclasses = List.length classes in
        let outcomes =
          Trace.with_span t.tracers.(s)
            ~attrs:
              [
                ("classes", Trace.Int nclasses);
                ("members", Trace.Int (List.length members));
              ]
            "serve.execute"
          @@ fun () ->
          match classes with
          | [ (rep, _) ] -> [ (Engine.run_guarded engine rep.pattern env, 1) ]
          | _ -> (
              let patterns = List.map (fun (rep, _) -> rep.pattern) classes in
              match Engine.run_batch engine patterns env with
              | Ok batch ->
                  List.map2
                    (fun (rep, _) r ->
                      (Outcome.completed ~fingerprint:rep.fp r, nclasses))
                    classes batch.Exec.batch_results
              | Error e ->
                  Log.warn (fun m ->
                      m "shard %d window %d: batch of %d fell back: %s" s w
                        nclasses
                        (Outcome.reject_to_string e));
                  List.map
                    (fun (rep, _) ->
                      (Engine.run_guarded engine rep.pattern env, 1))
                    classes)
        in
        let done_us = t.clock () in
        List.concat
          (List.map2
             (fun (_, mem) (outcome, batched) ->
               let ncoal = List.length mem in
               if ncoal > 1 then
                 Metrics.Counter.incr ~by:(ncoal - 1) t.coalesced_c;
               List.map
                 (fun j ->
                   let queued_us = now0 -. j.submitted_us in
                   let service_us = done_us -. now0 in
                   Metrics.Histogram.observe t.queued_h queued_us;
                   Metrics.Histogram.observe t.service_h service_us;
                   ( j,
                     {
                       outcome;
                       trace_id = j.ticket.id;
                       shard = s;
                       window = w;
                       batched;
                       coalesced = ncoal;
                       queued_us;
                       service_us;
                     } ))
                 mem)
             classes outcomes))
      !groups
  in
  shed_late @ served

(* ------------------------------------------------------------------ *)
(* Worker loop.                                                        *)

let worker t s () =
  (* The shard's tracer and metrics registry are created by the
     coordinator but written only from this domain while the worker
     lives; the engine's compile/exec spans land inside this shard's
     window spans because they share the tracer. *)
  let tracer = t.tracers.(s) in
  let ring = t.flights.(s) in
  let eobs = Obs.v ~trace:tracer ~metrics:t.shard_metrics.(s) in
  let engine =
    Engine.create ~obs:eobs ~flight:ring ~settings:t.settings t.config
  in
  let st = t.shard_state.(s) in
  let publish () = st.engine_stats <- Some (Engine.stats engine) in
  let rec loop () =
    Mutex.lock t.m;
    while (not t.stopping) && (t.paused || not (has_work t s)) do
      Condition.wait t.work t.m
    done;
    Access.acquire "serve.m";
    if has_work t s && ((not t.stopping) || t.drain) then begin
      let w = st.windows in
      st.windows <- w + 1;
      let jobs = collect t s ~limit:t.max_batch in
      Access.write "serve.queue" t.suid;
      Metrics.Counter.incr t.windows_c;
      Access.release "serve.m";
      Mutex.unlock t.m;
      let njobs = List.length jobs in
      let dispatched_us = t.clock () in
      (* Queue-wait spans are lane-level roots (they begin before this
         window opens, so nesting them under it would break the
         children-within-parent invariant the qcheck property pins). *)
      List.iter
        (fun j ->
          Trace.emit tracer ~ts:j.submitted_us
            ~dur:(Float.max 0. (dispatched_us -. j.submitted_us))
            ~attrs:
              [
                ("tenant", Trace.Str j.tenant);
                ("trace_id", Trace.Int j.ticket.id);
              ]
            "serve.queue_wait")
        jobs;
      Flight.record ring Flight.Window_open
        (Printf.sprintf "shard %d window %d: %d jobs" s w njobs);
      let resolved =
        Trace.with_span tracer
          ~attrs:[ ("window", Trace.Int w); ("jobs", Trace.Int njobs) ]
          "serve.window"
          (fun () -> execute t engine s w jobs)
      in
      Flight.record ring Flight.Window_close
        (Printf.sprintf "shard %d window %d" s w);
      Mutex.lock t.m;
      Access.acquire "serve.m";
      List.iter (fun (j, r) -> finish t j r) resolved;
      publish ();
      Access.write "serve.queue" t.suid;
      Condition.broadcast t.donec;
      Access.release "serve.m";
      Mutex.unlock t.m;
      loop ()
    end
    else if t.stopping && (not t.drain) && has_work t s then begin
      (* undrained shutdown: every queued job still gets an answer *)
      let jobs = collect t s ~limit:max_int in
      Access.write "serve.queue" t.suid;
      List.iter
        (fun j ->
          finish t j
            (unserved ~trace_id:j.ticket.id ~shard:s
               (Outcome.shed ~fingerprint:j.fp Outcome.Shutting_down)))
        jobs;
      Condition.broadcast t.donec;
      Access.release "serve.m";
      Mutex.unlock t.m;
      loop ()
    end
    else begin
      (* stopping and this shard's queues are dry: final stats, exit *)
      publish ();
      Access.write "serve.queue" t.suid;
      Access.release "serve.m";
      Mutex.unlock t.m;
      Engine.shutdown engine
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let create ?obs ?(settings = Engine.default_settings) ?(shards = 2)
    ?(max_batch = 16) ?(clock = default_clock) ?(paused = false) config =
  if shards < 1 then invalid_arg "Serve.create: shards must be >= 1";
  if max_batch < 1 then invalid_arg "Serve.create: max_batch must be >= 1";
  let obs =
    match obs with
    | Some o -> o
    | None -> Obs.v ~trace:Trace.disabled ~metrics:(Metrics.create ())
  in
  let mtr = obs.Obs.metrics in
  let t =
    {
      config;
      settings;
      nshards = shards;
      max_batch;
      clock;
      obs;
      suid = Atomic.fetch_and_add suids 1;
      m = Mutex.create ();
      work = Condition.create ();
      donec = Condition.create ();
      tenants_tbl = Hashtbl.create 16;
      rotation = [];
      keys = Hashtbl.create 64;
      shard_state =
        Array.init shards (fun _ -> { windows = 0; engine_stats = None });
      tracers =
        (* per-shard span buffers share the scheduler clock so the
           merged lanes carry coherent timestamps; when the session
           isn't tracing every shard gets the no-op singleton *)
        Array.init shards (fun _ ->
            if Trace.enabled obs.Obs.trace then Trace.create ~clock ()
            else Trace.disabled);
      flights = Array.init shards (fun _ -> Flight.create ~clock ());
      shard_metrics = Array.init shards (fun _ -> Metrics.create ());
      next_ticket = 0;
      stopping = false;
      drain = true;
      paused;
      workers = [||];
      admitted_c = Metrics.counter mtr "serve.admitted";
      coalesced_c = Metrics.counter mtr "serve.coalesced";
      completed_c = Metrics.counter mtr "serve.completed";
      degraded_c = Metrics.counter mtr "serve.degraded";
      refused_c = Metrics.counter mtr "serve.refused";
      shed_c = Metrics.counter mtr "serve.shed";
      windows_c = Metrics.counter mtr "serve.windows";
      queued_h = Metrics.histogram mtr "serve.queued_us";
      service_h = Metrics.histogram mtr "serve.service_us";
    }
  in
  t.workers <- Array.init shards (fun s -> Domain.spawn (worker t s));
  t

let shards t = t.nshards
let key_of t pattern = Fingerprint.key t.config pattern

let pause t =
  Mutex.lock t.m;
  Access.acquire "serve.m";
  if not t.stopping then begin
    t.paused <- true;
    Access.write "serve.queue" t.suid
  end;
  Access.release "serve.m";
  Mutex.unlock t.m

let resume t =
  Mutex.lock t.m;
  Access.acquire "serve.m";
  if not t.stopping then begin
    t.paused <- false;
    Access.write "serve.queue" t.suid;
    Condition.broadcast t.work
  end;
  Access.release "serve.m";
  Mutex.unlock t.m

let shutdown ?(drain = true) t =
  Mutex.lock t.m;
  Access.acquire "serve.m";
  let doomed = t.workers in
  t.workers <- [||];
  if Array.length doomed > 0 then begin
    t.stopping <- true;
    t.drain <- drain;
    t.paused <- false;
    Access.write "serve.queue" t.suid;
    Condition.broadcast t.work
  end;
  Access.release "serve.m";
  Mutex.unlock t.m;
  Array.iter Domain.join doomed

(* ------------------------------------------------------------------ *)
(* Admission.                                                          *)

let submit t (req : Request.t) =
  (* parse/recognize outside the lock — pure *)
  let pre =
    match req.Request.stencil with
    | Request.Pattern p -> Some (Ok p)
    | Request.Text s -> Some (Engine.recognize_statement s)
    | Request.Key _ -> None
  in
  Mutex.lock t.m;
  Access.acquire "serve.m";
  let id = t.next_ticket in
  t.next_ticket <- id + 1;
  let tk = { id; state = Waiting } in
  Access.write "serve.ticket" t.suid;
  let resolved =
    match pre with
    | Some r -> r
    | None ->
        let k =
          match req.Request.stencil with
          | Request.Key k -> k
          | _ -> assert false
        in
        Access.read "serve.keys" t.suid;
        (match Hashtbl.find_opt t.keys k with
        | Some p -> Ok p
        | None ->
            Error (Outcome.Parse_error (Printf.sprintf "unknown stencil key %S" k)))
  in
  (match resolved with
  | Error reject ->
      Metrics.Counter.incr t.refused_c;
      (* no shard was ever chosen; the incident lands on ring 0 *)
      Flight.record t.flights.(0) Flight.Refused
        (Printf.sprintf "ticket %d tenant %s: %s" id req.Request.tenant
           (Outcome.reject_to_string reject));
      Log.warn (fun m ->
          m "tenant %s refused at admission: %s@\nflight recorder:@\n%s"
            req.Request.tenant
            (Outcome.reject_to_string reject)
            (Flight.dump t.flights.(0)));
      tk.state <- Done (unserved ~trace_id:id ~shard:(-1) (Outcome.refused reject))
  | Ok p ->
      let fp = Fingerprint.pattern p in
      let shard = Hashtbl.hash fp mod t.nshards in
      (match req.Request.stencil with
      | Request.Key _ -> ()
      | _ ->
          Hashtbl.replace t.keys (Fingerprint.key t.config p) p;
          Access.write "serve.keys" t.suid);
      let now = t.clock () in
      let shed s =
        Metrics.Counter.incr t.shed_c;
        (match Hashtbl.find_opt t.tenants_tbl req.Request.tenant with
        | Some q ->
            Metrics.Counter.incr q.t_shed;
            (match s with
            | Outcome.Deadline_exceeded _ ->
                Metrics.Counter.incr q.t_deadline_missed
            | _ -> ())
        | None -> ());
        Flight.record t.flights.(shard) Flight.Shed
          (Printf.sprintf "ticket %d tenant %s: %s" id req.Request.tenant
             (Outcome.shed_to_string s));
        tk.state <-
          Done (unserved ~trace_id:id ~shard (Outcome.shed ~fingerprint:fp s))
      in
      if t.stopping then shed Outcome.Shutting_down
      else
        match req.Request.deadline_us with
        | Some d when d < now ->
            shed
              (Outcome.Deadline_exceeded
                 { tenant = req.Request.tenant; deadline_us = d; now_us = now })
        | _ -> (
            let existing = Hashtbl.find_opt t.tenants_tbl req.Request.tenant in
            match existing with
            | None when Hashtbl.length t.tenants_tbl >= t.settings.Engine.tenants
              ->
                shed
                  (Outcome.Overloaded
                     {
                       tenant = req.Request.tenant;
                       queued = Hashtbl.length t.tenants_tbl;
                       limit = t.settings.Engine.tenants;
                     })
            | _ ->
                let q =
                  match existing with
                  | Some q -> q
                  | None ->
                      let mtr = t.obs.Obs.metrics in
                      let tc field =
                        Metrics.counter mtr
                          ("serve.tenant." ^ req.Request.tenant ^ "." ^ field)
                      in
                      let q =
                        {
                          queues =
                            Array.init t.nshards (fun _ -> Queue.create ());
                          queued = 0;
                          served = tc "served";
                          t_admitted = tc "admitted";
                          t_coalesced = tc "coalesced";
                          t_shed = tc "shed";
                          t_deadline_missed = tc "deadline_missed";
                          t_degraded = tc "degraded";
                          depth_g =
                            Metrics.gauge mtr
                              ("serve.tenant." ^ req.Request.tenant
                             ^ ".queue_depth");
                        }
                      in
                      Hashtbl.add t.tenants_tbl req.Request.tenant q;
                      t.rotation <- t.rotation @ [ req.Request.tenant ];
                      q
                in
                if q.queued >= t.settings.Engine.queue_depth then
                  shed
                    (Outcome.Overloaded
                       {
                         tenant = req.Request.tenant;
                         queued = q.queued;
                         limit = t.settings.Engine.queue_depth;
                       })
                else begin
                  Queue.add
                    {
                      ticket = tk;
                      tenant = req.Request.tenant;
                      pattern = p;
                      fp;
                      env = req.Request.env;
                      deadline_us = req.Request.deadline_us;
                      submitted_us = now;
                    }
                    q.queues.(shard);
                  q.queued <- q.queued + 1;
                  Metrics.Gauge.set q.depth_g (float_of_int q.queued);
                  Access.write "serve.queue" t.suid;
                  Metrics.Counter.incr t.admitted_c;
                  Metrics.Counter.incr q.t_admitted;
                  Flight.record t.flights.(shard) Flight.Admission
                    (Printf.sprintf "ticket %d tenant %s fp %s" id
                       req.Request.tenant fp);
                  Trace.emit t.obs.Obs.trace ~ts:now
                    ~attrs:
                      [
                        ("tenant", Trace.Str req.Request.tenant);
                        ("trace_id", Trace.Int id);
                        ("shard", Trace.Int shard);
                      ]
                    "serve.submit";
                  Condition.broadcast t.work
                end));
  Access.release "serve.m";
  Mutex.unlock t.m;
  tk

let wait t tk =
  Mutex.lock t.m;
  let rec get () =
    match tk.state with
    | Done r -> r
    | Waiting ->
        Condition.wait t.donec t.m;
        get ()
  in
  let r = get () in
  Access.acquire "serve.m";
  Access.read "serve.ticket" t.suid;
  Access.release "serve.m";
  Mutex.unlock t.m;
  r

let peek t tk =
  Mutex.lock t.m;
  Access.acquire "serve.m";
  Access.read "serve.ticket" t.suid;
  let r = match tk.state with Done r -> Some r | Waiting -> None in
  Access.release "serve.m";
  Mutex.unlock t.m;
  r

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

type stats = {
  shards_ : int;
  max_batch : int;
  queue_depth : int;
  tenant_limit : int;
  tenants : (string * int) list;
  admitted : int;
  coalesced : int;
  completed : int;
  degraded : int;
  refused : int;
  shed : int;
  windows : int;
  queued_q : (float * float * float) option;
  service_q : (float * float * float) option;
  engines : (int * Engine.stats) list;
}

let histo_q h =
  if Metrics.Histogram.count h = 0 then None
  else
    Some
      ( Metrics.Histogram.p50 h,
        Metrics.Histogram.p95 h,
        Metrics.Histogram.p99 h )

let stats t =
  Mutex.lock t.m;
  Access.acquire "serve.m";
  Access.read "serve.queue" t.suid;
  let tenants =
    Hashtbl.fold
      (fun name q acc -> (name, Metrics.Counter.value q.served) :: acc)
      t.tenants_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let engines =
    Array.to_list t.shard_state
    |> List.mapi (fun i st -> (i, st.engine_stats))
    |> List.filter_map (fun (i, o) -> Option.map (fun s -> (i, s)) o)
  in
  let windows =
    Array.fold_left
      (fun acc (st : shard_state) -> acc + st.windows)
      0 t.shard_state
  in
  let r =
    {
      shards_ = t.nshards;
      max_batch = t.max_batch;
      queue_depth = t.settings.Engine.queue_depth;
      tenant_limit = t.settings.Engine.tenants;
      tenants;
      admitted = Metrics.Counter.value t.admitted_c;
      coalesced = Metrics.Counter.value t.coalesced_c;
      completed = Metrics.Counter.value t.completed_c;
      degraded = Metrics.Counter.value t.degraded_c;
      refused = Metrics.Counter.value t.refused_c;
      shed = Metrics.Counter.value t.shed_c;
      windows;
      queued_q = histo_q t.queued_h;
      service_q = histo_q t.service_h;
      engines;
    }
  in
  Access.release "serve.m";
  Mutex.unlock t.m;
  r

(* Same discipline as [Engine.pp_stats]: identity line, admission
   line, work line, per-tenant lines, then each shard's engine table
   indented under its header. *)
let pp_stats ppf s =
  Format.fprintf ppf "serve: %d shards, window %d, queue depth %d, %d tenants max@\n"
    s.shards_ s.max_batch s.queue_depth s.tenant_limit;
  Format.fprintf ppf "admission: %d admitted, %d coalesced, %d shed@\n"
    s.admitted s.coalesced s.shed;
  Format.fprintf ppf "served: %d completed, %d degraded, %d refused in %d windows"
    s.completed s.degraded s.refused s.windows;
  let latency label = function
    | None -> ()
    | Some (p50, p95, p99) ->
        Format.fprintf ppf "@\nlatency %s: p50 %.0f, p95 %.0f, p99 %.0f us"
          label p50 p95 p99
  in
  latency "queued" s.queued_q;
  latency "service" s.service_q;
  List.iter
    (fun (name, n) -> Format.fprintf ppf "@\ntenant %s: %d served" name n)
    s.tenants;
  List.iter
    (fun (i, es) ->
      Format.fprintf ppf "@\n@[<v 2>shard %d:@,%a@]" i Engine.pp_stats es)
    s.engines

(* ------------------------------------------------------------------ *)
(* Observability surfaces.                                             *)

(* The shard tracers are written only by their worker domains; reading
   them is safe once the workers have joined ([shutdown]), which is
   the only supported time to merge lanes. *)
let trace_lanes t =
  Trace.lane ~tid:0 ~label:"scheduler" t.obs.Obs.trace
  :: List.init t.nshards (fun s ->
         Trace.lane ~tid:(s + 1)
           ~label:(Printf.sprintf "shard %d" s)
           t.tracers.(s))

let chrome_trace t = Trace.to_chrome_json_lanes (trace_lanes t)

let flight_rings t = Array.to_list t.flights

let shard_registries t = Array.to_list t.shard_metrics

let prometheus t =
  Expo.render
    (([], t.obs.Obs.metrics)
    :: List.mapi
         (fun s m -> ([ ("shard", string_of_int s) ], m))
         (Array.to_list t.shard_metrics))
