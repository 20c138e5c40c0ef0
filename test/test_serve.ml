(* The multi-tenant serve scheduler (lib/serve): sequential
   equivalence of the sharded async path (bit-identical outputs for
   engine jobs 1, 2 and 7), request coalescing (fingerprint-identical
   requests over the same grid share one execution), deterministic
   deadline handling under an injectable clock, bounded-queue load
   shedding, round-robin tenant fairness, the stencil-key catalog,
   drain/no-drain shutdown (no ticket is ever lost), and the pool
   accessors the scheduler's admission logic relies on.

   Dispatch is made deterministic the same way the cram demo does it:
   create the scheduler paused, submit the whole trace, then resume —
   every window's contents are then a pure function of the trace. *)

module Q = QCheck2
module Gen = QCheck2.Gen
module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Boundary = Ccc.Boundary
module Grid = Ccc.Grid
module Exec = Ccc.Exec
module Engine = Ccc.Engine
module Outcome = Ccc.Outcome
module Request = Ccc.Request
module Serve = Ccc.Serve
module Pool = Ccc.Pool
module Finding = Ccc.Finding

let config = Ccc.Config.default

(* --- helpers (mirrors tutil.ml) ----------------------------------- *)

let mixed_grid ~seed ~rows ~cols =
  Grid.init ~rows ~cols (fun r c ->
      let h = (seed * 0x9e3779b1) lxor (r * 31) lxor (c * 131) in
      let h = h lxor (h lsr 13) in
      float_of_int (h land 0xffff) /. 65536.0 -. 0.5)

let env_for ?(seed = 0x5eed) ~rows ~cols pattern =
  let names =
    Pattern.source_var pattern
    :: List.filter_map
         (fun t -> Coeff.array_name t.Tap.coeff)
         (Pattern.taps pattern)
    @ (match Pattern.bias pattern with
      | Some c -> Option.to_list (Coeff.array_name c)
      | None -> [])
  in
  List.mapi (fun i n -> (n, mixed_grid ~seed:(seed + i) ~rows ~cols)) names

let pattern_of_offsets ?bias ?boundary ?source ?result offs =
  Pattern.create ?bias ?boundary ?source ?result
    (List.mapi
       (fun i (drow, dcol) ->
         Tap.make (Offset.make ~drow ~dcol)
           (Coeff.Array (Printf.sprintf "C%d" (i + 1))))
       offs)

let cross5 ?source ?result () =
  pattern_of_offsets ?source ?result
    [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ]

let check_bit_identical what a b =
  let diff = Grid.max_abs_diff a b in
  if diff <> 0.0 then
    Alcotest.failf "%s: outputs differ by %g (must be bit-identical)" what diff

(* Serve a whole trace deterministically: paused create, submit all,
   resume, wait all, drain shutdown. *)
let serve_trace ?settings ?(shards = 2) ?max_batch ?clock reqs =
  let t = Serve.create ?settings ~shards ?max_batch ?clock ~paused:true config in
  let tickets = List.map (Serve.submit t) reqs in
  Serve.resume t;
  let rs = List.map (Serve.wait t) tickets in
  let stats = Serve.stats t in
  Serve.shutdown t;
  (rs, stats)

let outcome_kind = function
  | Outcome.Completed _ -> "completed"
  | Outcome.Degraded _ -> "degraded"
  | Outcome.Refused _ -> "refused"
  | Outcome.Shed _ -> "shed"

let output_exn what (r : Serve.response) =
  match Outcome.output r.Serve.outcome with
  | Some g -> g
  | None ->
      Alcotest.failf "%s: expected an output, got %s: %s" what
        (outcome_kind r.Serve.outcome)
        (Outcome.to_string r.Serve.outcome)

(* --- sequential equivalence (qcheck) ------------------------------- *)

let gen_offsets =
  Gen.map
    (fun offs -> List.sort_uniq Offset.compare offs)
    (Gen.list_size (Gen.int_range 1 7)
       (Gen.map2
          (fun drow dcol -> Offset.make ~drow ~dcol)
          (Gen.int_range (-2) 2) (Gen.int_range (-2) 2)))

let gen_pattern =
  let open Gen in
  gen_offsets >>= fun offsets ->
  let taps =
    List.mapi
      (fun i o -> Tap.make o (Coeff.Array (Printf.sprintf "C%d" (i + 1))))
      offsets
  in
  return (Pattern.create taps)

let print_patterns ps =
  String.concat " / " (List.map (fun p -> Format.asprintf "%a" Pattern.pp p) ps)

(* The scheduler must be a behavior-preserving wrapper: whatever a
   caller would get from a lone sequential engine, the sharded async
   path returns bit-identically — for every engine pool size. *)
let prop_matches_sequential jobs =
  Q.Test.make
    ~name:(Printf.sprintf "serve = sequential Engine.run (jobs %d)" jobs)
    ~count:(if jobs = 1 then 25 else 12)
    ~print:print_patterns
    (Gen.list_size (Gen.int_range 1 5) gen_pattern)
    (fun patterns ->
      let rows = 8 and cols = 8 in
      let envs =
        List.mapi
          (fun i p -> env_for ~seed:(0x5eed + (97 * i)) ~rows ~cols p)
          patterns
      in
      let reqs =
        List.map2
          (fun p env -> Request.v ~tenant:"qc" ~env (Request.Pattern p))
          patterns envs
      in
      let settings = { Engine.default_settings with jobs } in
      let responses, _ = serve_trace ~settings ~shards:2 reqs in
      let baseline = Engine.create config in
      let ok =
        List.for_all2
          (fun (r : Serve.response) (p, env) ->
            match (r.Serve.outcome, Engine.run baseline p env) with
            | Outcome.Completed { result; _ }, Ok seq ->
                Grid.max_abs_diff result.Exec.output seq.Exec.output = 0.0
            | Outcome.Refused { reject; _ }, Error e ->
                Outcome.reject_to_string reject = Outcome.reject_to_string e
            | o, seq ->
                Q.Test.fail_reportf "serve %s vs sequential %s"
                  (outcome_kind o)
                  (match seq with
                  | Ok _ -> "ok"
                  | Error e -> Outcome.reject_to_string e))
          responses
          (List.combine patterns envs)
      in
      Engine.shutdown baseline;
      ok)

(* --- coalescing ---------------------------------------------------- *)

let test_coalescing () =
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let reqs =
    List.init 4 (fun _ -> Request.v ~tenant:"dup" ~env (Request.Pattern p))
  in
  let responses, stats = serve_trace ~shards:2 reqs in
  let baseline = Engine.create config in
  let seq =
    match Engine.run baseline p env with
    | Ok r -> r.Exec.output
    | Error e -> Alcotest.failf "baseline: %s" (Outcome.reject_to_string e)
  in
  let first = List.hd responses in
  List.iter
    (fun (r : Serve.response) ->
      check_bit_identical "coalesced output" seq (output_exn "coalesced" r);
      Alcotest.(check int) "all four share one run" 4 r.Serve.coalesced;
      Alcotest.(check int) "a singleton class" 1 r.Serve.batched;
      Alcotest.(check int) "same shard" first.Serve.shard r.Serve.shard;
      Alcotest.(check int) "same window" first.Serve.window r.Serve.window)
    responses;
  Alcotest.(check int) "three requests coalesced away" 3 stats.Serve.coalesced;
  Alcotest.(check int) "four completed" 4 stats.Serve.completed;
  (* the shard that served them ran exactly once *)
  let _, es = List.find (fun (i, _) -> i = first.Serve.shard) stats.Serve.engines in
  Alcotest.(check int) "one guarded run on the engine" 1 es.Engine.runs;
  Engine.shutdown baseline

let test_batched_window () =
  let p1 = cross5 () in
  let p2 = pattern_of_offsets [ (0, 0); (1, 1) ] in
  let env = env_for ~rows:16 ~cols:16 p1 in
  let reqs =
    [
      Request.v ~tenant:"a" ~env (Request.Pattern p1);
      Request.v ~tenant:"a" ~env (Request.Pattern p2);
    ]
  in
  let responses, stats = serve_trace ~shards:1 reqs in
  let baseline = Engine.create config in
  List.iter2
    (fun (r : Serve.response) p ->
      let seq =
        match Engine.run baseline p env with
        | Ok r -> r.Exec.output
        | Error e -> Alcotest.failf "baseline: %s" (Outcome.reject_to_string e)
      in
      check_bit_identical "batched output" seq (output_exn "batched" r);
      Alcotest.(check int) "two statements in the shared run" 2
        r.Serve.batched;
      Alcotest.(check int) "no coalescing" 1 r.Serve.coalesced;
      Alcotest.(check int) "window 0" 0 r.Serve.window)
    responses [ p1; p2 ];
  let _, es = List.hd stats.Serve.engines in
  Alcotest.(check int) "one batch on the engine" 1 es.Engine.batches;
  Alcotest.(check int) "no singleton runs" 0 es.Engine.runs;
  Engine.shutdown baseline

(* --- deadlines (injectable clock) ---------------------------------- *)

let test_deadline_at_admission () =
  let now = Atomic.make 1000.0 in
  let clock () = Atomic.get now in
  let t = Serve.create ~shards:1 ~clock ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let tk =
    Serve.submit t
      (Request.v ~deadline_us:999.0 ~tenant:"late" ~env (Request.Pattern p))
  in
  let r = Serve.wait t tk in
  (match r.Serve.outcome with
  | Outcome.Shed { shed = Outcome.Deadline_exceeded d; _ } ->
      Alcotest.(check string) "tenant" "late" d.tenant;
      Alcotest.(check (float 0.0)) "deadline echoed" 999.0 d.deadline_us;
      Alcotest.(check (float 0.0)) "clock echoed" 1000.0 d.now_us
  | o -> Alcotest.failf "expected Deadline_exceeded, got %s" (outcome_kind o));
  Alcotest.(check int) "never reached a worker" (-1) r.Serve.window;
  Serve.shutdown t

let test_deadline_at_dispatch () =
  let now = Atomic.make 0.0 in
  let clock () = Atomic.get now in
  let t = Serve.create ~shards:1 ~clock ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let admitted =
    Serve.submit t
      (Request.v ~deadline_us:100.0 ~tenant:"late" ~env (Request.Pattern p))
  in
  let unbounded =
    Serve.submit t (Request.v ~tenant:"ok" ~env (Request.Pattern p))
  in
  (* the deadline passes while the request sits in the queue *)
  Atomic.set now 200.0;
  Serve.resume t;
  let r = Serve.wait t admitted in
  (match r.Serve.outcome with
  | Outcome.Shed { shed = Outcome.Deadline_exceeded d; _ } ->
      Alcotest.(check (float 0.0)) "dispatch-time clock" 200.0 d.now_us
  | o -> Alcotest.failf "expected Deadline_exceeded, got %s" (outcome_kind o));
  if r.Serve.window < 0 then
    Alcotest.fail "a queued request that expired was collected by a window";
  (match (Serve.wait t unbounded).Serve.outcome with
  | Outcome.Completed _ -> ()
  | o -> Alcotest.failf "undeadlined neighbor: %s" (outcome_kind o));
  Serve.shutdown t

(* --- load shedding ------------------------------------------------- *)

let test_queue_depth_shedding () =
  let settings = { Engine.default_settings with queue_depth = 2 } in
  let t = Serve.create ~settings ~shards:1 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let submit () =
    Serve.submit t (Request.v ~tenant:"greedy" ~env (Request.Pattern p))
  in
  let a = submit () and b = submit () and c = submit () in
  (match Serve.peek t c with
  | Some { Serve.outcome = Outcome.Shed { shed = Outcome.Overloaded o; _ }; _ }
    ->
      Alcotest.(check string) "tenant named" "greedy" o.tenant;
      Alcotest.(check int) "queued at the bound" 2 o.queued;
      Alcotest.(check int) "the bound" 2 o.limit
  | Some _ | None -> Alcotest.fail "third request should shed immediately");
  Serve.resume t;
  List.iter
    (fun tk ->
      match (Serve.wait t tk).Serve.outcome with
      | Outcome.Completed _ -> ()
      | o -> Alcotest.failf "admitted request: %s" (outcome_kind o))
    [ a; b ];
  let stats = Serve.stats t in
  Alcotest.(check int) "two admitted" 2 stats.Serve.admitted;
  Alcotest.(check int) "one shed" 1 stats.Serve.shed;
  Serve.shutdown t

let test_tenant_table_shedding () =
  let settings = { Engine.default_settings with tenants = 1 } in
  let t = Serve.create ~settings ~shards:1 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let _a = Serve.submit t (Request.v ~tenant:"alice" ~env (Request.Pattern p)) in
  let b = Serve.submit t (Request.v ~tenant:"bob" ~env (Request.Pattern p)) in
  (match Serve.peek t b with
  | Some { Serve.outcome = Outcome.Shed { shed = Outcome.Overloaded o; _ }; _ }
    ->
      Alcotest.(check string) "bob turned away" "bob" o.tenant;
      Alcotest.(check int) "table bound" 1 o.limit
  | Some _ | None -> Alcotest.fail "second tenant should shed immediately");
  Serve.resume t;
  Serve.shutdown t

(* --- fairness ------------------------------------------------------ *)

let test_round_robin_fairness () =
  let p = cross5 () in
  let req tenant seed =
    Request.v ~tenant
      ~env:(env_for ~seed ~rows:16 ~cols:16 p)
      (Request.Pattern p)
  in
  let t = Serve.create ~shards:1 ~max_batch:2 ~paused:true config in
  let a = List.init 4 (fun i -> Serve.submit t (req "a" (100 + i))) in
  let b = List.init 2 (fun i -> Serve.submit t (req "b" (200 + i))) in
  Serve.resume t;
  let wa = List.map (fun tk -> (Serve.wait t tk).Serve.window) a in
  let wb = List.map (fun tk -> (Serve.wait t tk).Serve.window) b in
  Serve.shutdown t;
  (* one job per tenant per window while both have work: b is never
     starved behind a's backlog *)
  Alcotest.(check (list int)) "b rides the first two windows" [ 0; 1 ] wb;
  Alcotest.(check (list int))
    "a's backlog waits for the last window" [ 0; 1; 2; 2 ]
    (List.sort compare wa)

(* --- key catalog --------------------------------------------------- *)

let test_key_catalog () =
  let t = Serve.create ~shards:1 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let text =
    Serve.submit t
      (Request.v ~tenant:"k" ~env
         (Request.Text
            "R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1) + C3 * X + C4 \
             * CSHIFT(X, 2, +1) + C5 * CSHIFT(X, 1, +1)"))
  in
  let by_key =
    Serve.submit t
      (Request.v ~tenant:"k" ~env (Request.Key (Serve.key_of t p)))
  in
  let unknown =
    Serve.submit t (Request.v ~tenant:"k" ~env (Request.Key "no-such-key"))
  in
  (match Serve.peek t unknown with
  | Some { Serve.outcome = Outcome.Refused { reject = Outcome.Parse_error m; _ }; _ }
    ->
      if not (String.length m > 0) then Alcotest.fail "empty refusal"
  | Some _ | None -> Alcotest.fail "unknown key should refuse immediately");
  Serve.resume t;
  let rt = Serve.wait t text and rk = Serve.wait t by_key in
  check_bit_identical "text and key resolve to the same stencil"
    (output_exn "text" rt) (output_exn "key" rk);
  (* fingerprint-identical on the same grid: the key request coalesced
     with the text request *)
  Alcotest.(check int) "coalesced with the text twin" 2 rk.Serve.coalesced;
  Serve.shutdown t

(* --- shutdown ------------------------------------------------------ *)

let test_shutdown_drains () =
  let t = Serve.create ~shards:2 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let tickets =
    List.init 6 (fun _ ->
        Serve.submit t (Request.v ~tenant:"d" ~env (Request.Pattern p)))
  in
  (* never resumed: shutdown itself must drain the queues *)
  Serve.shutdown t;
  List.iter
    (fun tk ->
      match (Serve.wait t tk).Serve.outcome with
      | Outcome.Completed _ -> ()
      | o -> Alcotest.failf "drained request: %s" (outcome_kind o))
    tickets;
  match
    (Serve.wait t
       (Serve.submit t (Request.v ~tenant:"d" ~env (Request.Pattern p))))
      .Serve.outcome
  with
  | Outcome.Shed { shed = Outcome.Shutting_down; _ } -> ()
  | o -> Alcotest.failf "post-shutdown submit: %s" (outcome_kind o)

let test_shutdown_sheds_undrained () =
  let t = Serve.create ~shards:2 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let tickets =
    List.init 6 (fun _ ->
        Serve.submit t (Request.v ~tenant:"u" ~env (Request.Pattern p)))
  in
  Serve.shutdown ~drain:false t;
  List.iter
    (fun tk ->
      match (Serve.wait t tk).Serve.outcome with
      | Outcome.Shed { shed = Outcome.Shutting_down; _ } -> ()
      | o -> Alcotest.failf "undrained ticket resolved as %s" (outcome_kind o))
    tickets;
  (* idempotent *)
  Serve.shutdown t

(* --- cross-domain trace tree (qcheck) ------------------------------ *)

(* A random schedule of requests over a small pattern set, served by a
   fully traced scheduler (injectable counting clock, two shards).
   Whatever the dispatch interleaving, the merged lane view must be a
   well-formed cross-domain trace: every span closed with a
   non-negative extent, every child nested inside its parent, lane
   names disjoint (admission spans only on the scheduler lane, window
   machinery only on shard lanes), and every dispatched request's
   queue-wait span sitting on exactly the lane of the shard that
   served it. *)

let rec check_span_tree lane_label span =
  let ts = Ccc.Trace.span_ts span and dur = Ccc.Trace.span_dur span in
  if dur < 0.0 then
    Q.Test.fail_reportf "%s: span %s has negative duration" lane_label
      (Ccc.Trace.span_name span);
  List.iter
    (fun child ->
      let cts = Ccc.Trace.span_ts child
      and cdur = Ccc.Trace.span_dur child in
      if not (cts >= ts && cts +. cdur <= ts +. dur) then
        Q.Test.fail_reportf
          "%s: child %s [%g,%g] escapes parent %s [%g,%g]" lane_label
          (Ccc.Trace.span_name child) cts (cts +. cdur)
          (Ccc.Trace.span_name span) ts (ts +. dur);
      check_span_tree lane_label child)
    (Ccc.Trace.span_children span)

let rec spans_named name span =
  (if Ccc.Trace.span_name span = name then [ span ] else [])
  @ List.concat_map (spans_named name) (Ccc.Trace.span_children span)

let prop_trace_well_formed =
  Q.Test.make ~count:12 ~name:"merged cross-domain trace is well-formed"
    ~print:(fun schedule ->
      String.concat "; "
        (List.map
           (fun (t, p) -> Printf.sprintf "tenant %d pattern %d" t p)
           schedule))
    (Gen.list_size (Gen.int_range 1 12)
       (Gen.pair (Gen.int_range 0 3) (Gen.int_range 0 2)))
    (fun schedule ->
      let rows = 8 and cols = 8 in
      let pats =
        [|
          cross5 ();
          pattern_of_offsets [ (0, 0) ];
          pattern_of_offsets [ (-1, 0); (0, 0); (1, 0) ];
        |]
      in
      let envs = Array.map (env_for ~rows ~cols) pats in
      let tick = Atomic.make 0 in
      let clock () = float_of_int (Atomic.fetch_and_add tick 1) in
      let obs =
        Ccc.Obs.v
          ~trace:(Ccc.Trace.create ~clock ())
          ~metrics:(Ccc.Metrics.create ())
      in
      let shards = 2 in
      let t = Serve.create ~obs ~shards ~clock ~paused:true config in
      let tickets =
        List.map
          (fun (ti, pi) ->
            Serve.submit t
              (Request.v
                 ~tenant:(Printf.sprintf "t%d" ti)
                 ~env:envs.(pi)
                 (Request.Pattern pats.(pi))))
          schedule
      in
      Serve.resume t;
      let responses = List.map (Serve.wait t) tickets in
      Serve.shutdown t;
      let lanes = Serve.trace_lanes t in
      if List.length lanes <> shards + 1 then
        Q.Test.fail_reportf "expected %d lanes, got %d" (shards + 1)
          (List.length lanes);
      if List.map Ccc.Trace.lane_tid lanes <> [ 0; 1; 2 ] then
        Q.Test.fail_report "lane tids not 0, 1, 2";
      (* Every lane's forest is closed and properly nested. *)
      List.iter
        (fun lane ->
          List.iter
            (check_span_tree (Ccc.Trace.lane_label lane))
            (Ccc.Trace.lane_roots lane))
        lanes;
      (* Lane discipline: admission on the scheduler lane only, window
         machinery on shard lanes only. *)
      let scheduler = List.hd lanes and shard_lanes = List.tl lanes in
      List.iter
        (fun root ->
          if Ccc.Trace.span_name root <> "serve.submit" then
            Q.Test.fail_reportf "scheduler lane holds %s"
              (Ccc.Trace.span_name root))
        (Ccc.Trace.lane_roots scheduler);
      List.iter
        (fun lane ->
          List.iter
            (fun root ->
              (match Ccc.Trace.span_name root with
              | "serve.queue_wait" | "serve.window" -> ()
              | n ->
                  Q.Test.fail_reportf "%s lane has root %s"
                    (Ccc.Trace.lane_label lane) n);
              if spans_named "serve.submit" root <> [] then
                Q.Test.fail_reportf "admission span on %s"
                  (Ccc.Trace.lane_label lane))
            (Ccc.Trace.lane_roots lane))
        shard_lanes;
      (* Every dispatched request left exactly one queue-wait span, on
         the lane of the shard that served it. *)
      let wait_ids lane =
        List.concat_map
          (fun root ->
            List.filter_map
              (fun s -> Ccc.Trace.find_attr s "trace_id")
              (spans_named "serve.queue_wait" root))
          (Ccc.Trace.lane_roots lane)
      in
      List.iter
        (fun (r : Serve.response) ->
          if r.Serve.window >= 0 then
            List.iteri
              (fun i lane ->
                let here =
                  List.length
                    (List.filter
                       (fun v -> v = Ccc.Trace.Int r.Serve.trace_id)
                       (wait_ids lane))
                in
                let expect = if i = r.Serve.shard then 1 else 0 in
                if here <> expect then
                  Q.Test.fail_reportf
                    "ticket %d: %d queue-wait spans on %s (expected %d)"
                    r.Serve.trace_id here
                    (Ccc.Trace.lane_label lane)
                    expect)
              shard_lanes)
        responses;
      true)

(* --- observability surfaces ---------------------------------------- *)

let test_flight_and_prometheus () =
  (* A refused request must auto-dump the flight recorder: ring 0
     keeps the refusal, and the scrape surface renders the tenant
     families plus every shard registry under its label. *)
  let t = Serve.create ~shards:2 ~paused:true config in
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let good = Serve.submit t (Request.v ~tenant:"alice" ~env (Request.Pattern p)) in
  let bad =
    Serve.submit t (Request.v ~tenant:"mallory" ~env (Request.Text "x! = ("))
  in
  Serve.resume t;
  ignore (Serve.wait t good);
  (match (Serve.wait t bad).Serve.outcome with
  | Outcome.Refused _ -> ()
  | o -> Alcotest.failf "garbage text not refused: %s" (outcome_kind o));
  Serve.shutdown t;
  let rings = Serve.flight_rings t in
  Alcotest.(check int) "one ring per shard" 2 (List.length rings);
  let dump0 = Ccc.Flight.dump (List.hd rings) in
  let has needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "ring 0 kept the refusal" true
    (has "refused" dump0 && has "mallory" dump0);
  Alcotest.(check int) "one registry per shard" 2
    (List.length (Serve.shard_registries t));
  let text = Serve.prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " scraped") true (has needle text))
    [
      "ccc_serve_tenant_admitted{tenant=\"alice\"} 1";
      "ccc_serve_refused 1";
      "ccc_serve_completed 1";
      "ccc_serve_queued_us_bucket";
      "shard=\"0\"";
      "shard=\"1\"";
    ]

(* --- pool accessors (satellite of this PR) ------------------------- *)

let test_pool_accessors () =
  Alcotest.(check int) "sequential size" 1 (Pool.size Pool.sequential);
  Alcotest.(check bool) "sequential idle" false (Pool.busy Pool.sequential);
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "size echoes jobs" 3 (Pool.size pool);
  Alcotest.(check bool) "idle before iter" false (Pool.busy pool);
  Alcotest.(check bool) "open" false (Pool.closed pool);
  let saw_busy = ref false in
  Pool.iter pool 16 (fun _ -> if Pool.busy pool then saw_busy := true);
  Alcotest.(check bool) "busy inside iter" true !saw_busy;
  Alcotest.(check bool) "idle after iter" false (Pool.busy pool);
  Pool.shutdown pool;
  Alcotest.(check bool) "closed after shutdown" true (Pool.closed pool);
  match Pool.iter pool 4 (fun _ -> ()) with
  | () -> Alcotest.fail "iter on a closed pool must raise"
  | exception Finding.Failed fs ->
      Alcotest.(check bool) "a structured Lifecycle finding" true
        (List.exists (fun f -> f.Finding.check = Finding.Lifecycle) fs)

(* --- malformed input ----------------------------------------------- *)

(* Poll a ticket against a wall-clock deadline instead of blocking in
   [Serve.wait]: a request that killed its shard's worker would leave
   the ticket unresolved and hang the whole suite. *)
let wait_within ?(seconds = 10.0) t tk =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    match Serve.peek t tk with
    | Some r -> r
    | None when Unix.gettimeofday () > deadline ->
        Alcotest.failf "ticket unresolved after %.0f s: the shard is wedged"
          seconds
    | None ->
        Unix.sleepf 0.002;
        poll ()
  in
  poll ()

let expect_refused what (r : Serve.response) =
  match r.Serve.outcome with
  | Outcome.Refused { reject = Outcome.Parse_error _; _ } -> ()
  | o -> Alcotest.failf "%s: expected a parse-error refusal, got %s" what
           (Outcome.to_string o)

let expect_completed what p env (r : Serve.response) =
  let baseline = Engine.create config in
  Fun.protect ~finally:(fun () -> Engine.shutdown baseline) @@ fun () ->
  match Engine.run baseline p env with
  | Ok seq -> check_bit_identical what seq.Exec.output (output_exn what r)
  | Error e -> Alcotest.failf "%s: baseline %s" what (Outcome.reject_to_string e)

(* Malformed singletons — a mis-shaped coefficient, a grid that does
   not divide over the nodes, an unbound coefficient — share one
   window on one shard with a well-formed request.  Each is refused,
   the well-formed one completes, and so does one submitted after. *)
let test_malformed_singletons () =
  let p = cross5 () in
  let good = env_for ~rows:32 ~cols:32 p in
  let malformed =
    [
      ( "mis-shaped C3",
        ("C3", mixed_grid ~seed:9 ~rows:16 ~cols:16) :: List.remove_assoc "C3" good );
      ("33x33 grid", env_for ~rows:33 ~cols:33 p);
      ("unbound C2", List.remove_assoc "C2" good);
    ]
  in
  let t = Serve.create ~shards:1 ~paused:true config in
  let submit env = Serve.submit t (Request.v ~tenant:"a" ~env (Request.Pattern p)) in
  let bad = List.map (fun (what, env) -> (what, submit env)) malformed in
  let ok = submit good in
  Serve.resume t;
  List.iter (fun (what, tk) -> expect_refused what (wait_within t tk)) bad;
  let r = wait_within t ok in
  expect_completed "well-formed request in the same window" p good r;
  Alcotest.(check int) "one window" 0 r.Serve.window;
  expect_completed "request submitted afterwards" p good
    (wait_within t (submit good));
  Serve.shutdown t

(* A window that batches cross5 with a square9 whose extra
   coefficients are unbound: the batch is refused as a batch, falls
   back to per-pattern runs, and only the square9 is refused. *)
let test_malformed_batch () =
  let p = cross5 () and sq = Pattern.square9 () in
  let env = env_for ~rows:32 ~cols:32 p in
  let t = Serve.create ~shards:1 ~paused:true config in
  let submit p = Serve.submit t (Request.v ~tenant:"a" ~env (Request.Pattern p)) in
  let tp = submit p and tsq = submit sq in
  Serve.resume t;
  expect_refused "square9 with unbound coefficients" (wait_within t tsq);
  expect_completed "cross5 in the same window" p env (wait_within t tp);
  expect_completed "request submitted afterwards" p env
    (wait_within t (submit p));
  Serve.shutdown t

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ccc_serve"
    [
      ( "equivalence",
        qcheck
          [
            prop_matches_sequential 1;
            prop_matches_sequential 2;
            prop_matches_sequential 7;
          ] );
      ( "coalescing",
        [
          Alcotest.test_case "duplicates share one run" `Quick test_coalescing;
          Alcotest.test_case "distinct patterns batch in one window" `Quick
            test_batched_window;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired at admission" `Quick
            test_deadline_at_admission;
          Alcotest.test_case "expired in the queue" `Quick
            test_deadline_at_dispatch;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "per-tenant queue bound" `Quick
            test_queue_depth_shedding;
          Alcotest.test_case "tenant-table bound" `Quick
            test_tenant_table_shedding;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "round-robin windows" `Quick
            test_round_robin_fairness;
        ] );
      ( "catalog",
        [ Alcotest.test_case "text, key, unknown key" `Quick test_key_catalog ] );
      ( "shutdown",
        [
          Alcotest.test_case "drain serves the backlog" `Quick
            test_shutdown_drains;
          Alcotest.test_case "no-drain sheds every ticket" `Quick
            test_shutdown_sheds_undrained;
        ] );
      ("tracing", qcheck [ prop_trace_well_formed ]);
      ( "observability",
        [
          Alcotest.test_case "flight rings and prometheus" `Quick
            test_flight_and_prometheus;
        ] );
      ( "pool",
        [ Alcotest.test_case "size, busy, closed" `Quick test_pool_accessors ] );
      ( "input",
        [
          Alcotest.test_case "malformed singletons are refused" `Quick
            test_malformed_singletons;
          Alcotest.test_case "a malformed batch member is refused" `Quick
            test_malformed_batch;
        ] );
    ]
