(* Domain-safety analyzer (lib/analysis: Access/Hb/Race/Discipline)
   and the seeded-race kill matrix (Race_mutate):

   - vector-clock algebra (tick/join/leq/epoch) behaves as a partial
     order with per-component maxima;
   - the FastTrack core finds write-write / read-write / write-read
     pairs with no happens-before edge, and stays silent when a lock,
     fork/join edge, or atomic RMW orders them;
   - the Discipline pass enforces the DESIGN.md section-8 ownership
     table structurally (coordinator-only, guarded, per-index locked,
     atomic, node-indexed);
   - the protocol model analyzes clean at jobs {2, 3, 7}, and every
     one of the six seeded concurrency mutations is killed with a
     phase-attributed finding of the expected check, across seeds.

   Runs under the @race alias as its own executable. *)

module Access = Ccc.Access
module Hb = Ccc.Hb
module Race = Ccc.Race
module Discipline = Ccc.Discipline
module Rm = Ccc.Race_mutate
module Finding = Ccc.Finding

let ev dom phase op = { Access.dom; phase; op }

let has_check c fs = List.exists (fun (f : Finding.t) -> f.Finding.check = c) fs

let ctx_of (f : Finding.t) = f.Finding.ctx

let pp_findings fs =
  String.concat "; " (List.map Finding.to_string fs)

(* --- Hb ------------------------------------------------------------ *)

let test_hb_basics () =
  let a = Hb.tick (Hb.tick Hb.empty 0) 0 in
  Alcotest.(check int) "own component" 2 (Hb.get a 0);
  Alcotest.(check int) "absent component" 0 (Hb.get a 7);
  let b = Hb.tick Hb.empty 3 in
  let j = Hb.join a b in
  Alcotest.(check int) "join keeps left" 2 (Hb.get j 0);
  Alcotest.(check int) "join keeps right" 1 (Hb.get j 3);
  Alcotest.(check bool) "a <= join" true (Hb.leq a j);
  Alcotest.(check bool) "b <= join" true (Hb.leq b j);
  Alcotest.(check bool) "a || b unordered" false (Hb.leq a b || Hb.leq b a);
  Alcotest.(check bool) "epoch in" true (Hb.epoch_leq ~dom:0 ~clock:2 j);
  Alcotest.(check bool) "epoch out" false (Hb.epoch_leq ~dom:0 ~clock:3 j)

(* --- Race core ----------------------------------------------------- *)

let test_race_unsynced () =
  (* Two domains write the same slot with no sync at all. *)
  let log =
    [ ev 0 "compute" (Access.Write ("exec.dst", 4));
      ev 1 "compute" (Access.Write ("exec.dst", 4)) ]
  in
  match Race.analyze log with
  | [ f ] ->
      Alcotest.(check bool) "data-race" true (f.Finding.check = Finding.Data_race);
      Alcotest.(check (option string)) "ctx" (Some "compute") (ctx_of f)
  | fs -> Alcotest.failf "expected one race, got: %s" (pp_findings fs)

let test_race_lock_orders () =
  (* The same pair, ordered by a release->acquire edge: clean. *)
  let log =
    [ ev 0 "compute" (Access.Acquire "m");
      ev 0 "compute" (Access.Write ("exec.dst", 4));
      ev 0 "compute" (Access.Release "m");
      ev 1 "compute" (Access.Acquire "m");
      ev 1 "compute" (Access.Write ("exec.dst", 4));
      ev 1 "compute" (Access.Release "m") ]
  in
  Alcotest.(check int) "no race" 0 (List.length (Race.analyze log))

let test_race_write_read () =
  let log =
    [ ev 1 "compute" (Access.Write ("exec.dst", 0));
      ev 0 "gather" (Access.Read ("exec.dst", 0)) ]
  in
  match Race.analyze log with
  | [ f ] -> Alcotest.(check (option string)) "ctx" (Some "gather") (ctx_of f)
  | fs -> Alcotest.failf "expected one race, got: %s" (pp_findings fs)

let test_race_read_write () =
  let log =
    [ ev 0 "gather" (Access.Read ("exec.dst", 0));
      ev 1 "batch" (Access.Write ("exec.dst", 0)) ]
  in
  match Race.analyze log with
  | [ f ] -> Alcotest.(check (option string)) "ctx" (Some "batch") (ctx_of f)
  | fs -> Alcotest.failf "expected one race, got: %s" (pp_findings fs)

let test_race_reads_dont_race () =
  let log =
    [ ev 0 "halo" (Access.Read ("dist.node", 2));
      ev 1 "halo" (Access.Read ("dist.node", 2)) ]
  in
  Alcotest.(check int) "read-read clean" 0 (List.length (Race.analyze log))

let test_race_fork_join () =
  let log =
    [ ev 0 "compute" (Access.Write ("exec.dst", 1));
      ev 0 "compute" (Access.Spawn 1);
      ev 1 "compute" (Access.Write ("exec.dst", 1));
      ev 0 "gather" (Access.Join 1);
      ev 0 "gather" (Access.Read ("exec.dst", 1)) ]
  in
  Alcotest.(check int) "fork/join clean" 0 (List.length (Race.analyze log))

let test_race_rmw () =
  (* Concurrent atomics are ordered; a plain write racing them is not. *)
  let atomics =
    [ ev 0 "compute" (Access.Rmw ("pool.counter", 0));
      ev 1 "compute" (Access.Rmw ("pool.counter", 0));
      ev 2 "compute" (Access.Rmw ("pool.counter", 0)) ]
  in
  Alcotest.(check int) "atomics clean" 0 (List.length (Race.analyze atomics));
  let mixed =
    [ ev 0 "compute" (Access.Rmw ("pool.counter", 0));
      ev 1 "compute" (Access.Write ("pool.counter", 0)) ]
  in
  Alcotest.(check bool) "plain vs atomic races" true
    (has_check Finding.Data_race (Race.analyze mixed))

let test_race_one_per_slot () =
  (* Three domains pile onto one slot: one finding, not a flood. *)
  let log =
    [ ev 0 "compute" (Access.Write ("exec.dst", 9));
      ev 1 "compute" (Access.Write ("exec.dst", 9));
      ev 2 "compute" (Access.Write ("exec.dst", 9));
      ev 1 "gather" (Access.Read ("exec.dst", 9)) ]
  in
  Alcotest.(check int) "deduped" 1 (List.length (Race.analyze log))

(* --- Discipline ---------------------------------------------------- *)

let test_disc_coordinator_only () =
  let second_dom = [ ev 1 "compute" (Access.Write ("engine.cache", 0)) ] in
  let in_section =
    [ ev 0 "compute" (Access.Section_begin 3);
      ev 0 "compute" (Access.Write ("engine.cache", 0));
      ev 0 "compute" (Access.Section_end 3) ]
  in
  let clean =
    [ ev 0 "compile" (Access.Write ("engine.cache", 0));
      ev 0 "compile" (Access.Read ("engine.cache", 0)) ]
  in
  Alcotest.(check bool) "second domain flagged" true
    (has_check Finding.Ownership
       (Discipline.check
          (ev 0 "compile" (Access.Write ("engine.cache", 0)) :: second_dom)));
  Alcotest.(check bool) "inside chunk flagged" true
    (has_check Finding.Ownership (Discipline.check in_section));
  Alcotest.(check int) "owner clean" 0 (List.length (Discipline.check clean))

let test_disc_guarded () =
  let bad = [ ev 0 "scatter" (Access.Write ("pool.task", 0)) ] in
  let good =
    [ ev 0 "scatter" (Access.Acquire "pool.m");
      ev 0 "scatter" (Access.Write ("pool.task", 0));
      ev 0 "scatter" (Access.Release "pool.m") ]
  in
  Alcotest.(check bool) "unlocked flagged" true
    (has_check Finding.Lock_discipline (Discipline.check bad));
  Alcotest.(check int) "locked clean" 0 (List.length (Discipline.check good))

let test_disc_atomic () =
  let bad = [ ev 0 "compute" (Access.Read ("pool.counter", 0)) ] in
  let good = [ ev 0 "compute" (Access.Rmw ("pool.counter", 0)) ] in
  Alcotest.(check bool) "plain access flagged" true
    (has_check Finding.Lock_discipline (Discipline.check bad));
  Alcotest.(check int) "rmw clean" 0 (List.length (Discipline.check good))

let test_disc_partition () =
  let bad =
    [ ev 0 "compute" (Access.Section_begin 5);
      ev 0 "compute" (Access.Write ("exec.dst", 3));
      ev 0 "compute" (Access.Section_end 5);
      ev 1 "compute" (Access.Section_begin 5);
      ev 1 "compute" (Access.Write ("exec.dst", 3));
      ev 1 "compute" (Access.Section_end 5) ]
  in
  let next_gen =
    [ ev 0 "compute" (Access.Section_begin 5);
      ev 0 "compute" (Access.Write ("exec.dst", 3));
      ev 0 "compute" (Access.Section_end 5);
      ev 1 "compute" (Access.Section_begin 6);
      ev 1 "compute" (Access.Write ("exec.dst", 3));
      ev 1 "compute" (Access.Section_end 6) ]
  in
  (* Neighbor reads across slots are legal inside a chunk: the halo
     exchange reads other nodes' subgrids. *)
  let halo_reads =
    [ ev 0 "halo" (Access.Section_begin 5);
      ev 0 "halo" (Access.Write ("halo.node", 0));
      ev 0 "halo" (Access.Read ("dist.node", 1));
      ev 0 "halo" (Access.Section_end 5);
      ev 1 "halo" (Access.Section_begin 5);
      ev 1 "halo" (Access.Write ("halo.node", 1));
      ev 1 "halo" (Access.Read ("dist.node", 0));
      ev 1 "halo" (Access.Section_end 5) ]
  in
  Alcotest.(check bool) "same generation flagged" true
    (has_check Finding.Partition (Discipline.check bad));
  Alcotest.(check int) "next generation clean" 0
    (List.length (Discipline.check next_gen));
  Alcotest.(check int) "neighbor reads clean" 0
    (List.length (Discipline.check halo_reads))

(* --- kill matrix --------------------------------------------------- *)

let analyze_both log = Race.analyze log @ Discipline.check log

let test_clean_model () =
  List.iter
    (fun jobs ->
      let log = Rm.clean ~jobs in
      let fs = analyze_both log in
      if fs <> [] then
        Alcotest.failf "clean model, jobs %d: %s" jobs (pp_findings fs))
    [ 2; 3; 7 ]

(* mutation -> (checks that must appear, ctx values allowed) *)
let expectations =
  [
    (Rm.Dropped_metrics_lock,
     [ Finding.Data_race; Finding.Lock_discipline ],
     [ "metrics" ]);
    (Rm.Overlapping_chunks,
     [ Finding.Data_race; Finding.Partition ],
     [ "scatter"; "compute" ]);
    (Rm.Deatomized_counter,
     [ Finding.Data_race; Finding.Lock_discipline ],
     [ "compute" ]);
    (Rm.Arena_alias, [ Finding.Data_race ], [ "batch" ]);
    (Rm.Lost_signal, [ Finding.Data_race ], [ "gather" ]);
    (Rm.Cache_write_bypass, [ Finding.Ownership ], [ "compute" ]);
  ]

let test_kill_matrix () =
  List.iter
    (fun (m, expected, ctxs) ->
      List.iter
        (fun seed ->
          List.iter
            (fun jobs ->
              let log = Rm.mutated ~seed ~jobs m in
              let fs = analyze_both log in
              if fs = [] then
                Alcotest.failf "%s seed %d jobs %d survived" (Rm.name m) seed
                  jobs;
              List.iter
                (fun c ->
                  if not (has_check c fs) then
                    Alcotest.failf "%s seed %d jobs %d: missing %s in %s"
                      (Rm.name m) seed jobs (Finding.check_name c)
                      (pp_findings fs))
                expected;
              List.iter
                (fun (f : Finding.t) ->
                  match f.Finding.ctx with
                  | Some c when List.mem c ctxs -> ()
                  | Some c ->
                      Alcotest.failf "%s seed %d jobs %d: unexpected phase %s"
                        (Rm.name m) seed jobs c
                  | None ->
                      Alcotest.failf "%s seed %d jobs %d: unattributed finding"
                        (Rm.name m) seed jobs)
                fs)
            [ 2; 3; 7 ])
        [ 1; 42; 1991 ])
    expectations

let test_kill_matrix_complete () =
  (* Every mutation appears exactly once in the expectation table. *)
  Alcotest.(check int) "all mutations covered" (List.length Rm.all)
    (List.length expectations);
  List.iter
    (fun m ->
      Alcotest.(check bool) "covered" true
        (List.exists (fun (m', _, _) -> m' = m) expectations);
      Alcotest.(check (option string)) "name round-trip" (Some (Rm.name m))
        (Option.map Rm.name (Rm.of_name (Rm.name m))))
    Rm.all

let test_cache_bypass_needs_discipline () =
  (* The guard-bypassed cache write is happens-before ordered (the
     publish edge covers it), so Race alone must NOT kill it — only
     the ownership pass does.  This pins why Discipline exists. *)
  let log = Rm.mutated ~seed:7 ~jobs:3 Rm.Cache_write_bypass in
  Alcotest.(check int) "race is silent" 0 (List.length (Race.analyze log));
  Alcotest.(check bool) "discipline kills" true
    (has_check Finding.Ownership (Discipline.check log))

(* ================================================================== *)
(* Live runtime under instrumentation: the probes wired through Pool, *)
(* Dist, Halo, Exec, Metrics and Engine must (a) change no result,    *)
(* (b) keep the Simulate-mode Cost = Interp assertion alive, and (c)  *)
(* produce an access log both analyzers pass clean.                   *)
(* ================================================================== *)

let config = Ccc.Config.default

(* A reproducible pseudo-random grid (the tutil recipe; tutil itself
   belongs to the main test stanza). *)
let mixed_grid ~seed ~rows ~cols =
  Ccc.Grid.init ~rows ~cols (fun r c ->
      let h = (seed * 0x9e3779b1) lxor (r * 31) lxor (c * 131) in
      let h = h lxor (h lsr 13) in
      float_of_int (h land 0xffff) /. 65536.0 -. 0.5)

let env_for ?(seed = 0x5eed) ~rows ~cols pattern =
  let names =
    Ccc.Pattern.source_var pattern
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Ccc.Pattern.taps pattern)
  in
  List.mapi (fun i n -> (n, mixed_grid ~seed:(seed + i) ~rows ~cols)) names

let compile_exn pattern =
  match Ccc.compile_pattern config pattern with
  | Ok compiled -> compiled
  | Error e -> Alcotest.failf "compile failed: %s" (Ccc.Outcome.reject_to_string e)

let assert_clean what log =
  match analyze_both log with
  | [] -> ()
  | fs -> Alcotest.failf "%s: %s" what (pp_findings fs)

let test_live_exec_clean () =
  let pattern = Ccc.Pattern.cross5 () in
  let compiled = compile_exn pattern in
  let env = env_for ~rows:16 ~cols:16 pattern in
  let baseline = (Ccc.apply config compiled env).Ccc.Exec.output in
  Access.enable ();
  (* Simulate asserts the analytic cycle model against the
     cycle-accurate interpreter on every run; getting a result back
     proves the assertion still holds with the probes live. *)
  let result =
    Ccc.apply ~mode:Ccc.Exec.Simulate ~jobs:3 config compiled env
  in
  Access.disable ();
  Alcotest.(check bool) "instrumentation recorded" true
    (Access.event_count () > 0);
  assert_clean "instrumented Exec.run" (Access.events ());
  Alcotest.(check (float 0.0))
    "bit-identical to the uninstrumented jobs-1 run" 0.0
    (Ccc.Grid.max_abs_diff baseline result.Ccc.Exec.output)

let batch_patterns () =
  (* Two 5-point crosses over the same source P under different
     coefficient names: a legal batch. *)
  let mk result prefix =
    Ccc.Pattern.create ~source:"P" ~result
      (List.mapi
         (fun i (drow, dcol) ->
           Ccc.Tap.make
             (Ccc.Offset.make ~drow ~dcol)
             (Ccc.Coeff.Array (Printf.sprintf "%s%d" prefix (i + 1))))
         [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ])
  in
  [ mk "R1" "C"; mk "R2" "K" ]

let test_live_engine_batch_clean () =
  let patterns = batch_patterns () in
  let env =
    List.concat
      (List.mapi
         (fun i p -> env_for ~seed:(0x5eed + (100 * i)) ~rows:16 ~cols:16 p)
         patterns)
    |> List.fold_left
         (fun acc (n, g) ->
           if List.mem_assoc n acc then acc else (n, g) :: acc)
         []
    |> List.rev
  in
  (* The resident workers predate enabling: they inherit their edges
     through the instrumented pool mutex (see Access's doc). *)
  let engine =
    Ccc.Engine.create
      ~settings:{ Ccc.Engine.default_settings with jobs = 3 }
      config
  in
  Fun.protect ~finally:(fun () -> Ccc.Engine.shutdown engine) @@ fun () ->
  Access.enable ();
  (match Ccc.Engine.run_batch ~mode:Ccc.Exec.Simulate engine patterns env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine batch: %s" (Ccc.Outcome.reject_to_string e));
  Access.disable ();
  Alcotest.(check bool) "instrumentation recorded" true
    (Access.event_count () > 0);
  assert_clean "instrumented engine batch" (Access.events ())

let test_pool_lifecycle () =
  let pool = Ccc.Pool.create ~jobs:3 in
  let hits = Array.make 8 0 in
  Ccc.Pool.iter pool 8 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "item %d once" i) 1 n)
    hits;
  (* One claim per item: overshooting claims give their increment
     back, so the counter records exactly the items run. *)
  Alcotest.(check int) "one claim per item" 8 (Ccc.Pool.chunks_run pool);
  Ccc.Pool.shutdown pool;
  Ccc.Pool.shutdown pool;
  (* idempotent: the second call must neither hang nor raise *)
  (match Ccc.Pool.iter pool 4 (fun _ -> ()) with
  | () -> Alcotest.fail "Pool.iter after shutdown must raise"
  | exception Finding.Failed fs ->
      Alcotest.(check bool) "lifecycle finding" true
        (has_check Finding.Lifecycle fs));
  (* the sequential pool has no domains to join and stays usable *)
  Ccc.Pool.shutdown Ccc.Pool.sequential;
  Ccc.Pool.iter Ccc.Pool.sequential 4 ignore

(* Surplus domains: with more jobs than queue items, each extra domain
   makes exactly one overshooting claim, gives the increment back and
   parks — the iter must return promptly with every item run once and
   the counter netting to the item count, and the pool must stay
   reusable (a leaked give-back would shift the next generation's
   base). *)
let test_pool_more_jobs_than_items () =
  let items = 4 in
  let pool = Ccc.Pool.create ~jobs:(items + 3) in
  Fun.protect ~finally:(fun () -> Ccc.Pool.shutdown pool) @@ fun () ->
  let hits = Array.make items 0 in
  Ccc.Pool.iter pool items (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "item %d once" i) 1 n)
    hits;
  Alcotest.(check int) "counter nets to the item count" items
    (Ccc.Pool.chunks_run pool);
  (* Second generation on the same pool: base capture still exact. *)
  let again = Array.make items 0 in
  Ccc.Pool.iter pool items (fun i -> again.(i) <- again.(i) + 1);
  Array.iteri
    (fun i n ->
      Alcotest.(check int) (Printf.sprintf "gen 2 item %d once" i) 1 n)
    again;
  Alcotest.(check int) "counter still nets per item" (2 * items)
    (Ccc.Pool.chunks_run pool);
  (* The lowest failing item wins even when idle domains park early. *)
  match
    Ccc.Pool.iter pool items (fun i ->
        if i >= 1 then failwith (Printf.sprintf "item %d" i))
  with
  | () -> Alcotest.fail "expected a re-raised item failure"
  | exception Failure m -> Alcotest.(check string) "lowest item wins" "item 1" m

let test_engine_owner_check () =
  let engine = Ccc.Engine.create config in
  Fun.protect ~finally:(fun () -> Ccc.Engine.shutdown engine) @@ fun () ->
  let pattern = Ccc.Pattern.cross5 () in
  let env = env_for ~rows:16 ~cols:16 pattern in
  (match Ccc.Engine.run engine pattern env with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "owner run failed: %s" (Ccc.Outcome.reject_to_string e));
  let outcome =
    Domain.join
      (Domain.spawn (fun () ->
           match Ccc.Engine.run engine pattern env with
           | exception Finding.Failed fs when has_check Finding.Ownership fs ->
               `Refused
           | _ -> `Allowed
           | exception _ -> `Other))
  in
  Alcotest.(check bool) "foreign domain refused with an ownership finding"
    true
    (outcome = `Refused)

let test_metrics_stress () =
  let registry = Ccc.Metrics.create () in
  let c = Ccc.Metrics.counter registry "stress.counter" in
  let g = Ccc.Metrics.gauge registry "stress.gauge" in
  let h = Ccc.Metrics.histogram registry "stress.histogram" in
  let domains = 4 and per_domain = 5_000 in
  Access.enable ();
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Ccc.Metrics.Counter.incr c;
              Ccc.Metrics.Gauge.add g 1.0;
              Ccc.Metrics.Histogram.observe h (float_of_int (i land 7))
            done))
  in
  List.iter Domain.join workers;
  Access.disable ();
  let n = domains * per_domain in
  Alcotest.(check int) "no lost counter increments" n
    (Ccc.Metrics.Counter.value c);
  Alcotest.(check (float 0.0)) "no lost gauge adds" (float_of_int n)
    (Ccc.Metrics.Gauge.value g);
  Alcotest.(check int) "no lost observations" n
    (Ccc.Metrics.Histogram.count h);
  assert_clean "metrics under real contention" (Access.events ())

let test_conformance_clean_instrumented () =
  (* The whole clean conformance matrix — every gallery stencil at
     every compiled width down all five paths at jobs {1, 2, 7} —
     under instrumentation, finding-free. *)
  Access.enable ();
  let matrix = Ccc.Conformance.run ~with_faults:false config in
  Access.disable ();
  Alcotest.(check int) "no failed cells" 0
    (Ccc.Conformance.clean_failures matrix);
  Alcotest.(check int) "270 clean cells" 270
    (List.length matrix.Ccc.Conformance.cells);
  assert_clean "instrumented conformance clean matrix" (Access.events ())

let live_suite =
  [
    Alcotest.test_case "exec instrumented" `Quick test_live_exec_clean;
    Alcotest.test_case "engine batch instrumented" `Quick
      test_live_engine_batch_clean;
    Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
    Alcotest.test_case "pool jobs > items" `Quick
      test_pool_more_jobs_than_items;
    Alcotest.test_case "engine owner check" `Quick test_engine_owner_check;
    Alcotest.test_case "metrics stress" `Quick test_metrics_stress;
    Alcotest.test_case "conformance clean matrix" `Quick
      test_conformance_clean_instrumented;
  ]

let model_suite =
  [
    Alcotest.test_case "hb basics" `Quick test_hb_basics;
    Alcotest.test_case "unsynced write-write" `Quick test_race_unsynced;
    Alcotest.test_case "lock orders" `Quick test_race_lock_orders;
    Alcotest.test_case "write-read" `Quick test_race_write_read;
    Alcotest.test_case "read-write" `Quick test_race_read_write;
    Alcotest.test_case "read-read clean" `Quick test_race_reads_dont_race;
    Alcotest.test_case "fork-join" `Quick test_race_fork_join;
    Alcotest.test_case "rmw pseudo-lock" `Quick test_race_rmw;
    Alcotest.test_case "one finding per slot" `Quick test_race_one_per_slot;
    Alcotest.test_case "coordinator-only" `Quick test_disc_coordinator_only;
    Alcotest.test_case "guarded" `Quick test_disc_guarded;
    Alcotest.test_case "atomic" `Quick test_disc_atomic;
    Alcotest.test_case "partition" `Quick test_disc_partition;
    Alcotest.test_case "clean model" `Quick test_clean_model;
    Alcotest.test_case "kill matrix" `Quick test_kill_matrix;
    Alcotest.test_case "kill matrix complete" `Quick test_kill_matrix_complete;
    Alcotest.test_case "cache bypass needs discipline" `Quick
      test_cache_bypass_needs_discipline;
  ]

let () =
  Alcotest.run "ccc_race" [ ("model", model_suite); ("live", live_suite) ]
