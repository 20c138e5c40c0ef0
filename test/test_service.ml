(* The persistent execution engine (lib/service): cache-key
   canonicalization, plan-cache hit/miss/eviction accounting,
   engine-vs-one-shot equivalence (bit-identical outputs, identical
   statistics), structured Too_small errors, and batched execution
   behind a single halo exchange.

   This suite is self-contained (it runs under the @service alias as
   its own executable), so the few helpers it shares with the main
   suite are duplicated from tutil.ml. *)

module Q = QCheck2
module Gen = QCheck2.Gen
module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Boundary = Ccc.Boundary
module Grid = Ccc.Grid
module Exec = Ccc.Exec
module Stats = Ccc.Stats
module Engine = Ccc.Engine
module Outcome = Ccc.Outcome
module Fingerprint = Ccc.Fingerprint

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

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "engine error: %s" (Outcome.reject_to_string e)

let compile_exn p =
  match Ccc.compile_pattern config p with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Ccc.Outcome.reject_to_string e)

let check_bit_identical what a b =
  let diff = Grid.max_abs_diff a b in
  if diff <> 0.0 then
    Alcotest.failf "%s: outputs differ by %g (must be bit-identical)" what diff

(* --- fingerprint canonicalization (unit) --------------------------- *)

let test_fp_renaming () =
  let original = cross5 () in
  let renamed =
    Pattern.create ~source:"P" ~result:"Q"
      (List.mapi
         (fun i (drow, dcol) ->
           Tap.make (Offset.make ~drow ~dcol)
             (Coeff.Array (Printf.sprintf "K%d" (i + 1))))
         [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ])
  in
  Alcotest.(check string)
    "renamed coefficients and variables share a fingerprint"
    (Fingerprint.pattern original)
    (Fingerprint.pattern renamed)

let test_fp_sharing () =
  let mk names =
    Pattern.create
      (List.mapi
         (fun i name ->
           Tap.make (Offset.make ~drow:0 ~dcol:(i - 1)) (Coeff.Array name))
         names)
  in
  let shared = mk [ "A"; "A"; "B" ] and distinct = mk [ "A"; "B"; "C" ] in
  if Fingerprint.pattern shared = Fingerprint.pattern distinct then
    Alcotest.fail "a repeated coefficient array must not alias distinct ones"

let test_fp_distinctions () =
  let base = cross5 () in
  let differs what p =
    if Fingerprint.pattern base = Fingerprint.pattern p then
      Alcotest.failf "%s must change the fingerprint" what
  in
  differs "different offsets"
    (pattern_of_offsets [ (-1, 0); (0, -1); (0, 0); (0, 1); (2, 0) ]);
  differs "end-off boundary"
    (pattern_of_offsets ~boundary:(Boundary.End_off 0.0)
       [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ]);
  differs "a bias term"
    (pattern_of_offsets ~bias:(Coeff.Array "BB")
       [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ]);
  differs "a scalar coefficient"
    (Pattern.create
       (Tap.make (Offset.make ~drow:(-1) ~dcol:0) (Coeff.Scalar 0.25)
       :: List.mapi
            (fun i (drow, dcol) ->
              Tap.make (Offset.make ~drow ~dcol)
                (Coeff.Array (Printf.sprintf "C%d" (i + 2))))
            [ (0, -1); (0, 0); (0, 1); (1, 0) ]));
  let s1 =
    Pattern.create [ Tap.make Offset.zero (Coeff.Scalar 0.5) ]
  and s2 = Pattern.create [ Tap.make Offset.zero (Coeff.Scalar 0.25) ] in
  if Fingerprint.pattern s1 = Fingerprint.pattern s2 then
    Alcotest.fail "different scalar values must change the fingerprint"

let test_fp_config () =
  let p = cross5 () in
  let tuned = Ccc.Config.tuned_runtime config in
  let small = Ccc.Config.with_nodes ~rows:2 ~cols:2 config in
  if Fingerprint.key config p = Fingerprint.key tuned p then
    Alcotest.fail "tuned runtime constants must change the cache key";
  if Fingerprint.key config p = Fingerprint.key small p then
    Alcotest.fail "the node grid must change the cache key";
  Alcotest.(check string)
    "the key is pattern and config fingerprints joined"
    (Fingerprint.pattern p ^ "|" ^ Fingerprint.config config)
    (Fingerprint.key config p)

(* --- fingerprint canonicalization (qcheck) ------------------------- *)

let gen_offsets =
  Gen.map
    (fun offs -> List.sort_uniq Offset.compare offs)
    (Gen.list_size (Gen.int_range 1 7)
       (Gen.map2
          (fun drow dcol -> Offset.make ~drow ~dcol)
          (Gen.int_range (-2) 2) (Gen.int_range (-2) 2)))

let gen_coeff index =
  Gen.oneof
    [
      Gen.return (Coeff.Array (Printf.sprintf "C%d" (index + 1)));
      (* Repeat an array name to exercise stream sharing. *)
      Gen.return (Coeff.Array "C1");
      Gen.map
        (fun i -> Coeff.Scalar (float_of_int i /. 4.0))
        (Gen.int_range (-8) 8);
      Gen.return Coeff.One;
    ]

let gen_boundary =
  Gen.oneof
    [
      Gen.return Boundary.Circular;
      Gen.map
        (fun i -> Boundary.End_off (float_of_int i /. 2.0))
        (Gen.int_range (-2) 2);
    ]

let gen_pattern =
  let open Gen in
  gen_offsets >>= fun offsets ->
  gen_boundary >>= fun boundary ->
  flatten_l (List.mapi (fun i _ -> gen_coeff i) offsets) >>= fun coeffs ->
  bool >>= fun with_bias ->
  let taps = List.map2 Tap.make offsets coeffs in
  let bias = if with_bias then Some (Coeff.Array "BB") else None in
  return (Pattern.create ?bias ~boundary taps)

let print_pattern p = Format.asprintf "%a" Pattern.pp p

(* A consistent (injective) renaming of every array and variable. *)
let rename_pattern p =
  let rename = function
    | Coeff.Array name -> Coeff.Array ("Z" ^ name)
    | c -> c
  in
  Pattern.create
    ?bias:(Option.map rename (Pattern.bias p))
    ~boundary:(Pattern.boundary p)
    ~source:("Z" ^ Pattern.source_var p)
    ~result:("Z" ^ Pattern.result_var p)
    (List.map
       (fun (t : Tap.t) -> Tap.make t.Tap.offset (rename t.Tap.coeff))
       (Pattern.taps p))

let prop_fp_permutation_invariant =
  Q.Test.make ~name:"fingerprint ignores tap order" ~count:200
    ~print:print_pattern gen_pattern (fun p ->
      let reversed =
        Pattern.create
          ?bias:(Pattern.bias p)
          ~boundary:(Pattern.boundary p)
          ~source:(Pattern.source_var p)
          ~result:(Pattern.result_var p)
          (List.rev (Pattern.taps p))
      in
      Fingerprint.pattern p = Fingerprint.pattern reversed)

let prop_fp_renaming_invariant =
  Q.Test.make ~name:"fingerprint ignores consistent renaming" ~count:200
    ~print:print_pattern gen_pattern (fun p ->
      Fingerprint.pattern p = Fingerprint.pattern (rename_pattern p))

let prop_fp_offsets_injective =
  Q.Test.make ~name:"fingerprints of different geometries differ" ~count:200
    ~print:(fun (a, b) -> print_pattern a ^ " / " ^ print_pattern b)
    (Gen.pair gen_pattern gen_pattern)
    (fun (a, b) ->
      Pattern.offsets a = Pattern.offsets b
      || Fingerprint.pattern a <> Fingerprint.pattern b)

(* --- engine vs one-shot -------------------------------------------- *)

let prop_engine_matches_one_shot =
  Q.Test.make
    ~name:"Engine.run = Ccc.apply (bit-identical output, equal stats)"
    ~count:60 ~print:print_pattern gen_pattern (fun p ->
      let rows = 8 and cols = 8 in
      let env = env_for ~rows ~cols p in
      let engine = Engine.create config in
      match Engine.run engine p env with
      | Error (Outcome.Resource_error _) -> true (* nothing compiles *)
      | Error e -> Q.Test.fail_report (Outcome.reject_to_string e)
      | Ok { Exec.output; stats } ->
          let one = Ccc.apply config (compile_exn p) env in
          Grid.max_abs_diff one.Exec.output output = 0.0
          && one.Exec.stats = stats)

let test_engine_warm_counters () =
  let engine = Engine.create config in
  let rows = 16 and cols = 16 in
  let outputs =
    List.map
      (fun source ->
        let p = cross5 ~source () in
        let env = env_for ~rows ~cols p in
        let { Exec.output; _ } = ok_exn (Engine.run engine p env) in
        check_bit_identical "warm engine run vs one-shot"
          (Ccc.apply config (compile_exn p) env).Exec.output output;
        output)
      [ "X"; "Y"; "Z" ]
  in
  ignore outputs;
  let s = Engine.stats engine in
  Alcotest.(check int) "one compile" 1 s.Engine.compiles;
  Alcotest.(check int) "two cache hits" 2 s.Engine.hits;
  Alcotest.(check int) "one miss" 1 s.Engine.misses;
  Alcotest.(check int) "one live entry" 1 s.Engine.entries;
  Alcotest.(check int) "arena reused twice" 2 s.Engine.arena_reuses;
  Alcotest.(check int) "arena built once" 1 s.Engine.arena_rebuilds;
  Alcotest.(check int) "three runs" 3 s.Engine.runs

let test_rebound_plans_verify_clean () =
  (* A cache hit rebinds the cached plans to new names; the rebound
     plans must stay clean under the standalone analyzer, and the
     simulate path (cost model = interpreter, verify_exn on every
     plan) must accept them. *)
  let engine = Engine.create config in
  let first = cross5 () in
  ignore (ok_exn (Engine.run engine first (env_for ~rows:16 ~cols:16 first)));
  let renamed = cross5 ~source:"P" ~result:"Q" () in
  let compiled = ok_exn (Engine.compile engine renamed) in
  List.iter
    (fun plan ->
      match Ccc.Verify.verify config plan with
      | [] -> ()
      | findings ->
          Alcotest.failf "rebound width-%d plan: %s" plan.Ccc.Plan.width
            (String.concat "; " (List.map Ccc.Finding.to_string findings)))
    compiled.Ccc.Compile.plans;
  let env = env_for ~rows:16 ~cols:16 renamed in
  let { Exec.output; _ } =
    ok_exn (Engine.run ~mode:Exec.Simulate engine renamed env)
  in
  check_bit_identical "simulated warm run"
    (Ccc.apply ~mode:Exec.Simulate config compiled env).Exec.output output;
  let s = Engine.stats engine in
  Alcotest.(check int) "still one compile" 1 s.Engine.compiles

let test_eviction () =
  let engine = Engine.create
      ~settings:{ Engine.default_settings with capacity = 2 }
      config in
  let p1 = cross5 () in
  let p2 = pattern_of_offsets [ (0, -1); (0, 0); (0, 1) ] in
  let p3 = pattern_of_offsets [ (-1, 0); (0, 0); (1, 0) ] in
  ignore (ok_exn (Engine.compile engine p1));
  ignore (ok_exn (Engine.compile engine p2));
  (* Touch p1 so p2 is the least recently used entry. *)
  ignore (ok_exn (Engine.compile engine p1));
  ignore (ok_exn (Engine.compile engine p3));
  let s = Engine.stats engine in
  Alcotest.(check int) "capacity bounds the cache" 2 s.Engine.entries;
  Alcotest.(check int) "one eviction" 1 s.Engine.evictions;
  (* p1 survived (recently used), p2 was evicted. *)
  ignore (ok_exn (Engine.compile engine p1));
  Alcotest.(check int) "p1 still cached" 2 (Engine.stats engine).Engine.hits;
  ignore (ok_exn (Engine.compile engine p2));
  let s = Engine.stats engine in
  Alcotest.(check int) "evicted entry recompiles" 4 s.Engine.compiles;
  Alcotest.(check int) "a second eviction makes room" 2 s.Engine.evictions

let test_eviction_rebind_verifies () =
  (* Under cache pressure an evicted entry that returns is a fresh
     miss: its kernel must be rebuilt and re-proved in the sandbox,
     never served stale.  A rebind hit, by contrast, reuses the cached
     kernel without a re-proof (renames never move tap offsets).
     Pinned via the engine.kernel.verifies counter. *)
  let engine = Engine.create
      ~settings:{ Engine.default_settings with capacity = 2 }
      config in
  let verifies () =
    Ccc.Metrics.Counter.value
      (Ccc.Metrics.counter (Engine.metrics engine) "engine.kernel.verifies")
  in
  let p1 = cross5 () in
  let p2 = pattern_of_offsets [ (0, -1); (0, 0); (0, 1) ] in
  let p3 = pattern_of_offsets [ (-1, 0); (0, 0); (1, 0) ] in
  ignore (ok_exn (Engine.compile engine p1));
  ignore (ok_exn (Engine.compile engine p2));
  Alcotest.(check int) "each miss proves its kernel once" 2 (verifies ());
  (* A renamed stencil is a rebind hit on p1's entry (and makes p2 the
     least recently used). *)
  ignore (ok_exn (Engine.compile engine (cross5 ~source:"P" ~result:"Q" ())));
  Alcotest.(check int) "a rebind hit is not re-proved" 2 (verifies ());
  (* p3 evicts p2; p2's return is a miss that re-verifies. *)
  ignore (ok_exn (Engine.compile engine p3));
  ignore (ok_exn (Engine.compile engine p2));
  Alcotest.(check int) "evicted entries re-prove on return" 4 (verifies ());
  let s = Engine.stats engine in
  Alcotest.(check int) "two evictions under pressure" 2 s.Engine.evictions;
  Alcotest.(check int) "one hit (the rebind)" 1 s.Engine.hits;
  (* The refilled entry's kernel is live, not a dangling reference:
     a run through the cache still matches the one-shot path. *)
  let env = env_for ~rows:16 ~cols:16 p2 in
  let { Exec.output; _ } = ok_exn (Engine.run engine p2 env) in
  check_bit_identical "refilled entry serves a sound kernel"
    (Ccc.apply config (compile_exn p2) env).Exec.output output

let test_too_small_is_error () =
  (* 8x8 over a 4x4 node grid leaves 2x2 subgrids; a radius-4 stencil
     cannot fit, and the engine reports it as a value, not a crash. *)
  let wide = pattern_of_offsets [ (0, -4); (0, 0); (0, 4) ] in
  let env = env_for ~rows:8 ~cols:8 wide in
  let engine = Engine.create config in
  (match Engine.run engine wide env with
  | Error (Outcome.Too_small _) -> ()
  | Ok _ -> Alcotest.fail "expected Too_small, got a result"
  | Error e -> Alcotest.failf "expected Too_small, got %s"
                 (Outcome.reject_to_string e));
  match Ccc.run config (compile_exn wide) env with
  | Error (Ccc.Outcome.Too_small _) -> ()
  | Ok _ -> Alcotest.fail "Ccc.run: expected Too_small, got a result"
  | Error e ->
      Alcotest.failf "Ccc.run: expected Too_small, got %s"
        (Ccc.Outcome.reject_to_string e)

(* --- batched execution --------------------------------------------- *)

let batch_patterns () =
  (* Three statements over the same source P: a 5-point cross, the
     same geometry under other names, and a 9-point box (pad 1, needs
     corners). *)
  let p1 = cross5 ~source:"P" ~result:"R1" () in
  let p2 =
    Pattern.create ~source:"P" ~result:"R2"
      (List.mapi
         (fun i (drow, dcol) ->
           Tap.make (Offset.make ~drow ~dcol)
             (Coeff.Array (Printf.sprintf "K%d" (i + 1))))
         [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ])
  in
  let p3 =
    Pattern.create ~source:"P" ~result:"R3"
      (List.mapi
         (fun i (drow, dcol) ->
           Tap.make (Offset.make ~drow ~dcol)
             (Coeff.Array (Printf.sprintf "D%d" (i + 1))))
         [ (-1, -1); (-1, 0); (-1, 1); (0, -1); (0, 0); (0, 1); (1, -1);
           (1, 0); (1, 1) ])
  in
  [ p1; p2; p3 ]

let batch_env ~rows ~cols patterns =
  List.concat (List.mapi (fun i p -> env_for ~seed:(0x5eed + (100 * i)) ~rows ~cols p) patterns)
  |> List.fold_left
       (fun acc (n, g) -> if List.mem_assoc n acc then acc else (n, g) :: acc)
       []
  |> List.rev

let test_batch_matches_reference () =
  let rows = 16 and cols = 16 in
  let patterns = batch_patterns () in
  let env = batch_env ~rows ~cols patterns in
  let engine = Engine.create config in
  let batch = ok_exn (Engine.run_batch engine patterns env) in
  List.iter2
    (fun p (r : Exec.result) ->
      check_bit_identical
        (Printf.sprintf "batched %s vs one-shot" (Pattern.result_var p))
        (Ccc.apply config (compile_exn p) env).Exec.output
        r.Exec.output;
      Alcotest.(check int)
        "statement stats carry no communication" 0
        r.Exec.stats.Stats.comm_cycles)
    patterns batch.Exec.batch_results;
  (* Also under the checking mode: the analytic model must equal the
     interpreter even with the halo padded to the widest statement. *)
  ignore (ok_exn (Engine.run_batch ~mode:Exec.Simulate engine patterns env))

let test_batch_amortizes () =
  let rows = 16 and cols = 16 in
  let patterns = batch_patterns () in
  let env = batch_env ~rows ~cols patterns in
  let engine = Engine.create config in
  let batch = ok_exn (Engine.run_batch engine patterns env) in
  let bs = batch.Exec.batch_stats in
  let one_shot =
    List.map (fun p -> Ccc.apply config (compile_exn p) env) patterns
  in
  let sum f = List.fold_left (fun acc r -> acc + f r.Exec.stats) 0 one_shot in
  let sumf f =
    List.fold_left (fun acc r -> acc +. f r.Exec.stats) 0.0 one_shot
  in
  Alcotest.(check int)
    "identical compute cycles"
    (sum (fun s -> s.Stats.compute_cycles))
    bs.Stats.compute_cycles;
  if bs.Stats.comm_cycles >= sum (fun s -> s.Stats.comm_cycles) then
    Alcotest.fail "a batch must pay less communication than N one-shots";
  if bs.Stats.frontend_s >= sumf (fun s -> s.Stats.frontend_s) then
    Alcotest.fail "a batch must pay less front-end time than N one-shots";
  if Stats.elapsed_s bs >= List.fold_left (fun acc r -> acc +. Stats.elapsed_s r.Exec.stats) 0.0 one_shot
  then Alcotest.fail "a batch must be faster end to end than N one-shots"

let test_batch_validation () =
  let engine = Engine.create config in
  let env = env_for ~rows:16 ~cols:16 (cross5 ()) in
  (match Engine.run_batch engine [] env with
  | Error (Outcome.Invalid_batch _) -> ()
  | _ -> Alcotest.fail "empty batch must be Invalid_batch");
  let mixed = [ cross5 ~source:"X" (); cross5 ~source:"Y" () ] in
  (match Engine.run_batch engine mixed env with
  | Error (Outcome.Invalid_batch _) -> ()
  | _ -> Alcotest.fail "mixed sources must be Invalid_batch");
  let boundaries =
    [
      cross5 ();
      pattern_of_offsets ~boundary:(Boundary.End_off 0.0)
        [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ];
    ]
  in
  match Engine.run_batch engine boundaries env with
  | Error (Outcome.Invalid_batch _) -> ()
  | _ -> Alcotest.fail "mixed boundaries must be Invalid_batch"

(* --- input errors are refusals ------------------------------------- *)

(* Three malformed environments on the default 4x4 nodes, each the
   square9 environment (a superset of cross5's) spoiled one way: an
   unbound coefficient, a coefficient shaped unlike the source, and a
   grid that does not divide over the node grid.  Each must come back
   as the same [Parse_error] refusal from every entry point, before
   the guard ladder sees it. *)
let malformed_envs () =
  let good = env_for ~rows:32 ~cols:32 (Pattern.square9 ()) in
  [
    ("unbound C2", List.remove_assoc "C2" good, Some "unbound array C2");
    ( "16x16 C3",
      ("C3", mixed_grid ~seed:3 ~rows:16 ~cols:16) :: List.remove_assoc "C3" good,
      Some "C3 is 16x16 but X is 32x32" );
    ("33x33 grid", env_for ~rows:33 ~cols:33 (Pattern.square9 ()), None);
  ]

let expect_parse_error what message = function
  | Error (Outcome.Parse_error m) -> (
      match message with
      | Some expected -> Alcotest.(check string) what expected m
      | None -> ())
  | Error e ->
      Alcotest.failf "%s: expected a parse-error refusal, got %s" what
        (Outcome.reject_to_string e)
  | Ok _ -> Alcotest.failf "%s: expected a refusal, got a result" what

let test_input_errors_refused () =
  let p = cross5 () in
  let engine = Engine.create config in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () ->
  List.iter
    (fun (what, env, message) ->
      expect_parse_error ("Engine.run, " ^ what) message
        (Engine.run engine p env);
      expect_parse_error ("Engine.run_guarded, " ^ what) message
        (match Engine.run_guarded engine p env with
        | Outcome.Refused { reject; fingerprint } ->
            Alcotest.(check (option string))
              (what ^ ": refusal carries the fingerprint")
              (Some (Fingerprint.pattern p)) fingerprint;
            Error reject
        | o -> Alcotest.failf "%s: run_guarded gave %s" what (Outcome.to_string o));
      expect_parse_error ("Engine.run_batch, " ^ what) message
        (Engine.run_batch engine [ p; Pattern.square9 () ] env);
      expect_parse_error ("Ccc.run, " ^ what) message
        (Ccc.run config (compile_exn p) env))
    (malformed_envs ());
  let counter name =
    Ccc.Metrics.Counter.value
      (Ccc.Metrics.counter (Engine.metrics engine) name)
  in
  Alcotest.(check (list int))
    "guard detections, retries, recompiles" [ 0; 0; 0 ]
    (List.map counter
       [
         "engine.guard.detections";
         "engine.guard.retries";
         "engine.guard.recompiles";
       ]);
  (* the engine is still sound afterwards *)
  let env = env_for ~rows:32 ~cols:32 p in
  check_bit_identical "a well-formed request after the refusals"
    (Ccc.apply config (compile_exn p) env).Exec.output
    (ok_exn (Engine.run engine p env)).Exec.output

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ccc_service"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "renaming is canonicalized" `Quick
            test_fp_renaming;
          Alcotest.test_case "array sharing is preserved" `Quick
            test_fp_sharing;
          Alcotest.test_case "distinct patterns differ" `Quick
            test_fp_distinctions;
          Alcotest.test_case "config is part of the key" `Quick test_fp_config;
        ]
        @ qcheck
            [
              prop_fp_permutation_invariant;
              prop_fp_renaming_invariant;
              prop_fp_offsets_injective;
            ] );
      ( "engine",
        qcheck [ prop_engine_matches_one_shot ]
        @ [
            Alcotest.test_case "warm counters pinned" `Quick
              test_engine_warm_counters;
            Alcotest.test_case "rebound plans verify clean" `Quick
              test_rebound_plans_verify_clean;
            Alcotest.test_case "LRU eviction at capacity" `Quick test_eviction;
            Alcotest.test_case "eviction rebuilds and re-proves kernels"
              `Quick test_eviction_rebind_verifies;
            Alcotest.test_case "Too_small is an error value" `Quick
              test_too_small_is_error;
          ] );
      ( "batch",
        [
          Alcotest.test_case "batched outputs match one-shot" `Quick
            test_batch_matches_reference;
          Alcotest.test_case "batch amortizes setup" `Quick
            test_batch_amortizes;
          Alcotest.test_case "batch validation" `Quick test_batch_validation;
        ] );
      ( "input",
        [
          Alcotest.test_case "malformed environments are refused" `Quick
            test_input_errors_refused;
        ] );
    ]
