(* Fault injection and runtime self-checking (lib/fault), plus the
   service engine's recovery ladder:

   - the pool propagates per-node exceptions deterministically even
     when [jobs] exceeds the node count (surplus chunks are empty and
     must neither mask nor displace a failing node);
   - every Inject fault class is caught by the matching Guard check,
     and a disarmed retry reproduces the clean result bit for bit;
   - Engine.run_guarded climbs the ladder: clean -> Completed, a
     one-shot fault -> retry -> Completed, a persistent fault ->
     recompile -> Degraded on the host reference path, with the
     engine.guard.* counters pinned at every rung.

   Self-contained (runs under the @fault alias as its own executable);
   the helpers it shares with the main suite are duplicated from
   tutil.ml. *)

module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Grid = Ccc.Grid
module Exec = Ccc.Exec
module Pool = Ccc.Pool
module Kernel = Ccc.Kernel
module Finding = Ccc.Finding
module Inject = Ccc.Inject
module Guard = Ccc.Guard
module Engine = Ccc.Engine
module Metrics = Ccc.Metrics

let config = Ccc.Config.default
let nodes = Ccc.Machine.node_count (Ccc.machine config)

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

let cross5 ?source ?result () =
  Pattern.create ?source ?result
    (List.mapi
       (fun i (drow, dcol) ->
         Tap.make (Offset.make ~drow ~dcol)
           (Coeff.Array (Printf.sprintf "C%d" (i + 1))))
       [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ])

let compile_exn p =
  match Ccc.compile_pattern config p with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Ccc.error_to_string e)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "engine error: %s" (Engine.error_to_string e)

let check_bit_identical what a b =
  let diff = Grid.max_abs_diff a b in
  if diff <> 0.0 then
    Alcotest.failf "%s: outputs differ by %g (must be bit-identical)" what diff

let check_classes what expected findings =
  if findings = [] then Alcotest.failf "%s: no findings" what;
  List.iter
    (fun f ->
      if not (List.mem f.Finding.check expected) then
        Alcotest.failf "%s: unexpected %s finding: %s" what
          (Finding.check_name f.Finding.check)
          (Finding.to_string f))
    findings

(* --- pool exception propagation (jobs > nodes) --------------------- *)

exception Boom of int

let test_pool_overcommit () =
  (* The regression shape: jobs = nodes + 3 leaves three chunks empty;
     every node must still run exactly once and a failing node's
     exception must still surface. *)
  let jobs = nodes + 3 in
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let hits = Array.make nodes 0 in
  Pool.iter pool nodes (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h ->
      Alcotest.(check int) (Printf.sprintf "node %d ran once" i) 1 h)
    hits;
  (match Pool.iter pool nodes (fun i -> if i = 5 then raise (Boom i)) with
  | () -> Alcotest.fail "the node-5 exception vanished"
  | exception Boom 5 -> ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  (* Several failing nodes: the lowest-indexed one wins. *)
  match Pool.iter pool nodes (fun i -> if i >= 9 then raise (Boom i)) with
  | () -> Alcotest.fail "expected an exception"
  | exception Boom 9 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_pool_error_deterministic () =
  (* A failing node reports the same error at every jobs value,
     including jobs > nodes. *)
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      match
        Pool.iter pool nodes (fun i -> if i mod 4 = 3 then raise (Boom i))
      with
      | () -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Boom n ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d reports the lowest failing node" jobs)
            3 n
      | exception e ->
          Alcotest.failf "jobs=%d: wrong exception: %s" jobs
            (Printexc.to_string e))
    [ 1; 2; 7; nodes; nodes + 3 ]

(* --- per-fault detection and recovery ------------------------------ *)

let test_fault_names () =
  Alcotest.(check int) "six fault classes" 6 (List.length Inject.all);
  List.iter
    (fun f ->
      match Inject.of_name (Inject.name f) with
      | Some f' when f' = f -> ()
      | _ -> Alcotest.failf "name roundtrip broke for %s" (Inject.name f))
    Inject.all;
  match Inject.of_name "meteor-strike" with
  | None -> ()
  | Some _ -> Alcotest.fail "an unknown fault name must not parse"

(* One statement, one machine, one clean baseline per case. *)
let with_run_fixture f =
  let pattern = cross5 () in
  let compiled = compile_exn pattern in
  let env = env_for ~rows:24 ~cols:24 pattern in
  let machine = Ccc.machine config in
  let clean = (Exec.run machine compiled env).Exec.output in
  f ~pattern ~compiled ~env ~machine ~clean

let test_halo_fault fault () =
  with_run_fixture @@ fun ~pattern ~compiled ~env ~machine ~clean ->
  let inj = Inject.arm ~seed:7 ~nodes fault in
  let watch = Guard.watch pattern in
  let hooks = Exec.compose_hooks (Inject.hooks inj) watch.Guard.hooks in
  ignore (Exec.run ~hooks machine compiled env);
  (match Inject.fired inj with
  | None -> Alcotest.failf "%s never fired" (Inject.name fault)
  | Some _ -> ());
  check_classes
    (Inject.name fault ^ " halo guard")
    [ Finding.Halo_integrity ]
    !(watch.Guard.caught);
  (* One-shot: the disarmed injector's retry is clean, bit for bit. *)
  Alcotest.(check bool) "injector disarmed" false (Inject.armed inj);
  let retry = Exec.run ~hooks:(Inject.hooks inj) machine compiled env in
  check_bit_identical "disarmed retry" clean retry.Exec.output

let test_phase_skip () =
  with_run_fixture @@ fun ~pattern ~compiled ~env ~machine ~clean ->
  let inj = Inject.arm ~seed:7 ~nodes Inject.Phase_skip in
  let watch = Guard.watch pattern in
  let hooks = Exec.compose_hooks (Inject.hooks inj) watch.Guard.hooks in
  let faulty = Exec.run ~hooks machine compiled env in
  (match Inject.fired inj with
  | None -> Alcotest.fail "phase-skip never fired"
  | Some _ -> ());
  (* The skip corrupts the destination after the compute phase: the
     halo was genuinely clean, so only the output check can see it. *)
  Alcotest.(check int) "halo guard stays silent" 0
    (List.length !(watch.Guard.caught));
  check_classes "phase-skip output check"
    [ Finding.Output_integrity ]
    (Guard.check_output pattern env faulty.Exec.output);
  let retry = Exec.run ~hooks:(Inject.hooks inj) machine compiled env in
  check_bit_identical "disarmed retry" clean retry.Exec.output

let test_kernel_poison () =
  with_run_fixture @@ fun ~pattern ~compiled ~env ~machine ~clean:_ ->
  let kernel = Kernel.build config compiled in
  let inj = Inject.arm ~seed:11 ~nodes Inject.Kernel_poison in
  let poisoned = Inject.poison_kernel inj kernel in
  Alcotest.(check bool) "poisoning disarms the injector" false
    (Inject.armed inj);
  (* The poisoned cache hit either computes wrong data (output check)
     or trips the specialization bounds; both are detections. *)
  (match Exec.run ~inner:Exec.Lowered ~kernel:poisoned machine compiled env with
  | r ->
      check_classes "poisoned kernel output check"
        [ Finding.Output_integrity ]
        (Guard.check_output pattern env r.Exec.output)
  | exception _ -> ());
  (* Root cause: the sandbox re-proof rejects the poisoned kernel and
     accepts the sound one. *)
  let fs = Guard.check_kernel config compiled poisoned in
  if not (List.exists (fun f -> f.Finding.check = Finding.Kernel_integrity) fs)
  then Alcotest.fail "check_kernel accepted a poisoned kernel";
  (match Guard.check_kernel config compiled kernel with
  | [] -> ()
  | fs ->
      Alcotest.failf "check_kernel rejected a sound kernel: %s"
        (Finding.to_string (List.hd fs)));
  (* Recovery: the sound kernel reproduces the clean result. *)
  let a = Exec.run ~inner:Exec.Lowered ~kernel machine compiled env in
  let b = Exec.run ~inner:Exec.Lowered machine compiled env in
  check_bit_identical "sound kernel vs on-the-fly lowering" b.Exec.output
    a.Exec.output

(* A corrupted kernel whose walk strays one word past the statement's
   last allocated region: the bottom-right tap of a 3x3 box, shifted one
   column east, reads just past the padded temporary that the halo
   exchange allocates last.  The node stores are materialized on
   demand, so the stray word must still read the zero a full-capacity
   store holds: a fresh machine and one reserved to full capacity up
   front compute the same bits, and neither raises. *)
let test_corrupt_walk_past_last_region () =
  let pattern = Pattern.square9 () in
  let compiled = compile_exn pattern in
  let env = env_for ~rows:32 ~cols:32 pattern in
  let victim =
    Option.get
      (List.find_index
         (fun (t : Tap.t) -> t.Tap.offset = Offset.make ~drow:1 ~dcol:1)
         (Pattern.taps pattern))
  in
  let poisoned = Kernel.corrupt ~seed:victim (Kernel.lower pattern) in
  let memory_words = 1 lsl 16 in
  let run machine =
    let stray = ref None in
    let on_phase (ctx : Exec.phase_ctx) =
      match (ctx.Exec.phase, ctx.Exec.halo, ctx.Exec.dst) with
      | "compute", Some h, Some dst ->
          let sources =
            [|
              {
                Kernel.base = h.Ccc.Halo.padded.Ccc_cm2.Memory.base;
                pcols = h.Ccc.Halo.padded_cols;
                pad = h.Ccc.Halo.pad;
              };
            |]
          in
          let spec =
            Kernel.specialize poisoned ~sub_rows:dst.Ccc.Dist.sub_rows
              ~sub_cols:dst.Ccc.Dist.sub_cols ~sources
              ~coeff_bases:
                (Array.map
                   (fun d -> d.Ccc.Dist.region.Ccc_cm2.Memory.base)
                   ctx.Exec.streams)
              ~dst_base:dst.Ccc.Dist.region.Ccc_cm2.Memory.base
              ~words:memory_words ()
          in
          let live =
            memory_words
            - Ccc_cm2.Memory.words_free (Ccc.Machine.memory machine 0)
          in
          stray := Some (Kernel.extent spec - live)
      | _ -> ()
    in
    let r =
      Exec.run ~inner:Exec.Lowered ~kernel:poisoned
        ~hooks:{ Exec.no_hooks with on_phase }
        machine compiled env
    in
    Alcotest.(check (option int)) "walk ends one word past the last region"
      (Some 1) !stray;
    r.Exec.output
  in
  let on_demand = run (Ccc.machine ~memory_words config) in
  let full = Ccc.machine ~memory_words config in
  Ccc.Machine.iter_nodes full (fun _ mem ->
      Ccc_cm2.Memory.reserve mem memory_words);
  check_bit_identical "on-demand vs full-capacity store" (run full) on_demand;
  check_classes "corrupted walk output check"
    [ Finding.Output_integrity ]
    (Guard.check_output pattern env on_demand)

let test_pool_death () =
  with_run_fixture @@ fun ~pattern:_ ~compiled ~env ~machine ~clean ->
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      let inj = Inject.arm ~seed:13 ~nodes Inject.Pool_death in
      (match Exec.run ~pool ~hooks:(Inject.hooks inj) machine compiled env with
      | _ -> Alcotest.failf "jobs=%d: the worker death vanished" jobs
      | exception Inject.Worker_died _ -> ());
      (* The machine released its temporaries on the way out, so the
         disarmed retry runs clean on the same machine. *)
      let retry = Exec.run ~pool ~hooks:(Inject.hooks inj) machine compiled env in
      check_bit_identical
        (Printf.sprintf "jobs=%d retry after worker death" jobs)
        clean retry.Exec.output)
    [ 1; 3; nodes + 3 ]

let test_grid_checksum () =
  let g = mixed_grid ~seed:3 ~rows:12 ~cols:12 in
  let g' = mixed_grid ~seed:3 ~rows:12 ~cols:12 in
  if not (Int64.equal (Guard.grid_checksum g) (Guard.grid_checksum g')) then
    Alcotest.fail "equal grids must share a checksum";
  let h = mixed_grid ~seed:4 ~rows:12 ~cols:12 in
  if Int64.equal (Guard.grid_checksum g) (Guard.grid_checksum h) then
    Alcotest.fail "different grids must not collide (for this pair)"

(* --- the engine's recovery ladder ---------------------------------- *)

let guard_counters engine =
  let m = Engine.metrics engine in
  let v name = Metrics.Counter.value (Metrics.counter m name) in
  ( v "engine.guard.detections",
    v "engine.guard.retries",
    v "engine.guard.recompiles",
    v "engine.guard.degraded" )

let check_counters what engine (d, r, rc, dg) =
  let d', r', rc', dg' = guard_counters engine in
  Alcotest.(check (list int))
    (what ^ ": detections/retries/recompiles/degraded")
    [ d; r; rc; dg ] [ d'; r'; rc'; dg' ]

let with_engine f =
  let engine = Engine.create config in
  Fun.protect ~finally:(fun () -> Engine.shutdown engine) @@ fun () -> f engine

let test_guarded_clean () =
  with_engine @@ fun engine ->
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  (match ok_exn (Engine.run_guarded engine p env) with
  | Engine.Completed r ->
      check_bit_identical "guarded clean run vs one-shot"
        (Ccc.apply config (compile_exn p) env).Exec.output r.Exec.output
  | Engine.Degraded _ -> Alcotest.fail "a clean substrate must complete");
  check_counters "clean" engine (0, 0, 0, 0)

let test_guarded_transient () =
  (* A one-shot fault is detected, retried once with the same cached
     artifacts, and completes with the clean answer. *)
  with_engine @@ fun engine ->
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let inj = Inject.arm ~seed:5 ~nodes Inject.Bit_flip in
  (match ok_exn (Engine.run_guarded ~inject:(Inject.hooks inj) engine p env) with
  | Engine.Completed r ->
      check_bit_identical "completed-after-retry vs one-shot"
        (Ccc.apply config (compile_exn p) env).Exec.output r.Exec.output
  | Engine.Degraded _ ->
      Alcotest.fail "a one-shot fault must be retried to completion");
  (match Inject.fired inj with
  | None -> Alcotest.fail "the injector never fired under the engine"
  | Some _ -> ());
  check_counters "transient" engine (1, 1, 0, 0)

(* A persistent substrate fault: every halo exchange loses the same
   interior cell, so retries and even a recompile cannot help. *)
let persistent_corruptor () =
  {
    Exec.on_phase =
      (fun ctx ->
        if ctx.Exec.phase = "halo" then
          match ctx.Exec.halo with
          | Some x ->
              let mem = Ccc.Machine.memory ctx.Exec.machine 0 in
              Ccc_cm2.Memory.write mem
                (x.Ccc.Halo.padded.Ccc_cm2.Memory.base
                + x.Ccc.Halo.padded_cols + 1)
                1e9
          | None -> ());
    on_compute_node = (fun _ -> ());
  }

let test_guarded_degrades () =
  with_engine @@ fun engine ->
  let p = cross5 () in
  let env = env_for ~rows:16 ~cols:16 p in
  let kernel_verifies () =
    Metrics.Counter.value
      (Metrics.counter (Engine.metrics engine) "engine.kernel.verifies")
  in
  match
    ok_exn
      (Engine.run_guarded ~inject:(persistent_corruptor ()) ~max_retries:2
         engine p env)
  with
  | Engine.Completed _ ->
      Alcotest.fail "a persistent fault must not complete"
  | Engine.Degraded d ->
      check_bit_identical "degraded output = host reference"
        (Ccc.Reference.apply p env) d.Engine.output;
      Alcotest.(check int) "both same-kernel retries spent" 2
        d.Engine.retries;
      Alcotest.(check bool) "the cache entry was recompiled" true
        d.Engine.recompiled;
      check_classes "degraded findings"
        [ Finding.Halo_integrity; Finding.Output_integrity ]
        d.Engine.findings;
      if
        not
          (List.exists
             (fun f -> f.Finding.check = Finding.Halo_integrity)
             d.Engine.findings)
      then Alcotest.fail "the halo guard must have seen the corruption";
      (* first attempt + 2 retries + post-recompile attempt *)
      check_counters "degraded" engine (4, 2, 1, 1);
      (* miss-time build + ladder diagnosis + recompiled build *)
      Alcotest.(check int) "kernel re-proofs on the ladder" 3
        (kernel_verifies ());
      Alcotest.(check int) "initial compile + ladder recompile" 2
        (Engine.stats engine).Engine.compiles

let test_guarded_too_small () =
  (* The ladder must not swallow structural errors: a too-small array
     is still an Error value, not a Degraded result. *)
  with_engine @@ fun engine ->
  let wide =
    Pattern.create
      (List.mapi
         (fun i (drow, dcol) ->
           Tap.make (Offset.make ~drow ~dcol)
             (Coeff.Array (Printf.sprintf "C%d" (i + 1))))
         [ (0, -4); (0, 0); (0, 4) ])
  in
  let env = env_for ~rows:8 ~cols:8 wide in
  match Engine.run_guarded engine wide env with
  | Error (Engine.Too_small _) -> ()
  | Ok _ -> Alcotest.fail "expected Too_small, got an outcome"
  | Error e ->
      Alcotest.failf "expected Too_small, got %s" (Engine.error_to_string e)

(* --- conformance flight dumps (PR 8) -------------------------------- *)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every kill-matrix cell carries a flight-recorder dump that names
   the injected fault class — the cell is a self-explaining incident
   report: armed fault, firing record (or the note that it never
   fired), guard trip, recovery verdict. *)
let test_kill_dumps_name_faults () =
  let m = Ccc.Conformance.run ~jobs_list:[ 1 ] config in
  Alcotest.(check bool) "matrix passed" true (Ccc.Conformance.passed m);
  Alcotest.(check bool) "kill matrix populated" true
    (m.Ccc.Conformance.kills <> []);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k : Ccc.Conformance.kill) ->
      let fname = Inject.name k.Ccc.Conformance.k_fault in
      Hashtbl.replace seen fname ();
      let d = k.Ccc.Conformance.k_dump in
      Alcotest.(check bool) (fname ^ ": dump names the fault class") true
        (contains fname d);
      Alcotest.(check bool) (fname ^ ": dump records the arming") true
        (contains "armed" d);
      Alcotest.(check bool) (fname ^ ": dump reaches a verdict") true
        (contains "recovered" d || contains "UNDETECTED" d))
    m.Ccc.Conformance.kills;
  (* both per-path sweeps together: the six lowered classes plus
     fft-poison standing in for kernel-poison on the transform path *)
  let expected =
    List.length
      (List.sort_uniq compare
         (List.map Inject.name (Inject.all @ Inject.fft_faults)))
  in
  Alcotest.(check int) "all fault classes across both paths dumped" expected
    (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ccc_fault"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs = nodes + 3 propagates failures" `Quick
            test_pool_overcommit;
          Alcotest.test_case "lowest node wins at every jobs" `Quick
            test_pool_error_deterministic;
        ] );
      ( "inject",
        [
          Alcotest.test_case "fault names roundtrip" `Quick test_fault_names;
          Alcotest.test_case "bit-flip caught by halo guard" `Quick
            (test_halo_fault Inject.Bit_flip);
          Alcotest.test_case "halo-drop caught by halo guard" `Quick
            (test_halo_fault Inject.Halo_drop);
          Alcotest.test_case "halo-duplicate caught by halo guard" `Quick
            (test_halo_fault Inject.Halo_duplicate);
          Alcotest.test_case "phase-skip caught by output check" `Quick
            test_phase_skip;
          Alcotest.test_case "kernel-poison caught by sandbox re-proof" `Quick
            test_kernel_poison;
          Alcotest.test_case "corrupted walk past the last region reads zeros"
            `Quick test_corrupt_walk_past_last_region;
          Alcotest.test_case "pool-death surfaces and retries clean" `Quick
            test_pool_death;
          Alcotest.test_case "grid checksum discriminates" `Quick
            test_grid_checksum;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clean run completes, counters silent" `Quick
            test_guarded_clean;
          Alcotest.test_case "one-shot fault retries to completion" `Quick
            test_guarded_transient;
          Alcotest.test_case "persistent fault degrades to reference" `Quick
            test_guarded_degrades;
          Alcotest.test_case "Too_small stays an error value" `Quick
            test_guarded_too_small;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "kill dumps name the fault class" `Quick
            test_kill_dumps_name_faults;
        ] );
    ]
