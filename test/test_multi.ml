(* Tests for the multi-source (fused) extension — the paper's future
   work: "handle all ten terms as one stencil pattern". *)

module Config = Ccc.Config
module Multi = Ccc.Multi
module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Grid = Ccc.Grid
module Exec = Ccc.Exec
module Stats = Ccc.Stats
module Plan = Ccc.Plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let config = Config.default

(* The fused Gordon Bell statement: nine shifted P terms plus the
   tenth term over POLD, as one pattern. *)
let gordon_bell_fused () =
  let p_taps =
    List.mapi
      (fun i (drow, dcol) ->
        {
          Multi.source = 0;
          tap =
            Tap.make (Offset.make ~drow ~dcol)
              (Coeff.Array (Printf.sprintf "C%d" (i + 1)));
        })
      [ (-2, 0); (-1, 0); (0, -2); (0, -1); (0, 0); (0, 1); (0, 2); (1, 0);
        (2, 0) ]
  in
  let tenth =
    { Multi.source = 1; tap = Tap.make Offset.zero (Coeff.Array "C10") }
  in
  Multi.create ~result:"PNEW" ~sources:[ "P"; "POLD" ] (p_taps @ [ tenth ])

let fused_env ~rows ~cols multi =
  List.mapi
    (fun i name -> (name, Tutil.mixed_grid ~seed:(100 + i) ~rows ~cols))
    (Multi.referenced_arrays multi)

let compile_fused_exn multi =
  match Ccc.compile_multi config multi with
  | Ok fused -> fused
  | Error e -> Alcotest.failf "fused compile failed: %s" (Ccc.Outcome.reject_to_string e)

(* ------------------------------------------------------------------ *)
(* Multi IR *)

let test_of_pattern_roundtrip () =
  let p = Pattern.cross5 () in
  let m = Multi.of_pattern p in
  check_int "one source" 1 (Multi.source_count m);
  match Multi.to_pattern m with
  | Some p' -> check_bool "roundtrip" true (Pattern.equal p p')
  | None -> Alcotest.fail "to_pattern failed"

let test_flop_accounting () =
  (* Ten terms: 10 multiplies + 9 adds = 19 -- the fused Gordon Bell
     kernel's count. *)
  check_int "19 flops/point" 19
    (Multi.useful_flops_per_point (gordon_bell_fused ()))

let test_primary_source_is_bottom_most () =
  (* P owns the bottom-most row (+2); POLD only taps (0,0). *)
  check_int "primary is P" 0 (Multi.primary_source (gordon_bell_fused ()))

let test_per_source_borders () =
  let m = gordon_bell_fused () in
  check_int "P needs border 2" 2 (Multi.max_border m 0);
  check_int "POLD needs no border" 0 (Multi.max_border m 1);
  check_bool "no corners anywhere" false
    (Multi.needs_corners m 0 || Multi.needs_corners m 1)

let test_create_validation () =
  (match
     Multi.create ~sources:[ "A"; "B" ]
       [ { Multi.source = 0; tap = Tap.make Offset.zero Coeff.One } ]
   with
  | _ -> Alcotest.fail "source B has no tap"
  | exception Invalid_argument _ -> ());
  match
    Multi.create ~sources:[ "A" ]
      [ { Multi.source = 3; tap = Tap.make Offset.zero Coeff.One } ]
  with
  | _ -> Alcotest.fail "source index out of range"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fused compilation *)

let test_gordon_bell_compiles_fused () =
  let fused = compile_fused_exn (gordon_bell_fused ()) in
  let widths =
    List.map (fun p -> p.Plan.width) fused.Ccc.Compile.fused_plans
  in
  (* P's width-4 multistencil costs 24 registers; POLD adds 4 columns
     of span 1 at width 4 -> 28 + zero fits, width 8 does not
     (P alone wants 44). *)
  Alcotest.(check (list int)) "widths" [ 4; 2; 1 ] widths

let test_fused_register_sharing () =
  let fused = compile_fused_exn (gordon_bell_fused ()) in
  let plan = Ccc.Compile.fused_widest fused in
  check_bool "within the file" true
    (plan.Plan.registers_used <= config.Config.fpu_registers);
  (* Rings from both sources, no overlapping register ranges. *)
  let ranges =
    List.map
      (fun (r : Plan.ring) -> (r.Plan.base, r.Plan.base + r.Plan.size - 1))
      plan.Plan.rings
  in
  let sorted = List.sort compare ranges in
  let rec disjoint = function
    | (_, hi) :: ((lo, _) :: _ as rest) ->
        check_bool "disjoint rings" true (lo > hi);
        disjoint rest
    | [ _ ] | [] -> ()
  in
  disjoint sorted;
  check_bool "has POLD rings" true
    (List.exists (fun (r : Plan.ring) -> r.Plan.src = 1) plan.Plan.rings)

let test_single_source_fused_equals_plain () =
  (* Compiling a plain pattern through the fused path must produce the
     same widths, registers and cycle costs. *)
  let p = Pattern.square9 () in
  let plain = Tutil.compile_exn p in
  let fused = compile_fused_exn (Multi.of_pattern p) in
  List.iter2
    (fun (a : Plan.t) (b : Plan.t) ->
      check_int "width" a.Plan.width b.Plan.width;
      check_int "registers" a.Plan.registers_used b.Plan.registers_used;
      check_int "unroll" a.Plan.unroll b.Plan.unroll;
      check_int "line cycles"
        (Ccc.Cost.line_cycles config a)
        (Ccc.Cost.line_cycles config b))
    plain.Ccc.Compile.plans fused.Ccc.Compile.fused_plans

(* ------------------------------------------------------------------ *)
(* Fused execution *)

let test_fused_matches_reference_fast () =
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:32 ~cols:32 multi in
  let expected = Exec.reference_fused multi env in
  let { Exec.output; _ } = Ccc.apply_fused config fused env in
  check_float "fast" 0.0 (Grid.max_abs_diff expected output)

let test_fused_matches_reference_simulated () =
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:32 ~cols:32 multi in
  let expected = Exec.reference_fused multi env in
  let { Exec.output; stats } =
    Ccc.apply_fused ~mode:Exec.Simulate config fused env
  in
  check_bool "simulated close" true
    (Grid.max_abs_diff expected output < 1e-9);
  check_bool "corner exchange skipped" true stats.Stats.corners_skipped

let test_fused_equals_separate_passes () =
  (* The semantic identity behind the fusion: one fused statement =
     stencil + separate tenth-term pass. *)
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:32 ~cols:32 multi in
  let { Exec.output = fused_out; _ } = Ccc.apply_fused config fused env in
  let nine =
    Pattern.create ~source:"P" ~result:"PNEW"
      (List.filteri (fun i _ -> i < 9)
         (List.map (fun (st : Multi.source_tap) -> st.Multi.tap)
            (Multi.taps multi)))
  in
  let stencil_out = Ccc.Reference.apply nine env in
  let manual =
    Grid.map2
      (fun s extra -> s +. extra)
      stencil_out
      (Grid.map2 ( *. )
         (List.assoc "C10" env)
         (List.assoc "POLD" env))
  in
  check_bool "fusion preserves semantics" true
    (Grid.max_abs_diff manual fused_out < 1e-9)

let test_fused_comm_counts_both_sources () =
  (* POLD has zero border: its exchange is free; P pays the usual
     cost, so fused comm equals the nine-point kernel's comm. *)
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let stats =
    Exec.estimate ~sub_rows:64 ~sub_cols:64 config [ Exec.fused fused ]
  in
  let nine = Tutil.compile_exn (Pattern.cross9 ()) in
  let nine_stats =
    Exec.estimate ~sub_rows:64 ~sub_cols:64 config [ Exec.compiled nine ]
  in
  check_int "comm cycles" nine_stats.Stats.comm_cycles stats.Stats.comm_cycles

let test_fused_estimate_matches_run () =
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:(4 * 9) ~cols:(4 * 11) multi in
  let { Exec.stats = run_stats; _ } = Ccc.apply_fused config fused env in
  let est =
    Exec.estimate ~sub_rows:9 ~sub_cols:11 config [ Exec.fused fused ]
  in
  check_int "compute" run_stats.Stats.compute_cycles est.Stats.compute_cycles;
  check_int "comm" run_stats.Stats.comm_cycles est.Stats.comm_cycles;
  check_int "flops" run_stats.Stats.useful_flops_per_iteration
    est.Stats.useful_flops_per_iteration

let test_fused_beats_separate_tenth_pass () =
  (* The payoff the paper anticipated: fusing the tenth term into the
     stencil beats running it as a separate elementwise pass. *)
  let multi = gordon_bell_fused () in
  let fused = compile_fused_exn multi in
  let fused_stats =
    Exec.estimate ~sub_rows:64 ~sub_cols:128 ~iterations:100 config
      [ Exec.fused fused ]
  in
  let unfused =
    Ccc.Seismic.estimate ~version:Ccc.Seismic.Unrolled3 ~sub_rows:64
      ~sub_cols:128 ~steps:100 config
  in
  check_bool "fused is faster" true
    (Stats.mflops fused_stats > Stats.mflops unfused)

let test_fused_eoshift_and_bias () =
  (* End-off boundaries and a bias term through the fused pipeline. *)
  let multi =
    Multi.create ~bias:(Coeff.Array "B")
      ~boundary:(Ccc.Boundary.End_off 1.5)
      ~sources:[ "A"; "Z" ]
      [
        {
          Multi.source = 0;
          tap = Tap.make (Offset.make ~drow:(-1) ~dcol:0) (Coeff.Array "K1");
        };
        { Multi.source = 0; tap = Tap.make Offset.zero (Coeff.Scalar 0.5) };
        {
          Multi.source = 1;
          tap = Tap.make (Offset.make ~drow:1 ~dcol:1) Coeff.One;
        };
      ]
  in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:16 ~cols:16 multi in
  let expected = Exec.reference_fused multi env in
  let { Exec.output; _ } =
    Ccc.apply_fused ~mode:Exec.Simulate config fused env
  in
  check_bool "close" true (Grid.max_abs_diff expected output < 1e-9)

let test_fused_three_sources () =
  (* Three time levels in one statement (a higher-order scheme). *)
  let multi =
    Multi.create ~sources:[ "P0"; "P1"; "P2" ]
      [
        {
          Multi.source = 0;
          tap = Tap.make (Offset.make ~drow:(-1) ~dcol:0) (Coeff.Array "K1");
        };
        { Multi.source = 0; tap = Tap.make Offset.zero (Coeff.Array "K2") };
        {
          Multi.source = 0;
          tap = Tap.make (Offset.make ~drow:1 ~dcol:0) (Coeff.Array "K3");
        };
        { Multi.source = 1; tap = Tap.make Offset.zero (Coeff.Array "K4") };
        { Multi.source = 2; tap = Tap.make Offset.zero (Coeff.Array "K5") };
      ]
  in
  let fused = compile_fused_exn multi in
  let env = fused_env ~rows:16 ~cols:20 multi in
  let expected = Exec.reference_fused multi env in
  let { Exec.output; _ } =
    Ccc.apply_fused ~mode:Exec.Simulate config fused env
  in
  check_bool "close" true (Grid.max_abs_diff expected output < 1e-9)

(* ------------------------------------------------------------------ *)
(* Multi recognizer *)

let recognize_multi src =
  match
    Ccc_frontend.Recognize.statement_multi
      (Ccc_frontend.Parser.parse_statement src)
  with
  | Ok m -> m
  | Error ds ->
      Alcotest.failf "rejected: %s"
        (String.concat "; "
           (List.map Ccc_frontend.Diagnostics.to_string ds))

let test_recognize_two_sources () =
  let m =
    recognize_multi
      "PNEW = C1 * CSHIFT(P, 1, -1) + C2 * P + C10 * CSHIFT(POLD, 1, 0)"
  in
  Alcotest.(check (list string)) "sources" [ "P"; "POLD" ] (Multi.sources m);
  check_int "three taps" 3 (Multi.tap_count m)

let test_recognize_gordon_bell_statement () =
  let src =
    "PNEW = C1 * CSHIFT(P, 1, -2) + C2 * CSHIFT(P, 1, -1) &\n\
    \     + C3 * CSHIFT(P, 2, -2) + C4 * CSHIFT(P, 2, -1) &\n\
    \     + C5 * P &\n\
    \     + C6 * CSHIFT(P, 2, +1) + C7 * CSHIFT(P, 2, +2) &\n\
    \     + C8 * CSHIFT(P, 1, +1) + C9 * CSHIFT(P, 1, +2) &\n\
    \     + C10 * CSHIFT(POLD, 1, 0)"
  in
  let m = recognize_multi src in
  check_int "ten terms as one pattern" 10 (Multi.tap_count m);
  check_int "two sources" 2 (Multi.source_count m);
  check_int "19 flops/point" 19 (Multi.useful_flops_per_point m);
  (* And it compiles. *)
  match Ccc.compile_multi config m with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "does not compile: %s" (Ccc.Outcome.reject_to_string e)

let test_recognize_single_source_agrees () =
  let src = "R = C1 * CSHIFT(X, 1, -1) + C2 * X" in
  let single =
    match
      Ccc_frontend.Recognize.statement
        (Ccc_frontend.Parser.parse_statement src)
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "single rejected"
  in
  let multi = recognize_multi src in
  match Multi.to_pattern multi with
  | Some p -> check_bool "same pattern" true (Pattern.equal p single)
  | None -> Alcotest.fail "not single-source"

let test_recognize_ambiguous_product () =
  match
    Ccc_frontend.Recognize.statement_multi
      (Ccc_frontend.Parser.parse_statement
         "R = C1 * CSHIFT(P, 1, 1) + C10 * POLD")
  with
  | Ok _ -> Alcotest.fail "C10 * POLD is ambiguous and must be reported"
  | Error ds ->
      check_bool "mentions the marker idiom" true
        (List.exists
           (fun d ->
             d.Ccc_frontend.Diagnostics.code
             = Ccc_frontend.Diagnostics.Not_sum_of_products)
           ds)

let test_recognize_two_sources_both_shifted_product () =
  match
    Ccc_frontend.Recognize.statement_multi
      (Ccc_frontend.Parser.parse_statement
         "R = CSHIFT(P, 1, 1) * CSHIFT(Q, 1, 1)")
  with
  | Ok _ -> Alcotest.fail "source * source must be rejected"
  | Error _ -> ()

(* The fused statement is checked like any other before anything is
   allocated: every array it reads must be bound and shaped like its
   first source.  A two-source stencil, P at (0,1) with C1 and Q at
   (0,0) with C2, on 32x32, with one array mis-shaped at a time. *)
let test_fused_env_checked () =
  let multi =
    Multi.create ~sources:[ "P"; "Q" ]
      [
        {
          Multi.source = 0;
          tap = Tap.make (Offset.make ~drow:0 ~dcol:1) (Coeff.Array "C1");
        };
        { Multi.source = 1; tap = Tap.make Offset.zero (Coeff.Array "C2") };
      ]
  in
  let fused = compile_fused_exn multi in
  let env ?(p = 32) ?(q = 32) ?(c1 = 32) ?(c2 = 32) () =
    List.mapi
      (fun i (name, n) -> (name, Tutil.mixed_grid ~seed:(40 + i) ~rows:n ~cols:n))
      [ ("P", p); ("Q", q); ("C1", c1); ("C2", c2) ]
  in
  List.iter
    (fun (what, env) ->
      let machine = Ccc.machine config in
      let top () = (Ccc.Machine.alloc_all machine ~words:0).Ccc_cm2.Memory.base in
      let before = top () in
      let arena = Exec.Arena.create machine in
      (match Exec.exec arena [ Exec.fused fused ] env with
      | _ -> Alcotest.failf "%s: expected Shape_mismatch" what
      | exception Ccc.Reference.Shape_mismatch _ -> ());
      check_int (what ^ ": nothing allocated") before (top ());
      check_int (what ^ ": no regions acquired") 0 (Exec.Arena.rebuilds arena);
      match Ccc.apply_fused config fused env with
      | _ -> Alcotest.failf "%s: apply_fused must refuse" what
      | exception Ccc.Reference.Shape_mismatch _ -> ())
    [
      ("Q 64x64", env ~q:64 ());
      ("C2 64x64", env ~c2:64 ());
      ("C1 16x16", env ~c1:16 ());
      ("Q 16x16", env ~q:16 ());
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "multi"
    [
      ( "ir",
        [
          tc "of_pattern roundtrip" test_of_pattern_roundtrip;
          tc "flop accounting (19 for the fused kernel)" test_flop_accounting;
          tc "primary source owns the bottom row"
            test_primary_source_is_bottom_most;
          tc "per-source borders" test_per_source_borders;
          tc "creation validation" test_create_validation;
        ] );
      ( "compile",
        [
          tc "Gordon Bell statement compiles fused"
            test_gordon_bell_compiles_fused;
          tc "register sharing across sources" test_fused_register_sharing;
          tc "single-source fused = plain" test_single_source_fused_equals_plain;
        ] );
      ( "execute",
        [
          tc "fast matches reference" test_fused_matches_reference_fast;
          tc "simulated matches reference" test_fused_matches_reference_simulated;
          tc "fusion preserves pass semantics" test_fused_equals_separate_passes;
          tc "comm counts both sources" test_fused_comm_counts_both_sources;
          tc "estimate matches run" test_fused_estimate_matches_run;
          tc "fusing beats the separate tenth pass"
            test_fused_beats_separate_tenth_pass;
          tc "EOSHIFT boundary and bias, fused" test_fused_eoshift_and_bias;
          tc "three time levels in one statement" test_fused_three_sources;
          tc "environment checked before allocation" test_fused_env_checked;
        ] );
      ( "recognize",
        [
          tc "two sources" test_recognize_two_sources;
          tc "the ten-term Gordon Bell statement"
            test_recognize_gordon_bell_statement;
          tc "agrees with the single-source recognizer"
            test_recognize_single_source_agrees;
          tc "ambiguous coefficient product reported"
            test_recognize_ambiguous_product;
          tc "source-times-source rejected"
            test_recognize_two_sources_both_shifted_product;
        ] );
    ]
