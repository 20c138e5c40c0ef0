(* Integration tests: the full pipeline — Fortran or defstencil source
   through recognition, compilation, distribution, halo exchange and
   the cycle-accurate microcode interpreter — validated against the
   reference evaluator. *)

module Pattern = Ccc.Pattern
module Grid = Ccc.Grid
module Stats = Ccc.Stats
module Exec = Ccc.Exec

let config = Ccc.Config.default
let tol = 1e-9

let run_and_check ?(config = config) ~rows ~cols pattern =
  let compiled = Tutil.compile_exn ~config pattern in
  let env = Tutil.env_for ~rows ~cols pattern in
  let expected = Ccc.Reference.apply pattern env in
  let simulated, fast = Tutil.run_both_modes ~config compiled env in
  Tutil.check_close ~tol "simulated vs reference" expected simulated.Exec.output;
  Tutil.check_close ~tol "fast vs reference" expected fast.Exec.output;
  Alcotest.(check int)
    "modes agree on compute cycles" simulated.Exec.stats.Stats.compute_cycles
    fast.Exec.stats.Stats.compute_cycles;
  simulated

(* Every gallery pattern through the simulator on the 16-node machine. *)
let test_gallery_simulated () =
  List.iter
    (fun (name, p) ->
      ignore (run_and_check ~rows:(4 * 12) ~cols:(4 * 12) p);
      ignore name)
    (Pattern.gallery ())

(* Shapes that exercise the strip-shaving rule: widths that are not
   multiples of 8, including the paper's 21 example, and heights that
   produce uneven half-strips. *)
let test_irregular_shapes () =
  List.iter
    (fun (sub_rows, sub_cols) ->
      ignore
        (run_and_check ~rows:(4 * sub_rows) ~cols:(4 * sub_cols)
           (Pattern.cross5 ())))
    [ (5, 21); (7, 7); (3, 3); (9, 13); (11, 1); (2, 2) ]

let test_single_node_machine () =
  let config = Tutil.config_1x1 in
  ignore (run_and_check ~config ~rows:10 ~cols:10 (Pattern.square9 ()))

let test_nonsquare_node_grid () =
  let config = Ccc.Config.with_nodes ~rows:2 ~cols:8 Ccc.Config.default in
  ignore (run_and_check ~config ~rows:(2 * 6) ~cols:(8 * 9) (Pattern.cross9 ()))

let test_fortran_to_execution () =
  let source =
    "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n\
     REAL, ARRAY(:,:) :: R, X, C1, C2, C3, C4, C5\n\
     R = C1 * CSHIFT(X, 1, -1) &\n\
     \  + C2 * CSHIFT(X, 2, -1) &\n\
     \  + C3 * X &\n\
     \  + C4 * CSHIFT(X, 2, +1) &\n\
     \  + C5 * CSHIFT(X, 1, +1)\n\
     END\n"
  in
  let compiled = Ccc.compile_fortran_exn config source in
  let env = Tutil.env_for ~rows:16 ~cols:16 compiled.Ccc.Compile.pattern in
  let expected = Ccc.Reference.apply compiled.Ccc.Compile.pattern env in
  let { Exec.output; _ } =
    Ccc.apply ~mode:Exec.Simulate config compiled env
  in
  Tutil.check_close ~tol "fortran pipeline" expected output

let test_defstencil_to_execution () =
  let form =
    "(defstencil blur (r x c)\n\
    \  (single-float single-float)\n\
    \  (:= r (+ (* c (cshift x 2 -1)) (* c x) (* c (cshift x 2 +1)))))"
  in
  match Ccc.compile_defstencil config form with
  | Error e -> Alcotest.failf "defstencil: %s" (Ccc.Outcome.reject_to_string e)
  | Ok compiled ->
      let env = Tutil.env_for ~rows:8 ~cols:24 compiled.Ccc.Compile.pattern in
      let expected = Ccc.Reference.apply compiled.Ccc.Compile.pattern env in
      let { Exec.output; _ } =
        Ccc.apply ~mode:Exec.Simulate config compiled env
      in
      Tutil.check_close ~tol "defstencil pipeline" expected output

let test_eoshift_execution () =
  let pattern =
    Ccc.Pattern.create ~boundary:(Ccc.Boundary.End_off 0.0)
      [
        Ccc.Tap.make (Ccc.Offset.make ~drow:(-1) ~dcol:0) (Ccc.Coeff.Array "C1");
        Ccc.Tap.make Ccc.Offset.zero (Ccc.Coeff.Array "C2");
        Ccc.Tap.make (Ccc.Offset.make ~drow:1 ~dcol:1) (Ccc.Coeff.Array "C3");
      ]
  in
  ignore (run_and_check ~rows:16 ~cols:16 pattern)

let test_eoshift_nonzero_fill () =
  let pattern =
    Ccc.Pattern.create ~boundary:(Ccc.Boundary.End_off 3.25)
      [
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:(-1)) (Ccc.Coeff.Array "C1");
        Ccc.Tap.make Ccc.Offset.zero (Ccc.Coeff.Array "C2");
      ]
  in
  ignore (run_and_check ~rows:8 ~cols:8 pattern)

let test_bias_and_scalar_execution () =
  let pattern =
    Ccc.Pattern.create ~bias:(Ccc.Coeff.Array "B")
      [
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:(-1)) (Ccc.Coeff.Scalar 0.25);
        Ccc.Tap.make Ccc.Offset.zero Ccc.Coeff.One;
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:1) (Ccc.Coeff.Scalar 0.25);
      ]
  in
  ignore (run_and_check ~rows:12 ~cols:20 pattern)

let test_holey_column_execution () =
  (* A column with occupied rows {-2, 0, 2}: the ring buffer spans the
     holes. *)
  let pattern = Tutil.pattern_of_offsets [ (-2, 0); (0, 0); (2, 0) ] in
  ignore (run_and_check ~rows:16 ~cols:16 pattern)

let test_wide_flat_pattern () =
  (* One row, five columns: no prologue at all (every span is 1). *)
  let pattern =
    Tutil.pattern_of_offsets [ (0, -2); (0, -1); (0, 0); (0, 1); (0, 2) ]
  in
  ignore (run_and_check ~rows:8 ~cols:24 pattern)

let test_corner_skip_correctness () =
  (* cross9 skips the corner exchange; its results must still be
     exact, and the poisoned corners must never be read. *)
  let result = run_and_check ~rows:(4 * 8) ~cols:(4 * 8) (Pattern.cross9 ()) in
  Alcotest.(check bool)
    "corners skipped" true result.Exec.stats.Stats.corners_skipped

let test_corner_use_correctness () =
  let result = run_and_check ~rows:(4 * 8) ~cols:(4 * 8) (Pattern.square9 ()) in
  Alcotest.(check bool)
    "corners exchanged" false result.Exec.stats.Stats.corners_skipped

let test_legacy_primitive_same_data () =
  (* The ablation primitive moves the same data, only slower. *)
  let pattern = Pattern.square9 () in
  let compiled = Tutil.compile_exn pattern in
  let env = Tutil.env_for ~rows:16 ~cols:16 pattern in
  let machine = Ccc.machine config in
  let fast = Exec.run ~primitive:Ccc.Halo.Node_level machine compiled env in
  let slow = Exec.run ~primitive:Ccc.Halo.Legacy machine compiled env in
  Tutil.check_close ~tol:0.0 "same data" fast.Exec.output slow.Exec.output;
  Alcotest.(check bool)
    "legacy comm is slower" true
    (slow.Exec.stats.Stats.comm_cycles > fast.Exec.stats.Stats.comm_cycles)

let test_idempotent_machine_reuse () =
  (* Two runs on one machine: temporaries released, results equal. *)
  let pattern = Pattern.cross5 () in
  let compiled = Tutil.compile_exn pattern in
  let env = Tutil.env_for ~rows:16 ~cols:16 pattern in
  let machine = Ccc.machine config in
  let a = Exec.run machine compiled env in
  let b = Exec.run machine compiled env in
  Tutil.check_close ~tol:0.0 "identical reruns" a.Exec.output b.Exec.output

let test_flop_accounting_cross5 () =
  (* 16 nodes x 16x16 subgrids x 9 flops: the paper's counting. *)
  let pattern = Pattern.cross5 () in
  let compiled = Tutil.compile_exn pattern in
  let env = Tutil.env_for ~rows:(4 * 16) ~cols:(4 * 16) pattern in
  let { Exec.stats; _ } = Ccc.apply config compiled env in
  Alcotest.(check int)
    "useful flops" (64 * 64 * 9)
    stats.Stats.useful_flops_per_iteration

let test_efficiency_below_peak () =
  (* Useful flops can never exceed the flop slots burned. *)
  List.iter
    (fun (_, p) ->
      let compiled = Tutil.compile_exn p in
      let env = Tutil.env_for ~rows:(4 * 12) ~cols:(4 * 12) p in
      let { Exec.stats; _ } = Ccc.apply config compiled env in
      let eff = Stats.flop_efficiency stats in
      Alcotest.(check bool) "0 < efficiency <= 1" true (eff > 0.0 && eff <= 1.0))
    (Pattern.gallery ())

let test_single_precision_mode () =
  (* With single_precision the simulated FPU rounds every product and
     sum to 32 bits, as the WTL3164 did: results drift from the
     double-precision oracle by single-precision epsilon, not more. *)
  let pattern = Pattern.square9 () in
  let sp_config = { config with Ccc.Config.single_precision = true } in
  let compiled = Tutil.compile_exn ~config:sp_config pattern in
  let env = Tutil.env_for ~rows:16 ~cols:16 pattern in
  let expected = Ccc.Reference.apply pattern env in
  let { Exec.output; _ } =
    Ccc.apply ~mode:Exec.Simulate sp_config compiled env
  in
  let diff = Grid.max_abs_diff expected output in
  Alcotest.(check bool)
    "drift present but bounded by single-precision epsilon" true
    (diff > 0.0 && diff < 1e-5)

let test_tuned_runtime_is_faster () =
  (* The 7 Dec 90 rows: strength-reduced front-end dispatch. *)
  let pattern = Pattern.diamond13 () in
  let compiled = Tutil.compile_exn pattern in
  let nov =
    Exec.estimate ~sub_rows:128 ~sub_cols:256 config [ Exec.compiled compiled ]
  in
  let dec =
    Exec.estimate ~sub_rows:128 ~sub_cols:256 (Ccc.Config.tuned_runtime config)
      [ Exec.compiled compiled ]
  in
  Alcotest.(check bool)
    "tuned runtime is faster" true
    (Stats.mflops dec > Stats.mflops nov)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "oracle",
        [
          tc "gallery through the simulator" test_gallery_simulated;
          tc "irregular shapes (strip shaving)" test_irregular_shapes;
          tc "single-node machine" test_single_node_machine;
          tc "non-square node grid" test_nonsquare_node_grid;
        ] );
      ( "front-to-back",
        [
          tc "Fortran to execution" test_fortran_to_execution;
          tc "defstencil to execution" test_defstencil_to_execution;
        ] );
      ( "semantics",
        [
          tc "EOSHIFT boundary" test_eoshift_execution;
          tc "EOSHIFT with non-zero fill" test_eoshift_nonzero_fill;
          tc "bias and scalar coefficients" test_bias_and_scalar_execution;
          tc "holey ring-buffer column" test_holey_column_execution;
          tc "flat single-row pattern" test_wide_flat_pattern;
        ] );
      ( "communication",
        [
          tc "corner skip stays exact" test_corner_skip_correctness;
          tc "corner exchange used when needed" test_corner_use_correctness;
          tc "legacy primitive: same data, slower" test_legacy_primitive_same_data;
          tc "machine reuse" test_idempotent_machine_reuse;
        ] );
      ( "accounting",
        [
          tc "flop accounting" test_flop_accounting_cross5;
          tc "efficiency below peak" test_efficiency_below_peak;
          tc "single-precision (WTL3164) mode" test_single_precision_mode;
          tc "tuned runtime is faster" test_tuned_runtime_is_faster;
        ] );
    ]
