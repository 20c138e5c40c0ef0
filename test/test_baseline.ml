(* Unit tests for the comparison baselines (the general CM Fortran
   path and the 1989 canned library routines), the elementwise pass
   cost model, and the Gordon Bell seismic driver. *)

module Config = Ccc.Config
module Stats = Ccc.Stats
module Pattern = Ccc.Pattern
module Grid = Ccc.Grid
module Passes = Ccc.Passes
module Seismic = Ccc.Seismic
module Naive = Ccc_baseline.Naive
module Canned = Ccc_baseline.Canned

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let config = Config.default

(* ------------------------------------------------------------------ *)
(* Passes *)

let test_copy_cost_scales () =
  let c1 = Passes.copy_cycles config ~elements:100 in
  let c2 = Passes.copy_cycles config ~elements:200 in
  check_int "linear in elements" (2 * c1) c2

let test_elementwise_reads_increase_cost () =
  let one = Passes.elementwise_cycles config ~elements:64 ~reads:1 in
  let three = Passes.elementwise_cycles config ~elements:64 ~reads:3 in
  check_bool "more reads cost more" true (three > one)

let test_frontend_bounded_switches_regimes () =
  (* Few words, many cycles: machine-bound.  Many words, few cycles:
     front-end bound. *)
  check_int "machine-bound" 1000
    (Passes.frontend_bounded config ~cm_cycles:1000 ~words:10);
  let fe = Passes.frontend_bounded config ~cm_cycles:10 ~words:1000 in
  check_bool "front-end bound" true (fe > 10);
  (* Strength reduction halves the front-end side only. *)
  let tuned =
    Passes.frontend_bounded (Config.tuned_runtime config) ~cm_cycles:10
      ~words:1000
  in
  check_bool "tuning helps the fe-bound case" true (tuned < fe);
  check_int "tuning cannot beat the machine" 1000
    (Passes.frontend_bounded (Config.tuned_runtime config) ~cm_cycles:1000
       ~words:10)

let test_shift_cost_zero_amount_free () =
  check_int "no-op shift" 0
    (Passes.whole_array_shift_cycles config ~elements:100 ~amount:0
       ~sub_rows:10 ~sub_cols:10 ~dim:1)

let test_shift_cost_grows_with_distance () =
  let near =
    Passes.whole_array_shift_cycles config ~elements:100 ~amount:1
      ~sub_rows:10 ~sub_cols:10 ~dim:1
  in
  let far =
    Passes.whole_array_shift_cycles config ~elements:100 ~amount:3
      ~sub_rows:10 ~sub_cols:10 ~dim:1
  in
  check_bool "longer shifts cost more" true (far > near)

(* ------------------------------------------------------------------ *)
(* Naive *)

let test_naive_data_equals_reference () =
  let p = Pattern.cross5 () in
  let env = Tutil.env_for ~rows:16 ~cols:16 p in
  let { Naive.output; _ } = Naive.run config p env in
  let expected = Ccc.Reference.apply p env in
  check_float "identical data" 0.0 (Grid.max_abs_diff expected output)

let test_naive_much_slower_than_compiled () =
  let p = Pattern.cross9 () in
  let compiled = Tutil.compile_exn p in
  let naive = Naive.estimate ~sub_rows:128 ~sub_cols:128 config p in
  let ours = Ccc.Exec.estimate ~sub_rows:128 ~sub_cols:128 config
      [ Ccc.Exec.compiled compiled ]
  in
  (* The paper's gap: ~4 GF class vs >10 GF class. *)
  check_bool "at least 3x slower" true
    (Stats.mflops ours > 3.0 *. Stats.mflops naive)

let test_naive_counts_flops_like_the_paper () =
  let p = Pattern.cross5 () in
  let s = Naive.estimate ~sub_rows:8 ~sub_cols:8 config p in
  check_int "9 flops x points x nodes" (9 * 64 * 16)
    s.Stats.useful_flops_per_iteration

let test_naive_implicit_coeff_skips_multiply_pass () =
  (* A term with coefficient One costs one pass less. *)
  let with_coeff =
    Ccc.Pattern.create
      [
        Ccc.Tap.make Ccc.Offset.zero (Ccc.Coeff.Array "C1");
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:1) (Ccc.Coeff.Array "C2");
      ]
  in
  let bare =
    Ccc.Pattern.create
      [
        Ccc.Tap.make Ccc.Offset.zero Ccc.Coeff.One;
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:1) (Ccc.Coeff.Array "C2");
      ]
  in
  let cycles p =
    (Naive.estimate ~sub_rows:32 ~sub_cols:32 config p).Stats.compute_cycles
  in
  check_bool "bare term is cheaper" true (cycles bare < cycles with_coeff)

let test_naive_rejects_ragged () =
  let p = Pattern.cross5 () in
  let env = [ ("X", Grid.create ~rows:17 ~cols:16) ] in
  match Naive.run config p env with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fieldwise *)

let test_fieldwise_slower_than_naive () =
  (* The format lineage of section 3: fieldwise transposes every batch
     through the interface chip, so it trails slicewise general code,
     which trails everything else. *)
  let p = Pattern.cross9 () in
  let fieldwise =
    Ccc_baseline.Fieldwise.estimate ~sub_rows:128 ~sub_cols:128 config p
  in
  let naive = Naive.estimate ~sub_rows:128 ~sub_cols:128 config p in
  check_bool "fieldwise < naive" true
    (Stats.mflops fieldwise < Stats.mflops naive);
  check_bool "same flop accounting" true
    (fieldwise.Stats.useful_flops_per_iteration
    = naive.Stats.useful_flops_per_iteration)

let test_fieldwise_transpose_cost_positive () =
  check_int "64 cycles per 32-word batch" 64
    Ccc_baseline.Fieldwise.transpose_cycles_per_batch;
  let plain =
    Ccc.Passes.elementwise_cycles config ~elements:320 ~reads:2
  in
  let fieldwise =
    Ccc_baseline.Fieldwise.elementwise_cycles config ~elements:320 ~reads:2
  in
  (* 10 batches x 3 streams x 64 cycles on top of the slicewise pass. *)
  check_int "transpose surcharge" (plain + (10 * 3 * 64)) fieldwise

(* ------------------------------------------------------------------ *)
(* Canned *)

let test_canned_menu_membership () =
  check_bool "cross5 on menu" true (Canned.supports (Pattern.cross5 ()));
  check_bool "cross9 on menu" true (Canned.supports (Pattern.cross9 ()));
  check_bool "square9 on menu" true (Canned.supports (Pattern.square9 ()));
  check_bool "diamond13 off menu" false (Canned.supports (Pattern.diamond13 ()));
  check_bool "asymmetric5 off menu" false
    (Canned.supports (Pattern.asymmetric5 ()))

let test_canned_ignores_coefficient_names () =
  (* The routines take coefficient arrays as arguments: a cross5 with
     different coefficient names is still served. *)
  let renamed =
    Ccc.Pattern.create
      (List.map
         (fun t -> Ccc.Tap.make t.Ccc.Tap.offset (Ccc.Coeff.Array "K"))
         (Pattern.taps (Pattern.cross5 ())))
  in
  check_bool "same shape, different coefficients" true
    (Canned.supports renamed)

let test_canned_between_naive_and_compiled () =
  let p = Pattern.square9 () in
  let compiled = Tutil.compile_exn p in
  let naive = Naive.estimate ~sub_rows:128 ~sub_cols:128 config p in
  let canned =
    match Canned.estimate ~sub_rows:128 ~sub_cols:128 config p with
    | Canned.Library s -> s
    | Canned.Fallback _ -> Alcotest.fail "square9 should be served"
  in
  let ours = Ccc.Exec.estimate ~sub_rows:128 ~sub_cols:128 config
      [ Ccc.Exec.compiled compiled ]
  in
  check_bool "canned beats naive" true
    (Stats.mflops canned > Stats.mflops naive);
  check_bool "compiled beats canned" true
    (Stats.mflops ours > Stats.mflops canned)

let test_canned_falls_back_off_menu () =
  match Canned.estimate ~sub_rows:64 ~sub_cols:64 config (Pattern.diamond13 ()) with
  | Canned.Fallback _ -> ()
  | Canned.Library _ -> Alcotest.fail "diamond13 must fall back"

(* ------------------------------------------------------------------ *)
(* Seismic *)

let seismic_env rows cols =
  List.init 9 (fun i ->
      (Printf.sprintf "C%d" (i + 1), Grid.constant ~rows ~cols 0.1))

let test_seismic_kernel_shape () =
  let k = Seismic.kernel () in
  check_int "nine taps" 9 (Pattern.tap_count k);
  check_int "17 stencil flops" 17 (Pattern.useful_flops_per_point k);
  check_int "19 with the tenth term" 19 Seismic.flops_per_point;
  check_bool "no corners needed" false (Pattern.needs_corners k)

let test_seismic_data_matches_reference () =
  (* Three steps of P_next = stencil(P) + c10 * P_old, checked against
     a hand-rolled host-side recurrence. *)
  let rows = 16 and cols = 16 in
  let machine = Ccc.machine config in
  let env = seismic_env rows cols in
  let p0 = Tutil.mixed_grid ~seed:5 ~rows ~cols in
  let p1 = Tutil.mixed_grid ~seed:6 ~rows ~cols in
  let steps = 3 and c10 = -0.5 in
  let result =
    Seismic.simulate ~steps ~c10 machine env ~p:p1 ~p_old:p0
  in
  let kernel = Seismic.kernel () in
  let reference = ref p1 and reference_old = ref p0 in
  for _ = 1 to steps do
    let s = Ccc.Reference.apply kernel (("P", !reference) :: env) in
    let next = Grid.map2 (fun a b -> a +. (c10 *. b)) s !reference_old in
    reference_old := !reference;
    reference := next
  done;
  check_float "wavefield" 0.0
    (Grid.max_abs_diff !reference result.Seismic.p);
  check_float "previous level" 0.0
    (Grid.max_abs_diff !reference_old result.Seismic.p_old)

let test_seismic_versions_same_data () =
  let rows = 16 and cols = 16 in
  let machine = Ccc.machine config in
  let env = seismic_env rows cols in
  let p = Tutil.mixed_grid ~seed:7 ~rows ~cols in
  let p_old = Tutil.mixed_grid ~seed:8 ~rows ~cols in
  let rolled =
    Seismic.simulate ~version:Seismic.Rolled ~steps:4 ~c10:(-1.0) machine env
      ~p ~p_old
  in
  let unrolled =
    Seismic.simulate ~version:Seismic.Unrolled3 ~steps:4 ~c10:(-1.0) machine
      env ~p ~p_old
  in
  check_float "identical wavefields" 0.0
    (Grid.max_abs_diff rolled.Seismic.p unrolled.Seismic.p)

let test_seismic_unrolled_is_faster () =
  let est version =
    Stats.gflops
      (Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128 ~steps:100 config)
  in
  let rolled = est Seismic.Rolled and unrolled = est Seismic.Unrolled3 in
  check_bool "unrolled faster" true (unrolled > rolled);
  (* The paper's ratio is 1.28; ours should be in the same band. *)
  let ratio = unrolled /. rolled in
  check_bool "ratio in [1.1, 1.5]" true (ratio > 1.1 && ratio < 1.5)

let test_seismic_estimate_matches_simulate_stats () =
  let rows = 32 and cols = 32 in
  let machine = Ccc.machine config in
  let env = seismic_env rows cols in
  let p = Tutil.mixed_grid ~seed:9 ~rows ~cols in
  let result =
    Seismic.simulate ~steps:2 ~c10:(-1.0) machine env ~p ~p_old:(Grid.copy p)
  in
  let est =
    Seismic.estimate ~sub_rows:(rows / 4) ~sub_cols:(cols / 4) ~steps:2 config
  in
  check_int "compute cycles" est.Stats.compute_cycles
    result.Seismic.stats.Stats.compute_cycles;
  check_int "flops" est.Stats.useful_flops_per_iteration
    result.Seismic.stats.Stats.useful_flops_per_iteration

let test_seismic_gordon_bell_shape () =
  (* The headline reproduction: on the full tuned machine the unrolled
     loop clears 10 Gflops and the rolled loop lands near the paper's
     11.62 +- a documented residual. *)
  let production =
    Config.with_nodes ~rows:32 ~cols:64 (Config.tuned_runtime config)
  in
  let est version =
    Stats.gflops
      (Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128 ~steps:1000
         production)
  in
  check_bool "unrolled > 10 Gflops" true (est Seismic.Unrolled3 > 10.0);
  check_bool "rolled in the 8..13 band" true
    (est Seismic.Rolled > 8.0 && est Seismic.Rolled < 13.0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "baseline"
    [
      ( "passes",
        [
          tc "copy cost scales" test_copy_cost_scales;
          tc "reads increase cost" test_elementwise_reads_increase_cost;
          tc "front-end vs machine bound" test_frontend_bounded_switches_regimes;
          tc "zero shift free" test_shift_cost_zero_amount_free;
          tc "shift cost grows with distance" test_shift_cost_grows_with_distance;
        ] );
      ( "naive",
        [
          tc "data equals reference" test_naive_data_equals_reference;
          tc "much slower than compiled" test_naive_much_slower_than_compiled;
          tc "paper flop accounting" test_naive_counts_flops_like_the_paper;
          tc "implicit coefficient saves a pass"
            test_naive_implicit_coeff_skips_multiply_pass;
          tc "ragged shapes rejected" test_naive_rejects_ragged;
        ] );
      ( "fieldwise",
        [
          tc "slower than slicewise general code"
            test_fieldwise_slower_than_naive;
          tc "transpose surcharge" test_fieldwise_transpose_cost_positive;
        ] );
      ( "canned",
        [
          tc "menu membership" test_canned_menu_membership;
          tc "coefficient names ignored" test_canned_ignores_coefficient_names;
          tc "between naive and compiled" test_canned_between_naive_and_compiled;
          tc "off-menu fallback" test_canned_falls_back_off_menu;
        ] );
      ( "seismic",
        [
          tc "kernel shape" test_seismic_kernel_shape;
          tc "data matches reference recurrence" test_seismic_data_matches_reference;
          tc "rolled and unrolled agree on data" test_seismic_versions_same_data;
          tc "unrolled is faster" test_seismic_unrolled_is_faster;
          tc "estimate matches simulate" test_seismic_estimate_matches_simulate_stats;
          tc "Gordon Bell shape" test_seismic_gordon_bell_shape;
        ] );
    ]
