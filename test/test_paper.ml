(* The reproduction itself, as a test suite: the DESIGN.md group
   reconstruction must be arithmetically consistent with the published
   rows, and the frozen machine model must stay within the error bands
   EXPERIMENTS.md documents.  If a model change drifts the Table-1 fit
   or the Gordon Bell shape, this suite fails before anyone re-reads
   the bench output. *)

module Paper_data = Ccc_paper_data.Paper_data
module Config = Ccc.Config
module Exec = Ccc.Exec
module Stats = Ccc.Stats
module Pattern = Ccc.Pattern

let check_bool = Alcotest.(check bool)

let compiled_cache = Hashtbl.create 8

let compiled_for name =
  match Hashtbl.find_opt compiled_cache name with
  | Some c -> c
  | None ->
      let c = Tutil.compile_exn (List.assoc name (Pattern.gallery ())) in
      Hashtbl.add compiled_cache name c;
      c

let model_mflops (row : Paper_data.row) =
  let config =
    if row.Paper_data.tuned then Config.tuned_runtime Config.default
    else Config.default
  in
  Stats.mflops
    (Exec.estimate ~iterations:row.Paper_data.iterations
       ~sub_rows:row.Paper_data.sub_rows ~sub_cols:row.Paper_data.sub_cols
       config
       [ Exec.compiled (compiled_for row.Paper_data.pattern) ])

(* ------------------------------------------------------------------ *)
(* The reconstruction argument of DESIGN.md section 2. *)

let test_flop_accounting_identifies_groups () =
  (* For every non-suspect row, Mflops x elapsed seconds must equal
     iterations x 16 nodes x subgrid points x the assigned pattern's
     flops per point, within the table's rounding (the published
     Mflops have 3 significant digits). *)
  List.iter
    (fun (row : Paper_data.row) ->
      if not row.Paper_data.suspect then begin
        let flops_measured = row.Paper_data.mflops *. 1e6 *. row.Paper_data.elapsed_s in
        let points =
          float_of_int
            (row.Paper_data.iterations * 16 * row.Paper_data.sub_rows
           * row.Paper_data.sub_cols)
        in
        let per_point = flops_measured /. points in
        let assigned =
          float_of_int
            (Pattern.useful_flops_per_point
               (List.assoc row.Paper_data.pattern (Pattern.gallery ())))
        in
        let err = Float.abs (per_point -. assigned) /. assigned in
        if err > 0.01 then
          Alcotest.failf "%s %dx%d: %.2f flops/point vs assigned %.0f"
            row.Paper_data.pattern row.Paper_data.sub_rows
            row.Paper_data.sub_cols per_point assigned
      end)
    Paper_data.table1

let test_suspect_row_is_really_inconsistent () =
  (* Row 1's numbers do not satisfy the identity above: that is why it
     is excluded from scoring. *)
  let row = List.hd Paper_data.table1 in
  check_bool "marked suspect" true row.Paper_data.suspect;
  let per_point =
    row.Paper_data.mflops *. 1e6 *. row.Paper_data.elapsed_s
    /. float_of_int
         (row.Paper_data.iterations * 16 * row.Paper_data.sub_rows
        * row.Paper_data.sub_cols)
  in
  check_bool "inconsistent with 9 flops/point" true
    (Float.abs (per_point -. 9.0) /. 9.0 > 0.2)

let test_gordon_bell_rows_imply_38_flops () =
  List.iter
    (fun (row : Paper_data.gordon_bell_row) ->
      let per_point =
        row.Paper_data.gb_gflops *. 1e9 *. row.Paper_data.gb_elapsed_s
        /. float_of_int (row.Paper_data.gb_iterations * 2048 * 64 * 128)
      in
      check_bool
        (Printf.sprintf "%s implies ~38 flops/point" row.Paper_data.label)
        true
        (Float.abs (per_point -. 38.0) < 0.5))
    Paper_data.gordon_bell

(* ------------------------------------------------------------------ *)
(* The frozen model stays inside its documented error bands. *)

let test_table1_residuals_within_bands () =
  List.iter
    (fun (row : Paper_data.row) ->
      if not row.Paper_data.suspect then begin
        let m = model_mflops row in
        let err = (m -. row.Paper_data.mflops) /. row.Paper_data.mflops in
        let band = if row.Paper_data.tuned then 0.30 else 0.20 in
        if Float.abs err > band then
          Alcotest.failf "%s%s %dx%d: model %.1f vs paper %.1f (%.0f%%)"
            row.Paper_data.pattern
            (if row.Paper_data.tuned then "*" else "")
            row.Paper_data.sub_rows row.Paper_data.sub_cols m
            row.Paper_data.mflops (100.0 *. err)
      end)
    Paper_data.table1

let test_table1_shape_claims () =
  let at pattern sub_rows sub_cols tuned =
    model_mflops
      {
        Paper_data.pattern;
        tuned;
        sub_rows;
        sub_cols;
        iterations = 100;
        elapsed_s = 0.0;
        mflops = 0.0;
        extrapolated_gflops = 0.0;
        suspect = false;
      }
  in
  (* Rates rise with subgrid size within each group. *)
  List.iter
    (fun p ->
      check_bool (p ^ " amortizes") true
        (at p 256 256 false > at p 64 64 false))
    [ "square9"; "cross9"; "diamond13" ];
  (* square9 (width 8) beats cross9 (width-4 fallback) at every size. *)
  List.iter
    (fun (r, c) ->
      check_bool "square9 > cross9" true (at "square9" r c false > at "cross9" r c false))
    [ (64, 64); (128, 128); (256, 256) ];
  (* The tuned runtime clears the 10-Gflop headline, extrapolated. *)
  check_bool "headline" true
    (at "diamond13" 256 256 true *. 128.0 /. 1000.0
    > Paper_data.headline_gflops)

let test_gordon_bell_shape () =
  let config =
    Config.with_nodes ~rows:32 ~cols:64 (Config.tuned_runtime Config.default)
  in
  let est version =
    Stats.gflops
      (Ccc.Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128 ~steps:1000
         config)
  in
  let rolled = est Ccc.Seismic.Rolled in
  let unrolled = est Ccc.Seismic.Unrolled3 in
  let paper_ratio = 14.88 /. 11.62 in
  let model_ratio = unrolled /. rolled in
  check_bool "rolled < unrolled" true (rolled < unrolled);
  check_bool "ratio within 0.15 of the paper's 1.28" true
    (Float.abs (model_ratio -. paper_ratio) < 0.15);
  check_bool "unrolled clears 10 Gflops" true (unrolled > 10.0);
  check_bool "absolute rates within the documented -25% band" true
    (rolled > 11.62 *. 0.75 && unrolled > 14.88 *. 0.75)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "paper"
    [
      ( "reconstruction",
        [
          tc "flop accounting identifies the pattern groups"
            test_flop_accounting_identifies_groups;
          tc "row 1 is internally inconsistent"
            test_suspect_row_is_really_inconsistent;
          tc "Gordon Bell rows imply 38 flops/point"
            test_gordon_bell_rows_imply_38_flops;
        ] );
      ( "model",
        [
          tc "Table 1 residuals within documented bands"
            test_table1_residuals_within_bands;
          tc "Table 1 shape claims" test_table1_shape_claims;
          tc "Gordon Bell shape" test_gordon_bell_shape;
        ] );
    ]
