(* Calibration of the machine-model cost constants against the
   paper's published rows (a development tool; the chosen constants
   are frozen in Cm2.Config.default and documented there).

   The compiled plans depend only on the architectural constants
   (register file, latencies), not on the cost constants being
   searched, so each pattern is compiled once and re-priced many
   times. *)

module Paper_data = Ccc_paper_data.Paper_data
module Config = Ccc.Config
module Exec = Ccc.Exec
module Stats = Ccc.Stats
module Pattern = Ccc.Pattern

let patterns =
  lazy
    (List.filter_map
       (fun name ->
         match
           Ccc.compile_pattern Config.default
             (List.assoc name (Pattern.gallery ()))
         with
         | Ok compiled -> Some (name, compiled)
         | Error _ -> None)
       [ "cross5"; "square9"; "cross9"; "diamond13" ])

let row_mflops config (row : Paper_data.row) =
  let compiled = List.assoc row.Paper_data.pattern (Lazy.force patterns) in
  let config = if row.Paper_data.tuned then Config.tuned_runtime config else config in
  let stats =
    Exec.estimate ~iterations:row.Paper_data.iterations
      ~sub_rows:row.Paper_data.sub_rows ~sub_cols:row.Paper_data.sub_cols
      config [ Exec.compiled compiled ]
  in
  Stats.mflops stats

let gb_gflops config (row : Paper_data.gordon_bell_row) =
  (* The production Gordon Bell code ran the hand-optimized run-time
     path (the December library rows are that work arriving in the
     released library), so the full-machine rows use the tuned
     configuration. *)
  let full = Config.with_nodes ~rows:32 ~cols:64 (Config.tuned_runtime config) in
  let version =
    if row.Paper_data.rolled then Ccc.Seismic.Rolled else Ccc.Seismic.Unrolled3
  in
  let stats =
    Ccc.Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128
      ~steps:row.Paper_data.gb_iterations full
  in
  Stats.gflops stats

let score config =
  let rel a b = (a -. b) /. b in
  let table_err =
    List.fold_left
      (fun acc row ->
        if row.Paper_data.suspect then acc
        else
          let e = rel (row_mflops config row) row.Paper_data.mflops in
          acc +. (e *. e))
      0.0 Paper_data.table1
  in
  let gb_err =
    List.fold_left
      (fun acc row ->
        let e = rel (gb_gflops config row) row.Paper_data.gb_gflops in
        acc +. (e *. e))
      0.0 Paper_data.gordon_bell
  in
  table_err +. gb_err

let search () =
  let base = Config.default in
  let best = ref (infinity, base) in
  let candidates = ref 0 in
  List.iter
    (fun memory_op_cycles ->
      List.iter
        (fun line_overhead_cycles ->
          List.iter
            (fun fe_call_us ->
              List.iter
                (fun fe_dispatch_us ->
                  List.iter
                    (fun frontend_word_cycles ->
                      incr candidates;
                      let config =
                        {
                          base with
                          Config.memory_op_cycles;
                          line_overhead_cycles;
                          frontend_call_overhead_s = fe_call_us *. 1e-6;
                          frontend_dispatch_s = fe_dispatch_us *. 1e-6;
                          frontend_word_cycles;
                        }
                      in
                      let s = score config in
                      if s < fst !best then best := (s, config))
                    [ 1.0; 1.2; 1.4; 1.5; 1.6; 1.7; 1.8; 1.9; 2.0; 2.2 ])
                [ 0.; 50.; 100.; 150.; 200.; 300. ])
            [ 0.; 250.; 500.; 1000.; 1500.; 2000.; 3000. ])
        [ 0; 4; 8; 12; 16; 24 ])
    [ 1; 2 ];
  let s, config = !best in
  Printf.printf "searched %d candidates; best rms error %.4f\n" !candidates
    (sqrt (s /. 21.0));
  Printf.printf
    "memory_op=%d line_overhead=%d fe_call=%.0fus fe_dispatch=%.0fus \
     fe_word=%.2f cyc\n"
    config.Config.memory_op_cycles config.Config.line_overhead_cycles
    (config.Config.frontend_call_overhead_s *. 1e6)
    (config.Config.frontend_dispatch_s *. 1e6)
    config.Config.frontend_word_cycles;
  config

let report config =
  Printf.printf "\n%-10s %-9s %5s  %8s %8s  %7s\n" "pattern" "subgrid" "iters"
    "paper" "model" "err%";
  List.iter
    (fun (row : Paper_data.row) ->
      let m = row_mflops config row in
      Printf.printf "%-10s %4dx%-4d %5d  %8.1f %8.1f  %+6.1f%%%s\n"
        (row.Paper_data.pattern ^ if row.Paper_data.tuned then "*" else "")
        row.Paper_data.sub_rows row.Paper_data.sub_cols
        row.Paper_data.iterations row.Paper_data.mflops m
        (100.0 *. (m -. row.Paper_data.mflops) /. row.Paper_data.mflops)
        (if row.Paper_data.suspect then "  (suspect row)" else ""))
    Paper_data.table1;
  List.iter
    (fun (row : Paper_data.gordon_bell_row) ->
      let g = gb_gflops config row in
      Printf.printf "%-26s %8.2f %8.2f  %+6.1f%%\n" row.Paper_data.label
        row.Paper_data.gb_gflops g
        (100.0 *. (g -. row.Paper_data.gb_gflops) /. row.Paper_data.gb_gflops))
    Paper_data.gordon_bell

let () =
  let config =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "--default" then
      Config.default
    else search ()
  in
  report config
