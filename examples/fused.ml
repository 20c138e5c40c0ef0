(* The ten-term seismic statement compiled as ONE stencil pattern —
   the paper's future work ("future versions of the compiler should be
   able to handle all ten terms as one stencil pattern"), running a
   real wave-propagation time loop through the fused plan.

   Compare examples/seismic.ml, which uses the 1990 organization the
   paper actually measured (nine-term stencil + separate tenth-term
   pass + time-level rotation).

   dune exec examples/fused.exe *)

module Grid = Ccc.Grid

let rows = 64
let cols = 64
let steps = 40
let dt = 0.05
let h = 1.0
let velocity r _ = if r < rows / 2 then 1.0 else 1.5

(* All ten terms in one Fortran statement.  The tenth term's data side
   is marked with a zero shift so the recognizer knows POLD is a
   source array, not a coefficient. *)
let statement =
  "PNEW = C1 * CSHIFT(P, 1, -2) + C2 * CSHIFT(P, 1, -1) &\n\
  \     + C3 * CSHIFT(P, 2, -2) + C4 * CSHIFT(P, 2, -1) &\n\
  \     + C5 * P &\n\
  \     + C6 * CSHIFT(P, 2, +1) + C7 * CSHIFT(P, 2, +2) &\n\
  \     + C8 * CSHIFT(P, 1, +1) + C9 * CSHIFT(P, 1, +2) &\n\
  \     + C10 * CSHIFT(POLD, 1, 0)"

let coefficient_arrays () =
  let scale r c = velocity r c ** 2.0 *. (dt ** 2.0) /. (h ** 2.0) in
  let axis_far = -1.0 /. 12.0 and axis_near = 4.0 /. 3.0 in
  let center = 2.0 *. (-5.0 /. 2.0) in
  (* Row-major tap order of source P: (-2,0) (-1,0) (0,-2) (0,-1)
     (0,0) (0,1) (0,2) (1,0) (2,0); C10 multiplies POLD. *)
  let weights =
    [ axis_far; axis_near; axis_far; axis_near; center; axis_near; axis_far;
      axis_near; axis_far ]
  in
  List.mapi
    (fun i w ->
      ( Printf.sprintf "C%d" (i + 1),
        Grid.init ~rows ~cols (fun r c ->
            if i = 4 then 2.0 +. (scale r c *. w) else scale r c *. w) ))
    weights
  @ [ ("C10", Grid.constant ~rows ~cols (-1.0)) ]

let initial_pressure () =
  Grid.init ~rows ~cols (fun r c ->
      let dr = float_of_int (r - 16) and dc = float_of_int (c - 32) in
      exp (-.((dr *. dr) +. (dc *. dc)) /. 12.0))

let () =
  let config = Ccc.Config.default in
  let fused =
    match Ccc.compile_fortran_statement_multi config statement with
    | Ok f -> f
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  print_endline "Fused compilation report:";
  print_endline (Ccc.fused_report fused);

  let machine = Ccc.machine config in
  let arena = Ccc.Exec.Arena.create machine in
  let coeffs = coefficient_arrays () in
  let p = ref (initial_pressure ()) in
  let p_old = ref (Grid.copy !p) in
  let stats = ref None in
  for _ = 1 to steps do
    let env = ("P", !p) :: ("POLD", !p_old) :: coeffs in
    let { Ccc.Exec.output; stats = s } =
      Ccc.Exec.single (Ccc.Exec.exec arena [ Ccc.Exec.fused fused ] env)
    in
    if !stats = None then stats := Some s;
    p_old := !p;
    p := output
  done;
  let energy g = Grid.fold (fun acc v -> acc +. (v *. v)) 0.0 g in
  Printf.printf "\nwavefield energy after %d steps: %.4f\n" steps (energy !p);

  (* Cross-check the whole history against the 1990 two-pass
     organization of examples/seismic.ml. *)
  let reference =
    Ccc.Seismic.simulate ~steps ~c10:(-1.0) machine
      (List.filter (fun (n, _) -> n <> "C10") coeffs)
      ~p:(initial_pressure ())
      ~p_old:(initial_pressure ())
  in
  Printf.printf "fused = two-pass organization: max |diff| = %.3e\n"
    (Grid.max_abs_diff reference.Ccc.Seismic.p !p);

  (* What the fusion is worth at production scale. *)
  let production =
    Ccc.Config.with_nodes ~rows:32 ~cols:64 (Ccc.Config.tuned_runtime config)
  in
  let fused_prod =
    match Ccc.compile_fortran_statement_multi production statement with
    | Ok f -> f
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let fused_stats =
    Ccc.Exec.estimate ~sub_rows:64 ~sub_cols:128 ~iterations:1000 production
      [ Ccc.Exec.fused fused_prod ]
  in
  let two_pass =
    Ccc.Seismic.estimate ~version:Ccc.Seismic.Unrolled3 ~sub_rows:64
      ~sub_cols:128 ~steps:1000 production
  in
  Printf.printf
    "2048 nodes, 64x128/node: two-pass %.2f Gflops, fused %.2f Gflops (+%.0f%%)\n"
    (Ccc.Stats.gflops two_pass)
    (Ccc.Stats.gflops fused_stats)
    (100.0
    *. ((Ccc.Stats.gflops fused_stats /. Ccc.Stats.gflops two_pass) -. 1.0))
