(* Quickstart: compile the paper's 5-point cross from Fortran source,
   run it on the simulated 16-node CM-2, and check the result against
   direct evaluation.

   dune exec examples/quickstart.exe *)

let fortran_source =
  "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n\
   REAL, ARRAY(:,:) :: R, X, C1, C2, C3, C4, C5\n\
   R = C1 * CSHIFT(X, 1, -1) &\n\
   \  + C2 * CSHIFT(X, 2, -1) &\n\
   \  + C3 * X &\n\
   \  + C4 * CSHIFT(X, 2, +1) &\n\
   \  + C5 * CSHIFT(X, 1, +1)\n\
   END\n"

let () =
  let config = Ccc.Config.default in

  (* 1. Compile: parse, recognize the stencil, build the multistencil
     plans for widths 8/4/2/1. *)
  let compiled = Ccc.compile_fortran_exn config fortran_source in
  print_endline "Compilation report:";
  print_endline (Ccc.report compiled);

  (* 2. Bind the arrays.  All arrays share one shape; it must divide
     over the 4x4 node grid. *)
  let rows = 64 and cols = 64 in
  let x =
    Ccc.Grid.init ~rows ~cols (fun r c ->
        sin (float_of_int r /. 5.0) +. cos (float_of_int c /. 7.0))
  in
  let coeff v = Ccc.Grid.constant ~rows ~cols v in
  let env =
    [
      ("X", x);
      ("C1", coeff 0.25); ("C2", coeff 0.25);
      ("C3", coeff (-1.0));
      ("C4", coeff 0.25); ("C5", coeff 0.25);
    ]
  in

  (* 3. Run on the simulated machine (cycle-accurate mode). *)
  let { Ccc.Exec.output; stats } =
    Ccc.apply ~mode:Ccc.Exec.Simulate config compiled env
  in
  Format.printf "@.Run statistics:@.%a@." Ccc.Stats.pp stats;

  (* 4. Verify against the reference evaluator. *)
  let expected = Ccc.Reference.apply compiled.Ccc.Compile.pattern env in
  Printf.printf "max |simulated - reference| = %.3e\n"
    (Ccc.Grid.max_abs_diff expected output);

  (* 5. The paper's headline: extrapolate a production-size run to the
     full 2,048-node machine. *)
  let production =
    Ccc.Exec.estimate ~iterations:100 ~sub_rows:256 ~sub_cols:256 config
      [ Ccc.Exec.compiled compiled ]
  in
  Printf.printf
    "at 256x256 per node, 100 iterations: %.1f Mflops on 16 nodes, %.2f \
     Gflops extrapolated to 2048 nodes\n"
    (Ccc.Stats.mflops production)
    (Ccc.Stats.extrapolate production ~nodes:2048)
