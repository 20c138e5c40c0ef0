(* Jacobi relaxation for the Poisson equation  -laplace(u) = f  with
   fixed (zero) boundary values: the classic iterative PDE kernel the
   stencil compiler class serves.

   Each sweep is the 5-point update
     u' = 0.25 (u_N + u_S + u_E + u_W) + 0.25 h^2 f
   i.e. a 4-tap EOSHIFT stencil plus a bias term -- exercising the
   pinned-1.0-register path (the bias is added by multiplying the
   pinned 1.0, section 5.3).  The loop runs to convergence and checks
   the residual.

   dune exec examples/poisson.exe *)

module Grid = Ccc.Grid

let n = 32
let h = 1.0 /. float_of_int (n + 1)
let max_sweeps = 600
let tolerance = 1e-3

(* A smooth source term with an analytic-ish bump in the middle. *)
let source_term =
  lazy
    (Grid.init ~rows:n ~cols:n (fun r c ->
         let x = float_of_int (r + 1) *. h and y = float_of_int (c + 1) *. h in
         8.0 *. sin (Float.pi *. x) *. sin (Float.pi *. y)))

let statement =
  "U1 = CN * EOSHIFT(U, 1, -1) &\n\
  \   + CW * EOSHIFT(U, 2, -1) &\n\
  \   + CE * EOSHIFT(U, 2, +1) &\n\
  \   + CS * EOSHIFT(U, 1, +1) &\n\
  \   + F4"

(* Residual of the discrete equation: max | 4u - neighbors - h^2 f |. *)
let residual u =
  let f = Lazy.force source_term in
  let worst = ref 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let nb dr dc = Grid.get_endoff u ~fill:0.0 (r + dr) (c + dc) in
      let v =
        (4.0 *. Grid.get u r c)
        -. (nb (-1) 0 +. nb 1 0 +. nb 0 (-1) +. nb 0 1)
        -. (h *. h *. Grid.get f r c)
      in
      if Float.abs v > !worst then worst := Float.abs v
    done
  done;
  !worst

let () =
  let config = Ccc.Config.default in
  let compiled =
    match Ccc.compile_fortran_statement config statement with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  print_endline "Compilation report (4 taps + bias term):";
  print_endline (Ccc.report compiled);

  let machine = Ccc.machine config in
  let quarter = Grid.constant ~rows:n ~cols:n 0.25 in
  let f_term =
    let f = Lazy.force source_term in
    Grid.init ~rows:n ~cols:n (fun r c -> 0.25 *. h *. h *. Grid.get f r c)
  in
  let u = ref (Grid.create ~rows:n ~cols:n) in
  let sweeps = ref 0 in
  let continue = ref true in
  while !continue && !sweeps < max_sweeps do
    let env =
      [
        ("U", !u);
        ("CN", quarter); ("CW", quarter); ("CE", quarter); ("CS", quarter);
        ("F4", f_term);
      ]
    in
    let { Ccc.Exec.output; _ } = Ccc.Exec.run machine compiled env in
    u := output;
    incr sweeps;
    if !sweeps mod 100 = 0 || residual !u < tolerance then begin
      Printf.printf "sweep %4d: residual %.3e\n" !sweeps (residual !u);
      if residual !u < tolerance then continue := false
    end
  done;
  let final = residual !u in
  if final < tolerance then
    Printf.printf "converged in %d sweeps (residual %.3e < %g)\n" !sweeps
      final tolerance
  else
    Printf.printf "stopped after %d sweeps, residual %.3e (Jacobi is slow;\n\
                   the point here is the stencil, not the solver)\n"
      !sweeps final;

  (* The solution of -lap u = 8 pi^-2-ish bump peaks mid-plate. *)
  let center = Grid.get !u (n / 2) (n / 2) in
  Printf.printf "u at the center: %.5f (positive, smooth peak)\n" center;
  assert (center > 0.0);

  (* Performance view: one sweep at production scale. *)
  let stats =
    Ccc.Exec.estimate ~iterations:100 ~sub_rows:128 ~sub_cols:128 config
      [ Ccc.Exec.compiled compiled ]
  in
  Printf.printf
    "at 128x128 per node: %.1f Mflops on 16 nodes, %.2f Gflops on 2048\n"
    (Ccc.Stats.mflops stats)
    (Ccc.Stats.extrapolate stats ~nodes:2048)
