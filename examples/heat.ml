(* Heat diffusion with EOSHIFT boundaries: a fixed cold frame around a
   hot plate.

   The explicit scheme T' = T + alpha (T_N + T_S + T_E + T_W - 4 T) is
   the 5-point cross; written with EOSHIFT the off-edge neighbors read
   a fill temperature, giving Dirichlet-style boundaries — the other
   boundary semantics the front end accepts (the quickstart's CSHIFT
   wraps instead).  This example writes the kernel in the paper's
   version-1 Lisp surface syntax.

   dune exec examples/heat.exe *)

module Grid = Ccc.Grid

let rows = 32
let cols = 32
let alpha = 0.20
let steps = 120

let defstencil_source =
  "(defstencil heat (t1 t0 cn cw cc ce cs)\n\
  \  (single-float single-float)\n\
  \  (:= t1 (+ (* cn (eoshift t0 1 -1))\n\
  \            (* cw (eoshift t0 2 -1))\n\
  \            (* cc t0)\n\
  \            (* ce (eoshift t0 2 +1))\n\
  \            (* cs (eoshift t0 1 +1)))))"

let () =
  let config = Ccc.Config.default in
  let compiled =
    match Ccc.compile_defstencil config defstencil_source with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  print_endline "Compilation report:";
  print_endline (Ccc.report compiled);

  let machine = Ccc.machine config in
  let coeff v = Grid.constant ~rows ~cols v in
  (* A hot square in the middle of a cold plate. *)
  let initial =
    Grid.init ~rows ~cols (fun r c ->
        if abs (r - (rows / 2)) < 5 && abs (c - (cols / 2)) < 5 then 100.0
        else 0.0)
  in
  let temperature = ref initial in
  let total g = Grid.fold ( +. ) 0.0 g in
  Printf.printf "\ninitial heat %.1f, max %.1f\n" (total initial) 100.0;
  for step = 1 to steps do
    let env =
      [
        ("T0", !temperature);
        ("CN", coeff alpha); ("CW", coeff alpha);
        ("CC", coeff (1.0 -. (4.0 *. alpha)));
        ("CE", coeff alpha); ("CS", coeff alpha);
      ]
    in
    let { Ccc.Exec.output; stats } = Ccc.Exec.run machine compiled env in
    temperature := output;
    if step = 1 || step mod 40 = 0 then begin
      let hottest = Grid.fold Float.max neg_infinity output in
      Printf.printf
        "step %3d: total heat %8.1f, hottest %6.2f  (%.1f Mflops sustained)\n"
        step (total output) hottest (Ccc.Stats.mflops stats)
    end
  done;
  (* With EOSHIFT boundaries the frame is a heat sink: total energy
     decreases (CSHIFT wraparound would conserve it instead). *)
  Printf.printf
    "heat flows out through the end-off boundary: %.1f -> %.1f\n"
    (total initial) (total !temperature);

  (* Cross-check the final state against pure reference evaluation of
     the whole history. *)
  let reference = ref initial in
  for _ = 1 to steps do
    let env =
      [
        ("T0", !reference);
        ("CN", coeff alpha); ("CW", coeff alpha);
        ("CC", coeff (1.0 -. (4.0 *. alpha)));
        ("CE", coeff alpha); ("CS", coeff alpha);
      ]
    in
    reference := Ccc.Reference.apply compiled.Ccc.Compile.pattern env
  done;
  Printf.printf "max |machine - reference| over %d steps = %.3e\n" steps
    (Grid.max_abs_diff !reference !temperature)
