(* Image convolution: a separable 3x3 Gaussian blur as a single
   9-point box stencil, the kind of regular convolution the compiler's
   introduction motivates alongside finite differences.

   Uses the bare-assignment front end with scalar coefficients (the
   run time broadcasts them into coefficient streams), runs one pass
   in cycle-accurate mode, and reports how the width-8 multistencil
   cuts the loads per point (the section 5.3 argument).

   dune exec examples/blur.exe *)

module Grid = Ccc.Grid

let rows = 48
let cols = 48

(* 3x3 binomial kernel 1/16 [1 2 1; 2 4 2; 1 2 1] written as one
   Fortran assignment. *)
let statement =
  "BLURRED = 0.0625 * CSHIFT(CSHIFT(IMG, 1, -1), 2, -1) &\n\
  \        + 0.125  * CSHIFT(IMG, 1, -1) &\n\
  \        + 0.0625 * CSHIFT(CSHIFT(IMG, 1, -1), 2, +1) &\n\
  \        + 0.125  * CSHIFT(IMG, 2, -1) &\n\
  \        + 0.25   * IMG &\n\
  \        + 0.125  * CSHIFT(IMG, 2, +1) &\n\
  \        + 0.0625 * CSHIFT(CSHIFT(IMG, 1, +1), 2, -1) &\n\
  \        + 0.125  * CSHIFT(IMG, 1, +1) &\n\
  \        + 0.0625 * CSHIFT(CSHIFT(IMG, 1, +1), 2, +1)"

(* A synthetic test card: sharp vertical bars plus noise. *)
let test_image () =
  Grid.init ~rows ~cols (fun r c ->
      let bars = if c / 6 mod 2 = 0 then 1.0 else 0.0 in
      let noise =
        let h = (r * 131) lxor (c * 31) in
        float_of_int (h land 15) /. 60.0
      in
      bars +. noise)

(* Total variation along rows: a sharpness measure the blur should
   reduce. *)
let total_variation g =
  let tv = ref 0.0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 2 do
      tv := !tv +. Float.abs (Grid.get g r (c + 1) -. Grid.get g r c)
    done
  done;
  !tv

let () =
  let config = Ccc.Config.default in
  let compiled =
    match Ccc.compile_fortran_statement config statement with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  print_endline "Compilation report:";
  print_endline (Ccc.report compiled);

  (* The memory-bandwidth argument of section 5.3: loads per point
     with and without the multistencil. *)
  let p = compiled.Ccc.Compile.pattern in
  let naive_loads = Ccc.Pattern.tap_count p in
  let ms = Ccc.Multistencil.make p ~width:8 in
  Printf.printf
    "\nloads per 8 results: naive %d, width-8 multistencil %d (%.1fx saved)\n"
    (8 * naive_loads)
    (Ccc.Multistencil.position_count ms)
    (float_of_int (8 * naive_loads)
    /. float_of_int (Ccc.Multistencil.position_count ms));

  let img = test_image () in
  let { Ccc.Exec.output = blurred; stats } =
    Ccc.apply ~mode:Ccc.Exec.Simulate config compiled [ ("IMG", img) ]
  in
  Format.printf "@.%a@." Ccc.Stats.pp stats;
  Printf.printf "\ntotal variation: %.1f -> %.1f (smoother)\n"
    (total_variation img) (total_variation blurred);

  (* Mass conservation: the kernel sums to 1, and CSHIFT wraps, so the
     blur preserves the image's mean exactly. *)
  let mean g = Grid.fold ( +. ) 0.0 g /. float_of_int (rows * cols) in
  Printf.printf "mean preserved: %.6f -> %.6f\n" (mean img) (mean blurred);

  let expected = Ccc.Reference.apply p [ ("IMG", img) ] in
  Printf.printf "max |machine - reference| = %.3e\n"
    (Grid.max_abs_diff expected blurred)
