(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 7), the design-choice ablations called
   out in DESIGN.md, the baseline comparisons, and a set of host-side
   Bechamel micro-benchmarks.

   Usage: main.exe
     [table1|gordon-bell|figures|ablation|baselines|sweep|service|scaling|obs|race|serve-obs|fft|bechamel]...
     [--json FILE]
   With no section arguments, everything runs in order; --json makes
   the scaling section also write machine-readable results. *)

module Paper_data = Ccc_paper_data.Paper_data
module Config = Ccc.Config
module Exec = Ccc.Exec
module Stats = Ccc.Stats
module Pattern = Ccc.Pattern

let line () = print_endline (String.make 78 '-')

let heading title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

let compile_gallery config names =
  List.map
    (fun name ->
      match Ccc.compile_pattern config (List.assoc name (Pattern.gallery ())) with
      | Ok compiled -> (name, compiled)
      | Error e -> failwith (name ^ ": " ^ Ccc.Outcome.reject_to_string e))
    names

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 () =
  heading
    "TABLE 1 -- stencil timings, 16-node machine at 7 MHz (paper section 7)\n\
     model columns are this reproduction's simulated machine; '*' rows ran\n\
     the 7 Dec 90 strength-reduced run-time library";
  let compiled =
    compile_gallery Config.default [ "cross5"; "square9"; "cross9"; "diamond13" ]
  in
  Printf.printf "%-11s %-9s %6s | %9s %8s %8s | %9s %8s %8s\n" "pattern"
    "subgrid" "iters" "paper(s)" "paperMF" "paperGF" "model(s)" "modelMF"
    "modelGF";
  List.iter
    (fun (row : Paper_data.row) ->
      let config =
        if row.Paper_data.tuned then Config.tuned_runtime Config.default
        else Config.default
      in
      let stats =
        Exec.estimate ~iterations:row.Paper_data.iterations
          ~sub_rows:row.Paper_data.sub_rows ~sub_cols:row.Paper_data.sub_cols
          config
          [ Exec.compiled (List.assoc row.Paper_data.pattern compiled) ]
      in
      Printf.printf
        "%-11s %4dx%-4d %6d | %9.2f %8.1f %8.2f | %9.2f %8.1f %8.2f%s\n"
        (row.Paper_data.pattern ^ if row.Paper_data.tuned then "*" else "")
        row.Paper_data.sub_rows row.Paper_data.sub_cols
        row.Paper_data.iterations row.Paper_data.elapsed_s
        row.Paper_data.mflops row.Paper_data.extrapolated_gflops
        (Stats.elapsed_s stats) (Stats.mflops stats)
        (Stats.extrapolate stats ~nodes:2048)
        (if row.Paper_data.suspect then "  (paper row internally inconsistent)"
         else ""))
    Paper_data.table1;
  print_newline ();
  Printf.printf
    "shape checks: rates rise with subgrid size; square9 (width 8) beats\n\
     cross9 (width-4 fallback); diamond13 sits between; the Dec-90 tuned\n\
     library clears %g Gflops extrapolated, the paper's headline.\n"
    Paper_data.headline_gflops

(* ------------------------------------------------------------------ *)
(* Gordon Bell production runs *)

let gb_config () =
  Config.with_nodes ~rows:32 ~cols:64 (Config.tuned_runtime Config.default)

let gordon_bell () =
  heading
    "GORDON BELL RUNS -- seismic kernel, 2048 nodes, 64x128 subgrid per node\n\
     (paper section 7; the production code ran the hand-tuned run-time path)";
  Printf.printf "%-34s %6s | %10s %7s | %10s %7s\n" "version" "iters"
    "paper(s)" "paperGF" "model(s)" "modelGF";
  List.iter
    (fun (row : Paper_data.gordon_bell_row) ->
      let version =
        if row.Paper_data.rolled then Ccc.Seismic.Rolled
        else Ccc.Seismic.Unrolled3
      in
      let stats =
        Ccc.Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128
          ~steps:row.Paper_data.gb_iterations (gb_config ())
      in
      Printf.printf "%-34s %6d | %10.2f %7.2f | %10.2f %7.2f\n"
        row.Paper_data.label row.Paper_data.gb_iterations
        row.Paper_data.gb_elapsed_s row.Paper_data.gb_gflops
        (Stats.elapsed_s stats) (Stats.gflops stats))
    Paper_data.gordon_bell;
  let est version =
    Stats.gflops
      (Ccc.Seismic.estimate ~version ~sub_rows:64 ~sub_cols:128 ~steps:1000
         (gb_config ()))
  in
  let rolled = List.nth Paper_data.gordon_bell 0 in
  let unrolled = List.nth Paper_data.gordon_bell 2 in
  Printf.printf
    "\nunrolled-by-3 over rolled: paper %.2fx, model %.2fx (the two copy\n\
     assignments the unrolling removes).\n"
    (unrolled.Paper_data.gb_gflops /. rolled.Paper_data.gb_gflops)
    (est Ccc.Seismic.Unrolled3 /. est Ccc.Seismic.Rolled);
  print_endline
    "note: the paper's own numbers imply 38 useful flops per point per\n\
     iteration (gflops x seconds / points / iterations); our kernel performs\n\
     the 10-term statement's 19, so the model's elapsed column is roughly\n\
     half the paper's for the same iteration count while rates remain\n\
     comparable -- see EXPERIMENTS.md.";

  heading
    "GB-FUSED -- the paper's future work, implemented: 'future versions of\n\
     the compiler should be able to handle all ten terms as one stencil\n\
     pattern' (section 7).  The ten-term statement compiled fused vs the\n\
     1990 organization (9-term stencil + separate tenth-term pass).";
  let fused_statement =
    "PNEW = C1 * CSHIFT(P, 1, -2) + C2 * CSHIFT(P, 1, -1) \
     + C3 * CSHIFT(P, 2, -2) + C4 * CSHIFT(P, 2, -1) + C5 * P \
     + C6 * CSHIFT(P, 2, +1) + C7 * CSHIFT(P, 2, +2) \
     + C8 * CSHIFT(P, 1, +1) + C9 * CSHIFT(P, 1, +2) \
     + C10 * CSHIFT(POLD, 1, 0)"
  in
  (match
     Ccc.compile_fortran_statement_multi (gb_config ()) fused_statement
   with
  | Error e -> print_endline (Ccc.Outcome.reject_to_string e)
  | Ok fused ->
      let fused_stats =
        Exec.estimate ~sub_rows:64 ~sub_cols:128 ~iterations:38001
          (gb_config ()) [ Exec.fused fused ]
      in
      let unfused =
        Ccc.Seismic.estimate ~version:Ccc.Seismic.Unrolled3 ~sub_rows:64
          ~sub_cols:128 ~steps:38001 (gb_config ())
      in
      Printf.printf
        "  1990 unrolled (stencil + separate tenth pass): %6.2f Gflops\n\
        \  fused ten-term statement                      : %6.2f Gflops \
         (+%.0f%%)\n"
        (Stats.gflops unfused) (Stats.gflops fused_stats)
        (100.0 *. ((Stats.gflops fused_stats /. Stats.gflops unfused) -. 1.0)))

(* ------------------------------------------------------------------ *)
(* Figures *)

let figures () =
  heading "FIGURE 1 -- division of a 256x256 array among 16 nodes";
  let machine = Ccc.machine Config.default in
  let d = Ccc.Dist.create machine ~sub_rows:64 ~sub_cols:64 in
  print_string (Ccc.Dist.read_description d);

  heading "SECTION 2 -- stencil patterns (o/@ = result position, # = tap)";
  List.iter
    (fun (name, p) ->
      Printf.printf "%s (%d taps, %d flops/point, borders %s):\n%s\n" name
        (Pattern.tap_count p)
        (Pattern.useful_flops_per_point p)
        (Ccc.Render.borders p) (Ccc.Render.pattern p))
    (Pattern.gallery ());

  heading
    "SECTION 5.3 -- multistencils (A = tagged accumulator positions)\n\
     cross5 at width 8 spans the paper's 26 positions";
  let ms8 = Ccc.Multistencil.make (Pattern.cross5 ()) ~width:8 in
  Printf.printf "cross5 width 8: %d positions\n%s\n"
    (Ccc.Multistencil.position_count ms8)
    (Ccc.Render.multistencil ms8);
  let msd = Ccc.Multistencil.make (Pattern.diamond13 ()) ~width:4 in
  Printf.printf
    "diamond13 width 4: %d positions, column profile %s (paper: 1 3 5 5 5 5 3 1)\n%s\n"
    (Ccc.Multistencil.position_count msd)
    (Ccc.Render.column_profile msd)
    (Ccc.Render.multistencil msd);

  heading
    "SECTION 5.4 -- ring buffers and unrolling (diamond13, width 4)\n\
     LCM of the ring sizes gives the register-access unroll factor";
  (match Ccc.compile_pattern Config.default (Pattern.diamond13 ()) with
  | Error e -> print_endline (Ccc.Outcome.reject_to_string e)
  | Ok compiled ->
      let plan = Ccc.Compile.widest compiled in
      List.iter
        (fun (r : Ccc.Plan.ring) ->
          Printf.printf "  column %+d: ring of %d register(s) starting at r%d\n"
            r.Ccc.Plan.dcol r.Ccc.Plan.size r.Ccc.Plan.base)
        plan.Ccc.Plan.rings;
      Printf.printf "  unroll factor = %d (paper's example: LCM(5,3,1) = 15)\n"
        plan.Ccc.Plan.unroll;
      let ring = Ccc.Plan.find_ring plan ~dcol:0 in
      print_string "  column 0 leading-edge register by line:";
      for l = 0 to 9 do
        Printf.printf " r%d" (Ccc.Plan.ring_register ring ~line:l ~depth:0)
      done;
      print_newline ());

  heading
    "SECTION 5.1 -- the three-step halo exchange\n\
     (border widths pad all four sides; corners only when a tap needs them)";
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      Printf.printf "  %-11s max border %d, corner step %s\n" name
        (Pattern.max_border p)
        (if Pattern.needs_corners p then "required" else "skipped"))
    [ "cross5"; "square9"; "cross9"; "diamond13" ];
  Printf.printf "\nnine-section exchange, square9 (corners required):\n%s"
    (Ccc.Render.halo_sections (Pattern.square9 ()));
  Printf.printf "\nnine-section exchange, cross9 (corner step skipped):\n%s"
    (Ccc.Render.halo_sections (Pattern.cross9 ()))

(* ------------------------------------------------------------------ *)
(* Ablations *)

let mflops_of stats = Stats.mflops stats

let ablation () =
  heading
    "ABLATION AB-COMM -- node-level 4-neighbor primitive vs legacy\n\
     per-direction processor-level communication (section 4.1)";
  let compiled = compile_gallery Config.default [ "cross5"; "diamond13" ] in
  Printf.printf "%-11s %-9s | %12s %12s | %8s\n" "pattern" "subgrid"
    "node-level" "legacy" "speedup";
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (r, cl) ->
          let modern =
            Exec.estimate ~primitive:Ccc.Halo.Node_level ~sub_rows:r
              ~sub_cols:cl Config.default [ Exec.compiled c ]
          in
          let legacy =
            Exec.estimate ~primitive:Ccc.Halo.Legacy ~sub_rows:r ~sub_cols:cl
              Config.default [ Exec.compiled c ]
          in
          Printf.printf "%-11s %4dx%-4d | %8.1f MF  %8.1f MF | %7.2fx\n" name r
            cl (mflops_of modern) (mflops_of legacy)
            (Stats.elapsed_s legacy /. Stats.elapsed_s modern))
        [ (16, 16); (64, 64); (256, 256) ])
    compiled;

  heading
    "ABLATION AB-CORNER -- skipping the corner-exchange step for\n\
     stencils without diagonal taps (section 5.1)";
  Printf.printf "%-11s %-9s | %12s %12s\n" "pattern" "subgrid" "comm cycles"
    "with corners";
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      let pad = Pattern.max_border p in
      List.iter
        (fun (r, cl) ->
          let without =
            Ccc.Halo.cycles_model ~primitive:Ccc.Halo.Node_level ~sub_rows:r
              ~sub_cols:cl ~pad ~corners:false Config.default
          in
          let with_c =
            Ccc.Halo.cycles_model ~primitive:Ccc.Halo.Node_level ~sub_rows:r
              ~sub_cols:cl ~pad ~corners:true Config.default
          in
          Printf.printf "%-11s %4dx%-4d | %12d %12d  (%s)\n" name r cl without
            with_c
            (if Pattern.needs_corners p then "corners required"
             else "step skipped"))
        [ (16, 16); (64, 64) ])
    [ "cross5"; "square9" ];

  heading
    "ABLATION AB-HALF -- half-strips vs hypothetical full strips\n\
     (section 5.2: two startups per strip buy simpler microcode)";
  let compiled =
    List.assoc "cross5" (compile_gallery Config.default [ "cross5" ])
  in
  let plan = Ccc.Compile.widest compiled in
  Printf.printf "%-10s | %14s %14s | %10s\n" "rows" "half-strips" "full strip"
    "overhead";
  List.iter
    (fun rows ->
      let half =
        Ccc.Cost.halfstrip_cycles Config.default plan ~lines:(rows - (rows / 2))
        + Ccc.Cost.halfstrip_cycles Config.default plan ~lines:(rows / 2)
      in
      let full = Ccc.Cost.halfstrip_cycles Config.default plan ~lines:rows in
      Printf.printf "%-10d | %10d cyc %10d cyc | %9.2f%%\n" rows half full
        (100.0 *. float_of_int (half - full) /. float_of_int full))
    [ 16; 64; 256 ];
  print_endline
    "(the paper judges this overhead 'relatively small' on medium to large\n\
     arrays -- and it conserves scarce microcode instruction memory)";

  heading
    "ABLATION AB-PAD -- padding the temporary on all four sides by the\n\
     maximum border width vs exact per-side borders (section 5.1: 'a cost\n\
     in temporary memory space ... usually doesn't hurt at all')";
  Printf.printf "%-12s %-9s | %12s %12s | %9s\n" "pattern" "subgrid"
    "uniform pad" "exact pad" "overhead";
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      let b = Pattern.borders p in
      let m = Pattern.max_border p in
      List.iter
        (fun (r, cl) ->
          let uniform = (r + (2 * m)) * (cl + (2 * m)) in
          let exact =
            (r + b.Pattern.north + b.Pattern.south)
            * (cl + b.Pattern.east + b.Pattern.west)
          in
          Printf.printf "%-12s %4dx%-4d | %6d words %6d words | %+8.2f%%\n"
            name r cl uniform exact
            (100.0 *. (float_of_int (uniform - exact) /. float_of_int exact)))
        [ (16, 16); (256, 256) ])
    [ "cross5"; "diamond13"; "asymmetric5" ];
  print_endline
    "(most stencils have fourfold symmetry, where uniform padding costs\n\
     nothing beyond the corners; only lopsided patterns like asymmetric5\n\
     leave memory on the table, and even then a fraction of a percent at\n\
     production sizes)";

  heading
    "ABLATION AB-FE -- front-end strength reduction (section 7's\n\
     run-time library recoding, the 7 Dec 90 rows)";
  let compiled =
    List.assoc "diamond13" (compile_gallery Config.default [ "diamond13" ])
  in
  Printf.printf "%-9s | %10s %10s | %8s\n" "subgrid" "21 Nov" "7 Dec" "gain";
  List.iter
    (fun (r, cl) ->
      let nov =
        Exec.estimate ~sub_rows:r ~sub_cols:cl Config.default
          [ Exec.compiled compiled ]
      in
      let dec =
        Exec.estimate ~sub_rows:r ~sub_cols:cl
          (Config.tuned_runtime Config.default)
          [ Exec.compiled compiled ]
      in
      Printf.printf "%4dx%-4d | %7.1f MF %7.1f MF | %+7.1f%%\n" r cl
        (mflops_of nov) (mflops_of dec)
        (100.0 *. ((mflops_of dec /. mflops_of nov) -. 1.0)))
    [ (64, 64); (128, 256); (256, 256) ];

  heading
    "ABLATION AB-WIDTH -- value of the width-8 multistencil\n\
     (restricting the compiler to width <= 4, as pre-1990 routines)";
  Printf.printf "%-11s %-9s | %10s %10s | %8s\n" "pattern" "subgrid" "w<=8"
    "w<=4" "gain";
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      let full =
        match Ccc_compiler.Compile.compile Config.default p with
        | Ok c -> c
        | Error e -> failwith (Ccc_compiler.Compile.no_workable e)
      in
      let narrow =
        match
          Ccc_compiler.Compile.compile ~widths:[ 4; 2; 1 ] Config.default p
        with
        | Ok c -> c
        | Error e -> failwith (Ccc_compiler.Compile.no_workable e)
      in
      List.iter
        (fun (r, cl) ->
          let wide =
            Exec.estimate ~sub_rows:r ~sub_cols:cl Config.default
              [ Exec.compiled full ]
          in
          let thin =
            Exec.estimate ~sub_rows:r ~sub_cols:cl Config.default
              [ Exec.compiled narrow ]
          in
          Printf.printf "%-11s %4dx%-4d | %7.1f MF %7.1f MF | %+7.1f%%\n" name r
            cl (mflops_of wide) (mflops_of thin)
            (100.0 *. ((mflops_of wide /. mflops_of thin) -. 1.0)))
        [ (256, 256) ])
    [ "cross5"; "square9" ]

(* ------------------------------------------------------------------ *)
(* Baselines *)

let baselines () =
  heading
    "BASELINES AB-BASE -- the three generations (section 1):\n\
     general CM Fortran (~4 GF class), 1989 canned library routines\n\
     (5.6 GF class), and this compiler (>10 GF)";
  Printf.printf "%-11s %-9s | %12s %12s %12s %12s\n" "pattern" "subgrid"
    "fieldwise" "naive" "canned" "compiled";
  let rows = [ (64, 128); (128, 256); (256, 256) ] in
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      let compiled =
        match Ccc.compile_pattern Config.default p with
        | Ok c -> c
        | Error e -> failwith (Ccc.Outcome.reject_to_string e)
      in
      List.iter
        (fun (r, cl) ->
          let fieldwise =
            Ccc_baseline.Fieldwise.estimate ~sub_rows:r ~sub_cols:cl
              Config.default p
          in
          let naive =
            Ccc_baseline.Naive.estimate ~sub_rows:r ~sub_cols:cl Config.default
              p
          in
          let canned =
            match
              Ccc_baseline.Canned.estimate ~sub_rows:r ~sub_cols:cl
                Config.default p
            with
            | Ccc_baseline.Canned.Library s ->
                Printf.sprintf "%8.1f MF" (mflops_of s)
            | Ccc_baseline.Canned.Fallback s ->
                Printf.sprintf "%6.1f MF(f)" (mflops_of s)
          in
          let ours =
            Exec.estimate ~sub_rows:r ~sub_cols:cl Config.default
              [ Exec.compiled compiled ]
          in
          Printf.printf "%-11s %4dx%-4d | %9.1f MF %9.1f MF %12s %9.1f MF\n"
            name r cl (mflops_of fieldwise) (mflops_of naive) canned
            (mflops_of ours))
        rows)
    [ "cross9"; "square9"; "diamond13" ];
  print_endline
    "\n(diamond13 is off the 1989 menu: the canned path falls back (f) to the\n\
     general code -- the programmability argument of the paper's conclusion)";
  let full = Config.with_nodes ~rows:32 ~cols:64 Config.default in
  let p = List.assoc "cross9" (Pattern.gallery ()) in
  let compiled =
    match Ccc.compile_pattern full p with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let naive = Ccc_baseline.Naive.estimate ~sub_rows:128 ~sub_cols:256 full p in
  let ours =
    Exec.estimate ~sub_rows:128 ~sub_cols:256 full [ Exec.compiled compiled ]
  in
  let tuned =
    Exec.estimate ~sub_rows:128 ~sub_cols:256 (Config.tuned_runtime full)
      [ Exec.compiled compiled ]
  in
  Printf.printf
    "\n2048-node cross9, 128x256 per node: naive %.2f GF, compiled %.2f GF,\n\
     tuned runtime %.2f GF (the paper's trajectory: ~4 -> 5.6 -> >10 GF).\n"
    (Stats.gflops naive) (Stats.gflops ours) (Stats.gflops tuned)

(* ------------------------------------------------------------------ *)
(* Sweep: the amortization curves behind Table 1's size dependence *)

let sweep () =
  heading
    "SWEEP -- sustained Mflops vs per-node subgrid size (16 nodes, both\n\
     run-time generations).  The curves behind Table 1's size dependence:\n\
     front-end dispatch and half-strip startup amortize with line count.";
  let sizes = [ 16; 32; 64; 128; 256 ] in
  let names = [ "cross5"; "square9"; "cross9"; "diamond13" ] in
  let compiled = compile_gallery Config.default names in
  Printf.printf "%-11s %-6s |" "pattern" "lib";
  List.iter (fun s -> Printf.printf " %5dx%-4d" s s) sizes;
  print_newline ();
  List.iter
    (fun (name, c) ->
      List.iter
        (fun (label, config) ->
          Printf.printf "%-11s %-6s |" name label;
          List.iter
            (fun s ->
              let stats =
                Exec.estimate ~sub_rows:s ~sub_cols:s config [ Exec.compiled c ]
              in
              Printf.printf " %7.1f MF" (Stats.mflops stats))
            sizes;
          print_newline ())
        [
          ("Nov90", Config.default);
          ("Dec90", Config.tuned_runtime Config.default);
        ])
    compiled

(* ------------------------------------------------------------------ *)
(* Bechamel host-side micro-benchmarks *)

let bechamel () =
  heading
    "BECHAMEL -- host-side micro-benchmarks of this implementation\n\
     (one Test.make per table/figure family)";
  let open Bechamel in
  let cross5_src =
    "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n\
     REAL, ARRAY(:,:) :: R, X, C1, C2, C3, C4, C5\n\
     R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1) + C3 * X &\n\
     \   + C4 * CSHIFT(X, 2, +1) + C5 * CSHIFT(X, 1, +1)\n\
     END\n"
  in
  let compiled =
    match Ccc.compile_fortran Config.default cross5_src with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let pattern = compiled.Ccc.Compile.pattern in
  let env =
    List.map
      (fun n -> (n, Ccc.Grid.constant ~rows:32 ~cols:32 1.0))
      [ "X"; "C1"; "C2"; "C3"; "C4"; "C5" ]
  in
  let machine = Ccc.machine Config.default in
  let tests =
    [
      Test.make ~name:"table1/compile-cross5-from-fortran"
        (Staged.stage (fun () ->
             ignore (Ccc.compile_fortran Config.default cross5_src)));
      Test.make ~name:"table1/estimate-row"
        (Staged.stage (fun () ->
             ignore
               (Exec.estimate ~iterations:100 ~sub_rows:256 ~sub_cols:256
                  Config.default [ Exec.compiled compiled ])));
      Test.make ~name:"table1/run-fast-32x32"
        (Staged.stage (fun () -> ignore (Exec.run machine compiled env)));
      Test.make ~name:"gordon-bell/run-simulated-32x32"
        (Staged.stage (fun () ->
             ignore (Exec.run ~mode:Exec.Simulate machine compiled env)));
      Test.make ~name:"figures/halo-exchange"
        (Staged.stage (fun () ->
             let watermark =
               Ccc_cm2.Machine.alloc_all machine ~words:0
             in
             let d = Ccc.Dist.scatter machine (List.assoc "X" env) in
             let x =
               Ccc.Halo.exchange ~source:d ~pad:1
                 ~boundary:Ccc.Boundary.Circular
                 ~needs_corners:(Pattern.needs_corners pattern) ()
             in
             ignore x.Ccc.Halo.cycles;
             Ccc_cm2.Machine.free_all_after machine watermark));
      Test.make ~name:"figures/multistencil-render"
        (Staged.stage (fun () ->
             let ms = Ccc.Multistencil.make (Pattern.diamond13 ()) ~width:4 in
             ignore (Ccc.Render.multistencil ms)));
    ]
  in
  let run_one test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let cfg = Benchmark.cfg ~quota:(Time.second 0.25) ~kde:None () in
    let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = run_one (Test.make_grouped ~name:"ccc" [ test ]) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-44s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* The persistent engine: plan-cache amortization and batched runs *)

let synthetic_env ~rows ~cols names =
  List.mapi
    (fun i n ->
      ( n,
        Ccc.Grid.init ~rows ~cols (fun r c ->
            sin (float_of_int ((r * (i + 3)) + c) /. 9.0)) ))
    names

let pattern_env ~rows ~cols p =
  synthetic_env ~rows ~cols
    (Pattern.source_var p
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Pattern.taps p))

let service () =
  heading
    "SERVICE -- persistent engine (cold vs warm plan cache, batched runs)\n\
     a resident engine serves many requests from one machine: compiled\n\
     plans are cached by content (geometry + coefficient shape + config)\n\
     and retargeted to each request's names without rescheduling";
  let config = Config.default in
  let rows = 64 and cols = 64 in
  let engine = Ccc.Engine.create config in
  (* Eight requests for the same 5-point geometry, each under its own
     coefficient and variable names: request 1 compiles, the other
     seven are cache hits rebound to the new names. *)
  let request i =
    Pattern.create ~source:"X"
      ~result:(Printf.sprintf "R%d" i)
      (List.mapi
         (fun j (drow, dcol) ->
           Ccc.Tap.make
             (Ccc.Offset.make ~drow ~dcol)
             (Ccc.Coeff.Array (Printf.sprintf "C%d_%d" i (j + 1))))
         [ (-1, 0); (0, -1); (0, 0); (0, 1); (1, 0) ])
  in
  Printf.printf "%-9s | %8s %8s %8s %12s %13s\n" "request" "compiles" "hits"
    "misses" "arena reuses" "max |diff|";
  for i = 1 to 8 do
    let p = request i in
    let env = pattern_env ~rows ~cols p in
    let output =
      match Ccc.Engine.run engine p env with
      | Ok r -> r.Exec.output
      | Error e -> failwith (Ccc.Outcome.reject_to_string e)
    in
    let s = Ccc.Engine.stats engine in
    Printf.printf "%9d | %8d %8d %8d %12d %13.3e\n" i s.Ccc.Engine.compiles
      s.Ccc.Engine.hits s.Ccc.Engine.misses s.Ccc.Engine.arena_reuses
      (Ccc.Grid.max_abs_diff (Ccc.Reference.apply p env) output)
  done;
  let s = Ccc.Engine.stats engine in
  Printf.printf
    "recompiles after the first request: %d (every later request hit the \
     cache)\n"
    (s.Ccc.Engine.compiles - 1);

  heading
    "SERVICE -- 10-statement seismic-style batch vs 10 one-shot calls\n\
     (section 7's host loop: same kernel every time step; batching pays\n\
     one halo exchange and one front-end launch for the whole group)";
  let kernel = Ccc.Seismic.kernel () in
  let env = pattern_env ~rows ~cols kernel in
  let compiled =
    match Ccc.compile_pattern config kernel with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let one = Ccc.apply config compiled env in
  let batch =
    match
      Ccc.Engine.run_batch engine (List.init 10 (fun _ -> kernel)) env
    with
    | Ok b -> b
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let bs = batch.Exec.batch_stats in
  let os = one.Exec.stats in
  Printf.printf "%-22s | %12s %12s | %7s\n" "" "batched" "10 one-shot"
    "saving";
  let rowf name b o =
    Printf.printf "%-22s | %12.6f %12.6f | %6.1f%%\n" name b o
      (100.0 *. (1.0 -. (b /. o)))
  in
  let rowi name b o =
    Printf.printf "%-22s | %12d %12d | %6.1f%%\n" name b o
      (100.0 *. (1.0 -. (float_of_int b /. float_of_int o)))
  in
  rowi "comm cycles" bs.Stats.comm_cycles (10 * os.Stats.comm_cycles);
  rowf "front end (s)" bs.Stats.frontend_s (10.0 *. os.Stats.frontend_s);
  rowf "elapsed (s)" (Stats.elapsed_s bs) (10.0 *. Stats.elapsed_s os);
  Printf.printf
    "\nthe compute cycles are identical (%d batched vs %d one-shot); the\n\
     batch wins exactly the amortized setup, which is what dominates small\n\
     subgrids when \"the front end computer is hard pressed to keep up\".\n"
    bs.Stats.compute_cycles (10 * os.Stats.compute_cycles)

(* ------------------------------------------------------------------ *)
(* Scaling: host-side wall clock of the two Fast inner loops under the
   domain pool.  Unlike every other section (which reports simulated
   CM-2 cycles), this one times the host: the precompiled kernel vs
   the bounds-checked tapwalk, a tile-geometry sweep of the blocked
   kernel at jobs = 1, and the pool's shared tile queue at jobs = 2
   and 4.  Results are bit-identical across all rows -- only
   wall-clock moves. *)

let json_path : string option ref = ref None

let scaling () =
  heading
    "SCALING -- host wall-clock of the Fast inner loops (seismic kernel,\n\
     16 nodes, 256x256 global).  'tapwalk' is the original per-element\n\
     address rederivation; 'kernel' is the preresolved offset walk the\n\
     engine caches, blocked into (rows x cols) tiles -- a 64x64 tile is\n\
     the whole 64x64 subgrid, i.e. the unblocked walk; jobs drains the\n\
     shared (node, tile) queue on a domain pool.  Every row computes\n\
     bit-identical output.";
  let config = Config.default in
  let kernel_pattern = Ccc.Seismic.kernel () in
  let compiled =
    match Ccc.compile_pattern config kernel_pattern with
    | Ok c -> c
    | Error e -> failwith (Ccc.Outcome.reject_to_string e)
  in
  let rows = 256 and cols = 256 in
  let env = pattern_env ~rows ~cols kernel_pattern in
  let kernel = Ccc.Kernel.build config compiled in
  let machine = Ccc.machine config in
  let arena = Exec.Arena.create machine in
  let repeats = 7 in
  let time_run ?pool ?kernel ?tile ~inner () =
    let run () =
      Exec.single
        (Exec.exec ?pool ~inner ?tile arena [ Exec.compiled ?kernel compiled ] env)
    in
    ignore (run ());
    (* warm the arena / pagecache *)
    let t0 = Unix.gettimeofday () in
    let last = ref (run ()) in
    for _ = 2 to repeats do
      last := run ()
    done;
    let t1 = Unix.gettimeofday () in
    ((t1 -. t0) /. float_of_int repeats, !last.Exec.output)
  in
  (* The subgrid is 64x64 (256/4 per node side), so (64, 64) is the
     unblocked whole-subgrid walk and the sweep covers row-blocked,
     square and sliver geometries around the calibrated default. *)
  let sub = rows / config.Config.node_rows in
  let tile_sweep =
    [ (sub, sub); (32, sub); (16, sub); (8, sub); (4, sub); (16, 16) ]
  in
  let default_tile =
    let tr, tc = config.Config.tile in
    (min tr sub, min tc sub)
  in
  let base_s, base_out = time_run ~inner:Exec.Tapwalk () in
  let pools = List.map (fun jobs -> (jobs, Ccc.Pool.create ~jobs)) [ 2; 4 ] in
  let rows_out =
    (("tapwalk", 1, (sub, sub)), (base_s, base_out))
    :: List.map
         (fun tile ->
           (("kernel", 1, tile), time_run ~inner:Exec.Lowered ~kernel ~tile ()))
         tile_sweep
    @ List.map
        (fun (jobs, pool) ->
          ( ("kernel", jobs, default_tile),
            time_run ~pool ~inner:Exec.Lowered ~kernel ~tile:default_tile () ))
        pools
  in
  List.iter (fun (_, p) -> Ccc.Pool.shutdown p) pools;
  let identical =
    List.for_all
      (fun (_, (_, out)) -> Ccc.Grid.max_abs_diff base_out out = 0.0)
      rows_out
  in
  Printf.printf "%-8s %5s %9s | %12s %9s | %s\n" "inner" "jobs" "tile"
    "wall (ms)" "speedup" "vs tapwalk jobs=1";
  List.iter
    (fun ((inner, jobs, (tr, tc)), (s, _)) ->
      Printf.printf "%-8s %5d %4dx%-4d | %12.2f %8.2fx |\n" inner jobs tr tc
        (1e3 *. s) (base_s /. s))
    rows_out;
  Printf.printf "bit-identical across all rows: %b (host cores: %d)\n"
    identical
    (Domain.recommended_domain_count ());
  if not identical then failwith "scaling: outputs diverged";
  match !json_path with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf
           "{\n  \"bench\": \"scaling\",\n  \"pattern\": \"seismic\",\n\
           \  \"nodes\": \"4x4\",\n  \"global\": [%d, %d],\n\
           \  \"repeats\": %d,\n  \"host_cores\": %d,\n\
           \  \"bit_identical\": %b,\n  \"entries\": [\n"
           rows cols repeats
           (Domain.recommended_domain_count ())
           identical);
      List.iteri
        (fun i ((inner, jobs, (tr, tc)), (s, _)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    {\"inner\": %S, \"jobs\": %d, \"tile\": [%d, %d], \
                \"wall_s\": %.6f, \"speedup\": %.3f}%s\n"
               inner jobs tr tc s (base_s /. s)
               (if i = List.length rows_out - 1 then "" else ",")))
        rows_out;
      Buffer.add_string buf "  ]\n}\n";
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Buffer.contents buf));
      Printf.printf "json: written to %s\n" path

(* ------------------------------------------------------------------ *)
(* Telemetry: sample trace artifact, Table-1 attribution, overhead *)

let obs () =
  heading
    "OBS -- unified telemetry layer (span tracer, metrics, profiler)\n\
     a sample Chrome trace, the Table-1 split as live per-phase cycle\n\
     attribution, and the cost of the instrumentation itself";
  let config = Config.default in
  let compiled = compile_gallery config [ "cross5"; "square9"; "diamond13" ] in
  let cross5 = List.assoc "cross5" compiled in
  let rows = 64 and cols = 64 in
  let env = pattern_env ~rows ~cols cross5.Ccc.Compile.pattern in

  (* One fully traced compile-and-run, exported as Chrome trace_event
     JSON (open obs-trace.json in chrome://tracing or Perfetto). *)
  let o = Ccc.Obs.create () in
  (match
     Ccc.compile_pattern ~obs:o config cross5.Ccc.Compile.pattern
   with
  | Ok _ -> ()
  | Error e -> failwith (Ccc.Outcome.reject_to_string e));
  ignore (Ccc.apply ~obs:o config cross5 env);
  let json = Ccc.Trace.to_chrome_json o.Ccc.Obs.trace in
  Out_channel.with_open_text "obs-trace.json" (fun oc ->
      Out_channel.output_string oc json);
  Printf.printf
    "sample trace: cross5 compile+run, %d spans, %d bytes -> obs-trace.json\n"
    (Ccc.Trace.event_count o.Ccc.Obs.trace)
    (String.length json);

  (* Table 1 as telemetry: the comm/compute/front-end split with the
     compute share attributed to the nine microcode phases.  The totals
     equal Exec.estimate (and the interpreter) exactly; `ccc profile`
     cross-checks that on every invocation. *)
  List.iter
    (fun (name, sub_rows, sub_cols) ->
      let c = List.assoc name compiled in
      let b = Exec.attribute ~sub_rows ~sub_cols config [ Exec.compiled c ] in
      Printf.printf "\n%s, %dx%d subgrid per node:\n" name sub_rows sub_cols;
      Format.printf "%a@." Ccc.Profiler.pp_breakdown b)
    [ ("cross5", 128, 256); ("square9", 128, 256); ("diamond13", 128, 128) ];

  (* Overhead: the disabled context must cost nothing measurable on
     the run path, and a disabled span is one branch. *)
  let time n f =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int n
  in
  let runs = 25 in
  let bare = time runs (fun () -> ignore (Ccc.apply config cross5 env)) in
  let disabled =
    time runs (fun () ->
        ignore (Ccc.apply ~obs:Ccc.Obs.disabled config cross5 env))
  in
  let recording =
    time runs (fun () ->
        ignore (Ccc.apply ~obs:(Ccc.Obs.create ()) config cross5 env))
  in
  Printf.printf
    "\nrun overhead (64x64 global, mean of %d runs):\n\
    \  uninstrumented   %8.3f ms\n\
    \  obs disabled     %8.3f ms  (%+.1f%%)\n\
    \  obs recording    %8.3f ms  (%+.1f%%)\n"
    runs (1e3 *. bare) (1e3 *. disabled)
    (100.0 *. ((disabled /. bare) -. 1.0))
    (1e3 *. recording)
    (100.0 *. ((recording /. bare) -. 1.0));
  let spans = 10_000_000 in
  let per_span =
    time 1 (fun () ->
        for _ = 1 to spans do
          Ccc.Trace.with_span Ccc.Trace.disabled "x" ignore
        done)
    /. float_of_int spans
  in
  Printf.printf "disabled span: %.2f ns each over %d spans\n"
    (1e9 *. per_span) spans

(* ------------------------------------------------------------------ *)
(* Domain safety: probe overhead and analyzer throughput *)

let race () =
  heading
    "RACE -- domain-safety analyzer (shared-state probes, vector-clock\n\
     happens-before, ownership discipline)\n\
     probe cost with recording off and on, and analyzer throughput on\n\
     the access log of a live pooled run";
  let config = Config.default in
  let compiled = compile_gallery config [ "cross5" ] in
  let cross5 = List.assoc "cross5" compiled in
  let rows = 64 and cols = 64 in
  let env = pattern_env ~rows ~cols cross5.Ccc.Compile.pattern in
  let time n f =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int n
  in
  let runs = 25 in
  (* Probes are compiled into Pool/Dist/Halo/Exec unconditionally;
     disabled they are one flag load and a branch per site, so the
     disabled run IS the production run. *)
  let disabled =
    time runs (fun () -> ignore (Ccc.apply ~jobs:2 config cross5 env))
  in
  let recording =
    time runs (fun () ->
        Ccc.Access.enable ();
        ignore (Ccc.apply ~jobs:2 config cross5 env);
        Ccc.Access.disable ())
  in
  Printf.printf
    "run cost (64x64 global, jobs 2, mean of %d runs):\n\
    \  probes disabled  %8.3f ms\n\
    \  probes recording %8.3f ms  (%+.1f%%)\n"
    runs (1e3 *. disabled) (1e3 *. recording)
    (100.0 *. ((recording /. disabled) -. 1.0));
  (* Analyzer throughput over one recorded run's log. *)
  Ccc.Access.enable ();
  ignore (Ccc.apply ~jobs:2 config cross5 env);
  Ccc.Access.disable ();
  let log = Ccc.Access.events () in
  let n = List.length log in
  let t0 = Sys.time () in
  let race_findings = Ccc.Race.analyze log in
  let t1 = Sys.time () in
  let disc_findings = Ccc.Discipline.check log in
  let t2 = Sys.time () in
  Printf.printf
    "one recorded run: %d events; race pass %.3f ms, discipline pass \
     %.3f ms, findings %d\n"
    n
    (1e3 *. (t1 -. t0))
    (1e3 *. (t2 -. t1))
    (List.length race_findings + List.length disc_findings);
  (* The seeded kill matrix, end to end. *)
  let t0 = Sys.time () in
  let killed =
    List.fold_left
      (fun acc m ->
        let log = Ccc.Race_mutate.mutated ~seed:42 ~jobs:7 m in
        match Ccc.Race.analyze log @ Ccc.Discipline.check log with
        | [] -> acc
        | _ -> acc + 1)
      0 Ccc.Race_mutate.all
  in
  Printf.printf
    "kill matrix (6 mutations, jobs 7): %d/6 killed in %.3f ms\n" killed
    (1e3 *. (Sys.time () -. t0))

(* ------------------------------------------------------------------ *)
(* Serve-plane observability overhead (PR 8) *)

let serve_obs () =
  heading
    "SERVE-OBS -- serve-plane instrumentation overhead (PR 8)\n\
     closed-loop serve throughput with the full cross-domain tracer,\n\
     flight rings and tenant metrics against the disabled context;\n\
     artifact BENCH_PR8.json";
  let config = Config.default in
  let compiled = compile_gallery config [ "cross5"; "square9" ] in
  let rows = 32 and cols = 32 in
  let envs =
    List.map
      (fun (name, c) ->
        ( name,
          c.Ccc.Compile.pattern,
          pattern_env ~rows ~cols c.Ccc.Compile.pattern ))
      compiled
  in
  let tenants = [| "alice"; "bob"; "carol" |] in
  let n = 300 in
  (* Closed loop: one request in flight at a time, so the measured
     rate is pure dispatch-path latency — the instrumentation's worst
     case (nothing to amortize a span or ring write against). *)
  let run_closed mk_obs =
    let t = Ccc.Serve.create ~obs:(mk_obs ()) ~shards:2 config in
    List.iter
      (fun (_, p, env) ->
        ignore
          (Ccc.Serve.wait t
             (Ccc.Serve.submit t
                (Ccc.Request.v ~tenant:"warmup" ~env (Ccc.Request.Pattern p)))))
      envs;
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      let _, p, env = List.nth envs (i mod List.length envs) in
      let r =
        Ccc.Serve.wait t
          (Ccc.Serve.submit t
             (Ccc.Request.v
                ~tenant:tenants.(i mod Array.length tenants)
                ~env (Ccc.Request.Pattern p)))
      in
      if not (Ccc.Outcome.is_success r.Ccc.Serve.outcome) then
        failwith "serve-obs: closed-loop request not served"
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Ccc.Serve.shutdown t;
    float_of_int n /. dt
  in
  (* Alternate the arms across repeats so machine drift taxes both
     equally; keep the best of each (closed-loop throughput noise is
     one-sided, below the peak). *)
  let repeats = 3 in
  let bare = ref 0.0 and inst = ref 0.0 in
  for _ = 1 to repeats do
    bare := Float.max !bare (run_closed (fun () -> Ccc.Obs.disabled));
    inst := Float.max !inst (run_closed (fun () -> Ccc.Obs.create ()))
  done;
  let overhead_pct = 100.0 *. (1.0 -. (!inst /. !bare)) in
  let within = Float.abs overhead_pct <= 5.0 in
  Printf.printf
    "closed loop (%d requests, 2 shards, best of %d):\n\
    \  uninstrumented   %8.0f req/s\n\
    \  instrumented     %8.0f req/s  (%+.1f%% overhead)\n\
     instrumentation tax %s the 5%% budget\n"
    n repeats !bare !inst overhead_pct
    (if within then "within" else "EXCEEDS");
  let oc = open_out "BENCH_PR8.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"serve-obs\",\n\
    \  \"nodes\": \"4x4\",\n\
    \  \"global\": [%d, %d],\n\
    \  \"shards\": 2,\n\
    \  \"requests\": %d,\n\
    \  \"repeats\": %d,\n\
    \  \"uninstrumented_rps\": %.1f,\n\
    \  \"instrumented_rps\": %.1f,\n\
    \  \"overhead_pct\": %.2f,\n\
    \  \"within_5pct\": %b\n\
     }\n"
    rows cols n repeats !bare !inst overhead_pct within;
  close_out oc;
  print_endline "json: written to BENCH_PR8.json"

(* ------------------------------------------------------------------ *)
(* Transform-path crossover (PR 10) *)

(* A dense k x k Gaussian with scalar taps: the transform path's home
   turf, and past k = 5 more taps than the real register file can
   hold. *)
let gauss_pattern k sigma =
  let half = k / 2 in
  let taps = ref [] in
  for dr = -half to half do
    for dc = -half to half do
      let w =
        exp
          (-.(float_of_int ((dr * dr) + (dc * dc)) /. (2.0 *. sigma *. sigma)))
      in
      taps :=
        Ccc.Tap.make
          (Ccc.Offset.make ~drow:dr ~dcol:dc)
          (Ccc.Coeff.Scalar w)
        :: !taps
    done
  done;
  Pattern.create ~boundary:Ccc.Boundary.Circular (List.rev !taps)

let fft_crossover () =
  heading
    "FFT -- transform-path crossover, tap count x grid size (PR 10)\n\
     the planner picks compiled multistencil vs FFT by predicted\n\
     cycles; this sweep prices both sides of dense k x k Gaussians\n\
     and times both host paths, Table-1 style, to check the measured\n\
     crossover lands within one sweep step of the model's.\n\
     artifact BENCH_PR10.json";
  (* A register-rich counterfactual machine: the real CM-2 config
     rejects every dense kernel past k = 5, and you cannot measure a
     rejection.  The compiler still picks its usual widths, so the
     per-tap pipelined rate -- the thing the crossover is about -- is
     the production one. *)
  let rich =
    {
      Config.default with
      Config.fpu_registers = 4096;
      scratch_memory_words = 1 lsl 22;
    }
  in
  let ks = [ 3; 5; 7; 9; 11 ] and grids = [ 64; 128; 256 ] in
  let time_best f =
    (* best of 3: host wall-clock noise is one-sided *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let results =
    List.map
      (fun n ->
        Printf.printf "\ngrid %dx%d (16 nodes, register-rich counterfactual):\n" n n;
        Printf.printf "  %3s %5s %12s %12s %7s %10s %10s %7s\n" "k" "taps"
          "model-cmp" "model-fft" "model" "host-cmp-s" "host-fft-s" "host";
        let machine = Ccc.machine rich in
        let sub = n / Config.default.Config.node_rows in
        let cells =
          List.map
            (fun k ->
              let p = gauss_pattern k 2.0 in
              let compiled =
                match Ccc.Compile.compile rich p with
                | Ok c -> c
                | Error r -> failwith (Ccc.Compile.no_workable r)
              in
              let total st =
                let s = Exec.estimate ~sub_rows:sub ~sub_cols:sub rich [ st ] in
                s.Stats.comm_cycles + s.Stats.compute_cycles
              in
              let direct = total (Exec.compiled compiled) in
              let fft_pred = total (Exec.transform p) in
              let env = pattern_env ~rows:n ~cols:n p in
              let kernel = Ccc.Kernel.build rich compiled in
              let t_cmp =
                time_best (fun () ->
                    Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel machine
                      compiled env)
              in
              (* steady state on both sides: the kernel is prebuilt
                 above, and the Engine caches FFT plans, so plan
                 construction is likewise excluded *)
              let plan = Ccc.Fft.build p ~rows:n ~cols:n env in
              let t_fft =
                time_best (fun () ->
                    Exec.exec (Exec.Arena.transient machine)
                      [ Exec.transform ~plan p ]
                      env)
              in
              Printf.printf "  %3d %5d %12d %12d %7s %10.4f %10.4f %7s\n" k
                (k * k) direct fft_pred
                (if direct <= fft_pred then "cmp" else "fft")
                t_cmp t_fft
                (if t_cmp <= t_fft then "cmp" else "fft");
              (k, direct, fft_pred, t_cmp, t_fft))
            ks
        in
        (* crossover: index of the first k where the transform wins *)
        let index_of pred =
          let rec go i = function
            | [] -> List.length ks
            | c :: rest -> if pred c then i else go (i + 1) rest
          in
          go 0 cells
        in
        let model_i = index_of (fun (_, d, f, _, _) -> f < d) in
        let host_i = index_of (fun (_, _, _, tc, tf) -> tf < tc) in
        let k_at i = if i >= List.length ks then "never" else
          string_of_int (List.nth ks i) in
        let within = abs (model_i - host_i) <= 1 in
        Printf.printf
          "  crossover: model k=%s, host k=%s -- %s one sweep step\n"
          (k_at model_i) (k_at host_i)
          (if within then "within" else "OUTSIDE");
        (n, cells, model_i, host_i, within))
      grids
  in
  let all_within = List.for_all (fun (_, _, _, _, w) -> w) results in
  let oc = open_out "BENCH_PR10.json" in
  Printf.fprintf oc "{\n  \"bench\": \"fft-crossover\",\n  \"nodes\": \"4x4\",\n";
  Printf.fprintf oc "  \"widths\": \"compiler-chosen\",\n  \"ks\": [%s],\n"
    (String.concat ", " (List.map string_of_int ks));
  Printf.fprintf oc "  \"grids\": [\n";
  List.iteri
    (fun gi (n, cells, model_i, host_i, within) ->
      Printf.fprintf oc
        "    {\"n\": %d, \"model_crossover_index\": %d, \
         \"host_crossover_index\": %d, \"within_one_step\": %b,\n\
        \     \"cells\": [\n" n model_i host_i within;
      List.iteri
        (fun ci (k, d, f, tc, tf) ->
          Printf.fprintf oc
            "      {\"k\": %d, \"model_compiled_cycles\": %d, \
             \"model_fft_cycles\": %d, \"host_compiled_s\": %.6f, \
             \"host_fft_s\": %.6f}%s\n"
            k d f tc tf
            (if ci = List.length cells - 1 then "" else ","))
        cells;
      Printf.fprintf oc "    ]}%s\n"
        (if gi = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ],\n  \"all_within_one_step\": %b\n}\n" all_within;
  close_out oc;
  Printf.printf "\ncrossover %s the model's prediction on every grid\n"
    (if all_within then "tracks" else "DIVERGES FROM");
  print_endline "json: written to BENCH_PR10.json"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("gordon-bell", gordon_bell);
    ("figures", figures);
    ("ablation", ablation);
    ("baselines", baselines);
    ("sweep", sweep);
    ("service", service);
    ("scaling", scaling);
    ("obs", obs);
    ("race", race);
    ("serve-obs", serve_obs);
    ("fft", fft_crossover);
    ("bechamel", bechamel);
  ]

let () =
  (* argv: section names, plus --json FILE to make the scaling section
     also emit machine-readable results. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | "--json" :: [] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (have: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested
