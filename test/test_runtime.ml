(* Unit tests for the run-time library: grids, distribution, halo
   exchange, strip mining, the reference evaluator, statistics, and
   the executor's resource handling. *)

module Config = Ccc_cm2.Config
module Machine = Ccc_cm2.Machine
module Memory = Ccc_cm2.Memory
module Grid = Ccc_runtime.Grid
module Dist = Ccc_runtime.Dist
module Halo = Ccc_runtime.Halo
module Stripmine = Ccc_runtime.Stripmine
module Reference = Ccc_runtime.Reference
module Stats = Ccc_runtime.Stats
module Exec = Ccc_runtime.Exec
module Kernel = Ccc_runtime.Kernel
module Pattern = Ccc_stencil.Pattern
module Boundary = Ccc_stencil.Boundary
module Plan = Ccc_microcode.Plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let config = Config.default

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_get_set () =
  let g = Grid.create ~rows:3 ~cols:4 in
  Grid.set g 2 3 5.5;
  check_float "set/get" 5.5 (Grid.get g 2 3);
  check_float "zero elsewhere" 0.0 (Grid.get g 0 0)

let test_grid_circular () =
  let g = Grid.init ~rows:3 ~cols:3 (fun r c -> float_of_int ((r * 3) + c)) in
  check_float "wrap north" (Grid.get g 2 1) (Grid.get_circular g (-1) 1);
  check_float "wrap east" (Grid.get g 1 0) (Grid.get_circular g 1 3);
  check_float "wrap both" (Grid.get g 2 2) (Grid.get_circular g (-1) (-1));
  check_float "far wrap" (Grid.get g 1 1) (Grid.get_circular g (-2) 4)

let test_grid_endoff () =
  let g = Grid.constant ~rows:2 ~cols:2 9.0 in
  check_float "inside" 9.0 (Grid.get_endoff g ~fill:(-1.0) 1 1);
  check_float "outside" (-1.0) (Grid.get_endoff g ~fill:(-1.0) 2 0)

let test_grid_max_abs_diff () =
  let a = Grid.constant ~rows:2 ~cols:2 1.0 in
  let b = Grid.init ~rows:2 ~cols:2 (fun r c -> if r = 1 && c = 1 then 3.0 else 1.0) in
  check_float "diff" 2.0 (Grid.max_abs_diff a b)

let test_grid_flat_roundtrip () =
  let g = Grid.init ~rows:2 ~cols:3 (fun r c -> float_of_int ((r * 10) + c)) in
  let g' = Grid.of_flat_array ~rows:2 ~cols:3 (Grid.to_flat_array g) in
  check_float "roundtrip" 0.0 (Grid.max_abs_diff g g')

(* ------------------------------------------------------------------ *)
(* Dist *)

let machine () = Machine.create ~memory_words:(1 lsl 18) config

let test_scatter_gather_roundtrip () =
  let m = machine () in
  let g = Grid.init ~rows:16 ~cols:20 (fun r c -> float_of_int ((r * 31) + c)) in
  let d = Dist.scatter m g in
  check_int "sub rows" 4 d.Dist.sub_rows;
  check_int "sub cols" 5 d.Dist.sub_cols;
  check_float "roundtrip" 0.0 (Grid.max_abs_diff g (Dist.gather d))

let test_owner_figure1 () =
  (* Figure 1: a 256x256 array on 16 nodes; node (i,j) owns the
     64x64 block at (64i, 64j). *)
  let m = machine () in
  let d = Dist.create m ~sub_rows:64 ~sub_cols:64 in
  let node, r, c = Dist.owner d ~grow:70 ~gcol:130 in
  check_int "node (1,2) = 6" 6 node;
  check_int "local row" 6 r;
  check_int "local col" 2 c

let test_scatter_rejects_ragged () =
  let m = machine () in
  let g = Grid.create ~rows:17 ~cols:16 in
  match Dist.scatter m g with
  | _ -> Alcotest.fail "expected rejection of a ragged shape"
  | exception Invalid_argument _ -> ()

let test_fill () =
  let m = machine () in
  let d = Dist.create m ~sub_rows:2 ~sub_cols:2 in
  Dist.fill d 3.5;
  check_float "filled" 3.5 (Dist.local_get d ~node:7 ~row:1 ~col:1)

let test_read_description_mentions_blocks () =
  let m = machine () in
  let d = Dist.create m ~sub_rows:64 ~sub_cols:64 in
  let desc = Dist.read_description d in
  check_bool "has A(1:64,1:64)" true
    (let re = "A(1:64,1:64)" in
     let rec contains i =
       i + String.length re <= String.length desc
       && (String.sub desc i (String.length re) = re || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Halo *)

let padded_value (m : Machine.t) (x : Halo.exchange) ~node ~r ~c =
  (* r, c in subgrid coordinates; may be negative (halo cells). *)
  Memory.read (Machine.memory m node)
    (x.Halo.padded.Memory.base
    + ((r + x.Halo.pad) * x.Halo.padded_cols)
    + c + x.Halo.pad)

let test_halo_matches_global_circular () =
  let m = machine () in
  let g = Grid.init ~rows:12 ~cols:16 (fun r c -> float_of_int ((r * 100) + c)) in
  let d = Dist.scatter m g in
  let x =
    Halo.exchange ~source:d ~pad:2 ~boundary:Boundary.Circular
      ~needs_corners:true ()
  in
  (* Every padded cell of every node equals the circularly-indexed
     global element. *)
  for node = 0 to 15 do
    let nr, nc = Ccc_cm2.Geometry.coord_of_node (Machine.geometry m) node in
    for r = -2 to d.Dist.sub_rows + 1 do
      for c = -2 to d.Dist.sub_cols + 1 do
        let expected =
          Grid.get_circular g ((nr * d.Dist.sub_rows) + r)
            ((nc * d.Dist.sub_cols) + c)
        in
        check_float
          (Printf.sprintf "node %d cell (%d,%d)" node r c)
          expected
          (padded_value m x ~node ~r ~c)
      done
    done
  done

let test_halo_endoff_fill () =
  let m = machine () in
  let g = Grid.constant ~rows:8 ~cols:8 1.0 in
  let d = Dist.scatter m g in
  let x =
    Halo.exchange ~source:d ~pad:1 ~boundary:(Boundary.End_off 7.0)
      ~needs_corners:true ()
  in
  (* Node 0 sits at the global north-west corner: its north and west
     halo cells take the fill value. *)
  check_float "north halo" 7.0 (padded_value m x ~node:0 ~r:(-1) ~c:0);
  check_float "west halo" 7.0 (padded_value m x ~node:0 ~r:0 ~c:(-1));
  (* Node 5 is interior: its halo is real data. *)
  check_float "interior halo" 1.0 (padded_value m x ~node:5 ~r:(-1) ~c:0)

let test_halo_corner_poisoning () =
  let m = machine () in
  let g = Grid.constant ~rows:8 ~cols:8 1.0 in
  let d = Dist.scatter m g in
  let x =
    Halo.exchange ~source:d ~pad:1 ~boundary:Boundary.Circular
      ~needs_corners:false ()
  in
  check_bool "corner is poisoned" true
    (Float.is_nan (padded_value m x ~node:0 ~r:(-1) ~c:(-1)));
  check_bool "corners skipped" true x.Halo.corners_skipped;
  check_float "edges still exchanged" 1.0 (padded_value m x ~node:0 ~r:(-1) ~c:0)

let test_halo_rejects_oversized_border () =
  let m = machine () in
  let d = Dist.create m ~sub_rows:2 ~sub_cols:8 in
  match
    Halo.exchange ~source:d ~pad:3 ~boundary:Boundary.Circular
      ~needs_corners:false ()
  with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_halo_cycles_model () =
  (* The node-level primitive pays for the longer side once; the
     legacy primitive pays per direction at bit-serial rates. *)
  let node =
    Halo.cycles_model ~primitive:Halo.Node_level ~sub_rows:64 ~sub_cols:128
      ~pad:2 ~corners:false config
  in
  check_int "edge phase: pad * longer side * per-word"
    (config.Config.comm_cycles_per_word * 2 * 128)
    node;
  let with_corners =
    Halo.cycles_model ~primitive:Halo.Node_level ~sub_rows:64 ~sub_cols:128
      ~pad:2 ~corners:true config
  in
  check_bool "corners cost extra" true (with_corners > node);
  let legacy =
    Halo.cycles_model ~primitive:Halo.Legacy ~sub_rows:64 ~sub_cols:128 ~pad:2
      ~corners:false config
  in
  check_bool "legacy is much slower" true (legacy > 4 * node);
  check_int "zero pad is free"
    0
    (Halo.cycles_model ~primitive:Halo.Node_level ~sub_rows:64 ~sub_cols:64
       ~pad:0 ~corners:false config)

(* ------------------------------------------------------------------ *)
(* Stripmine *)

let compiled_cross5 () = Tutil.compile_exn (Pattern.cross5 ())

let test_strip_widths_21 () =
  (* Section 5.3's example: an axis of length 21 becomes two strips of
     width 8, one of width 4, and one of width 1. *)
  Alcotest.(check (list int))
    "8+8+4+1" [ 8; 8; 4; 1 ]
    (Stripmine.strip_widths (compiled_cross5 ()) ~sub_cols:21)

let test_strip_widths_when_8_rejected () =
  (* diamond13 compiles at widths 4, 2, 1 only: 21 = 5x4 + 1, the
     paper's other worked example. *)
  let compiled = Tutil.compile_exn (Pattern.diamond13 ()) in
  Alcotest.(check (list int))
    "4x5 + 1" [ 4; 4; 4; 4; 4; 1 ]
    (Stripmine.strip_widths compiled ~sub_cols:21)

let test_strips_cover_columns () =
  let compiled = compiled_cross5 () in
  List.iter
    (fun sub_cols ->
      let strips = Stripmine.strips compiled ~sub_cols in
      let covered =
        List.concat_map
          (fun (s : Stripmine.strip) ->
            List.init s.plan.Plan.width (fun i -> s.col0 + i))
          strips
      in
      Alcotest.(check (list int))
        (Printf.sprintf "columns 0..%d each exactly once" (sub_cols - 1))
        (List.init sub_cols Fun.id)
        (List.sort compare covered))
    [ 1; 2; 3; 7; 8; 16; 21; 64 ]

let test_halfstrips_cover_rows_and_sweep_upward () =
  let compiled = compiled_cross5 () in
  let strip = List.hd (Stripmine.strips compiled ~sub_cols:8) in
  List.iter
    (fun sub_rows ->
      let halves = Stripmine.halfstrips strip ~sub_rows in
      check_bool "at most two halves" true (List.length halves <= 2);
      let rows =
        List.concat_map
          (fun (h : Stripmine.halfstrip) -> Array.to_list h.rows)
          halves
      in
      Alcotest.(check (list int))
        "rows covered exactly once"
        (List.init sub_rows Fun.id)
        (List.sort compare rows);
      List.iter
        (fun (h : Stripmine.halfstrip) ->
          Array.iteri
            (fun i r ->
              if i > 0 then
                check_int "sweep decreases row by 1" (h.rows.(i - 1) - 1) r)
            h.rows)
        halves)
    [ 1; 2; 3; 8; 9; 64 ]

(* ------------------------------------------------------------------ *)
(* Reference *)

let test_reference_hand_computed () =
  let p = Tutil.pattern_of_offsets [ (0, 0); (0, 1) ] in
  let x = Grid.init ~rows:2 ~cols:2 (fun r c -> float_of_int ((2 * r) + c)) in
  let c1 = Grid.constant ~rows:2 ~cols:2 10.0 in
  let c2 = Grid.constant ~rows:2 ~cols:2 1.0 in
  let out = Reference.apply p [ ("X", x); ("C1", c1); ("C2", c2) ] in
  (* R(0,0) = 10*X(0,0) + X(0,1) = 1; R(0,1) wraps: 10*1 + 0. *)
  check_float "R(0,0)" 1.0 (Grid.get out 0 0);
  check_float "R(0,1) wraps east" 10.0 (Grid.get out 0 1)

let test_reference_endoff () =
  let p =
    Ccc_stencil.Pattern.create ~boundary:(Boundary.End_off 0.0)
      [
        Ccc_stencil.Tap.make
          (Ccc_stencil.Offset.make ~drow:0 ~dcol:1)
          (Ccc_stencil.Coeff.Array "C1");
      ]
  in
  let x = Grid.constant ~rows:2 ~cols:2 5.0 in
  let c1 = Grid.constant ~rows:2 ~cols:2 1.0 in
  let out = Reference.apply p [ ("X", x); ("C1", c1) ] in
  check_float "interior" 5.0 (Grid.get out 0 0);
  check_float "east edge reads fill" 0.0 (Grid.get out 0 1)

let test_reference_unbound () =
  let p = Tutil.pattern_of_offsets [ (0, 0) ] in
  match Reference.apply p [ ("X", Grid.create ~rows:2 ~cols:2) ] with
  | _ -> Alcotest.fail "expected Unbound"
  | exception Reference.Unbound "C1" -> ()

let test_reference_shape_mismatch () =
  let p = Tutil.pattern_of_offsets [ (0, 0) ] in
  match
    Reference.apply p
      [ ("X", Grid.create ~rows:2 ~cols:2); ("C1", Grid.create ~rows:4 ~cols:2) ]
  with
  | _ -> Alcotest.fail "expected Shape_mismatch"
  | exception Reference.Shape_mismatch _ -> ()

(* A CSHIFT tap 200 rows away on a 4x4 grid reads what a tap at (0, 0)
   reads; the oracle reduces the offset modulo the side instead of
   padding the source by 200 rows, so what it allocates is bounded by
   the grid, not by the pattern's border. *)
let test_reference_far_offset () =
  let p =
    Ccc_stencil.Pattern.create
      [
        Ccc_stencil.Tap.make
          (Ccc_stencil.Offset.make ~drow:200 ~dcol:0)
          (Ccc_stencil.Coeff.Array "C1");
      ]
  in
  let env =
    [
      ("X", Tutil.mixed_grid ~seed:3 ~rows:4 ~cols:4);
      ("C1", Tutil.mixed_grid ~seed:4 ~rows:4 ~cols:4);
    ]
  in
  let allocated f =
    let before = Gc.allocated_bytes () in
    let v = f () in
    (v, Gc.allocated_bytes () -. before)
  in
  let _, grid = allocated (fun () -> Grid.create ~rows:4 ~cols:4) in
  let got, call = allocated (fun () -> Reference.apply p env) in
  check_int "cells differing from the spec" 0
    (List.length (Tutil.bit_differences (Tutil.spec_apply p env) got));
  if call > 8.0 *. grid then
    Alcotest.failf "Reference.apply allocated %.0f, one 4x4 grid %.0f" call
      grid

(* ------------------------------------------------------------------ *)
(* Stats *)

let base_stats =
  {
    Stats.iterations = 100;
    comm_cycles = 700;
    compute_cycles = 6300;
    frontend_s = 0.0;
    useful_flops_per_iteration = 1_000_000;
    madds_issued = 1000;
    strip_widths = [ 8 ];
    corners_skipped = false;
    nodes = 16;
    clock_hz = 7.0e6;
  }

let test_stats_elapsed_and_rate () =
  (* 7000 cycles at 7 MHz = 1 ms per iteration; 100 iterations = 0.1 s;
     10^8 flops / 0.1 s = 1 Gflops. *)
  check_float "elapsed" 0.1 (Stats.elapsed_s base_stats);
  check_float "mflops" 1000.0 (Stats.mflops base_stats);
  check_float "gflops" 1.0 (Stats.gflops base_stats)

let test_stats_extrapolation () =
  (* The paper's 16 -> 2048 node extrapolation is a factor of 128. *)
  check_float "x128" 128.0 (Stats.extrapolate base_stats ~nodes:2048)

let test_stats_frontend_overhead () =
  let s = { base_stats with Stats.frontend_s = 1e-3 } in
  check_float "elapsed doubles" 0.2 (Stats.elapsed_s s);
  check_float "rate halves" 500.0 (Stats.mflops s)

let test_stats_efficiency () =
  (* useful flops over flop slots: 1e8 / (2 * 1000 * 16 * 100). *)
  check_float "closed form"
    (1e8 /. (2.0 *. 1000.0 *. 16.0 *. 100.0))
    (Stats.flop_efficiency base_stats)

(* ------------------------------------------------------------------ *)
(* Exec resource handling *)

let test_exec_too_small () =
  let compiled = Tutil.compile_exn (Pattern.diamond13 ()) in
  (* A 4x4 global array over 4x4 nodes leaves 1x1 subgrids; the
     diamond's border width of 2 cannot reach past immediate
     neighbors. *)
  let env = Tutil.env_for ~rows:4 ~cols:4 (Pattern.diamond13 ()) in
  match Ccc.apply config compiled env with
  | _ -> Alcotest.fail "expected Too_small"
  | exception Exec.Too_small _ -> ()

let test_exec_iterations_scale_stats_not_data () =
  let compiled = compiled_cross5 () in
  let env = Tutil.env_for ~rows:16 ~cols:16 (Pattern.cross5 ()) in
  let once = Ccc.apply ~iterations:1 config compiled env in
  let many = Ccc.apply ~iterations:50 config compiled env in
  check_float "same data" 0.0
    (Grid.max_abs_diff once.Exec.output many.Exec.output);
  check_float "50x flops"
    (50.0 *. float_of_int (Stats.useful_flops once.Exec.stats))
    (float_of_int (Stats.useful_flops many.Exec.stats));
  check_float "50x elapsed"
    (50.0 *. Stats.elapsed_s once.Exec.stats)
    (Stats.elapsed_s many.Exec.stats)

let test_exec_releases_memory () =
  let m = machine () in
  let compiled = compiled_cross5 () in
  let env = Tutil.env_for ~rows:16 ~cols:16 (Pattern.cross5 ()) in
  let free_before = Memory.words_free (Machine.memory m 0) in
  ignore (Exec.run m compiled env);
  check_int "all temporaries released" free_before
    (Memory.words_free (Machine.memory m 0))

(* Node stores are materialized lazily: a fresh machine of the default
   1 Mi-word capacity ends a 32x32 statement holding just the words the
   statement allocated, rounded up by at most the doubling growth. *)
let test_exec_materializes_high_water () =
  List.iter
    (fun (name, pattern) ->
      let compiled = Tutil.compile_exn pattern in
      let m = Machine.create config in
      let capacity = Memory.words (Machine.memory m 0) in
      let high_water = ref 0 in
      let on_phase (ctx : Exec.phase_ctx) =
        if ctx.Exec.phase = "compute" then
          high_water := capacity - Memory.words_free (Machine.memory m 0)
      in
      ignore
        (Exec.run ~hooks:{ Exec.no_hooks with on_phase } m compiled
           (Tutil.env_for ~rows:32 ~cols:32 pattern));
      check_bool (name ^ ": temporaries allocated") true (!high_water > 0);
      Machine.iter_nodes m (fun node mem ->
          let len = Array.length (Memory.raw mem) in
          if len < !high_water || len > 2 * !high_water then
            Alcotest.failf
              "%s: node %d materialized %d words for a %d-word high-water mark"
              name node len !high_water))
    (Pattern.gallery ())

(* The unchecked kernel walk refuses a store shorter than the extent
   [specialize] validated: a 4x4 cross5 over a 6x6 padded temporary at
   0, five coefficient streams at 36.. and the destination at 116 reach
   word 131. *)
let test_kernel_extent_guards_the_store () =
  let kernel = Kernel.lower (Ccc.Multi.of_pattern (Pattern.cross5 ())) in
  let spec =
    Kernel.specialize kernel ~sub_rows:4 ~sub_cols:4
      ~sources:[| { Kernel.base = 0; pcols = 6; pad = 1 } |]
      ~coeff_bases:[| 36; 52; 68; 84; 100 |]
      ~dst_base:116 ~words:(1 lsl 20) ()
  in
  check_int "extent" 132 (Kernel.extent spec);
  let short = Array.make 131 0.0 in
  Alcotest.check_raises "exec_node on a short store"
    (Invalid_argument
       "Kernel.exec_node: 131-word store is shorter than the 132-word walk \
        extent") (fun () -> Kernel.exec_node spec short);
  Alcotest.check_raises "exec_tile on a short store"
    (Invalid_argument
       "Kernel.exec_tile: 131-word store is shorter than the 132-word walk \
        extent") (fun () -> Kernel.exec_tile spec 0 short);
  Alcotest.check_raises "exec_tile past the last tile"
    (Invalid_argument "Kernel.exec_tile: tile out of range") (fun () ->
      Kernel.exec_tile spec (Kernel.tile_count spec) (Array.make 132 0.0));
  Kernel.exec_node spec (Array.make 132 0.0)

let test_estimate_matches_run () =
  let compiled = Tutil.compile_exn (Pattern.square9 ()) in
  let env = Tutil.env_for ~rows:(4 * 11) ~cols:(4 * 13) (Pattern.square9 ()) in
  let { Exec.stats = run_stats; _ } = Ccc.apply config compiled env in
  let est =
    Exec.estimate ~sub_rows:11 ~sub_cols:13 config [ Exec.compiled compiled ]
  in
  check_int "comm" run_stats.Stats.comm_cycles est.Stats.comm_cycles;
  check_int "compute" run_stats.Stats.compute_cycles est.Stats.compute_cycles;
  check_int "madds" run_stats.Stats.madds_issued est.Stats.madds_issued;
  check_float "frontend" run_stats.Stats.frontend_s est.Stats.frontend_s;
  check_int "flops" run_stats.Stats.useful_flops_per_iteration
    est.Stats.useful_flops_per_iteration

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "runtime"
    [
      ( "grid",
        [
          tc "get/set" test_grid_get_set;
          tc "circular indexing" test_grid_circular;
          tc "end-off indexing" test_grid_endoff;
          tc "max_abs_diff" test_grid_max_abs_diff;
          tc "flat roundtrip" test_grid_flat_roundtrip;
        ] );
      ( "dist",
        [
          tc "scatter/gather roundtrip" test_scatter_gather_roundtrip;
          tc "Figure 1 ownership" test_owner_figure1;
          tc "ragged shapes rejected" test_scatter_rejects_ragged;
          tc "broadcast fill" test_fill;
          tc "Figure 1 description" test_read_description_mentions_blocks;
        ] );
      ( "halo",
        [
          tc "matches global circular indexing" test_halo_matches_global_circular;
          tc "end-off fill at global edges" test_halo_endoff_fill;
          tc "skipped corners are poisoned" test_halo_corner_poisoning;
          tc "oversized border rejected" test_halo_rejects_oversized_border;
          tc "cycle model" test_halo_cycles_model;
        ] );
      ( "stripmine",
        [
          tc "21 = 8+8+4+1" test_strip_widths_21;
          tc "21 = 4x5+1 when width 8 is rejected" test_strip_widths_when_8_rejected;
          tc "strips cover all columns" test_strips_cover_columns;
          tc "halfstrips cover rows, sweeping upward"
            test_halfstrips_cover_rows_and_sweep_upward;
        ] );
      ( "reference",
        [
          tc "hand-computed result" test_reference_hand_computed;
          tc "end-off boundary" test_reference_endoff;
          tc "unbound array" test_reference_unbound;
          tc "shape mismatch" test_reference_shape_mismatch;
          tc "far CSHIFT offset stays grid-sized" test_reference_far_offset;
        ] );
      ( "stats",
        [
          tc "elapsed and rate" test_stats_elapsed_and_rate;
          tc "extrapolation to 2048 nodes" test_stats_extrapolation;
          tc "front-end overhead" test_stats_frontend_overhead;
          tc "flop efficiency" test_stats_efficiency;
        ] );
      ( "exec",
        [
          tc "too-small subgrid" test_exec_too_small;
          tc "iterations scale stats, not data"
            test_exec_iterations_scale_stats_not_data;
          tc "releases machine memory" test_exec_releases_memory;
          tc "estimate matches run" test_estimate_matches_run;
          tc "stores materialize the high-water mark"
            test_exec_materializes_high_water;
          tc "kernel extent guards the store"
            test_kernel_extent_guards_the_store;
        ] );
    ]
