(* Property-based tests (qcheck, registered as alcotest cases).

   The generators build random stencil patterns within the machine's
   register budget and random array data; the properties pin the
   system's core invariants:

   - compiled execution (both modes) agrees with the reference
     evaluator for arbitrary patterns, shapes and boundary semantics;
   - the reference evaluator reproduces, bit for bit, the per-point
     fold that defines it;
   - the analytic cycle model agrees with the cycle-accurate
     interpreter (asserted inside Exec.run's simulate path);
   - the halo exchange reproduces global circular indexing;
   - register allocation respects the budget and the LCM law;
   - strip mining tiles the axis exactly;
   - a pattern rendered to Fortran and recognized again is unchanged;
   - the lazily materialized node memory is indistinguishable from a
     store zero-filled to its full capacity;
   - the execution driver reports exactly the price walk's statistics
     for every statement kind, and a batch gives each statement the
     output of its own single run. *)

module Q = QCheck2
module Gen = QCheck2.Gen
module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Boundary = Ccc.Boundary
module Grid = Ccc.Grid
module Stats = Ccc.Stats
module Exec = Ccc.Exec

let config = Ccc.Config.default

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_offset =
  Gen.map2 (fun drow dcol -> Offset.make ~drow ~dcol)
    (Gen.int_range (-2) 2) (Gen.int_range (-2) 2)

let gen_offsets =
  (* 1..7 distinct offsets. *)
  Gen.map
    (fun offs ->
      List.sort_uniq Offset.compare offs)
    (Gen.list_size (Gen.int_range 1 7) gen_offset)

let gen_coeff index =
  Gen.oneof
    [
      Gen.return (Coeff.Array (Printf.sprintf "C%d" (index + 1)));
      Gen.map (fun v -> Coeff.Scalar v)
        (Gen.map (fun i -> float_of_int i /. 4.0) (Gen.int_range (-8) 8));
      Gen.return Coeff.One;
    ]

let gen_boundary =
  Gen.oneof
    [
      Gen.return Boundary.Circular;
      Gen.map (fun i -> Boundary.End_off (float_of_int i /. 2.0))
        (Gen.int_range (-2) 2);
    ]

let gen_pattern =
  let open Gen in
  gen_offsets >>= fun offsets ->
  gen_boundary >>= fun boundary ->
  Gen.flatten_l (List.mapi (fun i _ -> gen_coeff i) offsets) >>= fun coeffs ->
  Gen.bool >>= fun with_bias ->
  let taps = List.map2 Tap.make offsets coeffs in
  let bias = if with_bias then Some (Coeff.Array "BB") else None in
  return (Pattern.create ?bias ~boundary taps)

let print_pattern p = Format.asprintf "%a" Pattern.pp p

(* Deterministic data environment for a generated pattern. *)
let env_of_pattern ~rows ~cols p = Tutil.env_for ~rows ~cols p

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_fast_matches_reference =
  Q.Test.make ~name:"fast execution = reference evaluation" ~count:120
    ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = env_of_pattern ~rows:(4 * 6) ~cols:(4 * 6) p in
          let expected = Ccc.Reference.apply p env in
          let { Exec.output; _ } = Ccc.apply ~mode:Exec.Fast config compiled env in
          Grid.max_abs_diff expected output < 1e-9)

let prop_simulate_matches_reference =
  Q.Test.make ~name:"simulated execution = reference evaluation" ~count:40
    ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = env_of_pattern ~rows:(4 * 5) ~cols:(4 * 5) p in
          let expected = Ccc.Reference.apply p env in
          let { Exec.output; _ } =
            Ccc.apply ~mode:Exec.Simulate config compiled env
          in
          Grid.max_abs_diff expected output < 1e-9)

let prop_modes_agree_on_cycles =
  Q.Test.make ~name:"simulate and fast report identical cycles" ~count:40
    ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = env_of_pattern ~rows:(4 * 5) ~cols:(4 * 5) p in
          let s, f = Tutil.run_both_modes ~config compiled env in
          s.Exec.stats.Stats.compute_cycles = f.Exec.stats.Stats.compute_cycles
          && s.Exec.stats.Stats.madds_issued = f.Exec.stats.Stats.madds_issued)

let prop_halo_is_global_circular =
  let gen =
    Gen.tup3 (Gen.int_range 2 7) (Gen.int_range 2 7) (Gen.int_range 0 2)
  in
  Q.Test.make ~name:"halo exchange = global circular indexing" ~count:60
    ~print:(fun (r, c, p) -> Printf.sprintf "sub %dx%d pad %d" r c p)
    gen
    (fun (sub_rows, sub_cols, pad) ->
      Q.assume (pad <= sub_rows && pad <= sub_cols);
      let machine = Ccc.machine config in
      let g =
        Tutil.mixed_grid ~seed:42 ~rows:(4 * sub_rows) ~cols:(4 * sub_cols)
      in
      let d = Ccc.Dist.scatter machine g in
      let x =
        Ccc.Halo.exchange ~source:d ~pad ~boundary:Boundary.Circular
          ~needs_corners:true ()
      in
      let ok = ref true in
      for node = 0 to 15 do
        let nr, nc =
          Ccc.Geometry.coord_of_node (Ccc.Machine.geometry machine) node
        in
        for r = -pad to sub_rows + pad - 1 do
          for c = -pad to sub_cols + pad - 1 do
            let expected =
              Grid.get_circular g ((nr * sub_rows) + r) ((nc * sub_cols) + c)
            in
            let actual =
              Ccc_cm2.Memory.read
                (Ccc.Machine.memory machine node)
                (x.Ccc.Halo.padded.Ccc_cm2.Memory.base
                + ((r + pad) * x.Ccc.Halo.padded_cols)
                + c + pad)
            in
            if expected <> actual then ok := false
          done
        done
      done;
      !ok)

let prop_regalloc_budget_and_lcm =
  Q.Test.make ~name:"allocation: budget respected, unroll = LCM, rings >= span"
    ~count:200 ~print:print_pattern gen_pattern (fun p ->
      List.for_all
        (fun width ->
          let ms = Ccc.Multistencil.make p ~width in
          match Ccc_compiler.Regalloc.allocate ms ~available:31 with
          | Error _ -> true
          | Ok a ->
              a.Ccc_compiler.Regalloc.data_registers <= 31
              && a.Ccc_compiler.Regalloc.unroll
                 = Ccc_compiler.Regalloc.lcm_list
                     (List.map snd a.Ccc_compiler.Regalloc.ring_sizes)
              && List.for_all2
                   (fun (col : Ccc.Multistencil.column) (dcol, size) ->
                     col.Ccc.Multistencil.dcol = dcol
                     && size >= col.Ccc.Multistencil.span)
                   (Ccc.Multistencil.columns ms)
                   a.Ccc_compiler.Regalloc.ring_sizes)
        [ 1; 2; 4; 8 ])

let prop_strips_tile_axis =
  let gen = Gen.tup2 gen_pattern (Gen.int_range 1 64) in
  Q.Test.make ~name:"strip widths tile the axis" ~count:150
    ~print:(fun (p, w) -> Printf.sprintf "%s cols=%d" (print_pattern p) w)
    gen
    (fun (p, sub_cols) ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let widths =
            Ccc_runtime.Stripmine.strip_widths compiled ~sub_cols
          in
          List.fold_left ( + ) 0 widths = sub_cols
          && List.for_all (fun w -> w = 8 || w = 4 || w = 2 || w = 1) widths
          (* Greedy shaving: widths never increase along the axis. *)
          && List.for_all2 ( >= ) widths (List.tl widths @ [ 1 ]))

let prop_fortran_roundtrip =
  Q.Test.make ~name:"pattern -> Fortran -> recognizer roundtrip" ~count:200
    ~print:print_pattern gen_pattern (fun p ->
      (* A pattern with no shifted tap renders without any CSHIFT, and
         the recognizer (correctly) cannot identify the source array. *)
      Q.assume
        (List.exists
           (fun t -> not (Offset.equal t.Tap.offset Offset.zero))
           (Pattern.taps p));
      let text = Pattern.to_fortran p in
      match Ccc_frontend.Parser.parse_statement text with
      | exception Ccc_frontend.Parser.Error { message; _ } ->
          Q.Test.fail_report ("parse: " ^ message)
      | stmt -> begin
          match Ccc_frontend.Recognize.statement stmt with
          | Error ds ->
              Q.Test.fail_report
                (String.concat "; "
                   (List.map Ccc_frontend.Diagnostics.to_string ds))
          | Ok p' -> Pattern.equal p p'
        end)

let prop_useful_flops_formula =
  Q.Test.make ~name:"flop accounting: taps + terms - 1" ~count:200
    ~print:print_pattern gen_pattern (fun p ->
      let taps = Pattern.tap_count p in
      let bias = match Pattern.bias p with Some _ -> 1 | None -> 0 in
      Pattern.useful_flops_per_point p = (2 * taps) + bias - 1)

(* Multi-source generator: 2 or 3 sources, each with 1..3 distinct
   taps within the +-2 window. *)
let gen_multi =
  let open Gen in
  int_range 2 3 >>= fun nsources ->
  gen_boundary >>= fun boundary ->
  let gen_source_offsets =
    map (List.sort_uniq Offset.compare) (list_size (int_range 1 3) gen_offset)
  in
  flatten_l (List.init nsources (fun _ -> gen_source_offsets))
  >>= fun per_source ->
  let taps =
    List.concat
      (List.mapi
         (fun src offs ->
           List.mapi
             (fun i off ->
               {
                 Ccc.Multi.source = src;
                 tap =
                   Tap.make off
                     (Coeff.Array (Printf.sprintf "K%d_%d" src i));
               })
             offs)
         per_source)
  in
  let sources = List.init nsources (fun i -> Printf.sprintf "S%d" i) in
  return (Ccc.Multi.create ~boundary ~sources taps)

let print_multi m = Format.asprintf "%a" Ccc.Multi.pp m

let prop_fused_matches_reference =
  Q.Test.make ~name:"fused execution = multi-source reference" ~count:80
    ~print:print_multi gen_multi (fun m ->
      match Ccc.compile_multi config m with
      | Error _ -> Q.assume_fail ()
      | Ok fused ->
          let env =
            List.mapi
              (fun i name ->
                (name, Tutil.mixed_grid ~seed:(50 + i) ~rows:24 ~cols:24))
              (Ccc.Multi.referenced_arrays m)
          in
          let expected = Exec.reference_fused m env in
          let { Exec.output; _ } = Ccc.apply_fused config fused env in
          Grid.max_abs_diff expected output < 1e-9)

let prop_fused_simulate_matches_reference =
  Q.Test.make ~name:"fused cycle-accurate execution = reference" ~count:25
    ~print:print_multi gen_multi (fun m ->
      match Ccc.compile_multi config m with
      | Error _ -> Q.assume_fail ()
      | Ok fused ->
          let env =
            List.mapi
              (fun i name ->
                (name, Tutil.mixed_grid ~seed:(70 + i) ~rows:20 ~cols:20))
              (Ccc.Multi.referenced_arrays m)
          in
          let expected = Exec.reference_fused m env in
          let { Exec.output; _ } =
            Ccc.apply_fused ~mode:Exec.Simulate config fused env
          in
          Grid.max_abs_diff expected output < 1e-9)

let prop_estimate_consistent_with_run =
  Q.Test.make ~name:"estimate = run statistics" ~count:40
    ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let sub_rows = 6 and sub_cols = 9 in
          let env =
            env_of_pattern ~rows:(4 * sub_rows) ~cols:(4 * sub_cols) p
          in
          let { Exec.stats = r; _ } = Ccc.apply config compiled env in
          let e =
            Exec.estimate ~sub_rows ~sub_cols config [ Exec.compiled compiled ]
          in
          r.Stats.comm_cycles = e.Stats.comm_cycles
          && r.Stats.compute_cycles = e.Stats.compute_cycles
          && r.Stats.useful_flops_per_iteration
             = e.Stats.useful_flops_per_iteration)

let prop_machine_reuse_is_leak_free =
  (* A long-lived machine services many different stencils: every call
     must release its temporaries and keep matching the oracle. *)
  Q.Test.make ~name:"machine reuse across random patterns leaks nothing"
    ~count:30 ~print:print_pattern gen_pattern
    (let machine = Ccc.machine config in
     let free0 =
       Ccc_cm2.Memory.words_free (Ccc.Machine.memory machine 0)
     in
     fun p ->
       match Ccc.compile_pattern config p with
       | Error _ -> Q.assume_fail ()
       | Ok compiled ->
           let env = env_of_pattern ~rows:(4 * 5) ~cols:(4 * 5) p in
           let expected = Ccc.Reference.apply p env in
           let { Exec.output; _ } = Exec.run machine compiled env in
           Grid.max_abs_diff expected output < 1e-9
           && Ccc_cm2.Memory.words_free (Ccc.Machine.memory machine 0) = free0)

(* ------------------------------------------------------------------ *)
(* Parallel execution: the domain pool must not change a single bit.

   One resident pool per jobs value, created once for the whole suite
   (OCaml caps live domains, so per-case pools would exhaust the
   runtime) and joined at process exit. *)

let pools = List.map (fun jobs -> (jobs, Ccc.Pool.create ~jobs)) [ 2; 3; 7 ]
let () = at_exit (fun () -> List.iter (fun (_, p) -> Ccc.Pool.shutdown p) pools)
let bit_identical a b = Grid.max_abs_diff a b = 0.0

let prop_pool_bit_identical =
  Q.Test.make
    ~name:"pooled execution bit-identical to sequential (jobs 2, 3, 7)"
    ~count:12 ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = env_of_pattern ~rows:(4 * 6) ~cols:(4 * 6) p in
          let expected = Ccc.Reference.apply p env in
          let run ?pool inner =
            (Exec.run ?pool ~inner (Ccc.machine config) compiled env)
              .Exec.output
          in
          let seq_lowered = run Exec.Lowered in
          let seq_tapwalk = run Exec.Tapwalk in
          Grid.max_abs_diff expected seq_lowered < 1e-9
          && bit_identical seq_lowered seq_tapwalk
          && List.for_all
               (fun (_, pool) ->
                 bit_identical seq_lowered (run ~pool Exec.Lowered)
                 && bit_identical seq_tapwalk (run ~pool Exec.Tapwalk))
               pools)

let prop_pool_simulate =
  (* Exercises Simulate's per-node Cost = Interp assertion with the
     interpreter running inside pooled chunks. *)
  Q.Test.make ~name:"simulate under the pool = reference (jobs 3)" ~count:6
    ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let pool = List.assoc 3 pools in
          let env = env_of_pattern ~rows:(4 * 5) ~cols:(4 * 5) p in
          let expected = Ccc.Reference.apply p env in
          let { Exec.output; _ } =
            Exec.run ~mode:Exec.Simulate ~pool (Ccc.machine config) compiled env
          in
          Grid.max_abs_diff expected output < 1e-9)

let prop_kernel_matches_simulate =
  (* The build-time-verified kernel (the engine's cached artifact) must
     agree with the cycle-accurate interpreter on the paper's stencils
     over random data. *)
  let gen =
    Gen.tup2 (Gen.oneofl [ "cross5"; "square9"; "diamond13" ])
      (Gen.int_range 0 10_000)
  in
  Q.Test.make ~name:"verified kernel Fast = cycle-accurate Simulate (gallery)"
    ~count:9
    ~print:(fun (name, seed) -> Printf.sprintf "%s seed=%d" name seed)
    gen
    (fun (name, seed) ->
      let p = List.assoc name (Ccc.Pattern.gallery ()) in
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let kernel = Ccc.Kernel.build config compiled in
          let env = Tutil.env_for ~seed ~rows:24 ~cols:24 p in
          let fast =
            (Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel
               (Ccc.machine config) compiled env)
              .Exec.output
          in
          let sim =
            (Exec.run ~mode:Exec.Simulate (Ccc.machine config) compiled env)
              .Exec.output
          in
          Grid.max_abs_diff sim fast < 1e-9)

let prop_tile_geometry =
  (* Tile blocking is pure scheduling: any (rows, cols) geometry —
     degenerate 1x1 tiles, tiles larger than the subgrid, non-dividing
     edges — must write bits identical to the whole-subgrid walk and
     to the tapwalk, sequentially and at every jobs value, and stay
     within 1e-9 of the reference.  (The subgrid here is 6x6, so the
     random range covers dividing, non-dividing and oversized tiles.) *)
  let gen_tile =
    Gen.oneof
      [
        Gen.oneofl [ (1, 1); (1, 7); (7, 1); (64, 64) ];
        Gen.tup2 (Gen.int_range 1 9) (Gen.int_range 1 9);
      ]
  in
  let gen =
    Gen.tup3
      (Gen.oneofl [ "cross5"; "square9"; "diamond13" ])
      gen_tile
      (Gen.int_range 0 10_000)
  in
  Q.Test.make
    ~name:"tiled kernel bit-identical (random geometry; jobs 1, 2, 7)"
    ~count:9
    ~print:(fun (name, (tr, tc), seed) ->
      Printf.sprintf "%s tile=%dx%d seed=%d" name tr tc seed)
    gen
    (fun (name, tile, seed) ->
      let p = List.assoc name (Ccc.Pattern.gallery ()) in
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = Tutil.env_for ~seed ~rows:24 ~cols:24 p in
          let run ?pool ?tile inner =
            (Exec.run ?pool ?tile ~inner (Ccc.machine config) compiled env)
              .Exec.output
          in
          (* a tile larger than any subgrid side clamps to the
             whole-subgrid walk: the untiled baseline *)
          let untiled = run ~tile:(1_000, 1_000) Exec.Lowered in
          let expected = Ccc.Reference.apply p env in
          Grid.max_abs_diff expected untiled < 1e-9
          && bit_identical untiled (run Exec.Tapwalk)
          && bit_identical untiled (run ~tile Exec.Lowered)
          && List.for_all
               (fun jobs ->
                 let pool = List.assoc jobs pools in
                 bit_identical untiled (run ~pool ~tile Exec.Lowered))
               [ 2; 7 ])

(* ------------------------------------------------------------------ *)
(* Degenerate shapes: the corners of the grammar the uniform generator
   almost never hits — a single tap (including the 1x1 identity at the
   origin), one-row and one-column stencils, all-zero coefficients,
   and EOSHIFT-only (end-off) borders.  Every execution path must
   agree on all of them: the host reference evaluator, the
   cycle-accurate interpreter, the tap-walking inner loop, and the
   pre-verified lowered kernel. *)

let long_factor =
  (* QCHECK_LONG deepens the sweep; the default tier keeps the whole
     suite inside its time budget. *)
  match Sys.getenv_opt "QCHECK_LONG" with Some _ -> 4 | None -> 1

let gen_degenerate =
  let open Gen in
  let with_taps offsets_gen boundary_gen =
    offsets_gen >>= fun offsets ->
    boundary_gen >>= fun boundary ->
    flatten_l (List.mapi (fun i _ -> gen_coeff i) offsets) >>= fun coeffs ->
    return (Pattern.create ~boundary (List.map2 Tap.make offsets coeffs))
  in
  let line make =
    map
      (fun ds -> List.map make (List.sort_uniq compare ds))
      (list_size (int_range 1 5) (int_range (-2) 2))
  in
  oneof
    [
      (* the 1x1 corner: exactly one tap at the origin *)
      with_taps (return [ Offset.zero ]) gen_boundary;
      (* a single tap anywhere in the window *)
      with_taps (map (fun o -> [ o ]) gen_offset) gen_boundary;
      (* single-row and single-column stencils *)
      with_taps (line (fun dcol -> Offset.make ~drow:0 ~dcol)) gen_boundary;
      with_taps (line (fun drow -> Offset.make ~drow ~dcol:0)) gen_boundary;
      (* all-zero coefficients: the answer is exactly zero *)
      ( gen_offsets >>= fun offsets ->
        gen_boundary >>= fun boundary ->
        return
          (Pattern.create ~boundary
             (List.map (fun o -> Tap.make o (Coeff.Scalar 0.0)) offsets)) );
      (* EOSHIFT-only: every border read is an end-off fill *)
      with_taps gen_offsets
        (map
           (fun i -> Boundary.End_off (float_of_int i /. 2.0))
           (int_range (-2) 2));
    ]

let prop_degenerate_paths_agree =
  Q.Test.make
    ~name:"degenerate shapes: reference = simulate = tapwalk = lowered kernel"
    ~count:(30 * long_factor) ~print:print_pattern gen_degenerate (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          let env = env_of_pattern ~rows:(4 * 5) ~cols:(4 * 5) p in
          let expected = Ccc.Reference.apply p env in
          let machine = Ccc.machine config in
          let sim =
            (Exec.run ~mode:Exec.Simulate machine compiled env).Exec.output
          in
          let tapwalk =
            (Exec.run ~inner:Exec.Tapwalk machine compiled env).Exec.output
          in
          let kernel = Ccc.Kernel.build config compiled in
          let lowered =
            (Exec.run ~inner:Exec.Lowered ~kernel machine compiled env)
              .Exec.output
          in
          Grid.max_abs_diff expected sim < 1e-9
          && Grid.max_abs_diff expected tapwalk < 1e-9
          && Grid.max_abs_diff expected lowered < 1e-9
          && Grid.max_abs_diff tapwalk lowered = 0.0)

(* ------------------------------------------------------------------ *)
(* The transform-domain path: FFT convolution against the reference
   oracle, the cost-model-driven backend choice, and pooled
   bit-stability.  The transform path only accepts spatially uniform
   coefficients, so its environments flatten every coefficient array
   to its corner value while the source grid stays fully mixed. *)

let uniform_env_of_pattern ~rows ~cols p =
  let src = Pattern.source_var p in
  List.map
    (fun (name, g) ->
      if name = src then (name, g)
      else (name, Grid.constant ~rows ~cols (Grid.get g 0 0)))
    (env_of_pattern ~rows ~cols p)

let prop_fft_matches_reference =
  (* includes the degenerate corners: single taps, lines, all-zero
     coefficients, EOSHIFT-only borders — and non-square,
     non-power-of-two shapes, which exercise the padding logic *)
  Q.Test.make ~name:"fft convolution = reference evaluation"
    ~count:(60 * long_factor) ~print:print_pattern
    (Gen.oneof [ gen_pattern; gen_degenerate ])
    (fun p ->
      let rows = 24 and cols = 20 in
      let env = uniform_env_of_pattern ~rows ~cols p in
      let expected = Ccc.Reference.apply p env in
      let out = Ccc.Fft.convolve p env in
      let pad = Pattern.max_border p in
      Grid.max_abs_diff expected out < 1e-9
      && Ccc.Cost.fft_padded ~n:rows ~pad = Ccc.Fft.padded_size ~n:rows ~pad
      && Ccc.Cost.fft_padded ~n:cols ~pad = Ccc.Fft.padded_size ~n:cols ~pad)

let prop_backend_choice_follows_cost =
  (* the planner is a pure function: same inputs, same choice — and on
     either side of the crossover it must agree with pricing the
     compiled side by [estimate] and the transform side by
     [Cost.fft_cycles], ties to compiled *)
  let gen = Gen.tup2 gen_pattern (Gen.oneofl [ 4; 8; 16; 64; 256 ]) in
  Q.Test.make
    ~name:"backend selection: deterministic, priced by the cost model"
    ~count:(60 * long_factor)
    ~print:(fun (p, sub) -> Printf.sprintf "sub %d: %s" sub (print_pattern p))
    gen
    (fun (p, sub) ->
      let compiled =
        match Ccc.compile_pattern config p with
        | Ok c -> Some c
        | Error _ -> None
      in
      let choose () =
        Exec.select_backend ~sub_rows:sub ~sub_cols:sub config compiled
      in
      let choice = choose () in
      choice = choose ()
      &&
      match compiled with
      | None -> choice = `Fft
      | Some c -> (
          (* Both sides are the price walk's full totals: the transform
             pays the halo exchange its run performs, on top of the
             transposes and compute of [Cost.fft_cycles]. *)
          let total st =
            let s = Exec.estimate ~sub_rows:sub ~sub_cols:sub config [ st ] in
            s.Stats.comm_cycles + s.Stats.compute_cycles
          in
          match total (Exec.compiled c) with
          | exception Exec.Too_small _ -> choice = `Compiled
          | direct ->
              let pad = Pattern.max_border p in
              let rows = sub * config.Ccc.Config.node_rows
              and cols = sub * config.Ccc.Config.node_cols in
              let fft = total (Exec.transform p) in
              fft
              = Ccc.Halo.cycles_model ~primitive:Ccc.Halo.Node_level
                  ~sub_rows:sub ~sub_cols:sub ~pad
                  ~corners:(Pattern.needs_corners p) config
                + Ccc.Cost.fft_cycles config ~rows ~cols ~pad
              && choice = if direct <= fft then `Compiled else `Fft))

let prop_fft_pool_bit_identical =
  Q.Test.make ~name:"fft path bit-identical across pool sizes" ~count:15
    ~print:print_pattern gen_pattern (fun p ->
      let rows = 4 * 6 and cols = 4 * 6 in
      let env = uniform_env_of_pattern ~rows ~cols p in
      let run ?pool () =
        (Exec.single
           (Exec.exec ?pool
              (Exec.Arena.transient (Ccc.machine config))
              [ Exec.transform p ] env))
          .Exec.output
      in
      let seq = run () in
      Grid.max_abs_diff (Ccc.Reference.apply p env) seq < 1e-9
      && List.for_all
           (fun jobs ->
             let pool = List.assoc jobs pools in
             bit_identical seq (run ~pool ()))
           [ 2; 7 ])

(* ------------------------------------------------------------------ *)
(* The one driver's contract: every statement kind — compiled, fused,
   transform — reports exactly the statistics the price walk predicts,
   the attribution's compute is that walk's compute, and a batch gives
   each statement the output and compute of its own single run. *)

type drawn =
  | Single of Pattern.t
  | Fused of Ccc.Multi.t
  | Transformed of Pattern.t

let print_drawn = function
  | Single p -> "compiled " ^ print_pattern p
  | Fused m -> "fused " ^ print_multi m
  | Transformed p -> "transform " ^ print_pattern p

let gen_drawn =
  Gen.oneof
    [
      Gen.map (fun p -> Single p) gen_pattern;
      Gen.map (fun m -> Fused m) gen_multi;
      Gen.map (fun p -> Transformed p) gen_pattern;
    ]

let multi_env ~rows ~cols m =
  List.mapi
    (fun i name -> (name, Tutil.mixed_grid ~seed:(90 + i) ~rows ~cols))
    (Ccc.Multi.referenced_arrays m)

let prop_driver_stats_are_the_walk =
  Q.Test.make ~name:"driver stats = estimate; attribute compute = estimate"
    ~count:60 ~print:print_drawn gen_drawn (fun drawn ->
      let sub_rows = 5 and sub_cols = 6 in
      let rows = 4 * sub_rows and cols = 4 * sub_cols in
      let statement, env =
        match drawn with
        | Single p -> (
            match Ccc.compile_pattern config p with
            | Error _ -> Q.assume_fail ()
            | Ok c -> (Exec.compiled c, env_of_pattern ~rows ~cols p))
        | Fused m -> (
            match Ccc.compile_multi config m with
            | Error _ -> Q.assume_fail ()
            | Ok f -> (Exec.fused f, multi_env ~rows ~cols m))
        | Transformed p ->
            (Exec.transform p, uniform_env_of_pattern ~rows ~cols p)
      in
      let program = [ statement ] in
      let run mode =
        (Exec.exec ~mode (Exec.Arena.transient (Ccc.machine config)) program
           env)
          .Exec.batch_stats
      in
      let estimate = Exec.estimate ~sub_rows ~sub_cols config program in
      let attributed = Exec.attribute ~sub_rows ~sub_cols config program in
      (* Simulate asserts Cost = Interp in cycles and madds on every
         node, fused statements included *)
      run Exec.Fast = estimate
      && run Exec.Simulate = estimate
      && Ccc.Profiler.total attributed.Ccc.Profiler.compute
         = estimate.Stats.compute_cycles
      && attributed.Ccc.Profiler.comm_cycles = estimate.Stats.comm_cycles
      && attributed.Ccc.Profiler.frontend_s = estimate.Stats.frontend_s)

(* Two to four statements over one source with one boundary, their
   coefficient arrays bound by name in one shared environment. *)
let gen_batch =
  let open Gen in
  gen_boundary >>= fun boundary ->
  list_size (int_range 2 4)
    (gen_offsets >>= fun offsets ->
     flatten_l (List.mapi (fun i _ -> gen_coeff i) offsets) >>= fun coeffs ->
     return (Pattern.create ~boundary (List.map2 Tap.make offsets coeffs)))

let prop_batch_is_its_singles =
  Q.Test.make ~name:"a batch gives each statement its single run"
    ~count:40
    ~print:(fun ps -> String.concat " / " (List.map print_pattern ps))
    gen_batch (fun patterns ->
      let compiled =
        List.map
          (fun p ->
            match Ccc.compile_pattern config p with
            | Ok c -> c
            | Error _ -> Q.assume_fail ())
          patterns
      in
      let rows = 4 * 5 and cols = 4 * 7 in
      let env =
        List.map
          (fun name ->
            (name, Tutil.mixed_grid ~seed:(Hashtbl.hash name) ~rows ~cols))
          (List.sort_uniq compare
             (List.concat_map Ccc.Reference.referenced_arrays patterns))
      in
      let machine = Ccc.machine config in
      let batch =
        Exec.exec (Exec.Arena.create machine)
          (List.map (fun c -> Exec.compiled c) compiled)
          env
      in
      List.for_all2
        (fun c (r : Exec.result) ->
          let single = Exec.run machine c env in
          bit_identical single.Exec.output r.Exec.output
          && single.Exec.stats.Stats.compute_cycles
             = r.Exec.stats.Stats.compute_cycles
          && single.Exec.stats.Stats.madds_issued
             = r.Exec.stats.Stats.madds_issued)
        compiled batch.Exec.batch_results)

(* ------------------------------------------------------------------ *)
(* The reference evaluator against its definition, [Tutil.spec_apply]:
   every cell bit for bit (NaN payloads and signed zeros included), or
   the same exception when a binding is missing or mis-shaped.  Cases
   span both boundaries (EOSHIFT with a nonzero fill), array, literal
   and implicit-1.0 coefficients and biases, NaN and infinite cells,
   1xN, Nx1 and 1x1 grids, and borders as wide as the grid side or
   wider. *)

let gen_reference_case =
  let open Gen in
  let side = frequency [ (1, return 1); (4, int_range 1 12) ] in
  let finite = map (fun i -> float_of_int i /. 8.0) (int_range (-64) 64) in
  let nonfinite =
    oneofl
      [
        Float.nan;
        Int64.float_of_bits 0xFFF8_0000_0000_0A5FL;
        Float.infinity;
        Float.neg_infinity;
        -0.0;
      ]
  in
  side >>= fun rows ->
  side >>= fun cols ->
  int_range 0 4 >>= fun odds ->
  let cell =
    if odds = 0 then finite else frequency [ (40, finite); (odds, nonfinite) ]
  in
  let far = (2 * max rows cols) + 3 in
  oneof [ int_range 0 3; return (max rows cols); int_range 0 far ]
  >>= fun reach ->
  let delta = int_range (-reach) reach in
  list_size (int_range 1 25) (pair delta delta) >>= fun offsets ->
  let offsets = List.sort_uniq compare offsets in
  oneof
    [
      return Boundary.Circular;
      map (fun f -> Boundary.End_off f)
        (oneof
           [ map (fun i -> float_of_int i /. 4.0) (int_range 1 8); nonfinite ]);
    ]
  >>= fun boundary ->
  let coeff name =
    oneof
      [
        return (Coeff.Array name);
        map (fun v -> Coeff.Scalar v) cell;
        return Coeff.One;
      ]
  in
  flatten_l
    (List.mapi (fun i _ -> coeff (Printf.sprintf "C%d" (i + 1))) offsets)
  >>= fun coeffs ->
  opt (coeff "BB") >>= fun bias ->
  let pattern =
    Pattern.create ?bias ~boundary
      (List.map2
         (fun (drow, dcol) coeff -> Tap.make (Offset.make ~drow ~dcol) coeff)
         offsets coeffs)
  in
  let names =
    List.sort_uniq compare (Ccc.Reference.referenced_arrays pattern)
  in
  flatten_l
    (List.map
       (fun name ->
         map
           (fun cells ->
             (name, Grid.of_flat_array ~rows ~cols (Array.of_list cells)))
           (list_repeat (rows * cols) cell))
       names)
  >>= fun env ->
  (* Now and then one binding goes missing or takes another shape. *)
  let victim = int_range 0 (List.length env - 1) in
  frequency
    [
      (10, return env);
      (1, map (fun i -> List.filteri (fun j _ -> j <> i) env) victim);
      ( 1,
        map
          (fun i ->
            List.mapi
              (fun j (name, g) ->
                (name, if j = i then Grid.create ~rows:(rows + 1) ~cols else g))
              env)
          victim );
    ]
  >>= fun env -> return (rows, cols, pattern, env)

let prop_reference_matches_spec =
  Q.Test.make ~name:"resolved loop = per-point fold, bit for bit" ~count:500
    ~print:(fun (rows, cols, p, env) ->
      Printf.sprintf "%dx%d %s, bound %s" rows cols (print_pattern p)
        (String.concat " " (List.map fst env)))
    gen_reference_case
    (fun (_, _, p, env) ->
      let outcome f =
        match f () with
        | g -> Ok g
        | exception Ccc.Reference.Unbound name -> Error ("Unbound " ^ name)
        | exception Ccc.Reference.Shape_mismatch m ->
            Error ("Shape_mismatch " ^ m)
      in
      match
        (outcome (fun () -> Ccc.Reference.apply p env),
         outcome (fun () -> Tutil.spec_apply p env))
      with
      | Ok got, Ok want -> (
          match Tutil.bit_differences got want with
          | [] -> true
          | (r, c) :: _ as diffs ->
              let bits g = Int64.bits_of_float (Grid.get g r c) in
              Q.Test.fail_reportf
                "%d cells differ; (%d,%d) holds %016Lx, spec %016Lx"
                (List.length diffs) r c (bits got) (bits want))
      | Error a, Error b when a = b -> true
      | Error e, _ | _, Error e ->
          Q.Test.fail_reportf "outcomes differ: %s" e)

(* ------------------------------------------------------------------ *)
(* Node memory: the lazily materialized store against an eager model
   zero-filled to its full capacity up front.  Random operation
   sequences reach unallocated addresses, addresses past the
   materialized prefix and out-of-bounds ones; every operation must
   return the same value, region or exception message on both, and the
   final words_free and contents must agree word for word. *)

module Memory = Ccc_cm2.Memory

module Eager_memory = struct
  type t = { store : float array; mutable next_free : int }

  let create ~words = { store = Array.make words 0.0; next_free = 0 }

  let read t addr =
    if addr < 0 || addr >= Array.length t.store then
      invalid_arg (Printf.sprintf "Memory.read: address %d out of bounds" addr);
    t.store.(addr)

  let write t addr v =
    if addr < 0 || addr >= Array.length t.store then
      invalid_arg
        (Printf.sprintf "Memory.write: address %d out of bounds" addr);
    t.store.(addr) <- v

  let alloc t ~words:n =
    if n < 0 then invalid_arg "Memory.alloc: negative size";
    if t.next_free + n > Array.length t.store then
      failwith
        (Printf.sprintf
           "Memory.alloc: out of node memory (%d requested, %d free)" n
           (Array.length t.store - t.next_free));
    let region = { Memory.base = t.next_free; words = n } in
    t.next_free <- t.next_free + n;
    region

  let free_all_after t (region : Memory.region) =
    if region.base < 0 || region.words < 0 then
      invalid_arg "Memory.free_all_after: negative region";
    let high = region.base + region.words in
    if high > t.next_free then invalid_arg "Memory.free_all_after: stale region";
    t.next_free <- high

  let words_free t = Array.length t.store - t.next_free

  let blit_out t (region : Memory.region) =
    if region.base < 0 || region.base + region.words > Array.length t.store
    then invalid_arg "Memory.blit_out: bad region";
    Array.sub t.store region.base region.words

  let blit_in t (region : Memory.region) data =
    if Array.length data <> region.words then
      invalid_arg "Memory.blit_in: size mismatch";
    Array.blit data 0 t.store region.base region.words

  (* The whole capacity is materialized already: only the bound. *)
  let reserve t n =
    if n < 0 || n > Array.length t.store then
      invalid_arg
        (Printf.sprintf "Memory.reserve: %d words outside a %d-word capacity"
           n (Array.length t.store))
end

type mem_op =
  | Alloc of int
  | Free_nth of int  (** roll back to the n-th region allocated so far *)
  | Free_region of int * int  (** roll back to an arbitrary region *)
  | Read of int
  | Write of int * float
  | Blit_in of int * int * int  (** base, words, data length *)
  | Blit_out of int * int
  | Reserve of int

let print_mem_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free_nth i -> Printf.sprintf "free_nth %d" i
  | Free_region (b, w) -> Printf.sprintf "free_region {%d,%d}" b w
  | Read a -> Printf.sprintf "read %d" a
  | Write (a, v) -> Printf.sprintf "write %d %g" a v
  | Blit_in (b, w, n) -> Printf.sprintf "blit_in {%d,%d} len %d" b w n
  | Blit_out (b, w) -> Printf.sprintf "blit_out {%d,%d}" b w
  | Reserve n -> Printf.sprintf "reserve %d" n

let gen_mem_case =
  let open Gen in
  int_range 1 48 >>= fun capacity ->
  let addr = int_range (-2) (capacity + 2) in
  let size = int_range (-1) ((capacity / 2) + 2) in
  let value = map (fun i -> float_of_int i /. 4.0) (int_range (-40) 40) in
  let op =
    oneof
      [
        map (fun n -> Alloc n) size;
        map (fun i -> Free_nth i) (int_range 0 8);
        map2 (fun b w -> Free_region (b, w)) addr size;
        map (fun a -> Read a) addr;
        map2 (fun a v -> Write (a, v)) addr value;
        map3
          (fun b w slack -> Blit_in (b, max 0 w, max 0 w + slack))
          addr size
          (frequency [ (5, return 0); (1, return 1) ]);
        map2 (fun b w -> Blit_out (b, w)) addr size;
        map (fun n -> Reserve n) (int_range (-1) (capacity + 1));
      ]
  in
  map (fun ops -> (capacity, ops)) (list_size (int_range 1 40) op)

let prop_lazy_memory_matches_eager =
  Q.Test.make ~name:"lazy store = full-capacity store" ~count:500
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity %d: %s" capacity
        (String.concat "; " (List.map print_mem_op ops)))
    gen_mem_case
    (fun (capacity, ops) ->
      let lazy_mem = Memory.create ~words:capacity in
      let eager = Eager_memory.create ~words:capacity in
      let regions = ref [] in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Invalid_argument m -> Error ("Invalid_argument " ^ m)
        | exception Failure m -> Error ("Failure " ^ m)
      in
      let same what a b =
        if a <> b then Q.Test.fail_reportf "%s: lazy and eager stores differ" what
      in
      let region b w = { Memory.base = b; words = w } in
      List.iter
        (fun op ->
          let name = print_mem_op op in
          (match op with
          | Alloc n ->
              let l = outcome (fun () -> Memory.alloc lazy_mem ~words:n) in
              same name l (outcome (fun () -> Eager_memory.alloc eager ~words:n));
              Result.iter (fun r -> regions := !regions @ [ r ]) l
          | Free_nth i ->
              let r =
                match List.nth_opt !regions i with
                | Some r -> r
                | None -> region 0 0
              in
              same name
                (outcome (fun () -> Memory.free_all_after lazy_mem r))
                (outcome (fun () -> Eager_memory.free_all_after eager r))
          | Free_region (b, w) ->
              same name
                (outcome (fun () -> Memory.free_all_after lazy_mem (region b w)))
                (outcome (fun () -> Eager_memory.free_all_after eager (region b w)))
          | Read a ->
              same name
                (outcome (fun () -> Memory.read lazy_mem a))
                (outcome (fun () -> Eager_memory.read eager a))
          | Write (a, v) ->
              same name
                (outcome (fun () -> Memory.write lazy_mem a v))
                (outcome (fun () -> Eager_memory.write eager a v))
          | Blit_in (b, w, n) ->
              let data = Array.init n (fun i -> float_of_int (i + 1)) in
              same name
                (outcome (fun () -> Memory.blit_in lazy_mem (region b w) data))
                (outcome (fun () -> Eager_memory.blit_in eager (region b w) data))
          | Blit_out (b, w) ->
              same name
                (outcome (fun () -> Memory.blit_out lazy_mem (region b w)))
                (outcome (fun () -> Eager_memory.blit_out eager (region b w)))
          | Reserve n ->
              same name
                (outcome (fun () -> Memory.reserve lazy_mem n))
                (outcome (fun () -> Eager_memory.reserve eager n)));
          (* The materialized prefix covers every live allocation and
             never outgrows the capacity. *)
          let len = Array.length (Memory.raw lazy_mem) in
          if len < capacity - Memory.words_free lazy_mem || len > capacity then
            Q.Test.fail_reportf "after %s: %d-word prefix, %d words live" name
              len
              (capacity - Memory.words_free lazy_mem))
        ops;
      same "words_free" (Memory.words_free lazy_mem)
        (Eager_memory.words_free eager);
      same "capacity" capacity (Memory.words lazy_mem);
      same "contents"
        (Array.init capacity (Memory.read lazy_mem))
        eager.Eager_memory.store;
      true)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "execution",
        List.map to_alcotest
          [
            prop_fast_matches_reference;
            prop_simulate_matches_reference;
            prop_modes_agree_on_cycles;
            prop_estimate_consistent_with_run;
            prop_machine_reuse_is_leak_free;
            prop_degenerate_paths_agree;
          ] );
      ( "parallel",
        List.map to_alcotest
          [
            prop_pool_bit_identical;
            prop_pool_simulate;
            prop_kernel_matches_simulate;
            prop_tile_geometry;
          ] );
      ( "communication",
        List.map to_alcotest [ prop_halo_is_global_circular ] );
      ( "transform",
        List.map to_alcotest
          [
            prop_fft_matches_reference;
            prop_backend_choice_follows_cost;
            prop_fft_pool_bit_identical;
          ] );
      ( "fused",
        List.map to_alcotest
          [ prop_fused_matches_reference; prop_fused_simulate_matches_reference ]
      );
      ( "driver",
        List.map to_alcotest
          [ prop_driver_stats_are_the_walk; prop_batch_is_its_singles ] );
      ( "compiler",
        List.map to_alcotest
          [ prop_regalloc_budget_and_lcm; prop_strips_tile_axis ] );
      ( "frontend",
        List.map to_alcotest [ prop_fortran_roundtrip ] );
      ( "accounting",
        List.map to_alcotest [ prop_useful_flops_formula ] );
      ("reference", List.map to_alcotest [ prop_reference_matches_spec ]);
      ("memory", List.map to_alcotest [ prop_lazy_memory_matches_eager ]);
    ]
