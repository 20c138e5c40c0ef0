(* The transform-domain execution path (lib/runtime/fft.ml) and its
   engine integration:

   - the arithmetic core: bit-reversal permutation, on-demand twiddle
     factors, and the iterative radix-2 transform whose forward and
     inverse composition is the identity to 1e-12;
   - padded-size selection: the smallest power of two covering the
     grid plus both borders (the classical n + k - 1 bound);
   - plan introspection and rebinding: same values leave the cached
     spectrum untouched, new values re-transform it in place;
   - the engine's plan cache: a repeated dense request is a cache hit
     that serves the standing transformed plan without re-planning
     (engine.fft.builds stays at one while hits climb);
   - the dense fallthrough: cross9 and diamond13 restricted to width 8
     reproduce the paper's section-6 rejections on the compiled path,
     yet [run_guarded] completes them through the transform plan.

   Self-contained (runs under the @fft alias as its own executable). *)

module Pattern = Ccc.Pattern
module Offset = Ccc.Offset
module Coeff = Ccc.Coeff
module Tap = Ccc.Tap
module Grid = Ccc.Grid
module Exec = Ccc.Exec
module Fft = Ccc.Fft
module Engine = Ccc.Engine
module Outcome = Ccc.Outcome

let config = Ccc.Config.default

(* --- helpers ------------------------------------------------------ *)

let mixed_grid ~seed ~rows ~cols =
  Grid.init ~rows ~cols (fun r c ->
      let h = (seed * 0x9e3779b1) lxor (r * 31) lxor (c * 131) in
      let h = h lxor (h lsr 13) in
      float_of_int (h land 0xffff) /. 65536.0 -. 0.5)

(* The transform path requires spatially uniform coefficients: mixed
   source, per-name constant for everything else. *)
let uniform_env_for ~rows ~cols pattern =
  let src = Pattern.source_var pattern in
  List.map
    (fun name ->
      if name = src then (name, mixed_grid ~seed:7 ~rows ~cols)
      else
        ( name,
          Grid.constant ~rows ~cols
            (0.25 +. (float_of_int (Hashtbl.hash name land 0xFF) /. 256.0)) ))
    (List.sort_uniq compare (Ccc.Reference.referenced_arrays pattern))

(* A dense k x k Gaussian: more taps than any width's register budget,
   so the compiler rejects it and only the transform path serves it. *)
let gauss k sigma =
  let half = k / 2 in
  let taps = ref [] in
  for dr = -half to half do
    for dc = -half to half do
      let w =
        exp (-.(float_of_int ((dr * dr) + (dc * dc)) /. (2.0 *. sigma *. sigma)))
      in
      taps :=
        Tap.make (Offset.make ~drow:dr ~dcol:dc) (Coeff.Scalar w) :: !taps
    done
  done;
  Pattern.create ~boundary:Ccc.Boundary.Circular (List.rev !taps)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- arithmetic core ---------------------------------------------- *)

let test_next_pow2 () =
  List.iter
    (fun (n, want) -> check_int (Printf.sprintf "next_pow2 %d" n) want (Fft.next_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (31, 32); (33, 64); (1000, 1024) ]

let test_padded_size () =
  (* smallest power of two >= n + 2*pad, i.e. >= n + (k - 1) *)
  check_int "32 pad 2 -> 64" 64 (Fft.padded_size ~n:32 ~pad:2);
  check_int "28 pad 2 -> 32" 32 (Fft.padded_size ~n:28 ~pad:2);
  check_int "32 pad 0 -> 32" 32 (Fft.padded_size ~n:32 ~pad:0);
  check_int "1 pad 0 -> 1" 1 (Fft.padded_size ~n:1 ~pad:0);
  check_int "20 pad 4 -> 32" 32 (Fft.padded_size ~n:20 ~pad:4);
  (* the classical linear-convolution bound n + k - 1 *)
  for n = 1 to 40 do
    for pad = 0 to 6 do
      let p = Fft.padded_size ~n ~pad in
      let k = (2 * pad) + 1 in
      check_bool
        (Printf.sprintf "padded_size %d/%d covers n+k-1" n pad)
        true
        (p >= n + k - 1 && p land (p - 1) = 0)
    done
  done

let test_bit_reverse () =
  check_int "rev3 1 = 4" 4 (Fft.bit_reverse ~bits:3 1);
  check_int "rev3 3 = 6" 6 (Fft.bit_reverse ~bits:3 3);
  check_int "rev3 4 = 1" 1 (Fft.bit_reverse ~bits:3 4);
  check_int "rev1 1 = 1" 1 (Fft.bit_reverse ~bits:1 1);
  (* an involution and a permutation at every width *)
  for bits = 1 to 8 do
    let n = 1 lsl bits in
    let seen = Array.make n false in
    for i = 0 to n - 1 do
      let r = Fft.bit_reverse ~bits i in
      check_int
        (Printf.sprintf "rev%d involutive at %d" bits i)
        i
        (Fft.bit_reverse ~bits r);
      seen.(r) <- true
    done;
    check_bool (Printf.sprintf "rev%d is a permutation" bits) true
      (Array.for_all Fun.id seen)
  done

let close ?(tol = 1e-12) name want got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.17g - %.17g| <= %g" name want got tol)
    true
    (Float.abs (want -. got) <= tol)

let test_twiddle () =
  let re0, im0 = Fft.twiddle ~n:4 ~k:0 in
  close "w4^0 re" 1.0 re0;
  close "w4^0 im" 0.0 im0;
  let re1, im1 = Fft.twiddle ~n:4 ~k:1 in
  close "w4^1 re" 0.0 re1;
  close "w4^1 im" (-1.0) im1;
  let re2, im2 = Fft.twiddle ~n:8 ~k:1 in
  let s = sqrt 0.5 in
  close "w8^1 re" s re2;
  close "w8^1 im" (-.s) im2;
  (* |w| = 1 everywhere *)
  for k = 0 to 15 do
    let re, im = Fft.twiddle ~n:16 ~k in
    close (Printf.sprintf "unit modulus k=%d" k) 1.0 ((re *. re) +. (im *. im))
  done

let test_fft_roundtrip () =
  let n = 64 in
  let mk seed =
    Array.init n (fun i ->
        let h = (seed * 0x9e3779b1) lxor (i * 131) in
        float_of_int (h land 0xffff) /. 65536.0 -. 0.5)
  in
  let re = mk 3 and im = mk 11 in
  let re0 = Array.copy re and im0 = Array.copy im in
  Fft.fft ~inverse:false re im;
  Fft.fft ~inverse:true re im;
  for i = 0 to n - 1 do
    close ~tol:1e-12 (Printf.sprintf "re[%d]" i) re0.(i) re.(i);
    close ~tol:1e-12 (Printf.sprintf "im[%d]" i) im0.(i) im.(i)
  done;
  (* a unit impulse transforms to the flat spectrum *)
  let re = Array.make 8 0.0 and im = Array.make 8 0.0 in
  re.(0) <- 1.0;
  Fft.fft ~inverse:false re im;
  Array.iteri (fun i v -> close (Printf.sprintf "flat re[%d]" i) 1.0 v) re;
  Array.iteri (fun i v -> close (Printf.sprintf "flat im[%d]" i) 0.0 v) im;
  (* non-power-of-two lengths are a caller error *)
  Alcotest.check_raises "length 3 rejected"
    (Invalid_argument "Fft.fft: length must be a power of two")
    (fun () -> Fft.fft ~inverse:false (Array.make 3 0.0) (Array.make 3 0.0))

(* --- plan introspection and rebinding ----------------------------- *)

let test_plan_shape () =
  let p = gauss 5 1.2 in
  let rows = 24 and cols = 20 in
  let env = uniform_env_for ~rows ~cols p in
  let plan = Fft.build p ~rows ~cols env in
  check_int "pad" 2 (Fft.pad plan);
  check_int "rows" rows (Fft.rows plan);
  check_int "cols" cols (Fft.cols plan);
  check_int "padded rows" (Fft.padded_size ~n:rows ~pad:2) (Fft.padded_rows plan);
  check_int "padded cols" (Fft.padded_size ~n:cols ~pad:2) (Fft.padded_cols plan);
  check_int "taps resolved" 25 (Array.length (Fft.coeff_values plan));
  check_bool "no bias" true (Fft.bias_value plan = None);
  (* same values: the cached spectrum is already sound *)
  check_bool "rebind same values" false (Fft.rebind plan env);
  Fft.verify p plan

let test_rebind_retransforms () =
  (* one array coefficient, rebound to a new uniform value: rebind
     must report a re-transform and the next execute must use it *)
  let p =
    Pattern.create ~boundary:Ccc.Boundary.Circular
      [
        Tap.make (Offset.make ~drow:0 ~dcol:0) (Coeff.Array "C1");
        Tap.make (Offset.make ~drow:0 ~dcol:1) (Coeff.Array "C2");
      ]
  in
  let rows = 16 and cols = 16 in
  let src = Pattern.source_var p in
  let env v =
    [
      (src, mixed_grid ~seed:4 ~rows ~cols);
      ("C1", Grid.constant ~rows ~cols v);
      ("C2", Grid.constant ~rows ~cols (v *. 2.0));
    ]
  in
  let plan = Fft.build p ~rows ~cols (env 0.5) in
  check_bool "same env: no retransform" false (Fft.rebind plan (env 0.5));
  check_bool "new env: retransform" true (Fft.rebind plan (env 0.75));
  let out = Fft.convolve p (env 0.75) in
  let expected = Ccc.Reference.apply p (env 0.75) in
  check_bool "rebound result matches reference" true
    (Grid.max_abs_diff out expected < 1e-9)

(* --- the engine's transform-plan cache ---------------------------- *)

let test_engine_cache_hit () =
  let e = Engine.create config in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) @@ fun () ->
  let p = gauss 9 2.0 in
  let env = uniform_env_for ~rows:64 ~cols:64 p in
  let expected = Ccc.Reference.apply p env in
  for i = 1 to 3 do
    match Engine.run e p env with
    | Ok r ->
        check_bool
          (Printf.sprintf "run %d matches reference" i)
          true
          (Grid.max_abs_diff r.Exec.output expected < 1e-9)
    | Error err -> Alcotest.failf "run %d: %s" i (Outcome.reject_to_string err)
  done;
  let s = Engine.stats e in
  (* first request misses and builds the plan; the two repeats are
     cache hits that serve the standing transformed plan without
     re-planning or re-transforming *)
  check_int "misses" 1 s.Engine.misses;
  check_int "hits" 2 s.Engine.hits;
  check_int "fft runs" 3 s.Engine.fft_runs;
  check_int "fft builds" 1 s.Engine.fft_builds;
  check_int "fft rebinds" 0 s.Engine.fft_rebinds

(* --- the dense fallthrough at the paper's width-8 rejections ------ *)

let test_width8_fallthrough () =
  let e =
    Engine.create
      ~settings:{ Engine.default_settings with Engine.widths = Some [ 8 ] }
      config
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) @@ fun () ->
  List.iter
    (fun name ->
      let p = List.assoc name (Pattern.gallery ()) in
      let env = uniform_env_for ~rows:32 ~cols:32 p in
      (* the compiled path still reports the section-6 rejection *)
      (match Engine.compile e p with
      | Error (Outcome.Resource_error _) -> ()
      | Ok _ -> Alcotest.failf "%s compiled at width 8" name
      | Error err ->
          Alcotest.failf "%s: unexpected %s" name (Outcome.reject_to_string err));
      (* ... and the guarded run completes through the transform plan *)
      match Engine.run_guarded e p env with
      | Outcome.Completed { result = r; _ } ->
          let expected = Ccc.Reference.apply p env in
          check_bool (name ^ " matches reference") true
            (Grid.max_abs_diff r.Exec.output expected < 1e-9)
      | o -> Alcotest.failf "%s: %s" name (Outcome.to_string o))
    [ "cross9"; "diamond13" ];
  let s = Engine.stats e in
  check_int "both served by the transform path" 2 s.Engine.fft_runs;
  check_int "one plan per pattern" 2 s.Engine.fft_builds

(* --- the planner prices what the run pays --------------------------- *)

(* A circular 5x5 scalar Gaussian at 64x64 on the default machine: the
   transform run reports its halo exchange next to its transposes and
   compute, so the planner must price it too.  With the exchange priced
   the compiled path is the cheaper one; pricing the transform without
   it (11116 cycles) once sent this request to the dearer path. *)
let test_planner_prices_the_halo () =
  let p = gauss 5 2.0 in
  let rows = 64 and cols = 64 in
  let sub_rows = rows / config.Ccc.Config.node_rows
  and sub_cols = cols / config.Ccc.Config.node_cols in
  let compiled =
    match Ccc.Compile.compile config p with
    | Ok c -> c
    | Error r -> Alcotest.failf "gauss5: %s" (Ccc.Compile.no_workable r)
  in
  let total (s : Ccc.Stats.t) = s.Ccc.Stats.comm_cycles + s.Ccc.Stats.compute_cycles in
  let price st = total (Exec.estimate ~sub_rows ~sub_cols config [ st ]) in
  let env = uniform_env_for ~rows ~cols p in
  let ran =
    Exec.single
      (Exec.exec (Exec.Arena.transient (Ccc.machine config))
         [ Exec.transform p ] env)
  in
  check_int "transform: price = the run's own total" (total ran.Exec.stats)
    (price (Exec.transform p));
  check_int "transform total" 11436 (price (Exec.transform p));
  check_int "compiled total" 11360 (price (Exec.compiled compiled));
  check_bool "the planner picks the compiled path" true
    (Exec.select_backend ~sub_rows ~sub_cols config (Some compiled) = `Compiled)

let () =
  Alcotest.run "fft"
    [
      ( "core",
        [
          Alcotest.test_case "next_pow2" `Quick test_next_pow2;
          Alcotest.test_case "padded size selection" `Quick test_padded_size;
          Alcotest.test_case "bit reversal" `Quick test_bit_reverse;
          Alcotest.test_case "twiddle factors" `Quick test_twiddle;
          Alcotest.test_case "forward/inverse roundtrip" `Quick
            test_fft_roundtrip;
        ] );
      ( "plan",
        [
          Alcotest.test_case "shape and introspection" `Quick test_plan_shape;
          Alcotest.test_case "rebind retransforms on new values" `Quick
            test_rebind_retransforms;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cache hit serves standing plan" `Quick
            test_engine_cache_hit;
          Alcotest.test_case "width-8 rejections complete via transform" `Quick
            test_width8_fallthrough;
        ] );
      ( "planner",
        [
          Alcotest.test_case "the transform's halo exchange is priced" `Quick
            test_planner_prices_the_halo;
        ] );
    ]
