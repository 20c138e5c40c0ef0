(* Workload [timestep]: the paper's section-7 sustained loop, closed
   loop with one caller.  The nine-point seismic cross on a 512 x 512
   grid (16 nodes, 128 x 128 subgrids) through one resident
   [Engine.run], unguarded, jobs 1, each step's output fed back as the
   next step's P.

   Why: data movement and the kernel do nearly all the work; the front
   end, the compiler, cache misses and the guards do none, so this is
   the control that must not move when they change.

   The coefficient arrays are seeded positive weights normalised to sum
   to 1 at every point and the initial field is drawn from [1, 2): each
   step is then a convex combination of neighbours, so the field stays
   in [1, 2] for the whole run — it neither overflows nor decays into
   subnormals, either of which would change the timing. *)

open Common

let rows = 512
let cols = 512
let setup_reps = 5

(* Steps checked against [Reference.apply] (which costs ~35 steps at
   this size): a seeded sample with gaps of 100 to 299 steps, plus the
   set-up step and the last step of the run. *)
let check_gap_lo = 100
let check_gap_span = 200

type inputs = {
  pattern : Ccc.Pattern.t;
  coeffs : Ccc.Reference.env;
  p0 : Ccc.Grid.t;
  checks : (int, unit) Hashtbl.t;
  digest : string;
}

let generate ~seed =
  let st = rng ~seed ~salt:1 in
  let d = Digest_acc.create () in
  let pattern = Ccc.Seismic.kernel () in
  let p0 = random_grid st ~rows ~cols ~lo:1.0 ~hi:2.0 in
  let raw = Array.init 9 (fun _ -> random_grid st ~rows ~cols ~lo:0.5 ~hi:1.5) in
  let total =
    Ccc.Grid.init ~rows ~cols (fun r c ->
        Array.fold_left (fun acc g -> acc +. Ccc.Grid.get g r c) 0.0 raw)
  in
  let coeffs =
    List.init 9 (fun k ->
        ( Printf.sprintf "C%d" (k + 1),
          Ccc.Grid.init ~rows ~cols (fun r c ->
              Ccc.Grid.get raw.(k) r c /. Ccc.Grid.get total r c) ))
  in
  let checks = Hashtbl.create 1024 in
  let k = ref 0 in
  while !k < 1_000_000 do
    Hashtbl.replace checks !k ();
    k := !k + check_gap_lo + Random.State.int st check_gap_span
  done;
  Digest_acc.add_string d (Ccc.Pattern.to_fortran pattern);
  Digest_acc.add_grid d p0;
  List.iter (fun (_, g) -> Digest_acc.add_grid d g) coeffs;
  List.iter
    (fun k -> Digest_acc.add_int d k)
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) checks []));
  { pattern; coeffs; p0; checks; digest = Digest_acc.hex d }

let settings = { Ccc.Engine.default_settings with jobs = 1 }
let env_of inputs p = ("P", p) :: inputs.coeffs

(* Set-up: [Engine.create] plus the first step (compile, kernel build
   and proof, arena build), timed together. *)
let setup inputs =
  let t0 = now_s () in
  let engine = Ccc.Engine.create ~settings config in
  let first = Ccc.Engine.run engine inputs.pattern (env_of inputs inputs.p0) in
  (engine, first, now_s () -. t0)

(* [setup_reps] set-ups; the median is [setup_s] and the last engine
   runs the timed loop. *)
let setups inputs =
  let times = Array.make setup_reps 0.0 in
  let rec go i prev =
    Option.iter (fun (e, _) -> Ccc.Engine.shutdown e) prev;
    settle ();
    let engine, first, dt = setup inputs in
    times.(i) <- dt;
    if i + 1 < setup_reps then go (i + 1) (Some (engine, first))
    else (engine, first)
  in
  let engine, first = go 0 None in
  (engine, first, times)

let describe inputs ~trace =
  note "workload timestep: closed loop, 1 caller, %dx%d seismic cross9 via Engine.run (unguarded, jobs 1)"
    rows cols;
  note "mix: 100%% seismic kernel steps, output fed back as P; checks: seeded sample (gaps %d-%d steps) + set-up + last step"
    check_gap_lo (check_gap_lo + check_gap_span - 1);
  note "inputs digest %s" inputs.digest;
  if trace then note "traced run: Engine.run paired with scatter/streams/halo/Kernel.exec_node/gather"

let first_output inputs first =
  match first with
  | Ok r when output_ok inputs.pattern (env_of inputs inputs.p0) r.Ccc.Exec.output
    ->
      Some r.Ccc.Exec.output
  | _ -> None

let run ~seed ~seconds =
  let inputs = generate ~seed in
  describe inputs ~trace:false;
  let engine, first, setup_times = setups inputs in
  let lat = Samples.create () in
  let attempted = ref 1 and failed = ref 0 and checked = ref 1 in
  let flops = ref 0.0 and model_s = ref 0.0 in
  let busy = ref 0.0 in
  (match first_output inputs first with
  | None -> failed := 1
  | Some p1 ->
      let p = ref p1 and k = ref 1 in
      let last = ref None in
      while !busy < seconds do
        let env = env_of inputs !p in
        incr attempted;
        let t0 = now_s () in
        let r = Ccc.Engine.run engine inputs.pattern env in
        let dt = now_s () -. t0 in
        busy := !busy +. dt;
        (match r with
        | Ok res ->
            Samples.push lat dt;
            let f, s = modeled res.Ccc.Exec.stats in
            flops := !flops +. f;
            model_s := !model_s +. s;
            let out = res.Ccc.Exec.output in
            if Hashtbl.mem inputs.checks !k then begin
              incr checked;
              if not (output_ok inputs.pattern env out) then incr failed;
              last := None
            end
            else last := Some (env, out);
            p := out
        | Error e ->
            note "step %d failed: %s" !k (Ccc.Outcome.reject_to_string e);
            incr failed);
        incr k
      done;
      Option.iter
        (fun (env, out) ->
          incr checked;
          if not (output_ok inputs.pattern env out) then incr failed)
        !last);
  Ccc.Engine.shutdown engine;
  let lat = Array.map (fun s -> s *. 1e3) (Samples.to_array lat) in
  let completed = Array.length lat in
  note "steps attempted %d, completed %d, checked against Reference.apply %d, failed %d"
    !attempted completed !checked !failed;
  note "latency sample count %d (p90 leaves %d beyond it)" completed (completed / 10);
  note "setup_s samples: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  ( !attempted,
    !failed,
    [
      m "setup_s" "s" (median setup_times);
      m "latency_p50_ms" "ms" (run_percentile 0.5 lat);
      m "latency_p90_ms" "ms" (run_percentile 0.9 lat);
      m "ops_per_s" "1/s" (ratio (float_of_int completed) !busy);
      m "modeled_gflops" "GFLOP/s" (ratio !flops !model_s /. 1e9);
    ] )

(* ------------------------------------------------------------------ *)
(* The traced run: every step runs twice on the same input — once
   through [Engine.run] (untraced, timed as a whole) and once through
   the layers' public functions in the engine's order (scatter, coefficient
   streams, halo exchange, [Kernel.exec_node] per node, gather) on a
   second machine, each call inside a span.  The two outputs must be
   bit-identical. *)

module Dist = Ccc.Dist
module Halo = Ccc.Halo
module Kernel = Ccc.Kernel
module Machine = Ccc.Machine

let run_traced ~seed ~seconds ~tr =
  let inputs = generate ~seed in
  describe inputs ~trace:true;
  let layers = Layers.create () in
  let engine, first, _ = setup inputs in
  let machine, machine_s = time (fun () -> Spans.layer tr "machine" (fun () -> Ccc.machine config)) in
  let compiled, compile_s =
    time (fun () ->
        Spans.layer tr "compiler" (fun () -> Ccc.Compile.compile config inputs.pattern))
  in
  let compiled =
    match compiled with Ok c -> c | Error _ -> failwith "timestep: seismic kernel rejected"
  in
  let kernel, build_s =
    time (fun () -> Spans.layer tr "kernel_build" (fun () -> Kernel.build config compiled))
  in
  let widest = Ccc.Compile.widest compiled in
  let streams = widest.Ccc.Plan.coeff_streams in
  let sub_rows = rows / config.Ccc.Config.node_rows in
  let sub_cols = cols / config.Ccc.Config.node_cols in
  let pad = Ccc.Pattern.max_border inputs.pattern in
  let boundary = Ccc.Pattern.boundary inputs.pattern in
  let needs_corners = Ccc.Pattern.needs_corners inputs.pattern in
  let src = Dist.create machine ~sub_rows ~sub_cols in
  let dists = Array.map (fun _ -> Dist.create machine ~sub_rows ~sub_cols) streams in
  let dst = Dist.create machine ~sub_rows ~sub_cols in
  let padded =
    Machine.alloc_all machine ~words:((sub_rows + (2 * pad)) * (sub_cols + (2 * pad)))
  in
  let words = Ccc_cm2.Memory.words (Machine.memory machine 0) in
  let nodes = Machine.node_count machine in
  let halo_cycles = ref 0 in
  let decomposed env p =
    Spans.layer tr "dist.scatter" (fun () -> Dist.scatter_into src p);
    Spans.layer tr "dist.streams" (fun () ->
        Array.iteri
          (fun i coeff ->
            match coeff with
            | Ccc.Coeff.Array name ->
                Dist.scatter_into dists.(i) (Ccc.Reference.lookup env name)
            | Ccc.Coeff.Scalar v -> Dist.fill dists.(i) v
            | Ccc.Coeff.One -> Dist.fill dists.(i) 1.0)
          streams);
    let ex =
      Spans.layer tr "halo" (fun () ->
          Halo.exchange_into ~padded ~source:src ~pad ~boundary ~needs_corners ())
    in
    halo_cycles := ex.Halo.cycles;
    Spans.layer tr "kernel" (fun () ->
        let spec =
          Kernel.specialize kernel ~tile:config.Ccc.Config.tile ~sub_rows ~sub_cols
            ~sources:
              [|
                {
                  Kernel.base = ex.Halo.padded.Ccc_cm2.Memory.base;
                  pcols = ex.Halo.padded_cols;
                  pad = ex.Halo.pad;
                };
              |]
            ~coeff_bases:(Array.map (fun d -> d.Dist.region.Ccc_cm2.Memory.base) dists)
            ~dst_base:dst.Dist.region.Ccc_cm2.Memory.base ~words ()
        in
        for node = 0 to nodes - 1 do
          Spans.layer tr "kernel.exec_node" (fun () ->
              Kernel.exec_node spec (Ccc_cm2.Memory.raw (Machine.memory machine node)))
        done);
    Spans.layer tr "dist.gather" (fun () -> Dist.gather dst)
  in
  let attempted = ref 1 and failed = ref 0 and mismatched = ref 0 in
  let untraced = ref 0.0 and traced = ref 0.0 and steps = ref 0 in
  let comm = ref 0.0 and compute = ref 0.0 in
  (match first_output inputs first with
  | None -> failed := 1
  | Some p1 ->
      let p = ref p1 in
      while !untraced +. !traced < seconds do
        let env = env_of inputs !p in
        incr attempted;
        let r, u = time (fun () -> Ccc.Engine.run engine inputs.pattern env) in
        let out, t = time (fun () -> Spans.op tr !steps (fun () -> decomposed env !p)) in
        (match r with
        | Ok res ->
            untraced := !untraced +. u;
            traced := !traced +. t;
            incr steps;
            let s = res.Ccc.Exec.stats in
            comm := !comm +. float_of_int s.Ccc.Stats.comm_cycles;
            compute := !compute +. float_of_int s.Ccc.Stats.compute_cycles;
            if not (bit_identical out res.Ccc.Exec.output) then begin
              incr mismatched;
              incr failed
            end
            else if Hashtbl.mem inputs.checks !steps
                    && not (output_ok inputs.pattern env out)
            then incr failed;
            p := res.Ccc.Exec.output
        | Error _ -> incr failed)
      done);
  let n = float_of_int (max 1 !steps) in
  let ms name = Spans.total tr name /. 1e3 /. n in
  let grid_mb = float_of_int (rows * cols * 8) /. 1e6 in
  let set = Layers.set layers in
  note "decomposition vs Engine.run: %d steps, %d not bit-identical" !steps !mismatched;
  set "compiler.calls" 1.0;
  set "compiler.ms_per_call" (compile_s *. 1e3);
  set "compiler.widths_rejected" (float_of_int (List.length compiled.Ccc.Compile.rejected));
  set "compiler.dynamic_words" (float_of_int widest.Ccc.Plan.dynamic_words);
  set "compiler.registers_used" (float_of_int widest.Ccc.Plan.registers_used);
  set "machine.creates" 1.0;
  set "machine.ms_per_create" (machine_s *. 1e3);
  set "machine.mb_allocated" (float_of_int (nodes * words * 8) /. 1e6);
  set "kernel_build.calls" 1.0;
  set "kernel_build.ms_per_call" (build_s *. 1e3);
  let es = Ccc.Engine.stats engine in
  set "engine.cache.hit_ratio" (ratio (float_of_int es.hits) (float_of_int (es.hits + es.misses)));
  set "engine.cache.misses" (float_of_int es.misses);
  set "engine.cache.evictions" (float_of_int es.evictions);
  set "engine.arena.reuse_ratio"
    (ratio (float_of_int es.arena_reuses) (float_of_int (es.arena_reuses + es.arena_rebuilds)));
  set "engine.run.ms" (!untraced *. 1e3 /. n);
  let scatter_mb = grid_mb and streams_mb = grid_mb *. float_of_int (Array.length streams) in
  set "dist.scatter.ms" (ms "dist.scatter");
  set "dist.scatter.mb" scatter_mb;
  set "dist.streams.ms" (ms "dist.streams");
  set "dist.streams.mb" streams_mb;
  set "dist.gather.ms" (ms "dist.gather");
  set "dist.gather.mb" grid_mb;
  set "dist.gb_per_s"
    (ratio (scatter_mb +. streams_mb +. grid_mb)
       (ms "dist.scatter" +. ms "dist.streams" +. ms "dist.gather"));
  set "halo.ms" (ms "halo");
  set "halo.mb"
    (float_of_int (nodes * (sub_rows + (2 * pad)) * (sub_cols + (2 * pad)) * 8) /. 1e6);
  set "halo.modeled_cycles" (float_of_int !halo_cycles);
  let kernel_ms = ms "kernel" in
  let flops = float_of_int (Ccc.Pattern.useful_flops_per_point inputs.pattern * rows * cols) in
  (* computed bytes: per point one source and one coefficient word per
     tap, and one result word *)
  let kbytes =
    float_of_int (((2 * Ccc.Pattern.tap_count inputs.pattern) + 1) * rows * cols * 8)
  in
  let compute_per_step = !compute /. n in
  set "kernel.ms" kernel_ms;
  set "kernel.host_gflops" (ratio flops (kernel_ms /. 1e3) /. 1e9);
  set "kernel.computed_mb" (kbytes /. 1e6);
  set "kernel.flops_per_byte" (flops /. kbytes);
  set "kernel.modeled_cycles" compute_per_step;
  set "kernel.host_ns_per_modeled_cycle" (ratio (kernel_ms *. 1e6) compute_per_step);
  set "model.comm_cycles" (!comm /. n);
  set "model.compute_cycles" compute_per_step;
  set "trace.overhead_pct" (100.0 *. ratio (!traced -. !untraced) !untraced);
  let untraced_us = !untraced *. 1e6 in
  set "trace.accounted_pct"
    (100.0 *. ratio (Layers.accounted_us tr) untraced_us);
  Layers.print_self_times ~ops:!steps ~untraced_us tr;
  Ccc.Engine.shutdown engine;
  (!attempted, !failed, layers)
