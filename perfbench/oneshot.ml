(* Workload [oneshot]: the paper's compile-a-statement-and-run workflow,
   closed loop with one caller.  A seeded stream of distinct random
   stencils (3-13 taps within radius 2, CSHIFT or EOSHIFT, array and
   scalar coefficients), each printed with [Pattern.to_fortran],
   compiled with [Ccc.compile_fortran_statement] and run with [Ccc.run]
   on a 32 x 32 grid.

   Why: machine set-up does most of its work, then the compiler and the
   front end; it bypasses the engine cache, the arena and the guards.
   Every stencil of the stream compiles, so any refusal is a failure. *)

open Common

let rows = 32
let cols = 32
let nenvs = 4
let setup_reps = 5

(* Stencils generated per measured second: the stream is drawn before
   the clock starts and must outlast the run; it wraps (and says so)
   only if the loop outruns it. *)
let stream_per_second = 200

type inputs = {
  texts : string array;
  patterns : Ccc.Pattern.t array;
  envs : Ccc.Reference.env array;
  env_of : int array;
  digest : string;
}

let generate ~seed ~seconds =
  let st = rng ~seed ~salt:3 in
  let n = max 64 (int_of_float (Float.ceil (seconds *. float_of_int stream_per_second))) in
  let envs = Array.init nenvs (fun _ -> random_env st ~rows ~cols) in
  let seen = Hashtbl.create n in
  let rec fresh () =
    let p = random_pattern st in
    let text = Ccc.Pattern.to_fortran p in
    if Hashtbl.mem seen text then fresh ()
    else begin
      Hashtbl.add seen text ();
      (p, text)
    end
  in
  let stream = Array.init n (fun _ -> fresh ()) in
  let env_of = Array.init n (fun _ -> Random.State.int st nenvs) in
  let d = Digest_acc.create () in
  Array.iter (List.iter (fun (_, g) -> Digest_acc.add_grid d g)) envs;
  Array.iteri
    (fun i (_, text) ->
      Digest_acc.add_string d text;
      Digest_acc.add_int d env_of.(i))
    stream;
  {
    texts = Array.map snd stream;
    patterns = Array.map fst stream;
    envs;
    env_of;
    digest = Digest_acc.hex d;
  }

(* One operation, as a user writes it. *)
let statement text env =
  match Ccc.compile_fortran_statement config text with
  | Ok compiled -> Ccc.run config compiled env
  | Error e -> Error e

(* Set-up: nothing stays resident, so a set-up is the first pass of a
   fresh caller — each gallery stencil compiled and run once. *)
let gallery_texts () =
  List.map (fun (_, p) -> Ccc.Pattern.to_fortran p) (Ccc.Pattern.gallery ())

let setups inputs =
  let texts = gallery_texts () in
  Array.init setup_reps (fun _ ->
      settle ();
      let ok, dt =
        time (fun () ->
            List.for_all (fun t -> Result.is_ok (statement t inputs.envs.(0))) texts)
      in
      if not ok then failwith "oneshot: a gallery stencil failed during set-up";
      dt)

let describe inputs ~trace =
  note "workload oneshot: closed loop, 1 caller, Ccc.compile_fortran_statement + Ccc.run on %dx%d"
    rows cols;
  note "mix: %d distinct seeded random stencils (3-13 taps, radius 2, CSHIFT/EOSHIFT, array+scalar coefficients), %d source environments"
    (Array.length inputs.texts) nenvs;
  let circular =
    Array.fold_left
      (fun a p -> if Ccc.Pattern.boundary p = Ccc.Boundary.Circular then a + 1 else a)
      0 inputs.patterns
  in
  let pct = 100.0 *. ratio (float_of_int circular) (float_of_int (Array.length inputs.patterns)) in
  note "shapes: CSHIFT %.1f%%, EOSHIFT %.1f%%; mean taps %.2f" pct (100.0 -. pct)
    (mean (Array.map (fun p -> float_of_int (Ccc.Pattern.tap_count p)) inputs.patterns));
  note "inputs digest %s" inputs.digest;
  if trace then note "traced run: the statement paired with Parser/Recognize, Compile.compile, Ccc.machine, Exec.run"

let run ~seed ~seconds =
  let inputs = generate ~seed ~seconds in
  describe inputs ~trace:false;
  let setup_times = setups inputs in
  let n = Array.length inputs.texts in
  let lat = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  let flops = ref 0.0 and model_s = ref 0.0 and busy = ref 0.0 in
  while !busy < seconds do
    let i = !attempted mod n in
    let env = inputs.envs.(inputs.env_of.(i)) in
    incr attempted;
    let r, dt = time (fun () -> statement inputs.texts.(i) env) in
    busy := !busy +. dt;
    match r with
    | Ok res when output_ok inputs.patterns.(i) env res.Ccc.Exec.output ->
        Samples.push lat dt;
        let f, s = modeled res.Ccc.Exec.stats in
        flops := !flops +. f;
        model_s := !model_s +. s
    | Ok _ ->
        note "statement %d: output differs from Reference.apply" i;
        incr failed
    | Error e ->
        note "statement %d refused: %s" i (Ccc.Outcome.reject_to_string e);
        incr failed
  done;
  let lat = Array.map (fun s -> s *. 1e3) (Samples.to_array lat) in
  let completed = Array.length lat in
  note "statements attempted %d (stream of %d%s), completed correctly %d, failed %d"
    !attempted n (if !attempted > n then ", wrapped" else "") completed !failed;
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

(* The traced run: every statement runs twice — once as above
   (untraced, timed as a whole) and once through the layers' public
   functions in [Ccc]'s order: [Parser.parse_statement] and
   [Recognize.statement], [Compile.compile], [Ccc.machine], [Exec.run].
   The two outputs must be bit-identical. *)
let run_traced ~seed ~seconds ~tr =
  let inputs = generate ~seed ~seconds in
  describe inputs ~trace:true;
  let layers = Layers.create () in
  let set = Layers.set layers in
  let fi = float_of_int in
  let n = Array.length inputs.texts in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let untraced = ref 0.0 and traced = ref 0.0 and ops = ref 0 in
  let src_bytes = ref 0 and rejected = ref 0 and dyn_words = ref 0 and regs = ref 0 in
  let comm = ref 0.0 and compute = ref 0.0 and mem_words = ref 0 in
  while !untraced +. !traced < seconds do
    let i = !attempted mod n in
    let text = inputs.texts.(i) in
    let env = inputs.envs.(inputs.env_of.(i)) in
    incr attempted;
    let r, u = time (fun () -> statement text env) in
    let d, t =
      time (fun () ->
          Spans.op tr i (fun () ->
              match
                Spans.layer tr "frontend" (fun () ->
                    Ccc.Recognize.statement (Ccc.Parser.parse_statement text))
              with
              | Error _ -> None
              | Ok pattern -> (
                  match
                    Spans.layer tr "compiler" (fun () -> Ccc.Compile.compile config pattern)
                  with
                  | Error _ -> None
                  | Ok compiled ->
                      let machine = Spans.layer tr "machine" (fun () -> Ccc.machine config) in
                      let res =
                        Spans.layer tr "exec" (fun () -> Ccc.Exec.run machine compiled env)
                      in
                      Some (compiled, machine, res))))
    in
    match (r, d) with
    | Ok res, Some (compiled, machine, dres) ->
        incr ops;
        untraced := !untraced +. u;
        traced := !traced +. t;
        src_bytes := !src_bytes + String.length text;
        let w = Ccc.Compile.widest compiled in
        rejected := !rejected + List.length compiled.Ccc.Compile.rejected;
        dyn_words := !dyn_words + w.Ccc.Plan.dynamic_words;
        regs := !regs + w.Ccc.Plan.registers_used;
        mem_words := Ccc_cm2.Memory.words (Ccc.Machine.memory machine 0) * Ccc.Machine.node_count machine;
        comm := !comm +. fi res.Ccc.Exec.stats.Ccc.Stats.comm_cycles;
        compute := !compute +. fi res.Ccc.Exec.stats.Ccc.Stats.compute_cycles;
        if not (bit_identical res.Ccc.Exec.output dres.Ccc.Exec.output) then begin
          incr mismatched;
          incr failed
        end
        else if not (output_ok inputs.patterns.(i) env res.Ccc.Exec.output) then incr failed
    | _ -> incr failed
  done;
  note "decomposition vs Ccc.run: %d statements, %d not bit-identical" !ops !mismatched;
  let nops = fi (max 1 !ops) in
  let total name = Spans.total tr name in
  set "frontend.calls" (fi !ops);
  set "frontend.us_per_call" (total "frontend" /. nops);
  set "frontend.src_mb_per_s" (ratio (fi !src_bytes) (total "frontend"));
  set "compiler.calls" (fi !ops);
  set "compiler.ms_per_call" (total "compiler" /. 1e3 /. nops);
  set "compiler.widths_rejected" (fi !rejected);
  set "compiler.dynamic_words" (fi !dyn_words /. nops);
  set "compiler.registers_used" (fi !regs /. nops);
  set "machine.creates" (fi !ops);
  set "machine.ms_per_create" (total "machine" /. 1e3 /. nops);
  set "machine.mb_allocated" (fi (!ops * !mem_words * 8) /. 1e6);
  set "exec.ms" (total "exec" /. 1e3 /. nops);
  set "model.comm_cycles" (!comm /. nops);
  set "model.compute_cycles" (!compute /. nops);
  set "trace.overhead_pct" (100.0 *. ratio (!traced -. !untraced) !untraced);
  let untraced_us = !untraced *. 1e6 in
  set "trace.accounted_pct"
    (100.0 *. ratio (Layers.accounted_us tr) untraced_us);
  Layers.print_self_times ~ops:!ops ~untraced_us tr;
  (!attempted, !failed, layers)
