(* Perf smoke test, run on every full build (the @perf-smoke alias):
   a tiny-grid pass over the scaling benchmark's levers asserting what
   the big benchmark only reports — that the precompiled kernel, the
   tapwalk, and every pooled variant compute bit-identical output, all
   within 1e-9 of the reference evaluator, that Simulate keeps
   asserting Cost = Interp on every node under the pool, (PR 9) that
   the tile-blocked kernel actually wins its wall-clock claims, and
   (PR 10) that the FFT path wins exactly where the backend planner
   says it should. *)

module Exec = Ccc.Exec
module Grid = Ccc.Grid

let config = Ccc.Config.default

let env_for p ~rows ~cols =
  let names =
    Ccc.Pattern.source_var p
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Ccc.Pattern.taps p)
    @ (match Ccc.Pattern.bias p with
      | Some c -> Option.to_list (Ccc.Coeff.array_name c)
      | None -> [])
  in
  List.mapi
    (fun i n ->
      ( n,
        Grid.init ~rows ~cols (fun r c ->
            sin (float_of_int ((r * (i + 3)) + c) /. 7.0)) ))
    names

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let check_pattern pools name p =
  match Ccc.compile_pattern config p with
  | Error e -> fail "%s: compile failed: %s" name (Ccc.Outcome.reject_to_string e)
  | Ok compiled ->
      let rows = 4 * 8 and cols = 4 * 8 in
      let env = env_for p ~rows ~cols in
      let expected = Ccc.Reference.apply p env in
      let kernel = Ccc.Kernel.build config compiled in
      let run ?pool ?kernel inner =
        (Exec.run ?pool ~inner ?kernel (Ccc.machine config) compiled env)
          .Exec.output
      in
      let seq_tapwalk = run Exec.Tapwalk in
      let seq_kernel = run ~kernel Exec.Lowered in
      if Grid.max_abs_diff expected seq_tapwalk > 1e-9 then
        fail "%s: tapwalk diverged from reference" name;
      if Grid.max_abs_diff seq_tapwalk seq_kernel <> 0.0 then
        fail "%s: kernel not bit-identical to tapwalk" name;
      List.iter
        (fun (jobs, pool) ->
          if Grid.max_abs_diff seq_tapwalk (run ~pool Exec.Tapwalk) <> 0.0 then
            fail "%s: pooled tapwalk (jobs %d) not bit-identical" name jobs;
          if
            Grid.max_abs_diff seq_kernel (run ~pool ~kernel Exec.Lowered)
            <> 0.0
          then fail "%s: pooled kernel (jobs %d) not bit-identical" name jobs)
        pools;
      (* One simulated run under the pool: Exec asserts Cost = Interp
         on every node inside the pooled chunks. *)
      let pool = snd (List.hd pools) in
      let sim =
        (Exec.run ~mode:Exec.Simulate ~pool (Ccc.machine config) compiled env)
          .Exec.output
      in
      if Grid.max_abs_diff expected sim > 1e-9 then
        fail "%s: pooled simulate diverged from reference" name;
      (* And once with the domain-safety probes recording: turning the
         instrumentation on must not change a bit of output, and the
         race/discipline analyzers must find nothing on the clean
         protocol. *)
      Ccc.Access.enable ();
      let instrumented = run ~pool ~kernel Exec.Lowered in
      Ccc.Access.disable ();
      let log = Ccc.Access.events () in
      (match Ccc.Race.analyze log @ Ccc.Discipline.check log with
      | [] -> ()
      | fs ->
          fail "%s: %d domain-safety findings on a clean pooled run" name
            (List.length fs));
      if Grid.max_abs_diff seq_kernel instrumented <> 0.0 then
        fail "%s: instrumented kernel run not bit-identical" name;
      Printf.printf "%s: sequential/pooled tapwalk/kernel bit-identical, \
                     simulate ok, probes clean\n"
        name

(* Wall-clock smoke (PR 9): the scaling benchmark's headline claims,
   asserted rather than reported.  Single-threaded, the tile-blocked
   kernel must beat the bounds-checked tapwalk by a wide margin on the
   scaling bench's own workload (seismic, 4x4 nodes, 256x256 global);
   the threshold is 2x where the measured margin is ~7x, so only a
   real regression — not scheduler noise — trips it.  On a multi-core
   host the shared tile queue must additionally make jobs = 2 no
   slower than jobs = 1; a single-core host (the common CI container)
   skips that assertion with a printed notice, since there parallel
   execution can only add coordination overhead.  Each comparison
   times its two sides in alternating rounds (the pool is created
   before the first of them) and keeps each side's fastest batch, so
   a descheduled stretch of the host slows both sides or neither
   instead of failing the build. *)
let check_walltime () =
  let p = Ccc.Seismic.kernel () in
  match Ccc.compile_pattern config p with
  | Error e -> fail "walltime: compile failed: %s" (Ccc.Outcome.reject_to_string e)
  | Ok compiled ->
      let rows = 256 and cols = 256 in
      let env = env_for p ~rows ~cols in
      let kernel = Ccc.Kernel.build config compiled in
      let arena = Exec.Arena.create (Ccc.machine config) in
      let repeats = 5 in
      let run ?pool ?kernel inner () =
        ignore
          (Exec.exec ?pool ~inner arena [ Exec.compiled ?kernel compiled ] env)
      in
      (* Mean seconds per run over one batch of [repeats]. *)
      let batch run =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to repeats do
          run ()
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int repeats
      in
      (* Fastest batch of each side over [rounds] alternating rounds,
         after one warm-up run of each side. *)
      let paired rounds a b =
        a ();
        b ();
        let best_a = ref infinity and best_b = ref infinity in
        for _ = 1 to rounds do
          best_a := Float.min !best_a (batch a);
          best_b := Float.min !best_b (batch b)
        done;
        (!best_a, !best_b)
      in
      let tapwalk_s, kernel_s =
        paired 3 (run Exec.Tapwalk) (run ~kernel Exec.Lowered)
      in
      if kernel_s *. 2.0 > tapwalk_s then
        fail
          "walltime: kernel %.2f ms vs tapwalk %.2f ms — the tiled kernel \
           must be at least 2x faster single-threaded"
          (1e3 *. kernel_s) (1e3 *. tapwalk_s);
      if Domain.recommended_domain_count () = 1 then
        Printf.printf
          "walltime: kernel %.2f ms, tapwalk %.2f ms (%.1fx); single-core \
           host, jobs=2 <= jobs=1 assertion skipped\n"
          (1e3 *. kernel_s) (1e3 *. tapwalk_s) (tapwalk_s /. kernel_s)
      else begin
        let pool = Ccc.Pool.create ~jobs:2 in
        let kernel1_s, kernel2_s =
          paired 5 (run ~kernel Exec.Lowered) (run ~pool ~kernel Exec.Lowered)
        in
        Ccc.Pool.shutdown pool;
        if kernel2_s > kernel1_s then
          fail
            "walltime: jobs=2 %.2f ms slower than jobs=1 %.2f ms — the \
             shared tile queue must not lose to the sequential walk on a \
             %d-core host"
            (1e3 *. kernel2_s) (1e3 *. kernel1_s)
            (Domain.recommended_domain_count ());
        Printf.printf
          "walltime: kernel %.2f ms, tapwalk %.2f ms (%.1fx); jobs=2 %.2f \
           ms (%.2fx of jobs=1)\n"
          (1e3 *. kernel_s) (1e3 *. tapwalk_s) (tapwalk_s /. kernel_s)
          (1e3 *. kernel2_s) (kernel1_s /. kernel2_s)
      end

(* Transform-path smoke (PR 10): the backend planner's premise,
   asserted on the host.  On a dense 9x9 Gaussian over a 256x256
   global grid the FFT path must beat the tiled lowered kernel
   (measured margin ~2x); on the sparse seismic stencil over the same
   grid it must lose.  The crossover the cost model places between
   those two workloads is real, not an artifact of the cycle
   constants.  The dense kernel only compiles on a register-rich
   counterfactual config — relative host speed is unaffected.  Both
   sides are timed steady-state: kernel and FFT plan prebuilt, as the
   engine caches them in production. *)
let check_fft () =
  let rows = 256 and cols = 256 in
  let time f =
    ignore (f ());
    let repeats = 3 in
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to repeats do
        ignore (f ())
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
      if dt < !best then best := dt
    done;
    !best
  in
  let pair name config p =
    match Ccc.compile_pattern config p with
    | Error e -> fail "fft: %s compile failed: %s" name (Ccc.Outcome.reject_to_string e)
    | Ok compiled ->
        (* coefficients held uniform — the transform path requires it;
           the source grid stays mixed *)
        let env =
          List.map
            (fun (n, g) ->
              if n = Ccc.Pattern.source_var p then (n, g)
              else (n, Grid.constant ~rows ~cols (Grid.get g 0 0)))
            (env_for p ~rows ~cols)
        in
        let machine = Ccc.machine config in
        let kernel = Ccc.Kernel.build config compiled in
        let plan = Ccc.Fft.build p ~rows ~cols env in
        let kernel_s =
          time (fun () ->
              Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel machine
                compiled env)
        in
        let fft_s =
          time (fun () ->
              Exec.exec (Exec.Arena.transient machine)
                [ Exec.transform ~plan p ]
                env)
        in
        (kernel_s, fft_s)
  in
  let dense =
    let half = 4 in
    let taps = ref [] in
    for dr = -half to half do
      for dc = -half to half do
        let w =
          exp (-.(float_of_int ((dr * dr) + (dc * dc)) /. 8.0))
        in
        taps :=
          Ccc.Tap.make
            (Ccc.Offset.make ~drow:dr ~dcol:dc)
            (Ccc.Coeff.Scalar w)
          :: !taps
      done
    done;
    Ccc.Pattern.create ~boundary:Ccc.Boundary.Circular (List.rev !taps)
  in
  let rich =
    {
      config with
      Ccc.Config.fpu_registers = 4096;
      scratch_memory_words = 1 lsl 22;
    }
  in
  let dense_kernel_s, dense_fft_s = pair "dense 9x9" rich dense in
  if dense_fft_s >= dense_kernel_s then
    fail
      "fft: %.2f ms must beat the lowered kernel's %.2f ms on a dense 9x9 \
       Gaussian at 256x256 — the planner's dense-side premise"
      (1e3 *. dense_fft_s) (1e3 *. dense_kernel_s);
  let seis_kernel_s, seis_fft_s = pair "seismic" config (Ccc.Seismic.kernel ()) in
  if seis_fft_s <= seis_kernel_s then
    fail
      "fft: %.2f ms must lose to the lowered kernel's %.2f ms on the sparse \
       seismic stencil — the planner's sparse-side premise"
      (1e3 *. seis_fft_s) (1e3 *. seis_kernel_s);
  Printf.printf
    "fft: dense 9x9 %.2f ms beats kernel %.2f ms; seismic %.2f ms loses to \
     kernel %.2f ms\n"
    (1e3 *. dense_fft_s) (1e3 *. dense_kernel_s) (1e3 *. seis_fft_s)
    (1e3 *. seis_kernel_s)

(* Closed-loop serve check (PR 7): one request in flight at a time
   through the sharded scheduler, three rounds over three gallery
   stencils.  Every completed outcome must be bit-identical to a
   sequential resident-engine run of the same stencil over the same
   grids, and nothing may coalesce or shed in a closed loop. *)
let check_serve () =
  let gallery = Ccc.Pattern.gallery () in
  let rows = 4 * 8 and cols = 4 * 8 in
  let work =
    List.map
      (fun name ->
        let p = List.assoc name gallery in
        (name, p, env_for p ~rows ~cols))
      [ "cross5"; "square9"; "cross9" ]
  in
  let engine = Ccc.Engine.create config in
  let t = Ccc.Serve.create ~shards:2 config in
  let rounds = 3 in
  for _ = 1 to rounds do
    List.iter
      (fun (name, p, env) ->
        let tk =
          Ccc.Serve.submit t
            (Ccc.Request.v ~tenant:"smoke" ~env (Ccc.Request.Pattern p))
        in
        let r = Ccc.Serve.wait t tk in
        match Ccc.Outcome.output r.Ccc.Serve.outcome with
        | None ->
            fail "serve: %s not served: %s" name
              (Ccc.Outcome.to_string r.Ccc.Serve.outcome)
        | Some out -> (
            match Ccc.Engine.run engine p env with
            | Error e ->
                fail "serve: %s engine baseline failed: %s" name
                  (Ccc.Outcome.reject_to_string e)
            | Ok baseline ->
                if Grid.max_abs_diff baseline.Exec.output out <> 0.0 then
                  fail
                    "serve: %s outcome not bit-identical to the resident \
                     engine"
                    name))
      work
  done;
  Ccc.Serve.shutdown t;
  Ccc.Engine.shutdown engine;
  let st = Ccc.Serve.stats t in
  let expect = rounds * List.length work in
  if st.Ccc.Serve.completed <> expect then
    fail "serve: %d of %d closed-loop requests completed"
      st.Ccc.Serve.completed expect;
  if st.Ccc.Serve.shed <> 0 then
    fail "serve: %d requests shed in a closed loop" st.Ccc.Serve.shed;
  Printf.printf
    "serve: %d closed-loop outcomes bit-identical to the resident engine\n"
    expect

let () =
  let pools = List.map (fun jobs -> (jobs, Ccc.Pool.create ~jobs)) [ 2; 3 ] in
  check_pattern pools "cross5"
    (List.assoc "cross5" (Ccc.Pattern.gallery ()));
  check_pattern pools "seismic" (Ccc.Seismic.kernel ());
  List.iter (fun (_, p) -> Ccc.Pool.shutdown p) pools;
  check_walltime ();
  check_fft ();
  check_serve ();
  print_endline "perf-smoke: ok"
