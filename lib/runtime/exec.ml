open Ccc_stencil
module Machine = Ccc_cm2.Machine
module Memory = Ccc_cm2.Memory
module Config = Ccc_cm2.Config
module Compile = Ccc_compiler.Compile
module Plan = Ccc_microcode.Plan
module Interp = Ccc_microcode.Interp
module Cost = Ccc_microcode.Cost
module Obs = Ccc_obs.Obs
module Tr = Ccc_obs.Trace
module Profiler = Ccc_obs.Profiler
module Access = Ccc_analysis.Access

type mode = Simulate | Fast
type inner = Tapwalk | Lowered
type result = { output : Grid.t; stats : Stats.t }

exception Too_small of string

(* The chaos seam: callbacks fired between (and inside) the runtime
   phases, carrying just enough machine state for an injector to reach
   the regions a real fault would corrupt.  Exec itself is
   fault-agnostic — the default hooks do nothing, and the fault layer
   (lib/fault) builds one-shot corrupting closures over this record. *)
type phase_ctx = {
  phase : string;
  machine : Machine.t;
  source : Dist.t option;
  halo : Halo.exchange option;
  dst : Dist.t option;
  streams : Dist.t array;
}

type hooks = {
  on_phase : phase_ctx -> unit;
  on_compute_node : int -> unit;
}

let no_hooks = { on_phase = (fun _ -> ()); on_compute_node = (fun _ -> ()) }

let compose_hooks a b =
  {
    on_phase =
      (fun ctx ->
        a.on_phase ctx;
        b.on_phase ctx);
    on_compute_node =
      (fun node ->
        a.on_compute_node node;
        b.on_compute_node node);
  }

(* Per-iteration totals from the analytic model; the simulate path
   asserts agreement with the interpreter.

   The front end prepares each half-strip's dynamic-part parameters
   (one unit of work per word) and dispatches it; preparation overlaps
   the previous half-strip's microcode, so the machine stalls only
   when the front end is slower.  [frontend_s] accumulates exactly the
   stall time plus the per-call launch cost. *)
let analytic_totals (config : Config.t) halfstrips =
  let dispatch = Config.effective_dispatch_s config in
  let word_s = Config.effective_word_s config in
  List.fold_left
    (fun (cycles, madds, stall) (hs : Stripmine.halfstrip) ->
      let lines = Array.length hs.rows in
      let cm_cycles = Cost.halfstrip_cycles config hs.strip.plan ~lines in
      let fe_s =
        dispatch
        +. (float_of_int (Cost.halfstrip_words hs.strip.plan ~lines) *. word_s)
      in
      let cm_s = float_of_int cm_cycles /. config.clock_hz in
      ( cycles + cm_cycles,
        madds + Cost.halfstrip_madds_total config hs.strip.plan ~lines,
        stall +. Float.max 0.0 (fe_s -. cm_s) ))
    (0, 0, 0.0) halfstrips

let build_stats (config : Config.t) ~iterations ~comm_cycles ~call_s
    ~compute_cycles ~madds ~frontend_stall_s ~flops_per_point ~global_points
    ~strip_widths ~corners_skipped =
  {
    Stats.iterations;
    comm_cycles;
    compute_cycles;
    frontend_s = call_s +. frontend_stall_s;
    useful_flops_per_iteration = flops_per_point * global_points;
    madds_issued = madds;
    strip_widths;
    corners_skipped;
    nodes = Config.node_count config;
    clock_hz = config.clock_hz;
  }

let plan_streams compiled =
  (Compile.widest compiled).Plan.coeff_streams

let materialize_streams ~pool machine env ~sub_rows ~sub_cols streams =
  let cache : (string, Dist.t) Hashtbl.t = Hashtbl.create 8 in
  Array.map
    (fun coeff ->
      match coeff with
      | Coeff.Array name -> begin
          match Hashtbl.find_opt cache name with
          | Some d -> d
          | None ->
              let d = Dist.scatter ~pool machine (Reference.lookup env name) in
              Hashtbl.add cache name d;
              d
        end
      | Coeff.Scalar v ->
          let d = Dist.create machine ~sub_rows ~sub_cols in
          Dist.fill ~pool d v;
          d
      | Coeff.One ->
          let d = Dist.create machine ~sub_rows ~sub_cols in
          Dist.fill ~pool d 1.0;
          d)
    streams

(* Direct evaluation of one node's subgrid from its padded temporaries
   and coefficient streams: the fast inner loop.  Reads exactly the
   positions the microcode would. *)
let fast_node_compute pattern ~(source : Halo.exchange) ~(dst : Dist.t)
    ~(streams : Dist.t array) ~node mem =
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let pad = source.Halo.pad and pcols = source.Halo.padded_cols in
  let taps = Pattern.taps pattern in
  let ntaps = List.length taps in
  let padded_base = source.Halo.padded.Memory.base in
  for r = 0 to sub_rows - 1 do
    for c = 0 to sub_cols - 1 do
      let sum = ref 0.0 in
      List.iteri
        (fun i tap ->
          let { Offset.drow; dcol } = tap.Tap.offset in
          let v =
            Memory.read mem
              (padded_base + ((r + drow + pad) * pcols) + (c + dcol + pad))
          in
          let coeff = Dist.local_get streams.(i) ~node ~row:r ~col:c in
          sum := !sum +. (coeff *. v))
        taps;
      (match Pattern.bias pattern with
      | Some _ ->
          sum := !sum +. Dist.local_get streams.(ntaps) ~node ~row:r ~col:c
      | None -> ());
      Dist.local_set dst ~node ~row:r ~col:c !sum
    done
  done

(* Resolve a kernel against the statement's standing regions: the
   layouts are identical on every node (Machine.alloc_all asserts it),
   so one specialization — and one tile decomposition — serves the
   whole machine.  Walks are validated against the node capacity; every
   node's store is then materialized out to the walk's extent here, on
   the coordinating domain before the pool phase, so a walk that strays
   past the last allocated region (a corrupted kernel) reads the zeros
   a full-capacity store would hold. *)
let specialize_kernel kernel machine ~tile ~(halos : Halo.exchange array)
    ~(dst : Dist.t) ~(streams : Dist.t array) =
  let spec =
    Kernel.specialize kernel ~tile ~sub_rows:dst.Dist.sub_rows
      ~sub_cols:dst.Dist.sub_cols
      ~sources:
        (Array.map
           (fun (h : Halo.exchange) ->
             {
               Kernel.base = h.Halo.padded.Memory.base;
               pcols = h.Halo.padded_cols;
               pad = h.Halo.pad;
             })
           halos)
      ~coeff_bases:(Array.map (fun d -> d.Dist.region.Memory.base) streams)
      ~dst_base:dst.Dist.region.Memory.base
      ~words:(Memory.words (Machine.memory machine 0))
      ()
  in
  Machine.iter_nodes machine (fun _ mem ->
      Memory.reserve mem (Kernel.extent spec));
  spec

(* The phase shared by the one-shot path, the arena path and every
   statement of a batched run: strip the subgrid, evaluate in the
   requested mode, return the analytic per-iteration totals.  [halo]
   may be padded wider than the pattern's own border (a batch pads to
   the widest statement); the inner loops index by [halo.pad], so a
   narrower pattern simply reads inside the border. *)
let compute_statement ~obs ~mode ~pool ~inner ~kernel ~tile ~hooks machine
    compiled ~(halo : Halo.exchange) ~(dst : Dist.t) ~(streams : Dist.t array)
    =
  let config = Machine.config machine in
  let pattern = compiled.Compile.pattern in
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let strips = Stripmine.strips compiled ~sub_cols in
  let halfstrips =
    List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
  in
  let analytic_cycles, analytic_madds, frontend_stall_s =
    analytic_totals config halfstrips
  in
  Access.set_phase "compute";
  Obs.span obs "run.compute" @@ fun () ->
  (* One child span per half-strip, timed in simulated cycles by the
     analytic model (which Simulate provably matches). *)
  if Obs.tracing obs then begin
    List.iter
      (fun (hs : Stripmine.halfstrip) ->
        let lines = Array.length hs.rows in
        Tr.emit obs.Obs.trace
          ~attrs:
            [
              ("width", Tr.Int hs.strip.plan.Plan.width);
              ("col0", Tr.Int hs.strip.col0);
              ("lines", Tr.Int lines);
              ("cycles", Tr.Int (Cost.halfstrip_cycles config hs.strip.plan ~lines));
            ]
          "run.halfstrip")
      halfstrips;
    Tr.add_attr obs.Obs.trace "cycles" (Tr.Int analytic_cycles);
    Tr.add_attr obs.Obs.trace "madds" (Tr.Int analytic_madds)
  end;
  (match mode with
  | Fast -> begin
      match inner with
      | Lowered ->
          let k =
            match kernel with Some k -> k | None -> Kernel.lower pattern
          in
          let spec =
            specialize_kernel k machine ~tile ~halos:[| halo |] ~dst ~streams
          in
          (* The pool's queue items are (node, tile) pairs, node-major:
             tiles touch disjoint destination spans, so any claim order
             is bit-identical to the sequential walk.  The per-node
             hook and the halo-consumption probe fire once per node, on
             its first tile; every item logs its own [exec.tile] slot
             (node probe slot above the tile index) so the analyzer's
             partition rule sees per-item ownership, not per-node. *)
          let ntiles = Kernel.tile_count spec in
          Pool.iter pool
            (Machine.node_count machine * ntiles)
            (fun item ->
              let node = item / ntiles and tl = item mod ntiles in
              let slot = Dist.probe_slot machine node in
              if tl = 0 then begin
                hooks.on_compute_node node;
                Access.read "halo.node" slot
              end;
              Access.write "exec.tile" ((slot lsl 20) + tl);
              Kernel.exec_tile spec tl (Memory.raw (Machine.memory machine node)))
      | Tapwalk ->
          Pool.iter pool (Machine.node_count machine) (fun node ->
              hooks.on_compute_node node;
              Access.read "halo.node" (Dist.probe_slot machine node);
              Access.write "exec.dst" (Dist.probe_slot machine node);
              fast_node_compute pattern ~source:halo ~dst ~streams ~node
                (Machine.memory machine node))
    end
  | Simulate ->
      (* Simulation is the checking mode: beyond Cost = Interp below,
         every plan the strips draw on must be clean under the
         standalone analyzer. *)
      List.iter (Ccc_analysis.Verify.verify_exn config) compiled.Compile.plans;
      (* Per-domain accumulation: each chunk writes only its own nodes'
         slots; the checks run after the barrier on the coordinating
         domain, lowest node first, so a divergence reports the same
         node at every jobs value. *)
      let nnodes = Machine.node_count machine in
      let outcomes = Array.make nnodes Interp.zero_outcome in
      Pool.iter pool nnodes (fun node ->
          hooks.on_compute_node node;
          Access.read "halo.node" (Dist.probe_slot machine node);
          Access.write "exec.dst" (Dist.probe_slot machine node);
          Access.write "exec.outcome" (Dist.probe_slot machine node);
          let mem = Machine.memory machine node in
          let bindings =
            {
              Interp.memory = mem;
              sources =
                [|
                  {
                    Interp.padded = halo.Halo.padded;
                    padded_cols = halo.Halo.padded_cols;
                    pad = halo.Halo.pad;
                  };
                |];
              dst = dst.Dist.region;
              dst_cols = sub_cols;
              coeffs = Array.map (fun d -> d.Dist.region) streams;
            }
          in
          outcomes.(node) <-
            List.fold_left
              (fun acc (hs : Stripmine.halfstrip) ->
                let outcome =
                  Interp.run_halfstrip config hs.strip.plan bindings
                    ~col0:hs.strip.col0 ~rows:hs.rows
                in
                Interp.add_outcome acc outcome)
              Interp.zero_outcome halfstrips);
      (* The analytic model and the interpreter must agree on every
         node; a divergence is a bug in one of them. *)
      Array.iteri
        (fun node (total : Interp.outcome) ->
          Access.read "exec.outcome" (Dist.probe_slot machine node);
          if total.Interp.cycles <> analytic_cycles then
            failwith
              (Printf.sprintf
                 "Exec.run: node %d: interpreter took %d cycles, model \
                  predicts %d"
                 node total.Interp.cycles analytic_cycles);
          if total.Interp.madds <> analytic_madds then
            failwith
              (Printf.sprintf
                 "Exec.run: node %d: interpreter issued %d madds, model \
                  predicts %d"
                 node total.Interp.madds analytic_madds))
        outcomes);
  hooks.on_phase
    {
      phase = "compute";
      machine;
      source = None;
      halo = Some halo;
      dst = Some dst;
      streams;
    };
  ( analytic_cycles,
    analytic_madds,
    frontend_stall_s,
    List.map (fun (s : Stripmine.strip) -> s.plan.Plan.width) strips )

let too_small pad ~sub_rows ~sub_cols =
  Too_small
    (Printf.sprintf "border width %d exceeds the %dx%d per-node subgrid" pad
       sub_rows sub_cols)

let run ?(obs = Obs.disabled) ?(mode = Fast) ?(primitive = Halo.Node_level)
    ?(iterations = 1) ?(pool = Pool.sequential) ?(inner = Lowered) ?kernel
    ?tile ?(hooks = no_hooks) machine compiled env =
  if iterations < 1 then invalid_arg "Exec.run: iterations < 1";
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  let pattern = compiled.Compile.pattern in
  Reference.check_env pattern env;
  let source_grid = Reference.lookup env (Pattern.source_var pattern) in
  let watermark = Machine.alloc_all machine ~words:0 in
  Obs.span obs "run" @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Machine.free_all_after machine watermark)
  @@ fun () ->
  Access.set_phase "scatter";
  let source =
    Obs.span obs "run.scatter" (fun () ->
        Dist.scatter ~pool machine source_grid)
  in
  let sub_rows = source.Dist.sub_rows and sub_cols = source.Dist.sub_cols in
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let streams =
    Obs.span obs "run.streams" (fun () ->
        materialize_streams ~pool machine env ~sub_rows ~sub_cols
          (plan_streams compiled))
  in
  let dst = Dist.create machine ~sub_rows ~sub_cols in
  Access.set_phase "halo";
  let halo =
    Obs.span obs "run.halo" @@ fun () ->
    let h =
      Halo.exchange ~primitive ~pool ~source ~pad
        ~boundary:(Pattern.boundary pattern)
        ~needs_corners:(Pattern.needs_corners pattern) ()
    in
    if Obs.tracing obs then
      Tr.add_attr obs.Obs.trace "cycles" (Tr.Int h.Halo.cycles);
    h
  in
  hooks.on_phase
    {
      phase = "halo";
      machine;
      source = Some source;
      halo = Some halo;
      dst = Some dst;
      streams;
    };
  let analytic_cycles, analytic_madds, frontend_stall_s, strip_widths =
    compute_statement ~obs ~mode ~pool ~inner ~kernel ~tile ~hooks machine
      compiled ~halo ~dst ~streams
  in
  Access.set_phase "gather";
  let output =
    Obs.span obs "run.gather" (fun () -> Dist.gather ~pool dst)
  in
  let stats =
    build_stats config ~iterations ~comm_cycles:halo.Halo.cycles
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:analytic_cycles ~madds:analytic_madds ~frontend_stall_s
      ~flops_per_point:(Pattern.useful_flops_per_point pattern)
      ~global_points:(Dist.global_rows source * Dist.global_cols source)
      ~strip_widths
      ~corners_skipped:(not (Pattern.needs_corners pattern))
  in
  if Obs.tracing obs then
    Tr.emit obs.Obs.trace
      ~attrs:[ ("seconds", Tr.Float stats.Stats.frontend_s) ]
      "run.frontend";
  if obs != Obs.disabled then Stats.record obs.Obs.metrics stats;
  { output; stats }

(* ------------------------------------------------------------------ *)
(* The transform-domain path (PR 10): the fifth backend.  Same phase
   structure as [run] — scatter, halo exchange, compute, gather, with
   the same hook seam at each phase — but the compute phase is one
   global circular convolution via the cached transform plan instead
   of per-node strip walking.  The host assembles the global padded
   frame from the exchanged node temporaries, so halo faults propagate
   into the transform input exactly as they would into the microcode's
   reads. *)

let run_fft ?(obs = Obs.disabled) ?(primitive = Halo.Node_level)
    ?(iterations = 1) ?(pool = Pool.sequential) ?plan ?(hooks = no_hooks)
    machine pattern env =
  if iterations < 1 then invalid_arg "Exec.run_fft: iterations < 1";
  let config = Machine.config machine in
  Reference.check_env pattern env;
  let source_grid = Reference.lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source_grid and cols = Grid.cols source_grid in
  (* Resolve the plan before touching node memory: a [Varying] or
     [Unbound] coefficient must not leave machine state behind.  A
     caller-supplied (cached) plan is re-bound against this call's
     environment; when the values already match, the cached spectrum
     is reused untouched. *)
  let fplan =
    match plan with
    | Some p ->
        if Fft.rows p <> rows || Fft.cols p <> cols then
          invalid_arg "Exec.run_fft: plan shape does not match the source";
        ignore (Fft.rebind p env);
        p
    | None -> Fft.plan pattern ~rows ~cols env
  in
  let watermark = Machine.alloc_all machine ~words:0 in
  Obs.span obs "run" @@ fun () ->
  Fun.protect ~finally:(fun () -> Machine.free_all_after machine watermark)
  @@ fun () ->
  Access.set_phase "scatter";
  let source =
    Obs.span obs "run.scatter" (fun () ->
        Dist.scatter ~pool machine source_grid)
  in
  let sub_rows = source.Dist.sub_rows and sub_cols = source.Dist.sub_cols in
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let dst = Dist.create machine ~sub_rows ~sub_cols in
  let needs_corners = Pattern.needs_corners pattern in
  Access.set_phase "halo";
  let halo =
    Obs.span obs "run.halo" @@ fun () ->
    let h =
      Halo.exchange ~primitive ~pool ~source ~pad
        ~boundary:(Pattern.boundary pattern)
        ~needs_corners ()
    in
    if Obs.tracing obs then
      Tr.add_attr obs.Obs.trace "cycles" (Tr.Int h.Halo.cycles);
    h
  in
  hooks.on_phase
    {
      phase = "halo";
      machine;
      source = Some source;
      halo = Some halo;
      dst = Some dst;
      streams = [||];
    };
  Access.set_phase "compute";
  Obs.span obs "run.compute" (fun () ->
      (* Assemble the global padded frame from the node temporaries.
         Each node owns its subgrid's cells plus, on the machine's
         edge, the adjoining frame cells — which its own halo holds
         with boundary semantics already applied (wraparound values or
         the end-off fill).  When corner sections were skipped, the
         frame's corner blocks are zeroed rather than read: with no
         diagonal taps their coefficients are zero (including under
         the transform's mod-P aliasing — a corner cell can only reach
         an output point at a doubly-negative offset), so zeros are
         exact where the exchanged NaN poison would destroy the whole
         spectrum. *)
      let frame_rows = rows + (2 * pad) and frame_cols = cols + (2 * pad) in
      let frame = Grid.create ~rows:frame_rows ~cols:frame_cols in
      let fraw = Grid.raw frame in
      let base = halo.Halo.padded.Memory.base in
      let hpcols = halo.Halo.padded_cols in
      let geometry = Machine.geometry machine in
      let grows = Ccc_cm2.Geometry.rows geometry in
      let gcols = Ccc_cm2.Geometry.cols geometry in
      Pool.iter pool (Machine.node_count machine) (fun node ->
          hooks.on_compute_node node;
          Access.read "halo.node" (Dist.probe_slot machine node);
          let mem = Machine.memory machine node in
          let node_r, node_c = Ccc_cm2.Geometry.coord_of_node geometry node in
          let r_lo = if node_r = 0 then -pad else node_r * sub_rows in
          let r_hi =
            if node_r = grows - 1 then rows + pad else (node_r + 1) * sub_rows
          in
          let c_lo = if node_c = 0 then -pad else node_c * sub_cols in
          let c_hi =
            if node_c = gcols - 1 then cols + pad else (node_c + 1) * sub_cols
          in
          for r0 = r_lo to r_hi - 1 do
            let lr = r0 - (node_r * sub_rows) in
            for c0 = c_lo to c_hi - 1 do
              let lc = c0 - (node_c * sub_cols) in
              let corner =
                (r0 < 0 || r0 >= rows) && (c0 < 0 || c0 >= cols)
              in
              let v =
                if corner && not needs_corners then 0.0
                else
                  Memory.read mem
                    (base + ((lr + pad) * hpcols) + (lc + pad))
              in
              fraw.(((r0 + pad) * frame_cols) + (c0 + pad)) <- v
            done
          done);
      let out = Fft.execute ~pool fplan ~padded:frame in
      Dist.scatter_into ~pool dst out);
  hooks.on_phase
    {
      phase = "compute";
      machine;
      source = None;
      halo = Some halo;
      dst = Some dst;
      streams = [||];
    };
  Access.set_phase "gather";
  let output = Obs.span obs "run.gather" (fun () -> Dist.gather ~pool dst) in
  let fft_madds =
    4
    * (Cost.fft_butterflies ~rows ~cols ~pad
      + Cost.fft_pointwise_bins ~rows ~cols ~pad)
  in
  let stats =
    build_stats config ~iterations
      ~comm_cycles:(halo.Halo.cycles + Cost.fft_comm_cycles config ~rows ~cols ~pad)
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:(Cost.fft_compute_cycles config ~rows ~cols ~pad)
      ~madds:fft_madds ~frontend_stall_s:0.0
      ~flops_per_point:(Pattern.useful_flops_per_point pattern)
      ~global_points:(rows * cols) ~strip_widths:[]
      ~corners_skipped:(not needs_corners)
  in
  if Obs.tracing obs then
    Tr.emit obs.Obs.trace
      ~attrs:[ ("seconds", Tr.Float stats.Stats.frontend_s) ]
      "run.frontend";
  if obs != Obs.disabled then Stats.record obs.Obs.metrics stats;
  { output; stats }

let estimate_fft ?(primitive = Halo.Node_level) ?(iterations = 1) ~sub_rows
    ~sub_cols config pattern =
  if iterations < 1 then invalid_arg "Exec.estimate_fft: iterations < 1";
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let rows = sub_rows * config.Config.node_rows
  and cols = sub_cols * config.Config.node_cols in
  let needs_corners = Pattern.needs_corners pattern in
  let comm_cycles =
    Halo.cycles_model ~primitive ~sub_rows ~sub_cols ~pad
      ~corners:needs_corners config
    + Cost.fft_comm_cycles config ~rows ~cols ~pad
  in
  build_stats config ~iterations ~comm_cycles
    ~call_s:(Config.effective_call_s config)
    ~compute_cycles:(Cost.fft_compute_cycles config ~rows ~cols ~pad)
    ~madds:
      (4
      * (Cost.fft_butterflies ~rows ~cols ~pad
        + Cost.fft_pointwise_bins ~rows ~cols ~pad))
    ~frontend_stall_s:0.0
    ~flops_per_point:(Pattern.useful_flops_per_point pattern)
    ~global_points:(rows * cols) ~strip_widths:[]
    ~corners_skipped:(not needs_corners)

let trace ?width ?(lines = 3) (config : Config.t) compiled =
  let plan, how =
    match width with
    | Some w -> begin
        match Compile.plan_for_width compiled w with
        | Some p -> (p, "requested")
        | None -> invalid_arg "Exec.trace: no plan of that width"
      end
    | None -> (Compile.widest compiled, "widest available")
  in
  let pattern = compiled.Compile.pattern in
  let pad = Pattern.max_border pattern in
  let w = plan.Plan.width in
  (* A one-node sandbox big enough for the half-strip plus halo. *)
  let rows = lines + (2 * pad) + 4 and cols = w in
  let mem = Memory.create ~words:(1 lsl 16) in
  let pcols = cols + (2 * pad) in
  let padded = Memory.alloc mem ~words:((rows + (2 * pad)) * pcols) in
  let dst = Memory.alloc mem ~words:(rows * cols) in
  let coeffs =
    Array.map
      (fun _ -> Memory.alloc mem ~words:(rows * cols))
      plan.Plan.coeff_streams
  in
  let bindings =
    {
      Interp.memory = mem;
      sources = [| { Interp.padded; padded_cols = pcols; pad } |];
      dst;
      dst_cols = cols;
      coeffs;
    }
  in
  (* The issue trace rides the span tracer: each dynamic part becomes
     a zero-length span timestamped in sequencer cycles (the clock is
     pinned to zero — simulated cycles are the meaningful axis), and
     the historical line format is rendered from the recorded tree. *)
  let tracer = Tr.create ~clock:(fun () -> 0.0) () in
  let sweep = Array.init lines (fun t -> pad + lines - 1 - t) in
  Tr.with_span tracer
    ~attrs:[ ("width", Tr.Int w); ("lines", Tr.Int lines) ]
    "trace.halfstrip"
    (fun () ->
      let observer ~cycle ~row slot =
        Tr.emit tracer ~ts:(float_of_int cycle)
          ~attrs:
            [
              ("row", Tr.Int row);
              ("slot", Tr.Str (Format.asprintf "%a" Ccc_microcode.Instr.pp slot));
            ]
          "issue"
      in
      ignore
        (Interp.run_halfstrip ~observer config plan bindings ~col0:0
           ~rows:sweep));
  let root = List.hd (Tr.roots tracer) in
  let header =
    Printf.sprintf "half-strip: width %d (%s), %d lines" w how lines
  in
  header
  :: List.map
       (fun s ->
         let cycle = int_of_float (Tr.span_ts s) in
         let row =
           match Tr.find_attr s "row" with Some (Tr.Int r) -> r | _ -> 0
         in
         let slot =
           match Tr.find_attr s "slot" with Some (Tr.Str t) -> t | _ -> ""
         in
         Printf.sprintf "cycle %4d  row %2d  %s" cycle row slot)
       (Tr.span_children root)

let run_padded ?obs ?mode ?primitive ?iterations ?pool ?inner machine compiled
    env =
  let config = Machine.config machine in
  let pattern = compiled.Compile.pattern in
  let fill =
    match Pattern.boundary pattern with
    | Ccc_stencil.Boundary.End_off fill -> fill
    | Ccc_stencil.Boundary.Circular ->
        invalid_arg
          "Exec.run_padded: a circular stencil would wrap through the \
           padding; use Exec.run with evenly dividing shapes"
  in
  Reference.check_env pattern env;
  let source = Reference.lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source and cols = Grid.cols source in
  let round_up v n = (v + n - 1) / n * n in
  let rows' = round_up rows config.Config.node_rows in
  let cols' = round_up cols config.Config.node_cols in
  if rows' = rows && cols' = cols then
    run ?obs ?mode ?primitive ?iterations ?pool ?inner machine compiled env
  else begin
    (* Grow every array with the boundary fill (the source) or zeros
       (coefficients: padding points produce values we crop anyway). *)
    let grow fill_value g =
      Grid.init ~rows:rows' ~cols:cols' (fun r c ->
          if r < rows && c < cols then Grid.get g r c else fill_value)
    in
    let source_name = Pattern.source_var pattern in
    let env' =
      List.map
        (fun (name, g) ->
          (name, grow (if name = source_name then fill else 0.0) g))
        env
    in
    let { output; stats } =
      run ?obs ?mode ?primitive ?iterations ?pool ?inner machine compiled env'
    in
    let cropped = Grid.init ~rows ~cols (fun r c -> Grid.get output r c) in
    (* The padded points below/right of the true edge read the fill
       value through EOSHIFT semantics either way, so the cropped
       region is exact... except that true-edge points whose taps
       reach into the padding must see [fill]; they do, because the
       grown source holds [fill] there.  Flop accounting keeps the
       padded size: the machine really computed those points. *)
    { output = cropped; stats }
  end

(* ------------------------------------------------------------------ *)
(* The fused multi-source path. *)

let reference_fused (multi : Ccc_stencil.Multi.t) env =
  let arrays = Ccc_stencil.Multi.referenced_arrays multi in
  let first = Reference.lookup env (List.hd arrays) in
  let rows = Grid.rows first and cols = Grid.cols first in
  List.iter
    (fun name ->
      let g = Reference.lookup env name in
      if Grid.rows g <> rows || Grid.cols g <> cols then
        raise
          (Reference.Shape_mismatch
             (Printf.sprintf "%s is %dx%d, expected %dx%d" name (Grid.rows g)
                (Grid.cols g) rows cols)))
    arrays;
  let sources =
    Array.of_list
      (List.map (Reference.lookup env) (Ccc_stencil.Multi.sources multi))
  in
  let read =
    match Ccc_stencil.Multi.boundary multi with
    | Ccc_stencil.Boundary.Circular ->
        fun src r c -> Grid.get_circular sources.(src) r c
    | Ccc_stencil.Boundary.End_off fill ->
        fun src r c -> Grid.get_endoff sources.(src) ~fill r c
  in
  Grid.init ~rows ~cols (fun r c ->
      let sum =
        List.fold_left
          (fun acc (st : Ccc_stencil.Multi.source_tap) ->
            let { Ccc_stencil.Offset.drow; dcol } =
              st.Ccc_stencil.Multi.tap.Ccc_stencil.Tap.offset
            in
            acc
            +. Reference.coeff_value env
                 st.Ccc_stencil.Multi.tap.Ccc_stencil.Tap.coeff r c
               *. read st.Ccc_stencil.Multi.source (r + drow) (c + dcol))
          0.0
          (Ccc_stencil.Multi.taps multi)
      in
      match Ccc_stencil.Multi.bias multi with
      | Some coeff -> sum +. Reference.coeff_value env coeff r c
      | None -> sum)

(* Direct evaluation of one node's subgrid from the per-source padded
   temporaries: the fast inner loop of the fused path. *)
let fast_node_compute_fused multi ~(halos : Halo.exchange array)
    ~(dst : Dist.t) ~(streams : Dist.t array) ~node mem =
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let taps = Ccc_stencil.Multi.taps multi in
  let ntaps = List.length taps in
  for r = 0 to sub_rows - 1 do
    for c = 0 to sub_cols - 1 do
      let sum = ref 0.0 in
      List.iteri
        (fun i (st : Ccc_stencil.Multi.source_tap) ->
          let { Ccc_stencil.Offset.drow; dcol } =
            st.Ccc_stencil.Multi.tap.Ccc_stencil.Tap.offset
          in
          let halo = halos.(st.Ccc_stencil.Multi.source) in
          let pad = halo.Halo.pad and pcols = halo.Halo.padded_cols in
          let v =
            Memory.read mem
              (halo.Halo.padded.Memory.base
              + ((r + drow + pad) * pcols)
              + (c + dcol + pad))
          in
          let coeff = Dist.local_get streams.(i) ~node ~row:r ~col:c in
          sum := !sum +. (coeff *. v))
        taps;
      (match Ccc_stencil.Multi.bias multi with
      | Some _ ->
          sum := !sum +. Dist.local_get streams.(ntaps) ~node ~row:r ~col:c
      | None -> ());
      Dist.local_set dst ~node ~row:r ~col:c !sum
    done
  done

let fused_comm ~primitive multi ~scattered () =
  (* One exchange per source, serialized (the grid wires are shared);
     a source with zero border still allocates its unpadded copy. *)
  let halos =
    Array.of_list
      (List.mapi
         (fun src source ->
           Halo.exchange ~primitive ~source
             ~pad:(Ccc_stencil.Multi.max_border multi src)
             ~boundary:(Ccc_stencil.Multi.boundary multi)
             ~needs_corners:(Ccc_stencil.Multi.needs_corners multi src)
             ())
         scattered)
  in
  let cycles = Array.fold_left (fun acc h -> acc + h.Halo.cycles) 0 halos in
  (halos, cycles)

let fused_comm_cycles ~primitive multi ~sub_rows ~sub_cols config =
  List.fold_left ( + ) 0
    (List.init (Ccc_stencil.Multi.source_count multi) (fun src ->
         Halo.cycles_model ~primitive ~sub_rows ~sub_cols
           ~pad:(Ccc_stencil.Multi.max_border multi src)
           ~corners:(Ccc_stencil.Multi.needs_corners multi src)
           config))

let check_fused_fits multi ~sub_rows ~sub_cols =
  List.iteri
    (fun src _ ->
      let pad = Ccc_stencil.Multi.max_border multi src in
      if pad > sub_rows || pad > sub_cols then
        raise
          (Too_small
             (Printf.sprintf
                "source %s: border width %d exceeds the %dx%d per-node subgrid"
                (List.nth (Ccc_stencil.Multi.sources multi) src)
                pad sub_rows sub_cols)))
    (Ccc_stencil.Multi.sources multi)

let run_fused ?(obs = Obs.disabled) ?(mode = Fast)
    ?(primitive = Halo.Node_level) ?(iterations = 1) ?(pool = Pool.sequential)
    ?(inner = Lowered) ?tile machine (fused : Compile.fused) env =
  if iterations < 1 then invalid_arg "Exec.run_fused: iterations < 1";
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  let multi = fused.Compile.multi in
  let first_source = List.hd (Ccc_stencil.Multi.sources multi) in
  let source_grid = Reference.lookup env first_source in
  let watermark = Machine.alloc_all machine ~words:0 in
  Obs.span obs "run.fused" @@ fun () ->
  Fun.protect ~finally:(fun () -> Machine.free_all_after machine watermark)
  @@ fun () ->
  let scattered =
    Obs.span obs "run.scatter" @@ fun () ->
    List.map
      (fun name -> Dist.scatter ~pool machine (Reference.lookup env name))
      (Ccc_stencil.Multi.sources multi)
  in
  let first = List.hd scattered in
  let sub_rows = first.Dist.sub_rows and sub_cols = first.Dist.sub_cols in
  check_fused_fits multi ~sub_rows ~sub_cols;
  let streams =
    Obs.span obs "run.streams" (fun () ->
        materialize_streams ~pool machine env ~sub_rows ~sub_cols
          (Compile.fused_widest fused).Plan.coeff_streams)
  in
  let dst = Dist.create machine ~sub_rows ~sub_cols in
  let halos, comm_cycles =
    Obs.span obs "run.halo" @@ fun () ->
    let h, c = fused_comm ~primitive multi ~scattered () in
    if Obs.tracing obs then Tr.add_attr obs.Obs.trace "cycles" (Tr.Int c);
    (h, c)
  in
  let strips =
    Stripmine.strips_of_plans fused.Compile.fused_plans ~sub_cols
  in
  let halfstrips =
    List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
  in
  let analytic_cycles, analytic_madds, frontend_stall_s =
    analytic_totals config halfstrips
  in
  Obs.span obs "run.compute" (fun () ->
      if Obs.tracing obs then
        Tr.add_attr obs.Obs.trace "cycles" (Tr.Int analytic_cycles);
      match mode with
  | Fast -> begin
      match inner with
      | Lowered ->
          let k = Kernel.lower_multi multi in
          let spec = specialize_kernel k machine ~tile ~halos ~dst ~streams in
          let ntiles = Kernel.tile_count spec in
          Pool.iter pool
            (Machine.node_count machine * ntiles)
            (fun item ->
              Kernel.exec_tile spec (item mod ntiles)
                (Memory.raw (Machine.memory machine (item / ntiles))))
      | Tapwalk ->
          Pool.iter pool (Machine.node_count machine) (fun node ->
              fast_node_compute_fused multi ~halos ~dst ~streams ~node
                (Machine.memory machine node))
    end
  | Simulate ->
      List.iter
        (Ccc_analysis.Verify.verify_exn config)
        fused.Compile.fused_plans;
      let nnodes = Machine.node_count machine in
      let outcomes = Array.make nnodes Interp.zero_outcome in
      Pool.iter pool nnodes (fun node ->
          let mem = Machine.memory machine node in
          let bindings =
            {
              Interp.memory = mem;
              sources =
                Array.map
                  (fun (h : Halo.exchange) ->
                    {
                      Interp.padded = h.Halo.padded;
                      padded_cols = h.Halo.padded_cols;
                      pad = h.Halo.pad;
                    })
                  halos;
              dst = dst.Dist.region;
              dst_cols = sub_cols;
              coeffs = Array.map (fun d -> d.Dist.region) streams;
            }
          in
          outcomes.(node) <-
            List.fold_left
              (fun acc (hs : Stripmine.halfstrip) ->
                Interp.add_outcome acc
                  (Interp.run_halfstrip config hs.strip.plan bindings
                     ~col0:hs.strip.col0 ~rows:hs.rows))
              Interp.zero_outcome halfstrips);
      Array.iteri
        (fun node (total : Interp.outcome) ->
          if total.Interp.cycles <> analytic_cycles then
            failwith
              (Printf.sprintf
                 "Exec.run_fused: node %d: interpreter took %d cycles, model \
                  predicts %d"
                 node total.Interp.cycles analytic_cycles))
        outcomes);
  let output = Obs.span obs "run.gather" (fun () -> Dist.gather ~pool dst) in
  let corners_skipped =
    not
      (List.exists
         (fun src -> Ccc_stencil.Multi.needs_corners multi src)
         (List.init (Ccc_stencil.Multi.source_count multi) Fun.id))
  in
  let stats =
    build_stats config ~iterations ~comm_cycles
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:analytic_cycles ~madds:analytic_madds ~frontend_stall_s
      ~flops_per_point:(Ccc_stencil.Multi.useful_flops_per_point multi)
      ~global_points:(Grid.rows source_grid * Grid.cols source_grid)
      ~strip_widths:
        (List.map (fun (s : Stripmine.strip) -> s.plan.Plan.width) strips)
      ~corners_skipped
  in
  if obs != Obs.disabled then Stats.record obs.Obs.metrics stats;
  { output; stats }

let estimate_fused ?(primitive = Halo.Node_level) ?(iterations = 1) ~sub_rows
    ~sub_cols config (fused : Compile.fused) =
  if iterations < 1 then invalid_arg "Exec.estimate_fused: iterations < 1";
  let multi = fused.Compile.multi in
  check_fused_fits multi ~sub_rows ~sub_cols;
  let strips =
    Stripmine.strips_of_plans fused.Compile.fused_plans ~sub_cols
  in
  let halfstrips =
    List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
  in
  let compute_cycles, madds, frontend_stall_s =
    analytic_totals config halfstrips
  in
  let comm_cycles =
    fused_comm_cycles ~primitive multi ~sub_rows ~sub_cols config
  in
  let corners_skipped =
    not
      (List.exists
         (fun src -> Ccc_stencil.Multi.needs_corners multi src)
         (List.init (Ccc_stencil.Multi.source_count multi) Fun.id))
  in
  build_stats config ~iterations ~comm_cycles
    ~call_s:(Config.effective_call_s config) ~compute_cycles ~madds
    ~frontend_stall_s
    ~flops_per_point:(Ccc_stencil.Multi.useful_flops_per_point multi)
    ~global_points:(sub_rows * sub_cols * Config.node_count config)
    ~strip_widths:
      (List.map (fun (s : Stripmine.strip) -> s.plan.Plan.width) strips)
    ~corners_skipped

(* ------------------------------------------------------------------ *)
(* Arena-backed execution: the persistent-engine entry points. *)

module Arena = struct
  type slot = {
    profile : int * int * int * int;
        (* sub_rows, sub_cols, pad, stream count *)
    src : Dist.t;
    streams : Dist.t array;
    dst : Dist.t;
    halo_region : Memory.region;
  }

  type t = {
    machine : Machine.t;
    floor : Memory.region;
    mutable slot : slot option;
    mutable reuses : int;
    mutable rebuilds : int;
  }

  let create machine =
    {
      machine;
      floor = Machine.alloc_all machine ~words:0;
      slot = None;
      reuses = 0;
      rebuilds = 0;
    }

  let machine t = t.machine
  let reuses t = t.reuses
  let rebuilds t = t.rebuilds

  (* The node memories are bump allocators, so the arena keeps exactly
     one standing shape profile: a request for the same profile reuses
     every region in place, and any other profile frees back to the
     floor watermark and rebuilds.  Callers rewrite every word of every
     region before reading (scatter_into / fill / exchange_into), so
     reuse cannot observe a previous call's data. *)
  let acquire t ~sub_rows ~sub_cols ~pad ~nstreams =
    let profile = (sub_rows, sub_cols, pad, nstreams) in
    match t.slot with
    | Some slot when slot.profile = profile ->
        t.reuses <- t.reuses + 1;
        slot
    | _ ->
        Machine.free_all_after t.machine t.floor;
        let src = Dist.create t.machine ~sub_rows ~sub_cols in
        let streams =
          Array.init nstreams (fun _ ->
              Dist.create t.machine ~sub_rows ~sub_cols)
        in
        let dst = Dist.create t.machine ~sub_rows ~sub_cols in
        let halo_region =
          Machine.alloc_all t.machine
            ~words:((sub_rows + (2 * pad)) * (sub_cols + (2 * pad)))
        in
        let slot = { profile; src; streams; dst; halo_region } in
        t.slot <- Some slot;
        t.rebuilds <- t.rebuilds + 1;
        slot

  let reset t =
    Machine.free_all_after t.machine t.floor;
    t.slot <- None
end

(* Refill standing stream regions from the host environment.  Unlike
   [materialize_streams] this does not alias repeated array names to
   one region — the regions are pre-allocated per stream slot — but
   the values written are identical, so outputs are bit-identical. *)
let refill_streams ~pool env (dists : Dist.t array) streams =
  Array.iteri
    (fun i coeff ->
      match coeff with
      | Coeff.Array name ->
          Dist.scatter_into ~pool dists.(i) (Reference.lookup env name)
      | Coeff.Scalar v -> Dist.fill ~pool dists.(i) v
      | Coeff.One -> Dist.fill ~pool dists.(i) 1.0)
    streams

let arena_shape (config : Config.t) ~who grid =
  let grows = Grid.rows grid and gcols = Grid.cols grid in
  let nrows = config.Config.node_rows and ncols = config.Config.node_cols in
  if grows mod nrows <> 0 || gcols mod ncols <> 0 then
    invalid_arg
      (Printf.sprintf
         "%s: %dx%d array does not divide over a %dx%d node grid" who grows
         gcols nrows ncols);
  (grows / nrows, gcols / ncols)

let run_arena ?(obs = Obs.disabled) ?(mode = Fast)
    ?(primitive = Halo.Node_level) ?(iterations = 1) ?(pool = Pool.sequential)
    ?(inner = Lowered) ?kernel ?tile ?(hooks = no_hooks) arena compiled env =
  if iterations < 1 then invalid_arg "Exec.run_arena: iterations < 1";
  let machine = Arena.machine arena in
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  let pattern = compiled.Compile.pattern in
  Reference.check_env pattern env;
  let source_grid = Reference.lookup env (Pattern.source_var pattern) in
  let sub_rows, sub_cols =
    arena_shape config ~who:"Exec.run_arena" source_grid
  in
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  Obs.span obs "run" @@ fun () ->
  let spec = plan_streams compiled in
  let slot =
    Arena.acquire arena ~sub_rows ~sub_cols ~pad
      ~nstreams:(Array.length spec)
  in
  Access.set_phase "scatter";
  Obs.span obs "run.scatter" (fun () ->
      Dist.scatter_into ~pool slot.Arena.src source_grid);
  Obs.span obs "run.streams" (fun () ->
      refill_streams ~pool env slot.Arena.streams spec);
  Access.set_phase "halo";
  let halo =
    Obs.span obs "run.halo" @@ fun () ->
    let h =
      Halo.exchange_into ~primitive ~pool ~padded:slot.Arena.halo_region
        ~source:slot.Arena.src ~pad
        ~boundary:(Pattern.boundary pattern)
        ~needs_corners:(Pattern.needs_corners pattern) ()
    in
    if Obs.tracing obs then
      Tr.add_attr obs.Obs.trace "cycles" (Tr.Int h.Halo.cycles);
    h
  in
  hooks.on_phase
    {
      phase = "halo";
      machine;
      source = Some slot.Arena.src;
      halo = Some halo;
      dst = Some slot.Arena.dst;
      streams = slot.Arena.streams;
    };
  let analytic_cycles, analytic_madds, frontend_stall_s, strip_widths =
    compute_statement ~obs ~mode ~pool ~inner ~kernel ~tile ~hooks machine
      compiled ~halo ~dst:slot.Arena.dst ~streams:slot.Arena.streams
  in
  Access.set_phase "gather";
  let output =
    Obs.span obs "run.gather" (fun () -> Dist.gather ~pool slot.Arena.dst)
  in
  let stats =
    build_stats config ~iterations ~comm_cycles:halo.Halo.cycles
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:analytic_cycles ~madds:analytic_madds ~frontend_stall_s
      ~flops_per_point:(Pattern.useful_flops_per_point pattern)
      ~global_points:(Grid.rows source_grid * Grid.cols source_grid)
      ~strip_widths
      ~corners_skipped:(not (Pattern.needs_corners pattern))
  in
  if obs != Obs.disabled then Stats.record obs.Obs.metrics stats;
  { output; stats }

type batch = { batch_results : result list; batch_stats : Stats.t }

let run_batch_arena ?(obs = Obs.disabled) ?(mode = Fast)
    ?(primitive = Halo.Node_level) ?(pool = Pool.sequential)
    ?(inner = Lowered) ?kernels ?tile arena compileds env =
  if compileds = [] then invalid_arg "Exec.run_batch_arena: empty batch";
  let kernels =
    match kernels with
    | None -> List.map (fun _ -> None) compileds
    | Some ks ->
        if List.length ks <> List.length compileds then
          invalid_arg "Exec.run_batch_arena: one kernel per statement";
        List.map Option.some ks
  in
  let machine = Arena.machine arena in
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  let patterns = List.map (fun c -> c.Compile.pattern) compileds in
  let first = List.hd patterns in
  let source_var = Pattern.source_var first in
  let boundary = Pattern.boundary first in
  List.iter
    (fun p ->
      if Pattern.source_var p <> source_var then
        invalid_arg
          (Printf.sprintf
             "Exec.run_batch_arena: statements read %s and %s; a batch \
              shares one source array behind one halo exchange"
             source_var (Pattern.source_var p));
      if not (Boundary.equal (Pattern.boundary p) boundary) then
        invalid_arg
          "Exec.run_batch_arena: statements mix boundary semantics; a batch \
           shares one halo exchange")
    patterns;
  List.iter (fun p -> Reference.check_env p env) patterns;
  let source_grid = Reference.lookup env source_var in
  let sub_rows, sub_cols =
    arena_shape config ~who:"Exec.run_batch_arena" source_grid
  in
  (* One exchange padded to the widest statement: a narrower pattern
     reads strictly inside the border, and the corner sections are
     fetched (rather than NaN-poisoned) if any statement needs them. *)
  let pad =
    List.fold_left (fun acc p -> max acc (Pattern.max_border p)) 0 patterns
  in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let needs_corners = List.exists Pattern.needs_corners patterns in
  let nstreams =
    List.fold_left
      (fun acc c -> max acc (Array.length (plan_streams c)))
      0 compileds
  in
  Obs.span obs "run.batch"
    ~attrs:
      (if Obs.tracing obs then
         [ ("statements", Tr.Int (List.length compileds)) ]
       else [])
  @@ fun () ->
  let slot = Arena.acquire arena ~sub_rows ~sub_cols ~pad ~nstreams in
  Access.set_phase "scatter";
  Obs.span obs "run.scatter" (fun () ->
      Dist.scatter_into ~pool slot.Arena.src source_grid);
  Access.set_phase "halo";
  let halo =
    Obs.span obs "run.halo" @@ fun () ->
    let h =
      Halo.exchange_into ~primitive ~pool ~padded:slot.Arena.halo_region
        ~source:slot.Arena.src ~pad ~boundary ~needs_corners ()
    in
    if Obs.tracing obs then
      Tr.add_attr obs.Obs.trace "cycles" (Tr.Int h.Halo.cycles);
    h
  in
  let global_points = Grid.rows source_grid * Grid.cols source_grid in
  let batch_results =
    List.map2
      (fun compiled kernel ->
        let pattern = compiled.Compile.pattern in
        let spec = plan_streams compiled in
        let streams = Array.sub slot.Arena.streams 0 (Array.length spec) in
        Access.set_phase "batch";
        Obs.span obs "run.streams" (fun () ->
            refill_streams ~pool env streams spec);
        let analytic_cycles, analytic_madds, frontend_stall_s, strip_widths =
          compute_statement ~obs ~mode ~pool ~inner ~kernel ~tile
            ~hooks:no_hooks machine compiled ~halo ~dst:slot.Arena.dst ~streams
        in
        (* The destination region is shared across the batch, so gather
           each statement's result before the next one overwrites it.
           Communication and the per-call launch cost are paid once for
           the whole batch and reported in [batch_stats]; a statement's
           own stats carry only its compute and dispatch stalls. *)
        Access.set_phase "gather";
        let output =
          Obs.span obs "run.gather" (fun () ->
              Dist.gather ~pool slot.Arena.dst)
        in
        let stats =
          build_stats config ~iterations:1 ~comm_cycles:0 ~call_s:0.0
            ~compute_cycles:analytic_cycles ~madds:analytic_madds
            ~frontend_stall_s
            ~flops_per_point:(Pattern.useful_flops_per_point pattern)
            ~global_points ~strip_widths
            ~corners_skipped:(not (Pattern.needs_corners pattern))
        in
        { output; stats })
      compileds kernels
  in
  let sum f = List.fold_left (fun acc r -> acc + f r.stats) 0 batch_results in
  let sumf f =
    List.fold_left (fun acc r -> acc +. f r.stats) 0.0 batch_results
  in
  let batch_stats =
    build_stats config ~iterations:1 ~comm_cycles:halo.Halo.cycles
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:(sum (fun s -> s.Stats.compute_cycles))
      ~madds:(sum (fun s -> s.Stats.madds_issued))
      ~frontend_stall_s:(sumf (fun s -> s.Stats.frontend_s))
      ~flops_per_point:
        (List.fold_left
           (fun acc p -> acc + Pattern.useful_flops_per_point p)
           0 patterns)
      ~global_points
      ~strip_widths:
        (List.concat_map (fun r -> r.stats.Stats.strip_widths) batch_results)
      ~corners_skipped:(not needs_corners)
  in
  if obs != Obs.disabled then Stats.record obs.Obs.metrics batch_stats;
  { batch_results; batch_stats }

let estimate ?(primitive = Halo.Node_level) ?(iterations = 1) ~sub_rows
    ~sub_cols config compiled =
  if iterations < 1 then invalid_arg "Exec.estimate: iterations < 1";
  let pattern = compiled.Compile.pattern in
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let strips = Stripmine.strips compiled ~sub_cols in
  let halfstrips =
    List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
  in
  let compute_cycles, madds, frontend_stall_s =
    analytic_totals config halfstrips
  in
  let needs_corners = Pattern.needs_corners pattern in
  let comm_cycles =
    Halo.cycles_model ~primitive ~sub_rows ~sub_cols ~pad
      ~corners:needs_corners config
  in
  build_stats config ~iterations ~comm_cycles
    ~call_s:(Config.effective_call_s config) ~compute_cycles ~madds
    ~frontend_stall_s
    ~flops_per_point:(Pattern.useful_flops_per_point pattern)
    ~global_points:(sub_rows * sub_cols * Config.node_count config)
    ~strip_widths:(List.map (fun (s : Stripmine.strip) ->
         s.plan.Plan.width) strips)
    ~corners_skipped:(not needs_corners)

type backend = Auto | Force_compiled | Force_fft

let backend_of_string = function
  | "auto" -> Some Auto
  | "compiled" -> Some Force_compiled
  | "fft" -> Some Force_fft
  | _ -> None

let backend_name = function
  | Auto -> "auto"
  | Force_compiled -> "compiled"
  | Force_fft -> "fft"

(* The planner: a pure function of the configuration, the compiled
   plans (if any) and the grid shape, so the choice is deterministic
   and testable without a machine.  The compiled side prices with
   [estimate] (the Table-1-calibrated model), the transform side with
   [Cost.fft_cycles]; ties go to the compiled path, whose results are
   bit-identical to the simulator. *)
let select_backend ?(backend = Auto) ~sub_rows ~sub_cols config compiled =
  match (backend, compiled) with
  | Force_compiled, _ -> `Compiled
  | Force_fft, _ -> `Fft
  | Auto, None -> `Fft
  | Auto, Some c -> (
      match estimate ~sub_rows ~sub_cols config c with
      | exception Too_small _ ->
          (* Neither path fits a subgrid smaller than the border; defer
             to the compiled path so the run reports the [Too_small]
             diagnosis rather than pricing an impossible transform. *)
          `Compiled
      | s ->
          let pattern = c.Compile.pattern in
          let pad = Pattern.max_border pattern in
          let rows = sub_rows * config.Config.node_rows
          and cols = sub_cols * config.Config.node_cols in
          if
            s.Stats.comm_cycles + s.Stats.compute_cycles
            <= Cost.fft_cycles config ~rows ~cols ~pad
          then `Compiled
          else `Fft)

(* ------------------------------------------------------------------ *)
(* Per-phase cycle attribution: Table 1 as live telemetry. *)

let attribute ?(primitive = Halo.Node_level) ~sub_rows ~sub_cols config
    compiled =
  let pattern = compiled.Compile.pattern in
  let pad = Pattern.max_border pattern in
  if pad > sub_rows || pad > sub_cols then
    raise (too_small pad ~sub_rows ~sub_cols);
  let strips = Stripmine.strips compiled ~sub_cols in
  let halfstrips =
    List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
  in
  let compute =
    List.fold_left
      (fun acc (hs : Stripmine.halfstrip) ->
        Profiler.add acc
          (Profiler.halfstrip config hs.strip.plan
             ~lines:(Array.length hs.rows)))
      Profiler.zero halfstrips
  in
  let _, _, frontend_stall_s = analytic_totals config halfstrips in
  let comm_cycles =
    Halo.cycles_model ~primitive ~sub_rows ~sub_cols ~pad
      ~corners:(Pattern.needs_corners pattern) config
  in
  {
    Profiler.comm_cycles;
    compute;
    frontend_s = Config.effective_call_s config +. frontend_stall_s;
  }
