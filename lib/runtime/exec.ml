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
type batch = { batch_results : result list; batch_stats : Stats.t }

exception Too_small of string
exception Invalid_program of string

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

(* ------------------------------------------------------------------ *)
(* Programs. *)

type plan =
  | Compiled of { plans : Plan.t list; kernel : Kernel.t }
  | Transform of Fft.plan option

type statement = { taps : Multi.t; plan : plan }
type program = statement list

let compiled ?kernel (c : Compile.t) =
  let taps = Multi.of_pattern c.Compile.pattern in
  let kernel = match kernel with Some k -> k | None -> Kernel.lower taps in
  { taps; plan = Compiled { plans = c.Compile.plans; kernel } }

let fused (f : Compile.fused) =
  {
    taps = f.Compile.multi;
    plan =
      Compiled
        {
          plans = f.Compile.fused_plans;
          kernel = Kernel.lower f.Compile.multi;
        };
  }

let transform ?plan pattern =
  { taps = Multi.of_pattern pattern; plan = Transform plan }

(* The coefficient streams a statement reads, in kernel order; the
   transform path folds its coefficients into the cached spectrum and
   streams nothing. *)
let stream_spec st =
  match st.plan with
  | Compiled { plans; _ } -> (List.hd plans).Plan.coeff_streams
  | Transform _ -> [||]

(* One exchanged source array: every statement reading it shares one
   exchange, padded to the widest border any of them needs, with the
   corner sections fetched if any of them reads a diagonal. *)
type source = {
  name : string;
  boundary : Boundary.t;
  pad : int;
  corners : bool;
}

let sources_of (taps : Multi.t list) =
  if taps = [] then raise (Invalid_program "a batch needs at least one statement");
  let reads =
    List.concat_map
      (fun m ->
        List.mapi
          (fun i name ->
            {
              name;
              boundary = Multi.boundary m;
              pad = Multi.max_border m i;
              corners = Multi.needs_corners m i;
            })
          (Multi.sources m))
      taps
  in
  let merge acc r =
    match List.find_opt (fun s -> s.name = r.name) acc with
    | None -> r :: acc
    | Some s ->
        if not (Boundary.equal s.boundary r.boundary) then
          raise
            (Invalid_program
               "statements mix boundary semantics; a batch shares one halo \
                exchange");
        List.map
          (fun s ->
            if s.name = r.name then
              { s with pad = max s.pad r.pad; corners = s.corners || r.corners }
            else s)
          acc
  in
  Array.of_list (List.rev (List.fold_left merge [] reads))

let check_fit sources ~sub_rows ~sub_cols =
  Array.iter
    (fun s ->
      if s.pad > sub_rows || s.pad > sub_cols then
        raise
          (Too_small
             (Printf.sprintf
                "border width %d exceeds the %dx%d per-node subgrid" s.pad
                sub_rows sub_cols)))
    sources


(* ------------------------------------------------------------------ *)
(* The price walk: the one cost model of every statement kind.  The
   driver's statistics are its output, and [estimate] and [attribute]
   are its two views.

   The front end prepares each half-strip's dynamic-part parameters
   (one unit of work per word) and dispatches it; preparation overlaps
   the previous half-strip's microcode, so the machine stalls only
   when the front end is slower.  [stall_s] accumulates exactly the
   stall time; the per-call launch cost is paid once per program. *)

type cost = {
  halfstrips : Stripmine.halfstrip list;
  widths : int list;
  comm : int;  (** the statement's own communication: the transposes *)
  compute : Profiler.compute;
  madds : int;
  stall_s : float;
}

type priced = {
  sources : source array;
  halo_cycles : int array;  (** one exchange per source *)
  costs : cost list;  (** one per statement, in program order *)
}

let statement_cost (config : Config.t) ~sub_rows ~sub_cols st =
  match st.plan with
  | Compiled { plans; _ } ->
      let strips = Stripmine.strips_of_plans plans ~sub_cols in
      let halfstrips =
        List.concat_map (fun s -> Stripmine.halfstrips s ~sub_rows) strips
      in
      let dispatch = Config.effective_dispatch_s config in
      let word_s = Config.effective_word_s config in
      let compute, madds, stall_s =
        List.fold_left
          (fun (compute, madds, stall) (hs : Stripmine.halfstrip) ->
            let plan = hs.strip.plan and lines = Array.length hs.rows in
            let c = Profiler.halfstrip config plan ~lines in
            let fe_s =
              dispatch
              +. (float_of_int (Cost.halfstrip_words plan ~lines) *. word_s)
            in
            let cm_s = float_of_int (Profiler.total c) /. config.clock_hz in
            ( Profiler.add compute c,
              madds + Cost.halfstrip_madds_total config plan ~lines,
              stall +. Float.max 0.0 (fe_s -. cm_s) ))
          (Profiler.zero, 0, 0.0) halfstrips
      in
      {
        halfstrips;
        widths =
          List.map (fun (s : Stripmine.strip) -> s.plan.Plan.width) strips;
        comm = 0;
        compute;
        madds;
        stall_s;
      }
  | Transform _ ->
      let rows = sub_rows * config.node_rows
      and cols = sub_cols * config.node_cols
      and pad = Multi.max_border st.taps 0 in
      {
        halfstrips = [];
        widths = [];
        comm = Cost.fft_comm_cycles config ~rows ~cols ~pad;
        compute =
          {
            Profiler.zero with
            transform = Cost.fft_compute_cycles config ~rows ~cols ~pad;
          };
        madds =
          4
          * (Cost.fft_butterflies ~rows ~cols ~pad
            + Cost.fft_pointwise_bins ~rows ~cols ~pad);
        stall_s = 0.0;
      }

let price ~primitive ~sub_rows ~sub_cols config (program : program) =
  let sources = sources_of (List.map (fun st -> st.taps) program) in
  check_fit sources ~sub_rows ~sub_cols;
  {
    sources;
    halo_cycles =
      Array.map
        (fun s ->
          Halo.cycles_model ~primitive ~sub_rows ~sub_cols ~pad:s.pad
            ~corners:s.corners config)
        sources;
    costs = List.map (statement_cost config ~sub_rows ~sub_cols) program;
  }

let needs_corners st =
  List.exists (Multi.needs_corners st.taps)
    (List.init (Multi.source_count st.taps) Fun.id)

(* Per-statement statistics carry the statement's own cycles; the
   program's total adds what its statements share — one exchange per
   source and one front-end launch. *)
let stats_of (config : Config.t) ~iterations ~sub_rows ~sub_cols program
    priced =
  let global_points = sub_rows * sub_cols * Config.node_count config in
  let stats ~comm_cycles ~call_s ~compute_cycles ~madds ~stall_s
      ~flops_per_point ~strip_widths ~corners_skipped =
    {
      Stats.iterations;
      comm_cycles;
      compute_cycles;
      frontend_s = call_s +. stall_s;
      useful_flops_per_iteration = flops_per_point * global_points;
      madds_issued = madds;
      strip_widths;
      corners_skipped;
      nodes = Config.node_count config;
      clock_hz = config.clock_hz;
    }
  in
  let own =
    List.map2
      (fun st c ->
        stats ~comm_cycles:c.comm ~call_s:0.0
          ~compute_cycles:(Profiler.total c.compute) ~madds:c.madds
          ~stall_s:c.stall_s
          ~flops_per_point:(Multi.useful_flops_per_point st.taps)
          ~strip_widths:c.widths
          ~corners_skipped:(not (needs_corners st)))
      program priced.costs
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 own in
  let total =
    stats
      ~comm_cycles:
        (Array.fold_left ( + ) 0 priced.halo_cycles
        + sum (fun s -> s.Stats.comm_cycles))
      ~call_s:(Config.effective_call_s config)
      ~compute_cycles:(sum (fun s -> s.Stats.compute_cycles))
      ~madds:(sum (fun s -> s.Stats.madds_issued))
      ~stall_s:(List.fold_left (fun acc c -> acc +. c.stall_s) 0.0 priced.costs)
      ~flops_per_point:
        (List.fold_left
           (fun acc st -> acc + Multi.useful_flops_per_point st.taps)
           0 program)
      ~strip_widths:(List.concat_map (fun s -> s.Stats.strip_widths) own)
      ~corners_skipped:
        (not (Array.exists (fun s -> s.corners) priced.sources))
  in
  (own, total)

let estimate ?(primitive = Halo.Node_level) ?(iterations = 1) ~sub_rows
    ~sub_cols config program =
  if iterations < 1 then invalid_arg "Exec.estimate: iterations < 1";
  snd
    (stats_of config ~iterations ~sub_rows ~sub_cols program
       (price ~primitive ~sub_rows ~sub_cols config program))

let attribute ?(primitive = Halo.Node_level) ~sub_rows ~sub_cols config
    program =
  let priced = price ~primitive ~sub_rows ~sub_cols config program in
  let _, total =
    stats_of config ~iterations:1 ~sub_rows ~sub_cols program priced
  in
  {
    Profiler.comm_cycles = total.Stats.comm_cycles;
    compute =
      List.fold_left (fun acc c -> Profiler.add acc c.compute) Profiler.zero
        priced.costs;
    frontend_s = total.Stats.frontend_s;
  }

(* ------------------------------------------------------------------ *)
(* Backend selection. *)

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
   and testable without a machine.  Both sides are the price walk's
   full totals — communication (the halo exchange, plus the
   transposes on the transform side) and compute; ties go to the
   compiled path, whose results are bit-identical to the simulator. *)
let select_backend ?(backend = Auto) ~sub_rows ~sub_cols config c =
  match (backend, c) with
  | Force_compiled, _ -> `Compiled
  | Force_fft, _ -> `Fft
  | Auto, None -> `Fft
  | Auto, Some c -> (
      let total st =
        let s = estimate ~sub_rows ~sub_cols config [ st ] in
        s.Stats.comm_cycles + s.Stats.compute_cycles
      in
      match total (compiled c) with
      | exception Too_small _ ->
          (* Neither path fits a subgrid smaller than the border; defer
             to the compiled path so the run reports the [Too_small]
             diagnosis rather than pricing an impossible transform. *)
          `Compiled
      | ct ->
          if ct <= total (transform c.Compile.pattern) then `Compiled else `Fft)

(* ------------------------------------------------------------------ *)
(* Arenas: the regions a program runs in. *)

module Arena = struct
  type slot = {
    profile : int * int * int list * int;
        (* sub_rows, sub_cols, per-source pad, stream count *)
    srcs : Dist.t array;
    streams : Dist.t array;
    dst : Dist.t;
    halos : Memory.region array;
  }

  type t = {
    machine : Machine.t;
    floor : Memory.region;
    transient : bool;
    mutable slot : slot option;
    mutable reuses : int;
    mutable rebuilds : int;
  }

  let make ~transient machine =
    {
      machine;
      floor = Machine.alloc_all machine ~words:0;
      transient;
      slot = None;
      reuses = 0;
      rebuilds = 0;
    }

  let create = make ~transient:false
  let transient = make ~transient:true
  let reuses t = t.reuses
  let rebuilds t = t.rebuilds

  (* The node memories are bump allocators, so the arena keeps exactly
     one standing shape profile: a request for the same profile reuses
     every region in place, and any other profile frees back to the
     floor watermark and rebuilds.  The driver rewrites every word of
     every region before reading (scatter_into / fill /
     exchange_into), so reuse cannot observe a previous call's data. *)
  let acquire t ~sub_rows ~sub_cols ~pads ~nstreams =
    let profile = (sub_rows, sub_cols, pads, nstreams) in
    match t.slot with
    | Some slot when slot.profile = profile ->
        t.reuses <- t.reuses + 1;
        slot
    | _ ->
        Machine.free_all_after t.machine t.floor;
        let dist () = Dist.create t.machine ~sub_rows ~sub_cols in
        let srcs = Array.of_list (List.map (fun _ -> dist ()) pads) in
        let streams = Array.init nstreams (fun _ -> dist ()) in
        let dst = dist () in
        let halos =
          Array.of_list
            (List.map
               (fun pad ->
                 Machine.alloc_all t.machine
                   ~words:((sub_rows + (2 * pad)) * (sub_cols + (2 * pad))))
               pads)
        in
        let slot = { profile; srcs; streams; dst; halos } in
        t.slot <- Some slot;
        t.rebuilds <- t.rebuilds + 1;
        slot

  let reset t =
    Machine.free_all_after t.machine t.floor;
    t.slot <- None

  (* What [acquire] can still take on each node: everything above the
     floor (node layouts are identical). *)
  let words_free t =
    Memory.words (Machine.memory t.machine 0)
    - (t.floor.Memory.base + t.floor.Memory.words)
end

let check arena (taps : Multi.t list) ~streams env =
  let config = Machine.config arena.Arena.machine in
  let sources = sources_of taps in
  let first = sources.(0).name in
  let grid = Reference.lookup env first in
  let rows = Grid.rows grid and cols = Grid.cols grid in
  List.iter
    (fun m ->
      List.iter
        (fun name ->
          let g = Reference.lookup env name in
          if Grid.rows g <> rows || Grid.cols g <> cols then
            raise
              (Reference.Shape_mismatch
                 (Printf.sprintf "%s is %dx%d but %s is %dx%d" name
                    (Grid.rows g) (Grid.cols g) first rows cols)))
        (Multi.referenced_arrays m))
    taps;
  let nrows = config.Config.node_rows and ncols = config.Config.node_cols in
  if rows mod nrows <> 0 || cols mod ncols <> 0 then
    raise
      (Reference.Shape_mismatch
         (Printf.sprintf "%s is %dx%d, which does not divide over the %dx%d \
                          node grid"
            first rows cols nrows ncols));
  let sub_rows = rows / nrows and sub_cols = cols / ncols in
  check_fit sources ~sub_rows ~sub_cols;
  (* The regions [Arena.acquire] builds, per node: each source and its
     padded halo, the streams and the destination. *)
  let sub = sub_rows * sub_cols in
  let needed =
    Array.fold_left
      (fun acc s ->
        acc + sub + ((sub_rows + (2 * s.pad)) * (sub_cols + (2 * s.pad))))
      ((streams + 1) * sub) sources
  in
  let free = Arena.words_free arena in
  if needed > free then
    raise
      (Reference.Shape_mismatch
         (Printf.sprintf
            "%s is %dx%d: its %dx%d subgrids need %d words of node memory, \
             %d are free"
            first rows cols sub_rows sub_cols needed free));
  (sub_rows, sub_cols)

(* ------------------------------------------------------------------ *)
(* The compute phase of one statement. *)

let refill_streams ~pool env (dists : Dist.t array) streams =
  Array.iteri
    (fun i coeff ->
      match coeff with
      | Coeff.Array name ->
          Dist.scatter_into ~pool dists.(i) (Reference.lookup env name)
      | Coeff.Scalar v -> Dist.fill ~pool dists.(i) v
      | Coeff.One -> Dist.fill ~pool dists.(i) 1.0)
    streams

(* The checking inner loop: each node's subgrid evaluated from its
   padded temporaries and coefficient streams, re-deriving every
   operand address from the tap list.  Reads exactly the positions the
   microcode would. *)
let tapwalk taps ~(halos : Halo.exchange array) ~(dst : Dist.t)
    ~(streams : Dist.t array) ~node mem =
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let ntaps = Multi.tap_count taps in
  for r = 0 to sub_rows - 1 do
    for c = 0 to sub_cols - 1 do
      let sum = ref 0.0 in
      List.iteri
        (fun i (st : Multi.source_tap) ->
          let { Offset.drow; dcol } = st.Multi.tap.Tap.offset in
          let halo = halos.(st.Multi.source) in
          let pad = halo.Halo.pad in
          let v =
            Memory.read mem
              (halo.Halo.padded.Memory.base
              + ((r + drow + pad) * halo.Halo.padded_cols)
              + (c + dcol + pad))
          in
          let coeff = Dist.local_get streams.(i) ~node ~row:r ~col:c in
          sum := !sum +. (coeff *. v))
        (Multi.taps taps);
      (match Multi.bias taps with
      | Some _ ->
          sum := !sum +. Dist.local_get streams.(ntaps) ~node ~row:r ~col:c
      | None -> ());
      Dist.local_set dst ~node ~row:r ~col:c !sum
    done
  done

(* Resolve a kernel against the statement's regions: the layouts are
   identical on every node (Machine.alloc_all asserts it), so one
   specialization — and one tile decomposition — serves the whole
   machine.  Walks are validated against the node capacity; every
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

(* Strip the subgrid and evaluate in the requested mode.  A halo may be
   padded wider than the statement's own border (a batch pads to its
   widest statement); the inner loops index by the halo's pad, so a
   narrower statement simply reads inside the border. *)
let compute_compiled ~mode ~pool ~inner ~tile ~hooks machine st ~plans
    ~kernel ~(halos : Halo.exchange array) ~(dst : Dist.t) ~streams
    (cost : cost) =
  let config = Machine.config machine in
  let nnodes = Machine.node_count machine in
  match mode with
  | Fast -> begin
      match inner with
      | Lowered ->
          let spec = specialize_kernel kernel machine ~tile ~halos ~dst ~streams in
          (* The pool's queue items are (node, tile) pairs, node-major:
             tiles touch disjoint destination spans, so any claim order
             is bit-identical to the sequential walk.  The per-node
             hook and the halo-consumption probe fire once per node, on
             its first tile; every item logs its own [exec.tile] slot
             (node probe slot above the tile index) so the analyzer's
             partition rule sees per-item ownership, not per-node. *)
          let ntiles = Kernel.tile_count spec in
          Pool.iter pool (nnodes * ntiles) (fun item ->
              let node = item / ntiles and tl = item mod ntiles in
              let slot = Dist.probe_slot machine node in
              if tl = 0 then begin
                hooks.on_compute_node node;
                Access.read "halo.node" slot
              end;
              Access.write "exec.tile" ((slot lsl 20) + tl);
              Kernel.exec_tile spec tl (Memory.raw (Machine.memory machine node)))
      | Tapwalk ->
          Pool.iter pool nnodes (fun node ->
              hooks.on_compute_node node;
              Access.read "halo.node" (Dist.probe_slot machine node);
              Access.write "exec.dst" (Dist.probe_slot machine node);
              tapwalk st.taps ~halos ~dst ~streams ~node
                (Machine.memory machine node))
    end
  | Simulate ->
      (* Simulation is the checking mode: beyond Cost = Interp below,
         every plan the strips draw on must be clean under the
         standalone analyzer. *)
      List.iter (Ccc_analysis.Verify.verify_exn config) plans;
      (* Per-domain accumulation: each chunk writes only its own nodes'
         slots; the checks run after the barrier on the coordinating
         domain, lowest node first, so a divergence reports the same
         node at every jobs value. *)
      let outcomes = Array.make nnodes Interp.zero_outcome in
      let sources =
        Array.map
          (fun (h : Halo.exchange) ->
            {
              Interp.padded = h.Halo.padded;
              padded_cols = h.Halo.padded_cols;
              pad = h.Halo.pad;
            })
          halos
      in
      Pool.iter pool nnodes (fun node ->
          hooks.on_compute_node node;
          Access.read "halo.node" (Dist.probe_slot machine node);
          Access.write "exec.dst" (Dist.probe_slot machine node);
          Access.write "exec.outcome" (Dist.probe_slot machine node);
          let bindings =
            {
              Interp.memory = Machine.memory machine node;
              sources;
              dst = dst.Dist.region;
              dst_cols = dst.Dist.sub_cols;
              coeffs = Array.map (fun d -> d.Dist.region) streams;
            }
          in
          outcomes.(node) <-
            List.fold_left
              (fun acc (hs : Stripmine.halfstrip) ->
                Interp.add_outcome acc
                  (Interp.run_halfstrip config hs.strip.plan bindings
                     ~col0:hs.strip.col0 ~rows:hs.rows))
              Interp.zero_outcome cost.halfstrips);
      (* The analytic model and the interpreter must agree on every
         node; a divergence is a bug in one of them. *)
      let cycles = Profiler.total cost.compute in
      Array.iteri
        (fun node (total : Interp.outcome) ->
          Access.read "exec.outcome" (Dist.probe_slot machine node);
          if total.Interp.cycles <> cycles then
            failwith
              (Printf.sprintf
                 "Exec: node %d: interpreter took %d cycles, model predicts %d"
                 node total.Interp.cycles cycles);
          if total.Interp.madds <> cost.madds then
            failwith
              (Printf.sprintf
                 "Exec: node %d: interpreter issued %d madds, model predicts %d"
                 node total.Interp.madds cost.madds))
        outcomes

(* The transform: one global circular convolution instead of per-node
   strip walking.  The host assembles the global padded frame from the
   exchanged node temporaries, so halo faults propagate into the
   transform input exactly as they would into the microcode's reads.
   Each node owns its subgrid's cells plus, on the machine's edge, the
   adjoining frame cells — which its own halo holds with boundary
   semantics already applied (wraparound values or the end-off fill).
   When the statement reads no diagonal, the frame's corner blocks are
   zeroed rather than read: their coefficients are zero (including
   under the transform's mod-P aliasing — a corner cell can only reach
   an output point at a doubly-negative offset), so zeros are exact
   where the exchanged NaN poison would destroy the whole spectrum. *)
let compute_transform ~pool ~hooks machine st fplan ~(halo : Halo.exchange)
    ~(dst : Dist.t) =
  let sub_rows = dst.Dist.sub_rows and sub_cols = dst.Dist.sub_cols in
  let rows = Dist.global_rows dst and cols = Dist.global_cols dst in
  let pad = Multi.max_border st.taps 0 in
  let needs_corners = needs_corners st in
  let frame_rows = rows + (2 * pad) and frame_cols = cols + (2 * pad) in
  let frame = Grid.create ~rows:frame_rows ~cols:frame_cols in
  let fraw = Grid.raw frame in
  let base = halo.Halo.padded.Memory.base in
  let hpad = halo.Halo.pad and hpcols = halo.Halo.padded_cols in
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
          let corner = (r0 < 0 || r0 >= rows) && (c0 < 0 || c0 >= cols) in
          let v =
            if corner && not needs_corners then 0.0
            else Memory.read mem (base + ((lr + hpad) * hpcols) + (lc + hpad))
          in
          fraw.(((r0 + pad) * frame_cols) + (c0 + pad)) <- v
        done
      done);
  let out = Fft.execute ~pool fplan ~padded:frame in
  Dist.scatter_into ~pool dst out

(* A transform statement's plan, resolved for this call before any node
   memory is touched: a supplied (cached) plan is re-bound against the
   environment — when the values already match, its spectrum is reused
   untouched — and an absent one is built on the fly, unverified. *)
let transform_plan plan st ~rows ~cols env =
  match plan with
  | Some p ->
      if Fft.rows p <> rows || Fft.cols p <> cols then
        invalid_arg "Exec: transform plan shape does not match the source";
      ignore (Fft.rebind p env);
      p
  | None -> Fft.plan (Option.get (Multi.to_pattern st.taps)) ~rows ~cols env

(* ------------------------------------------------------------------ *)
(* The driver. *)

let exec ?(obs = Obs.disabled) ?(mode = Fast) ?(primitive = Halo.Node_level)
    ?(iterations = 1) ?(pool = Pool.sequential) ?(inner = Lowered) ?tile
    ?(hooks = no_hooks) (arena : Arena.t) (program : program) env =
  if iterations < 1 then invalid_arg "Exec.exec: iterations < 1";
  let machine = arena.Arena.machine in
  let config = Machine.config machine in
  let tile = Option.value tile ~default:config.Config.tile in
  (* 1. The environment, the node-grid fit and every border, before
     anything is allocated; the transform plans too, so a [Varying]
     coefficient leaves no machine state behind. *)
  let nstreams =
    List.fold_left
      (fun acc st -> max acc (Array.length (stream_spec st)))
      0 program
  in
  let sub_rows, sub_cols =
    check arena (List.map (fun st -> st.taps) program) ~streams:nstreams env
  in
  let priced = price ~primitive ~sub_rows ~sub_cols config program in
  let own, stats =
    stats_of config ~iterations ~sub_rows ~sub_cols program priced
  in
  let fplans =
    List.map
      (fun st ->
        match st.plan with
        | Transform p ->
            Some
              (transform_plan p st ~rows:(sub_rows * config.node_rows)
                 ~cols:(sub_cols * config.node_cols) env)
        | Compiled _ -> None)
      program
  in
  let sources = priced.sources in
  let nstatements = List.length program in
  let root, attrs =
    if nstatements > 1 then
      ( "run.batch",
        if Obs.tracing obs then [ ("statements", Tr.Int nstatements) ] else [] )
    else if Array.length sources > 1 then ("run.fused", [])
    else ("run", [])
  in
  Obs.span obs root ~attrs @@ fun () ->
  Fun.protect ~finally:(fun () ->
      if arena.Arena.transient then Arena.reset arena)
  @@ fun () ->
  (* 2. Regions. *)
  let slot =
    Arena.acquire arena ~sub_rows ~sub_cols
      ~pads:(Array.to_list (Array.map (fun s -> s.pad) sources))
      ~nstreams
  in
  let dst = slot.Arena.dst in
  let streams_of st =
    Array.sub slot.Arena.streams 0 (Array.length (stream_spec st))
  in
  let refill st =
    let spec = stream_spec st in
    if Array.length spec > 0 then
      Obs.span obs "run.streams" (fun () ->
          refill_streams ~pool env (streams_of st) spec)
  in
  (* 3. Scatter each source; the first statement's streams fill
     alongside. *)
  Access.set_phase "scatter";
  Obs.span obs "run.scatter" (fun () ->
      Array.iteri
        (fun i s ->
          Dist.scatter_into ~pool slot.Arena.srcs.(i)
            (Reference.lookup env s.name))
        sources);
  refill (List.hd program);
  (* 4. One exchange per source, padded to the widest statement. *)
  Access.set_phase "halo";
  let halos =
    Obs.span obs "run.halo" @@ fun () ->
    let halos =
      Array.mapi
        (fun i s ->
          Halo.exchange_into ~primitive ~pool ~padded:slot.Arena.halos.(i)
            ~source:slot.Arena.srcs.(i) ~pad:s.pad ~boundary:s.boundary
            ~needs_corners:s.corners ())
        sources
    in
    if Obs.tracing obs then
      Tr.add_attr obs.Obs.trace "cycles"
        (Tr.Int (Array.fold_left ( + ) 0 priced.halo_cycles));
    halos
  in
  Array.iteri
    (fun i halo ->
      hooks.on_phase
        {
          phase = "halo";
          machine;
          source = Some slot.Arena.srcs.(i);
          halo = Some halo;
          dst = Some dst;
          streams = streams_of (List.hd program);
        })
    halos;
  (* 5. Per statement: streams, compute, the compute hook, gather. *)
  let index name =
    let rec go i = if sources.(i).name = name then i else go (i + 1) in
    go 0
  in
  let results =
    List.mapi
      (fun i ((st, cost), (fplan, stats)) ->
        if i > 0 then begin
          Access.set_phase "batch";
          refill st
        end;
        let streams = streams_of st in
        let halos =
          Array.of_list
            (List.map (fun name -> halos.(index name)) (Multi.sources st.taps))
        in
        Access.set_phase "compute";
        Obs.span obs "run.compute" (fun () ->
            if Obs.tracing obs then begin
              (* One child span per half-strip, timed in simulated
                 cycles by the analytic model (which Simulate provably
                 matches). *)
              List.iter
                (fun (hs : Stripmine.halfstrip) ->
                  let lines = Array.length hs.rows in
                  Tr.emit obs.Obs.trace
                    ~attrs:
                      [
                        ("width", Tr.Int hs.strip.plan.Plan.width);
                        ("col0", Tr.Int hs.strip.col0);
                        ("lines", Tr.Int lines);
                        ( "cycles",
                          Tr.Int (Cost.halfstrip_cycles config hs.strip.plan ~lines) );
                      ]
                    "run.halfstrip")
                cost.halfstrips;
              Tr.add_attr obs.Obs.trace "cycles"
                (Tr.Int stats.Stats.compute_cycles);
              Tr.add_attr obs.Obs.trace "madds" (Tr.Int stats.Stats.madds_issued)
            end;
            match (st.plan, fplan) with
            | Compiled { plans; kernel }, _ ->
                compute_compiled ~mode ~pool ~inner ~tile ~hooks machine st
                  ~plans ~kernel ~halos ~dst ~streams cost
            | Transform _, Some fplan ->
                compute_transform ~pool ~hooks machine st fplan
                  ~halo:halos.(0) ~dst
            | Transform _, None -> assert false);
        hooks.on_phase
          {
            phase = "compute";
            machine;
            source = None;
            halo = Some halos.(0);
            dst = Some dst;
            streams;
          };
        Access.set_phase "gather";
        let output =
          Obs.span obs "run.gather" (fun () -> Dist.gather ~pool dst)
        in
        { output; stats })
      (List.combine
         (List.combine program priced.costs)
         (List.combine fplans own))
  in
  if Obs.tracing obs then
    Tr.emit obs.Obs.trace
      ~attrs:[ ("seconds", Tr.Float stats.Stats.frontend_s) ]
      "run.frontend";
  if obs != Obs.disabled then Stats.record obs.Obs.metrics stats;
  { batch_results = results; batch_stats = stats }

let single { batch_results; batch_stats } =
  match batch_results with
  | [ r ] -> { r with stats = batch_stats }
  | _ -> invalid_arg "Exec.single: not a one-statement program"

let run ?obs ?mode ?primitive ?iterations ?pool ?inner ?kernel ?tile ?hooks
    machine c env =
  single
    (exec ?obs ?mode ?primitive ?iterations ?pool ?inner ?tile ?hooks
       (Arena.transient machine) [ compiled ?kernel c ] env)

(* ------------------------------------------------------------------ *)
(* Debugging and oracles. *)

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

let reference_fused (multi : Multi.t) env =
  let arrays = Multi.referenced_arrays multi in
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
    Array.of_list (List.map (Reference.lookup env) (Multi.sources multi))
  in
  let read =
    match Multi.boundary multi with
    | Boundary.Circular -> fun src r c -> Grid.get_circular sources.(src) r c
    | Boundary.End_off fill ->
        fun src r c -> Grid.get_endoff sources.(src) ~fill r c
  in
  Grid.init ~rows ~cols (fun r c ->
      let sum =
        List.fold_left
          (fun acc (st : Multi.source_tap) ->
            let { Offset.drow; dcol } = st.Multi.tap.Tap.offset in
            acc
            +. Reference.coeff_value env st.Multi.tap.Tap.coeff r c
               *. read st.Multi.source (r + drow) (c + dcol))
          0.0 (Multi.taps multi)
      in
      match Multi.bias multi with
      | Some coeff -> sum +. Reference.coeff_value env coeff r c
      | None -> sum)
