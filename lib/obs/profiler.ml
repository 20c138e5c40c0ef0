module Cost = Ccc_microcode.Cost
module Plan = Ccc_microcode.Plan

type compute = {
  startup : int;
  prologue : int;
  line_overhead : int;
  loads : int;
  pipe_reversal : int;
  madds : int;
  drain : int;
  stores : int;
  loop_branch : int;
  transform : int;
}

let zero =
  {
    startup = 0;
    prologue = 0;
    line_overhead = 0;
    loads = 0;
    pipe_reversal = 0;
    madds = 0;
    drain = 0;
    stores = 0;
    loop_branch = 0;
    transform = 0;
  }

let add a b =
  {
    startup = a.startup + b.startup;
    prologue = a.prologue + b.prologue;
    line_overhead = a.line_overhead + b.line_overhead;
    loads = a.loads + b.loads;
    pipe_reversal = a.pipe_reversal + b.pipe_reversal;
    madds = a.madds + b.madds;
    drain = a.drain + b.drain;
    stores = a.stores + b.stores;
    loop_branch = a.loop_branch + b.loop_branch;
    transform = a.transform + b.transform;
  }

let scale k c =
  {
    startup = k * c.startup;
    prologue = k * c.prologue;
    line_overhead = k * c.line_overhead;
    loads = k * c.loads;
    pipe_reversal = k * c.pipe_reversal;
    madds = k * c.madds;
    drain = k * c.drain;
    stores = k * c.stores;
    loop_branch = k * c.loop_branch;
    transform = k * c.transform;
  }

let total c =
  c.startup + c.prologue + c.line_overhead + c.loads + c.pipe_reversal
  + c.madds + c.drain + c.stores + c.loop_branch + c.transform

(* Assembled from the same Cost terms the closed-form model sums, so
   [total (halfstrip config plan ~lines)] is Cost.halfstrip_cycles by
   construction; a property test re-checks it against Interp. *)
let halfstrip (config : Ccc_cm2.Config.t) (plan : Plan.t) ~lines =
  if lines < 0 then invalid_arg "Profiler.halfstrip: negative line count";
  let startup = Cost.startup_cycles config in
  if lines = 0 then { zero with startup }
  else
    let phase = plan.Plan.phases.(0) in
    {
      startup;
      prologue = Cost.prologue_cycles config plan;
      line_overhead = lines * config.line_overhead_cycles;
      loads = lines * Cost.slot_cycles config phase.Plan.loads;
      pipe_reversal = lines * 2 * config.pipe_reversal_cycles;
      madds = lines * Cost.slot_cycles config phase.Plan.madds;
      drain = lines * Cost.drain_cycles config;
      stores = lines * Cost.slot_cycles config phase.Plan.stores;
      loop_branch = lines * config.loop_branch_cycles;
      transform = 0;
    }

type breakdown = {
  comm_cycles : int;
  compute : compute;
  frontend_s : float;
}

let phases c =
  [
    ("startup", c.startup);
    ("prologue", c.prologue);
    ("line overhead", c.line_overhead);
    ("loads", c.loads);
    ("pipe reversal", c.pipe_reversal);
    ("madds", c.madds);
    ("drain", c.drain);
    ("stores", c.stores);
    ("loop branch", c.loop_branch);
    ("transform", c.transform);
  ]

let attr_key name =
  String.map (function ' ' -> '_' | c -> c) name

let compute_attrs c =
  List.filter_map
    (fun (name, cycles) ->
      if cycles = 0 then None else Some (attr_key name, Trace.Int cycles))
    (phases c)

let pp_compute ppf c =
  let t = total c in
  let pct cycles =
    if t = 0 then 0.0 else 100.0 *. float_of_int cycles /. float_of_int t
  in
  List.iter
    (fun (name, cycles) ->
      if cycles > 0 then
        Format.fprintf ppf "  %-14s %8d  %5.1f%%@." name cycles (pct cycles))
    (phases c);
  Format.fprintf ppf "  %-14s %8d  100.0%%@." "total" t

let pp_breakdown ppf b =
  let compute = total b.compute in
  Format.fprintf ppf "comm %d + compute %d cycles, front end %.0f us@."
    b.comm_cycles compute (b.frontend_s *. 1e6);
  pp_compute ppf b.compute
