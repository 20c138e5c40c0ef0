open Ccc_stencil
module Config = Ccc_cm2.Config
module Machine = Ccc_cm2.Machine

type version = Rolled | Unrolled3

let kernel () =
  let offsets =
    [
      (-2, 0); (-1, 0); (0, -2); (0, -1); (0, 0); (0, 1); (0, 2); (1, 0); (2, 0);
    ]
  in
  Pattern.create ~source:"P" ~result:"PNEW"
    (List.mapi
       (fun i (drow, dcol) ->
         Tap.make (Offset.make ~drow ~dcol)
           (Coeff.Array (Printf.sprintf "C%d" (i + 1))))
       (List.sort compare offsets))

let fused_kernel () =
  let nine =
    List.map
      (fun tap -> { Multi.source = 0; tap })
      (Pattern.taps (kernel ()))
  in
  let tenth =
    { Multi.source = 1; tap = Tap.make Offset.zero (Coeff.Array "C10") }
  in
  Multi.create ~result:"PNEW" ~sources:[ "P"; "POLD" ] (nine @ [ tenth ])

let flops_per_point = 17 + 2

let compile_kernel config =
  match Ccc_compiler.Compile.compile config (kernel ()) with
  | Ok compiled -> compiled
  | Error rejections ->
      failwith
        ("Seismic: kernel failed to compile: "
        ^ Ccc_compiler.Compile.no_workable rejections)

(* Per-time-step cost beyond the stencil call itself. *)
let extra_per_step (config : Config.t) ~version ~elements =
  let tenth = Passes.madd_pass_cycles config ~elements in
  match version with
  | Rolled ->
      (* tenth term + POLD = P + P = PNEW, each a front-end
         statement. *)
      let copies = 2 * Passes.copy_cycles config ~elements in
      (tenth + copies, 3.0 *. Passes.frontend_pass_overhead_s config)
  | Unrolled3 ->
      (* Role exchange: no copies; the tenth term remains.  The
         threefold unrolling amortizes nothing else in this model --
         the stencil call itself is identical. *)
      (tenth, 1.0 *. Passes.frontend_pass_overhead_s config)

let aggregate_stats ~steps ~version (config : Config.t) stencil_stats
    ~sub_rows ~sub_cols =
  let elements = sub_rows * sub_cols in
  let extra_cycles, extra_fe = extra_per_step config ~version ~elements in
  {
    stencil_stats with
    Stats.iterations = steps;
    compute_cycles = stencil_stats.Stats.compute_cycles + extra_cycles;
    frontend_s = stencil_stats.Stats.frontend_s +. extra_fe;
    useful_flops_per_iteration =
      flops_per_point * elements * Config.node_count config;
  }

type result = { p : Grid.t; p_old : Grid.t; stats : Stats.t }

let simulate ?(version = Rolled) ?(mode = Exec.Fast) ~steps ~c10 machine env
    ~p ~p_old =
  if steps < 1 then invalid_arg "Seismic.simulate: steps < 1";
  let config = Machine.config machine in
  let compiled = compile_kernel config in
  let current = ref (Grid.copy p) and previous = ref (Grid.copy p_old) in
  let stencil_stats = ref None in
  for _ = 1 to steps do
    let env_now = ("P", !current) :: List.remove_assoc "P" env in
    let { Exec.output; stats } = Exec.run ~mode machine compiled env_now in
    if !stencil_stats = None then stencil_stats := Some stats;
    (* The tenth term, added in separately. *)
    let next = Grid.map2 (fun s old -> s +. (c10 *. old)) output !previous in
    (* Time rotation: data-identical for both versions. *)
    previous := !current;
    current := next
  done;
  let stencil_stats = Option.get !stencil_stats in
  let nodes_r = config.Config.node_rows and nodes_c = config.Config.node_cols in
  let stats =
    aggregate_stats ~steps ~version config stencil_stats
      ~sub_rows:(Grid.rows p / nodes_r)
      ~sub_cols:(Grid.cols p / nodes_c)
  in
  { p = !current; p_old = !previous; stats }

let estimate ?(version = Rolled) ~sub_rows ~sub_cols ~steps config =
  let compiled = compile_kernel config in
  let stencil_stats =
    Exec.estimate ~sub_rows ~sub_cols config [ Exec.compiled compiled ]
  in
  aggregate_stats ~steps ~version config stencil_stats ~sub_rows ~sub_cols
