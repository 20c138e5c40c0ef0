module Machine = Ccc_cm2.Machine
module Exec = Ccc_runtime.Exec
module Fft = Ccc_runtime.Fft
module Pool = Ccc_runtime.Pool
module Grid = Ccc_runtime.Grid
module Reference = Ccc_runtime.Reference
module Kernel = Ccc_runtime.Kernel
module Compile = Ccc_compiler.Compile
module Plan = Ccc_microcode.Plan
module Pattern = Ccc_stencil.Pattern
module Finding = Ccc_analysis.Finding
module Obs = Ccc_obs.Obs
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight

type cell = {
  c_pattern : string;
  c_width : int;
  c_path : string;
  c_jobs : int;
  c_note : string option;
}

type kill = {
  k_pattern : string;
  k_path : string;
  k_fault : Inject.fault;
  k_jobs : int;
  k_detected : bool;
  k_recovered : bool;
  k_detail : string;
  k_dump : string;
}

type matrix = {
  seed : int;
  guarded : bool;
  jobs_list : int list;
  patterns : int;
  widths : int;
  cells : cell list;
  kills : kill list;
}

(* Deterministic test data, independent of any host state: the same
   hash-mix the test suite's [mixed_grid] uses, salted with the
   conformance seed and the array name. *)
let mixed_grid ~seed ~name ~rows ~cols =
  Grid.init ~rows ~cols (fun r c ->
      let h = Hashtbl.hash (seed, name, r, c) land 0xFFFF in
      float_of_int (h - 32768) /. 32768.0)

let env_for ~seed ~rows ~cols pattern =
  List.map
    (fun name -> (name, mixed_grid ~seed ~name ~rows ~cols))
    (List.sort_uniq compare (Reference.referenced_arrays pattern))

(* The transform path only accepts spatially-uniform coefficients
   (a per-point coefficient field is not a convolution), so its cells
   run over a second environment: the same hash-mixed source, with
   every coefficient array held at a constant drawn from the seed and
   the array name. *)
let uniform_env_for ~seed ~rows ~cols pattern =
  let src = Pattern.source_var pattern in
  List.map
    (fun name ->
      if name = src then (name, mixed_grid ~seed ~name ~rows ~cols)
      else
        ( name,
          Grid.constant ~rows ~cols
            (0.25
            +. (float_of_int (Hashtbl.hash (seed, name) land 0xFF) /. 256.0)) ))
    (List.sort_uniq compare (Reference.referenced_arrays pattern))

let paths = [ "reference"; "simulate"; "tapwalk"; "lowered"; "fft" ]

(* The transform path: one transform statement on a transient arena. *)
let transform_output ?plan ?pool ?hooks machine pattern env =
  (Exec.single
     (Exec.exec ?pool ?hooks (Exec.Arena.transient machine)
        [ Exec.transform ?plan pattern ]
        env))
    .Exec.output

let run_path ~path ~pool ~machine ~kernel ~hooks compiled env =
  let pattern = compiled.Compile.pattern in
  match path with
  | "reference" -> Reference.apply pattern env
  | "simulate" ->
      (Exec.run ~mode:Exec.Simulate ~pool ~hooks machine compiled env)
        .Exec.output
  | "tapwalk" ->
      (Exec.run ~mode:Exec.Fast ~inner:Exec.Tapwalk ~pool ~hooks machine
         compiled env)
        .Exec.output
  | "lowered" ->
      (Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel ~pool ~hooks
         machine compiled env)
        .Exec.output
  | "fft" -> transform_output ~pool ~hooks machine pattern env
  | _ -> invalid_arg "Conformance.run_path"

let run ?(obs = Obs.disabled) ?(seed = 42) ?(jobs_list = [ 1; 2; 7 ])
    ?(guarded = true) ?(with_faults = true) ?(rows = 32) ?(cols = 32) config =
  let machine = Machine.create config in
  let nodes = Machine.node_count machine in
  let pools =
    List.map
      (fun j -> (j, if j = 1 then Pool.sequential else Pool.create ~jobs:j))
      (List.sort_uniq compare jobs_list)
  in
  let pool_for j = List.assoc j pools in
  let cells_counter = Metrics.counter obs.Obs.metrics "conform.cells" in
  let cell_failures = Metrics.counter obs.Obs.metrics "conform.cell_failures" in
  let injected_c = Metrics.counter obs.Obs.metrics "fault.injected" in
  let detected_c = Metrics.counter obs.Obs.metrics "fault.detected" in
  let recovered_c = Metrics.counter obs.Obs.metrics "fault.recovered" in
  let missed_c = Metrics.counter obs.Obs.metrics "fault.missed" in
  let gallery = Pattern.gallery () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, p) -> if p != Pool.sequential then Pool.shutdown p) pools)
  @@ fun () ->
  Obs.span obs "conform" @@ fun () ->
  let cells = ref [] and kills = ref [] and widths = ref 0 in
  List.iter
    (fun (pname, pattern) ->
      let env = env_for ~seed ~rows ~cols pattern in
      let oracle = Reference.apply pattern env in
      let env_u = uniform_env_for ~seed ~rows ~cols pattern in
      let oracle_u = Reference.apply pattern env_u in
      let compiled =
        match Compile.compile config pattern with
        | Ok c -> c
        | Error rejections -> failwith (Compile.no_workable rejections)
      in
      (* ------------------------------------------------------- *)
      (* Clean matrix: every compiled width down all five paths, *)
      (* bit-stable across every jobs value, guards riding along *)
      (* on the production paths with zero findings allowed.     *)
      Obs.span obs "conform.clean" @@ fun () ->
      List.iter
        (fun plan ->
          incr widths;
          let width = plan.Plan.width in
          let restricted = { compiled with Compile.plans = [ plan ] } in
          let kernel = Kernel.build config restricted in
          let baseline = Hashtbl.create 8 in
          List.iter
            (fun jobs ->
              let pool = pool_for jobs in
              List.iter
                (fun path ->
                  Metrics.Counter.incr cells_counter;
                  (* The transform path runs over the uniform
                     environment and its own oracle; its tolerance is
                     the same 1e-9 (transform rounding is of order
                     eps * log P, far below it). *)
                  let path_env, path_oracle =
                    if path = "fft" then (env_u, oracle_u) else (env, oracle)
                  in
                  let watch = Guard.watch pattern in
                  let hooks =
                    if guarded && (path = "lowered" || path = "fft") then
                      watch.Guard.hooks
                    else Exec.no_hooks
                  in
                  let note =
                    match
                      run_path ~path ~pool ~machine ~kernel ~hooks restricted
                        path_env
                    with
                    | out ->
                        if not (Grid.equal_within ~tol:1e-9 out path_oracle)
                        then
                          Some
                            (Printf.sprintf
                               "diverges from reference by %g"
                               (Grid.max_abs_diff out path_oracle))
                        else if !(watch.Guard.caught) <> [] then
                          Some
                            (Printf.sprintf
                               "guard false positive: %s"
                               (Finding.to_string
                                  (List.hd !(watch.Guard.caught))))
                        else begin
                          let ck = Guard.grid_checksum out in
                          match Hashtbl.find_opt baseline path with
                          | None ->
                              Hashtbl.add baseline path ck;
                              None
                          | Some ck0 when Int64.equal ck ck0 -> None
                          | Some _ ->
                              Some
                                (Printf.sprintf
                                   "not bit-identical to jobs=%d run"
                                   (List.hd jobs_list))
                        end
                    | exception exn -> Some (Printexc.to_string exn)
                  in
                  if note <> None then Metrics.Counter.incr cell_failures;
                  cells :=
                    {
                      c_pattern = pname;
                      c_width = width;
                      c_path = path;
                      c_jobs = jobs;
                      c_note = note;
                    }
                    :: !cells)
                paths)
            jobs_list)
        compiled.Compile.plans;
      (* ------------------------------------------------------- *)
      (* Kill matrix: one armed injector per fault x jobs on each *)
      (* production path — Lowered with its cached kernel, and    *)
      (* the transform path with its cached plan.                 *)
      if with_faults then Obs.span obs "conform.faults" @@ fun () ->
      (* One injected cell: arm, corrupt, run, detect, recover,
         report.  [run_faulty] poisons its own cached artifact
         (kernel or transform plan) and executes the path under the
         composed hooks; [root_cause] re-proves that artifact the way
         the engine's ladder would; [recover] is the disarmed clean
         re-run that must reproduce [clean_ck] bit for bit. *)
      let kill_sweep ~path ~faults ~env ~clean_ck ~salt ~run_faulty
          ~root_cause ~recover =
        List.iteri
          (fun fi fault ->
            List.iter
              (fun jobs ->
                Metrics.Counter.incr injected_c;
                let pool = pool_for jobs in
                let cell_seed =
                  (seed * 0x9E37) lxor Hashtbl.hash (salt, fi, jobs)
                in
                let inj = Inject.arm ~seed:cell_seed ~nodes fault in
                (* A fresh flight ring per injected cell: the armed
                   fault, what it did, what caught it and whether the
                   re-run recovered — the cell's incident report, with a
                   counting clock so dumps are deterministic. *)
                let tick = ref 0 in
                let ring =
                  Flight.create ~capacity:32
                    ~clock:(fun () ->
                      incr tick;
                      float_of_int !tick)
                    ()
                in
                Flight.record ring Flight.Fault
                  (Printf.sprintf "armed %s (pattern %s, %s path, jobs %d)"
                     (Inject.name fault) pname path jobs);
                let watch = Guard.watch pattern in
                let hooks =
                  if guarded then
                    Exec.compose_hooks (Inject.hooks inj) watch.Guard.hooks
                  else Inject.hooks inj
                in
                let findings = ref [] and crash = ref None in
                let out =
                  match run_faulty inj ~pool ~hooks with
                  | o -> Some o
                  | exception Inject.Worker_died n ->
                      crash :=
                        Some (Printf.sprintf "worker domain died (node %d)" n);
                      None
                  | exception Finding.Failed fs ->
                      findings := fs @ !findings;
                      None
                  | exception exn ->
                      crash := Some (Printexc.to_string exn);
                      None
                in
                findings := !(watch.Guard.caught) @ !findings;
                if guarded then begin
                  (match out with
                  | Some out ->
                      findings := Guard.check_output pattern env out @ !findings
                  | None -> ());
                  (* root-cause step of the ladder: when the output is
                     wrong but the halo was clean, re-prove the cached
                     artifact the way the engine would *)
                  if
                    !findings <> [] && !(watch.Guard.caught) = []
                    && !crash = None
                  then findings := !findings @ root_cause ()
                end;
                let detected = !findings <> [] || !crash <> None in
                (* recovery: the injector is one-shot, so a disarmed
                   re-run with sound artifacts must reproduce the clean
                   result bit for bit *)
                let recovered =
                  detected
                  && (match recover inj ~pool with
                     | out -> Int64.equal (Guard.grid_checksum out) clean_ck
                     | exception _ -> false)
                in
                Metrics.Counter.incr (if detected then detected_c else missed_c);
                if recovered then Metrics.Counter.incr recovered_c;
                let detail =
                  let injected =
                    match Inject.fired inj with
                    | Some s -> s
                    | None -> "injector never fired"
                  in
                  let caught =
                    match (!crash, !findings) with
                    | Some c, _ -> c
                    | None, f :: _ ->
                        Printf.sprintf "finding[%s]"
                          (Finding.check_name f.Finding.check)
                    | None, [] -> "undetected"
                  in
                  injected ^ "; " ^ caught
                in
                (match Inject.fired inj with
                | Some s ->
                    Flight.record ring Flight.Fault
                      (Printf.sprintf "%s fired: %s" (Inject.name fault) s)
                | None ->
                    Flight.record ring Flight.Info
                      (Printf.sprintf "%s never fired" (Inject.name fault)));
                (match (!crash, !findings) with
                | Some c, _ ->
                    Flight.record ring Flight.Guard_trip ("crash: " ^ c)
                | None, f :: _ ->
                    Flight.record ring Flight.Guard_trip (Finding.to_string f)
                | None, [] ->
                    Flight.record ring Flight.Info "no guard tripped");
                Flight.record ring
                  (if recovered then Flight.Info else Flight.Degraded)
                  (if recovered then "recovered: disarmed re-run bit-identical"
                   else if detected then "not recovered"
                   else "UNDETECTED");
                kills :=
                  {
                    k_pattern = pname;
                    k_path = path;
                    k_fault = fault;
                    k_jobs = jobs;
                    k_detected = detected;
                    k_recovered = recovered;
                    k_detail = detail;
                    k_dump = Flight.dump ring;
                  }
                  :: !kills)
              jobs_list)
          faults
      in
      (* Production path 1: Fast/Lowered with its cached kernel. *)
      let kernel_clean = Kernel.build config compiled in
      let clean_ck =
        Guard.grid_checksum
          ((Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel:kernel_clean
              machine compiled env)
             .Exec.output)
      in
      let kernel_used = ref kernel_clean in
      kill_sweep ~path:"lowered" ~faults:Inject.all ~env ~clean_ck ~salt:pname
        ~run_faulty:(fun inj ~pool ~hooks ->
          kernel_used := Inject.poison_kernel inj kernel_clean;
          (Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel:!kernel_used
             ~pool ~hooks machine compiled env)
            .Exec.output)
        ~root_cause:(fun () -> Guard.check_kernel config compiled !kernel_used)
        ~recover:(fun inj ~pool ->
          (Exec.run ~mode:Exec.Fast ~inner:Exec.Lowered ~kernel:kernel_clean
             ~pool ~hooks:(Inject.hooks inj) machine compiled env)
            .Exec.output);
      (* Production path 2: the transform plan over the uniform
         environment, with [Fft.verify] as the root-cause re-proof. *)
      let plan_clean = Fft.build pattern ~rows ~cols env_u in
      let clean_ck_fft =
        Guard.grid_checksum
          (transform_output ~plan:plan_clean machine pattern env_u)
      in
      let plan_used = ref plan_clean in
      kill_sweep ~path:"fft" ~faults:Inject.fft_faults ~env:env_u
        ~clean_ck:clean_ck_fft
        ~salt:(pname ^ "/fft")
        ~run_faulty:(fun inj ~pool ~hooks ->
          let p = Fft.build pattern ~rows ~cols env_u in
          Inject.poison_fft inj p;
          plan_used := p;
          transform_output ~plan:p ~pool ~hooks machine pattern env_u)
        ~root_cause:(fun () ->
          match Fft.verify pattern !plan_used with
          | () -> []
          | exception Finding.Failed fs -> fs)
        ~recover:(fun inj ~pool ->
          transform_output ~plan:plan_clean ~pool ~hooks:(Inject.hooks inj)
            machine pattern env_u))
    gallery;
  {
    seed;
    guarded;
    jobs_list;
    patterns = List.length gallery;
    widths = !widths;
    cells = List.rev !cells;
    kills = List.rev !kills;
  }

let clean_failures m =
  List.length (List.filter (fun c -> c.c_note <> None) m.cells)

let missed m = List.length (List.filter (fun k -> not k.k_detected) m.kills)

let passed m = clean_failures m = 0 && missed m = 0

let rec pp ppf m =
  Format.fprintf ppf "conformance: seed %d, %s, jobs {%s}@." m.seed
    (if m.guarded then "guarded" else "unguarded")
    (String.concat "," (List.map string_of_int m.jobs_list));
  let total = List.length m.cells in
  Format.fprintf ppf "clean: %d/%d cells ok (%d patterns, %d compiled widths, %d paths)@."
    (total - clean_failures m)
    total m.patterns m.widths (List.length paths);
  List.iter
    (fun c ->
      match c.c_note with
      | Some note ->
          Format.fprintf ppf "  FAIL %s width %d %s jobs %d: %s@." c.c_pattern
            c.c_width c.c_path c.c_jobs note
      | None -> ())
    m.cells;
  if m.kills = [] then begin
    if passed m then Format.fprintf ppf "conformance: PASS@."
    else
      Format.fprintf ppf "conformance: FAIL (%d clean cells failed)@."
        (clean_failures m)
  end
  else pp_kills ppf m

and pp_kills ppf m =
  (* one killed/injected table per production path, each over the
     fault classes that path's sweep actually arms *)
  List.iter
    (fun (path, faults) ->
      if List.exists (fun k -> k.k_path = path) m.kills then begin
        Format.fprintf ppf "fault kills, %s path (killed/injected):@." path;
        Format.fprintf ppf "  %-16s" "";
        List.iter
          (fun j -> Format.fprintf ppf "%8s" (Printf.sprintf "jobs=%d" j))
          m.jobs_list;
        Format.fprintf ppf "@.";
        List.iter
          (fun fault ->
            Format.fprintf ppf "  %-16s" (Inject.name fault);
            List.iter
              (fun jobs ->
                let cellk =
                  List.filter
                    (fun k ->
                      k.k_path = path && k.k_fault = fault && k.k_jobs = jobs)
                    m.kills
                in
                let killed = List.filter (fun k -> k.k_detected) cellk in
                Format.fprintf ppf "%8s"
                  (Printf.sprintf "%d/%d" (List.length killed)
                     (List.length cellk)))
              m.jobs_list;
            Format.fprintf ppf "@.")
          faults
      end)
    [ ("lowered", Inject.all); ("fft", Inject.fft_faults) ];
  let injected = List.length m.kills in
  let detected = List.length (List.filter (fun k -> k.k_detected) m.kills) in
  let recovered = List.length (List.filter (fun k -> k.k_recovered) m.kills) in
  Format.fprintf ppf "injected %d: detected %d, recovered %d, missed %d@."
    injected detected recovered (missed m);
  if passed m then Format.fprintf ppf "conformance: PASS@."
  else if missed m > 0 then
    Format.fprintf ppf "conformance: FAIL (%d injected faults escaped undetected)@."
      (missed m)
  else
    Format.fprintf ppf "conformance: FAIL (%d clean cells failed)@."
      (clean_failures m)
