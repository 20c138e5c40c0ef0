(* The command-line driver for the convolution compiler.

   ccc compile  FILE        -- compile a Fortran subroutine (or, with
                               --defstencil, a Lisp form) and print the
                               compilation report or diagnostics
   ccc run      FILE        -- compile and execute on synthetic data
   ccc estimate FILE        -- predicted performance across subgrid sizes
   ccc lint                 -- standalone analyzer over compiled plans
   ccc gallery              -- the built-in patterns, with pictures *)

open Cmdliner

let read_file path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_text path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let file_arg =
  let doc = "Input file containing the stencil subroutine ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let defstencil_flag =
  let doc = "Treat the input as a Lisp defstencil form (the version-1 \
             front end) instead of a Fortran subroutine." in
  Arg.(value & flag & info [ "defstencil"; "lisp" ] ~doc)

let statement_flag =
  let doc = "Treat the input as a bare assignment statement rather than a \
             full SUBROUTINE." in
  Arg.(value & flag & info [ "statement" ] ~doc)

let nodes_arg =
  let doc = "Node grid as ROWSxCOLS (default 4x4, the paper's 16-node test \
             machine; the full CM-2 is 32x64)." in
  Arg.(value & opt string "4x4" & info [ "nodes" ] ~doc)

let tuned_flag =
  let doc = "Use the strength-reduced (7 Dec 90) run-time library model." in
  Arg.(value & flag & info [ "tuned" ] ~doc)

let jobs_arg =
  let doc = "Run the host-side per-node loops across $(docv) domains \
             (default 1, fully sequential).  Results are bit-identical \
             for every value; only host wall-clock changes." in
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)

let check_jobs jobs =
  if jobs < 1 then begin
    prerr_endline "ccc: --jobs must be at least 1";
    exit 2
  end

let parse_nodes spec =
  match String.split_on_char 'x' (String.lowercase_ascii spec) with
  | [ r; c ] -> begin
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some rows, Some cols when rows > 0 && cols > 0 -> Ok (rows, cols)
      | _ -> Error (`Msg ("bad node grid: " ^ spec))
    end
  | _ -> Error (`Msg ("bad node grid: " ^ spec))

let config_of ~nodes ~tuned =
  match parse_nodes nodes with
  | Error (`Msg m) -> Error m
  | Ok (rows, cols) ->
      let config = Ccc.Config.with_nodes ~rows ~cols Ccc.Config.default in
      Ok (if tuned then Ccc.Config.tuned_runtime config else config)

let compile_input ?obs config ~defstencil ~statement source =
  if defstencil then Ccc.compile_defstencil ?obs config source
  else if statement then Ccc.compile_fortran_statement ?obs config source
  else Ccc.compile_fortran ?obs config source

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* The one place a request outcome maps to a process exit code (PR 7):
   success and degraded runs exit 0, refusals 1, shed requests 3;
   usage errors keep cmdliner's 2.  Every subcommand that prints a
   rejection funnels through [die_reject], so the codes cannot drift
   between subcommands. *)
let die_outcome o = exit (Ccc.Outcome.exit_code o)

let die_reject e =
  prerr_endline (Ccc.Outcome.reject_to_string e);
  die_outcome (Ccc.Outcome.refused e)

(* --trace FILE: record the full span tree and write it as Chrome
   trace_event JSON (loadable in chrome://tracing or Perfetto). *)
let trace_arg =
  let doc = "Write the run's span trace as Chrome trace_event JSON to \
             $(docv) (open in chrome://tracing or Perfetto)." in
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc)

let obs_of_trace = Option.map (fun _path -> Ccc.Obs.create ())

let write_trace trace obs =
  match (trace, obs) with
  | Some path, Some o ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Ccc.Trace.to_chrome_json o.Ccc.Obs.trace));
      Printf.printf "trace: %d spans written to %s\n"
        (Ccc.Trace.event_count o.Ccc.Obs.trace)
        path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* compile *)

let fused_flag =
  let doc = "Use the multi-source (fused) compiler: terms may shift \
             different arrays, as in the ten-term Gordon Bell statement. \
             Implies --statement." in
  Arg.(value & flag & info [ "fused" ] ~doc)

let compile_cmd =
  let run file defstencil statement fused nodes tuned render listing =
    let config = or_die (config_of ~nodes ~tuned) in
    let source = read_file file in
    if fused then begin
      match Ccc.compile_fortran_statement_multi config source with
      | Error e ->
          die_reject e
      | Ok f ->
          print_endline (Ccc.fused_report f);
          if listing then
            Format.printf "%a@." Ccc.Plan.pp_listing (Ccc.Compile.fused_widest f)
    end
    else
      match compile_input config ~defstencil ~statement source with
      | Error e ->
          die_reject e
      | Ok compiled ->
          print_endline (Ccc.report compiled);
          if render then begin
            let p = compiled.Ccc.Compile.pattern in
            print_endline "pattern:";
            print_endline (Ccc.Render.pattern p);
            let widest = Ccc.Compile.widest compiled in
            Printf.printf "multistencil (width %d):\n" widest.Ccc.Plan.width;
            print_endline
              (Ccc.Render.multistencil (Ccc.Plan.primary_multistencil widest))
          end;
          if listing then
            Format.printf "%a@." Ccc.Plan.pp_listing
              (Ccc.Compile.widest compiled)
  in
  let render_flag =
    Arg.(value & flag
         & info [ "render" ] ~doc:"Also draw the stencil and multistencil.")
  in
  let listing_flag =
    Arg.(value & flag
         & info [ "listing" ]
             ~doc:"Dump the widest plan's dynamic-part listing (the \
                   register-access table loaded into sequencer scratch \
                   memory).")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a stencil and print the report")
    Term.(
      const run $ file_arg $ defstencil_flag $ statement_flag $ fused_flag
      $ nodes_arg $ tuned_flag $ render_flag $ listing_flag)

(* ------------------------------------------------------------------ *)
(* run *)

let synthetic_env ~rows ~cols names =
  List.mapi
    (fun i n ->
      ( n,
        Ccc.Grid.init ~rows ~cols (fun r c ->
            sin (float_of_int ((r * (i + 3)) + c) /. 9.0)) ))
    names

let pattern_env_names pattern =
  Ccc.Pattern.source_var pattern
  :: List.filter_map
       (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
       (Ccc.Pattern.taps pattern)
  @ (match Ccc.Pattern.bias pattern with
    | Some c -> Option.to_list (Ccc.Coeff.array_name c)
    | None -> [])

(* Recognition without resource allocation: the transform path serves
   dense stencils the compiler rejects, so the dense fallthrough needs
   the pattern even when compilation cannot produce a plan. *)
let recognize_input ~defstencil ~statement source =
  try
    if defstencil then
      Ccc.Recognize.subroutine
        (Ccc.Defstencil.to_subroutine (Ccc.Defstencil.parse source))
    else if statement then
      Ccc.Recognize.statement (Ccc.Parser.parse_statement source)
    else Ccc.Recognize.subroutine (Ccc.Parser.parse_subroutine source)
  with _ -> Error []

let backend_arg =
  let doc =
    "Execution backend: $(b,auto) picks compiled multistencil or the \
     transform (FFT) path by predicted cycles (and falls through to the \
     transform path when no width compiles), $(b,compiled) forces the \
     multistencil and keeps dense kernels as resource rejections, \
     $(b,fft) forces the transform path."
  in
  Arg.(value & opt string "auto" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let run_cmd =
  let run file defstencil statement fused nodes tuned rows cols iterations
      simulate jobs backend trace =
    let config = or_die (config_of ~nodes ~tuned) in
    check_jobs jobs;
    let backend =
      match Ccc.Exec.backend_of_string backend with
      | Some b -> b
      | None ->
          Printf.eprintf
            "ccc run: unknown backend %S (one of: auto, compiled, fft)\n"
            backend;
          exit 2
    in
    if simulate && backend = Ccc.Exec.Force_fft then begin
      prerr_endline
        "ccc run: --simulate drives the cycle-accurate compiled path \
         (use --backend auto or compiled)";
      exit 2
    end;
    let source = read_file file in
    let mode = if simulate then Ccc.Exec.Simulate else Ccc.Exec.Fast in
    let obs = obs_of_trace trace in
    (* The transform path only accepts spatially uniform coefficients,
       so its synthetic environment keeps the compiled path's source
       grid and holds every coefficient array at a per-name constant. *)
    let fft_env ~rows ~cols pattern =
      let src = Ccc.Pattern.source_var pattern in
      List.mapi
        (fun i n ->
          ( n,
            if n = src then
              Ccc.Grid.init ~rows ~cols (fun r c ->
                  sin (float_of_int ((r * (i + 3)) + c) /. 9.0))
            else Ccc.Grid.constant ~rows ~cols (0.25 +. (float_of_int i /. 16.0))
          ))
        (pattern_env_names pattern)
    in
    let run_fft_backend reason pattern =
      Printf.printf "backend: fft (%s)\n" reason;
      let env = fft_env ~rows ~cols pattern in
      let machine = Ccc.machine config in
      let pool = if jobs > 1 then Some (Ccc.Pool.create ~jobs) else None in
      Fun.protect ~finally:(fun () -> Option.iter Ccc.Pool.shutdown pool)
      @@ fun () ->
      let { Ccc.Exec.output; stats } =
        Ccc.Exec.single
          (Ccc.Exec.exec ?obs ?pool ~iterations
             (Ccc.Exec.Arena.transient machine)
             [ Ccc.Exec.transform pattern ]
             env)
      in
      let expected = Ccc.Reference.apply pattern env in
      Format.printf "%a@." Ccc.Stats.pp stats;
      Printf.printf "max |machine - reference| = %.3e\n"
        (Ccc.Grid.max_abs_diff expected output);
      write_trace trace obs
    in
    if fused then begin
      match Ccc.compile_fortran_statement_multi ?obs config source with
      | Error e ->
          die_reject e
      | Ok f ->
          let multi = f.Ccc.Compile.multi in
          let env =
            synthetic_env ~rows ~cols (Ccc.Multi.referenced_arrays multi)
          in
          let { Ccc.Exec.output; stats } =
            Ccc.apply_fused ?obs ~mode ~iterations ~jobs config f env
          in
          let expected = Ccc.Exec.reference_fused multi env in
          Format.printf "%a@." Ccc.Stats.pp stats;
          Printf.printf "max |machine - reference| = %.3e\n"
            (Ccc.Grid.max_abs_diff expected output);
          write_trace trace obs
    end
    else
      match compile_input ?obs config ~defstencil ~statement source with
      | Error (Ccc.Outcome.Resource_error _ as e)
        when backend <> Ccc.Exec.Force_compiled -> (
          (* the dense fallthrough: no width fits registers, but the
             transform path does not care about tap count *)
          match recognize_input ~defstencil ~statement source with
          | Ok pattern ->
              run_fft_backend "auto: no workable compiled width" pattern
          | Error _ -> die_reject e)
      | Error e ->
          die_reject e
      | Ok compiled -> (
          let pattern = compiled.Ccc.Compile.pattern in
          let choice =
            if simulate then `Compiled
            else
              Ccc.Exec.select_backend ~backend
                ~sub_rows:(rows / config.Ccc.Config.node_rows)
                ~sub_cols:(cols / config.Ccc.Config.node_cols)
                config (Some compiled)
          in
          match choice with
          | `Fft ->
              run_fft_backend
                (match backend with
                | Ccc.Exec.Force_fft -> "forced"
                | _ -> "auto: model predicts transform cheaper")
                pattern
          | `Compiled ->
              let env = synthetic_env ~rows ~cols (pattern_env_names pattern) in
              let { Ccc.Exec.output; stats } =
                Ccc.apply ?obs ~mode ~iterations ~jobs config compiled env
              in
              let expected = Ccc.Reference.apply pattern env in
              Format.printf "%a@." Ccc.Stats.pp stats;
              Printf.printf "max |machine - reference| = %.3e\n"
                (Ccc.Grid.max_abs_diff expected output);
              write_trace trace obs)
  in
  let rows_arg =
    Arg.(value & opt int 64 & info [ "rows" ] ~doc:"Global array rows.")
  in
  let cols_arg =
    Arg.(value & opt int 64 & info [ "cols" ] ~doc:"Global array columns.")
  in
  let iters_arg =
    Arg.(value & opt int 1 & info [ "iterations" ] ~doc:"Timed iterations.")
  in
  let simulate_flag =
    Arg.(value & flag
         & info [ "simulate" ]
             ~doc:"Run the cycle-accurate microcode interpreter instead of \
                   the fast inner loop.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a stencil on synthetic data")
    Term.(
      const run $ file_arg $ defstencil_flag $ statement_flag $ fused_flag
      $ nodes_arg $ tuned_flag $ rows_arg $ cols_arg $ iters_arg
      $ simulate_flag $ jobs_arg $ backend_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* estimate *)

let estimate_cmd =
  let run file defstencil statement nodes tuned =
    let config = or_die (config_of ~nodes ~tuned) in
    match compile_input config ~defstencil ~statement (read_file file) with
    | Error e ->
        die_reject e
    | Ok compiled ->
        Printf.printf "%-10s | %10s %10s %12s\n" "subgrid" "Mflops"
          "Gflops" "Gflops@2048";
        List.iter
          (fun (r, c) ->
            match
              Ccc.Exec.estimate ~iterations:100 ~sub_rows:r ~sub_cols:c config
                [ Ccc.Exec.compiled compiled ]
            with
            | stats ->
                Printf.printf "%4dx%-5d | %10.1f %10.2f %12.2f\n" r c
                  (Ccc.Stats.mflops stats) (Ccc.Stats.gflops stats)
                  (Ccc.Stats.extrapolate stats ~nodes:2048)
            | exception Ccc.Exec.Too_small m ->
                Printf.printf "%4dx%-5d | %s\n" r c m)
          [ (16, 16); (32, 32); (64, 64); (64, 128); (128, 128); (128, 256);
            (256, 256) ]
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Predicted performance of a stencil across subgrid sizes")
    Term.(
      const run $ file_arg $ defstencil_flag $ statement_flag $ nodes_arg
      $ tuned_flag)

(* ------------------------------------------------------------------ *)
(* trace: a cycle-by-cycle microcode trace on a sandbox node *)

let trace_cmd =
  let run file defstencil statement nodes tuned width lines =
    let config = or_die (config_of ~nodes ~tuned) in
    match compile_input config ~defstencil ~statement (read_file file) with
    | Error e ->
        die_reject e
    | Ok compiled ->
        List.iter print_endline (Ccc.Exec.trace ?width ~lines config compiled)
  in
  let width_arg =
    Arg.(value & opt (some int) None
         & info [ "width" ] ~doc:"Trace the plan of this strip width.")
  in
  let lines_arg =
    Arg.(value & opt int 3 & info [ "lines" ] ~doc:"Half-strip height.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Cycle-by-cycle issue trace of one half-strip on a sandbox node")
    Term.(
      const run $ file_arg $ defstencil_flag $ statement_flag $ nodes_arg
      $ tuned_flag $ width_arg $ lines_arg)

(* ------------------------------------------------------------------ *)
(* program: whole-file compilation with directive feedback *)

let program_cmd =
  let run file nodes tuned =
    let config = or_die (config_of ~nodes ~tuned) in
    match Ccc.compile_program config (read_file file) with
    | Error e ->
        die_reject e
    | Ok units ->
        let failures = ref 0 in
        List.iter
          (fun (u : Ccc.program_unit) ->
            match u.Ccc.outcome with
            | Ok compiled ->
                Printf.printf
                  "%s: compiled by the convolution module (widths %s)%s\n"
                  u.Ccc.unit_name
                  (String.concat ","
                     (List.map
                        (fun p -> string_of_int p.Ccc.Plan.width)
                        compiled.Ccc.Compile.plans))
                  (if u.Ccc.flagged then "" else "  [unflagged candidate]")
            | Error e ->
                if u.Ccc.flagged then begin
                  (* The directive justifies loud feedback (section 6). *)
                  incr failures;
                  Printf.printf
                    "%s: WARNING: flagged !CCC$ STENCIL but not processed:\n%s\n"
                    u.Ccc.unit_name (Ccc.Outcome.reject_to_string e)
                end
                else
                  Printf.printf "%s: general code path (%s)\n" u.Ccc.unit_name
                    (match e with
                    | Ccc.Outcome.Rejected _ -> "not a stencil assignment"
                    | Ccc.Outcome.Resource_error _ -> "resource limits"
                    | Ccc.Outcome.Parse_error m -> m
                    | Ccc.Outcome.Too_small m | Ccc.Outcome.Invalid_batch m -> m))
          units;
        if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "program"
       ~doc:
         "Compile every subroutine in a file, reporting which ones the \
          convolution module takes and warning about flagged statements it \
          cannot handle")
    Term.(const run $ file_arg $ nodes_arg $ tuned_flag)

(* ------------------------------------------------------------------ *)
(* lint: run the standalone plan analyzer over compiled plans *)

let lint_cmd =
  let lint_plan config ~ok name (plan : Ccc.Plan.t) =
    match Ccc.Verify.verify config plan with
    | [] ->
        Printf.printf "%s width %d: clean (%d registers, unroll %d, %d scratch words)\n"
          name plan.Ccc.Plan.width plan.Ccc.Plan.registers_used
          plan.Ccc.Plan.unroll plan.Ccc.Plan.dynamic_words
    | findings ->
        ok := false;
        List.iter
          (fun f ->
            Printf.printf "%s width %d: %s\n" name plan.Ccc.Plan.width
              (Ccc.Finding.to_string f))
          findings
  in
  let keep width w = match width with None -> true | Some w' -> w = w' in
  let lint_plans config ~ok ~width name plans rejected =
    List.iter
      (fun (plan : Ccc.Plan.t) ->
        if keep width plan.Ccc.Plan.width then lint_plan config ~ok name plan)
      plans;
    List.iter
      (fun (w, f) ->
        if keep width w then
          Printf.printf "%s width %d: %s\n" name w (Ccc.Finding.to_string f))
      rejected
  in
  let lint_pattern config ~ok ~width name p =
    match Ccc.Compile.compile config p with
    | Error rejections ->
        ok := false;
        Printf.printf "%s: %s\n" name (Ccc.Compile.no_workable rejections)
    | Ok c ->
        lint_plans config ~ok ~width name c.Ccc.Compile.plans
          c.Ccc.Compile.rejected
  in
  let lint_fused_seismic config ~ok ~width =
    match Ccc.Compile.compile_fused config (Ccc.Seismic.fused_kernel ()) with
    | Error rejections ->
        ok := false;
        Printf.printf "seismic-fused: %s\n" (Ccc.Compile.no_workable rejections)
    | Ok f ->
        lint_plans config ~ok ~width "seismic-fused" f.Ccc.Compile.fused_plans
          f.Ccc.Compile.fused_rejected
  in
  let run pattern width all nodes tuned =
    let config = or_die (config_of ~nodes ~tuned) in
    (match width with
    | Some w when not (List.mem w Ccc.Compile.candidate_widths) ->
        prerr_endline
          ("no such multistencil width: " ^ string_of_int w
         ^ " (candidates: "
          ^ String.concat ", "
              (List.map string_of_int Ccc.Compile.candidate_widths)
          ^ ")");
        exit 2
    | _ -> ());
    let ok = ref true in
    (match (all, pattern) with
    | true, _ ->
        List.iter
          (fun (name, p) -> lint_pattern config ~ok ~width name p)
          (Ccc.Pattern.gallery ());
        lint_fused_seismic config ~ok ~width
    | false, Some name -> begin
        match List.assoc_opt name (Ccc.Pattern.gallery ()) with
        | Some p -> lint_pattern config ~ok ~width name p
        | None when name = "seismic-fused" -> lint_fused_seismic config ~ok ~width
        | None ->
            prerr_endline
              ("unknown pattern: " ^ name
             ^ " (try one of the gallery names, or seismic-fused)");
            exit 2
      end
    | false, None ->
        prerr_endline "lint: specify --pattern NAME or --all";
        exit 2);
    if not !ok then exit 1
  in
  let pattern_arg =
    Arg.(value & opt (some string) None
         & info [ "pattern" ] ~docv:"NAME"
             ~doc:"Lint the plans of this gallery pattern (or \
                   $(b,seismic-fused) for the ten-term fused kernel).")
  in
  let width_arg =
    Arg.(value & opt (some int) None
         & info [ "width" ] ~doc:"Restrict to this multistencil width.")
  in
  let all_flag =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Lint every gallery pattern at every candidate width, plus \
                   the fused seismic kernel.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Re-derive and check every compiled plan with the standalone \
          dataflow analyzer: pipeline hazards, register-file invariants, \
          liveness, coverage and budgets.  Width rejections are reported \
          as findings but are not failures; analyzer findings on an \
          emitted plan exit nonzero (they indicate a compiler bug).")
    Term.(
      const run $ pattern_arg $ width_arg $ all_flag $ nodes_arg $ tuned_flag)

(* ------------------------------------------------------------------ *)
(* batch: several statements through the persistent engine *)

(* One statement per line; a trailing '&' continues on the next line
   (the Fortran fixed-form convention the rest of the tool uses), and
   '!' comment lines and blanks are skipped. *)
let batch_statements text =
  let stmts = ref [] in
  let buf = Buffer.create 64 in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then stmts := s :: !stmts
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '!' then ()
      else if line.[String.length line - 1] = '&' then begin
        Buffer.add_string buf (String.sub line 0 (String.length line - 1));
        Buffer.add_char buf ' '
      end
      else begin
        Buffer.add_string buf line;
        flush ()
      end)
    (String.split_on_char '\n' text);
  flush ();
  List.rev !stmts

let batch_cmd =
  let run file nodes tuned rows cols repeat simulate show_stats jobs trace =
    let config = or_die (config_of ~nodes ~tuned) in
    check_jobs jobs;
    if repeat < 1 then begin
      prerr_endline "batch: --repeat must be at least 1";
      exit 2
    end;
    let stmts = batch_statements (read_file file) in
    if stmts = [] then begin
      prerr_endline "batch: no statements in input";
      exit 2
    end;
    let mode = if simulate then Ccc.Exec.Simulate else Ccc.Exec.Fast in
    let recognize s =
      match Ccc.Parser.parse_statement s with
      | stmt -> begin
          match Ccc.Recognize.statement stmt with
          | Ok p -> p
          | Error diags ->
              die_reject (Ccc.Outcome.Rejected diags)
        end
      | exception Ccc.Parser.Error { line; message } ->
          die_reject
            (Ccc.Outcome.Parse_error (Printf.sprintf "line %d: %s" line message))
    in
    let patterns = List.map recognize stmts in
    let pattern_names p =
      Ccc.Pattern.source_var p
      :: List.filter_map
           (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
           (Ccc.Pattern.taps p)
      @ (match Ccc.Pattern.bias p with
        | Some c -> Option.to_list (Ccc.Coeff.array_name c)
        | None -> [])
    in
    let names =
      List.fold_left
        (fun acc n -> if List.mem n acc then acc else n :: acc)
        []
        (List.concat_map pattern_names patterns)
      |> List.rev
    in
    let env = synthetic_env ~rows ~cols names in
    let obs = obs_of_trace trace in
    let engine =
      Ccc.Engine.create ?obs
        ~settings:{ Ccc.Engine.default_settings with jobs }
        config
    in
    at_exit (fun () -> Ccc.Engine.shutdown engine);
    let last = ref None in
    for _ = 1 to repeat do
      match Ccc.Engine.run_batch ~mode engine patterns env with
      | Ok batch -> last := Some batch
      | Error e ->
          die_reject e
    done;
    let batch = Option.get !last in
    List.iter2
      (fun p (r : Ccc.Exec.result) ->
        let expected = Ccc.Reference.apply p env in
        Printf.printf
          "%s: %d taps, %d compute cycles, max |machine - reference| = %.3e\n"
          (Ccc.Pattern.result_var p) (Ccc.Pattern.tap_count p)
          r.Ccc.Exec.stats.Ccc.Stats.compute_cycles
          (Ccc.Grid.max_abs_diff expected r.Ccc.Exec.output))
      patterns batch.Ccc.Exec.batch_results;
    let bs = batch.Ccc.Exec.batch_stats in
    Format.printf "batch of %d statements:@\n%a@." (List.length patterns)
      Ccc.Stats.pp bs;
    (* What the same statements would have cost as independent calls:
       one halo exchange and one front-end launch each. *)
    let sub_rows = rows / config.Ccc.Config.node_rows in
    let sub_cols = cols / config.Ccc.Config.node_cols in
    let oneshot_comm =
      List.fold_left
        (fun acc p ->
          acc
          + Ccc.Halo.cycles_model ~primitive:Ccc.Halo.Node_level ~sub_rows
              ~sub_cols
              ~pad:(Ccc.Pattern.max_border p)
              ~corners:(Ccc.Pattern.needs_corners p)
              config)
        0 patterns
    in
    let call_s = Ccc.Config.effective_call_s config in
    let oneshot_fe =
      bs.Ccc.Stats.frontend_s
      +. (float_of_int (List.length patterns - 1) *. call_s)
    in
    Printf.printf
      "amortization: comm %d cycles (vs %d one-shot), front end %.6f s (vs \
       %.6f s one-shot)\n"
      bs.Ccc.Stats.comm_cycles oneshot_comm bs.Ccc.Stats.frontend_s oneshot_fe;
    if show_stats then
      Format.printf "%a@." Ccc.Engine.pp_stats (Ccc.Engine.stats engine);
    write_trace trace obs
  in
  let rows_arg =
    Arg.(value & opt int 64 & info [ "rows" ] ~doc:"Global array rows.")
  in
  let cols_arg =
    Arg.(value & opt int 64 & info [ "cols" ] ~doc:"Global array columns.")
  in
  let repeat_arg =
    Arg.(value & opt int 1
         & info [ "repeat" ]
             ~doc:"Run the whole batch this many times through the engine \
                   (repeats hit the plan cache and the standing arena).")
  in
  let simulate_flag =
    Arg.(value & flag
         & info [ "simulate" ]
             ~doc:"Run the cycle-accurate microcode interpreter instead of \
                   the fast inner loop.")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the engine's cache, arena and cycle counters.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Execute several bare assignment statements (one per line, '&' \
          continues) over the same source array through the persistent \
          engine: one halo exchange, one front-end launch, cached plans")
    Term.(
      const run $ file_arg $ nodes_arg $ tuned_flag $ rows_arg $ cols_arg
      $ repeat_arg $ simulate_flag $ stats_flag $ jobs_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile: the unified-telemetry view of one compile-and-run *)

let profile_cmd =
  let run file defstencil statement nodes tuned rows cols =
    let config = or_die (config_of ~nodes ~tuned) in
    let source = read_file file in
    (* A pinned clock keeps the tree deterministic: span order is
       structural, and every interesting extent is recorded in cycles
       (attributes priced by the analytic model), not host time. *)
    let obs =
      Ccc.Obs.v
        ~trace:(Ccc.Trace.create ~clock:(fun () -> 0.0) ())
        ~metrics:(Ccc.Metrics.create ())
    in
    match compile_input ~obs config ~defstencil ~statement source with
    | Error e ->
        die_reject e
    | Ok compiled ->
        let pattern = compiled.Ccc.Compile.pattern in
        let env = synthetic_env ~rows ~cols (pattern_env_names pattern) in
        let { Ccc.Exec.output = _; stats } =
          Ccc.apply ~obs ~mode:Ccc.Exec.Simulate config compiled env
        in
        print_endline "spans:";
        Format.printf "%a" (Ccc.Trace.pp_tree ~timings:false) obs.Ccc.Obs.trace;
        let sub_rows = rows / config.Ccc.Config.node_rows in
        let sub_cols = cols / config.Ccc.Config.node_cols in
        let b =
          Ccc.Exec.attribute ~sub_rows ~sub_cols config
            [ Ccc.Exec.compiled compiled ]
        in
        Format.printf "@\nattribution (%dx%d subgrid per node):@\n%a@."
          sub_rows sub_cols Ccc.Profiler.pp_breakdown b;
        let attributed = Ccc.Profiler.total b.Ccc.Profiler.compute in
        if
          attributed = stats.Ccc.Stats.compute_cycles
          && b.Ccc.Profiler.comm_cycles = stats.Ccc.Stats.comm_cycles
        then
          Printf.printf
            "cross-check: per-phase attribution matches the simulated run\n"
        else begin
          Printf.printf
            "cross-check FAILED: attributed compute %d vs simulated %d, comm \
             %d vs %d\n"
            attributed stats.Ccc.Stats.compute_cycles b.Ccc.Profiler.comm_cycles
            stats.Ccc.Stats.comm_cycles;
          exit 1
        end
  in
  let rows_arg =
    Arg.(value & opt int 64 & info [ "rows" ] ~doc:"Global array rows.")
  in
  let cols_arg =
    Arg.(value & opt int 64 & info [ "cols" ] ~doc:"Global array columns.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile and simulate a stencil with full telemetry: the span tree \
          of every pipeline and runtime phase, the per-phase cycle \
          attribution of the paper's Table-1 split, and a cross-check that \
          the attribution matches the cycle-accurate simulation exactly")
    Term.(
      const run $ file_arg $ defstencil_flag $ statement_flag $ nodes_arg
      $ tuned_flag $ rows_arg $ cols_arg)

(* ------------------------------------------------------------------ *)
(* conform: the differential fault-injection conformance matrix *)

let conform_cmd =
  let run nodes tuned seed unguarded trace =
    let config = or_die (config_of ~nodes ~tuned) in
    let obs = obs_of_trace trace in
    let matrix =
      Ccc.Conformance.run ?obs ~seed ~guarded:(not unguarded) config
    in
    Format.printf "%a" Ccc.Conformance.pp matrix;
    write_trace trace obs;
    if not (Ccc.Conformance.passed matrix) then exit 1
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Seed for every injector choice (victim node, cell, row); the \
             whole matrix is deterministic for a fixed seed.")
  in
  let unguarded_flag =
    Arg.(
      value & flag
      & info [ "unguarded" ]
          ~doc:
            "Disable the runtime guards (the negative control): \
             silent-corruption faults must then escape undetected and the \
             command must exit nonzero.")
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Run the differential conformance matrix: every gallery stencil at \
          every compiled width down all four execution paths at jobs 1/2/7, \
          clean and under seed-driven fault injection (bit flips, \
          dropped/duplicated halo messages, sequencer phase skips, a \
          poisoned cached kernel, worker-domain death).  Exits nonzero \
          unless every clean cell passes and every injected fault is \
          detected or recovered")
    Term.(
      const run $ nodes_arg $ tuned_flag $ seed_arg $ unguarded_flag
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* race: the domain-safety analyzer *)

let race_cmd =
  let analyze_log log = Ccc.Race.analyze log @ Ccc.Discipline.check log in
  let pp_findings = List.iter (Format.printf "%a@." Ccc.Finding.pp) in
  let mutation_names () =
    String.concat ", " (List.map Ccc.Race_mutate.name Ccc.Race_mutate.all)
  in
  let run_mutation ~seed ~jobs m =
    analyze_log (Ccc.Race_mutate.mutated ~seed ~jobs m)
  in
  let run nodes tuned seed jobs mutate =
    match mutate with
    | Some "all" ->
        (* The seeded kill matrix: every concurrency mutation must be
           killed by a finding.  Exit nonzero if any survives. *)
        let jobs = max 2 jobs in
        Printf.printf "seeded kill matrix (seed %d, jobs %d):\n" seed jobs;
        let total = List.length Ccc.Race_mutate.all in
        let killed =
          List.fold_left
            (fun killed m ->
              match run_mutation ~seed ~jobs m with
              | [] ->
                  Printf.printf "  %-22s MISSED\n" (Ccc.Race_mutate.name m);
                  killed
              | f :: _ as findings ->
                  Printf.printf "  %-22s KILLED (%s during %s, %d finding%s)\n"
                    (Ccc.Race_mutate.name m)
                    (Ccc.Finding.check_name f.Ccc.Finding.check)
                    (Option.value ~default:"?" f.Ccc.Finding.ctx)
                    (List.length findings)
                    (if List.length findings = 1 then "" else "s");
                  killed + 1)
            0 Ccc.Race_mutate.all
        in
        Printf.printf "%d/%d mutations killed\n" killed total;
        if killed < total then exit 1
    | Some name -> (
        match Ccc.Race_mutate.of_name name with
        | None ->
            Printf.eprintf "ccc race: unknown mutation %S (one of: %s, all)\n"
              name (mutation_names ());
            exit 2
        | Some m -> (
            let jobs = max 2 jobs in
            Printf.printf "mutation %s (seed %d, jobs %d): %s\n"
              (Ccc.Race_mutate.name m) seed jobs (Ccc.Race_mutate.describe m);
            match run_mutation ~seed ~jobs m with
            | [] ->
                print_endline "race: MISSED (0 findings)";
                exit 1
            | findings ->
                pp_findings findings;
                Printf.printf "race: KILLED (%d finding%s)\n"
                  (List.length findings)
                  (if List.length findings = 1 then "" else "s")))
    | None ->
        (* Live clean sweep: the whole conformance clean matrix runs
           under instrumentation, and the analyzer must come back
           empty.  Exit nonzero on any finding or failed cell. *)
        let config = or_die (config_of ~nodes ~tuned) in
        let jobs_list = if jobs > 1 then [ 1; jobs ] else [ 1 ] in
        (* A live serve-scheduler session inside the instrumentation
           window: two genuinely concurrent shard workers (each with a
           resident engine and pool) over a deterministic paused-trace,
           so the serve.* families and the cross-instance namespacing
           of the engine/pool/metrics slots are exercised for real. *)
        let serve_session () =
          (* fully instrumented: a live tracer turns on the per-shard
             span buffers and the window/queue-wait span paths, and
             the flight rings are always recording — the analyzer must
             stay finding-free with all of it live *)
          let t =
            Ccc.Serve.create ~obs:(Ccc.Obs.create ()) ~shards:2
              ~settings:{ Ccc.Engine.default_settings with jobs = max 1 jobs }
              ~paused:true config
          in
          let gallery = Ccc.Pattern.gallery () in
          let cross = List.assoc "cross5" gallery in
          let square = List.assoc "square9" gallery in
          let env_of p = synthetic_env ~rows:32 ~cols:32 (pattern_env_names p) in
          let ec = env_of cross and es = env_of square in
          let tickets =
            List.map (Ccc.Serve.submit t)
              [
                Ccc.Request.v ~tenant:"a" ~env:ec (Ccc.Request.Pattern cross);
                Ccc.Request.v ~tenant:"b" ~env:ec (Ccc.Request.Pattern cross);
                Ccc.Request.v ~tenant:"a" ~env:es (Ccc.Request.Pattern square);
                Ccc.Request.v ~tenant:"b" ~env:es (Ccc.Request.Pattern square);
              ]
          in
          Ccc.Serve.resume t;
          let responses = List.map (Ccc.Serve.wait t) tickets in
          Ccc.Serve.shutdown t;
          List.length
            (List.filter
               (fun (r : Ccc.Serve.response) ->
                 Ccc.Outcome.is_success r.Ccc.Serve.outcome)
               responses)
        in
        Ccc.Access.enable ();
        let matrix =
          Ccc.Conformance.run ~seed ~jobs_list ~with_faults:false config
        in
        let served = serve_session () in
        Ccc.Access.disable ();
        let log = Ccc.Access.events () in
        let findings = analyze_log log in
        Printf.printf "domain-safety: %d access events from %d clean cells \
                       (jobs %s) and a %d-request serve session\n"
          (List.length log)
          (List.length matrix.Ccc.Conformance.cells)
          (String.concat "," (List.map string_of_int jobs_list))
          served;
        let clean_fail = Ccc.Conformance.clean_failures matrix in
        if clean_fail > 0 then
          Printf.printf "clean cells FAILED: %d\n" clean_fail;
        (match findings with
        | [] -> print_endline "race: PASS (0 findings)"
        | findings ->
            pp_findings findings;
            Printf.printf "race: FAIL (%d findings)\n" (List.length findings));
        if findings <> [] || clean_fail > 0 then exit 1
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Seed for the clean matrix's patterns and for the mutation \
             harness's victim choices (deterministic for a fixed seed).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs" ]
          ~doc:
            "Pool size for the clean sweep (which also runs jobs 1) and \
             domain count for the mutation model (minimum 2 there).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"MUTATION"
          ~doc:
            "Analyze a seeded concurrency mutation instead of the live \
             runtime: one of dropped-metrics-lock, overlapping-chunks, \
             deatomized-counter, arena-alias, lost-signal, \
             cache-write-bypass, or $(b,all) for the whole kill matrix.  \
             The mutation must be killed (reported as a finding); exit \
             nonzero if it survives.")
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Run the domain-safety analyzer: instrument the runtime's shared \
          state, execute the clean conformance matrix, and check the access \
          log for data races (happens-before), ownership violations, lock \
          discipline and chunk-partition overlaps.  Exits nonzero on any \
          finding.  With $(b,--mutate), analyzes a seeded concurrency \
          mutation instead and exits nonzero unless the mutation is killed")
    Term.(const run $ nodes_arg $ tuned_flag $ seed_arg $ jobs_arg
          $ mutate_arg)

(* ------------------------------------------------------------------ *)
(* serve: the multi-tenant scheduler on a canned, deterministic trace *)

(* The canned demo session, shared by serve --demo, stats and top:
   every request is submitted while the scheduler is paused, so each
   shard's one dispatch window is a pure function of the trace; the
   injected clock counts calls (no wall time reaches any output).
   With [~tracing:true] the coordinator and every shard record spans
   on the same counting clock, so the merged lanes carry coherent
   timestamps. *)
let serve_demo_session ~tracing config =
  let tick = Atomic.make 0 in
  (* Only coordinator reads advance the count: the two shard workers
     race for clock reads, so letting them tick would make every
     queued_us (and so the latency quantiles the cram suite pins)
     depend on the domain interleaving.  Workers instead observe the
     count frozen where admission left it — all requests are submitted
     while the scheduler is paused, so every worker-side read lands
     after the last coordinator tick and the demo stays a pure
     function of the trace. *)
  let main = Domain.self () in
  let clock () =
    if Domain.self () = main then float_of_int (Atomic.fetch_and_add tick 1)
    else float_of_int (Atomic.get tick)
  in
  let obs =
    Ccc.Obs.v
      ~trace:(if tracing then Ccc.Trace.create ~clock () else Ccc.Trace.disabled)
      ~metrics:(Ccc.Metrics.create ())
  in
  let t = Ccc.Serve.create ~obs ~shards:2 ~clock ~paused:true config in
  let gallery = Ccc.Pattern.gallery () in
  let pat name = List.assoc name gallery in
  let env_of p = synthetic_env ~rows:32 ~cols:32 (pattern_env_names p) in
  let cross = pat "cross5" in
  let cross_env = env_of cross in
  (* a second, distinct stencil over the same source array and env:
     lands in the same window group and batches when its fingerprint
     routes to the same shard *)
  let tilt =
    Ccc.Pattern.create
      [
        Ccc.Tap.make (Ccc.Offset.make ~drow:0 ~dcol:0) (Ccc.Coeff.Array "C1");
        Ccc.Tap.make (Ccc.Offset.make ~drow:(-1) ~dcol:1)
          (Ccc.Coeff.Array "C2");
      ]
  in
  let requests =
    [
      ("alice", "cross5", Ccc.Request.v ~tenant:"alice" ~env:cross_env
                            (Ccc.Request.Pattern cross));
      ("bob", "square9",
       (let p = pat "square9" in
        Ccc.Request.v ~tenant:"bob" ~env:(env_of p) (Ccc.Request.Pattern p)));
      ("alice", "cross9",
       (let p = pat "cross9" in
        Ccc.Request.v ~tenant:"alice" ~env:(env_of p) (Ccc.Request.Pattern p)));
      ("bob", "diamond13",
       (let p = pat "diamond13" in
        Ccc.Request.v ~tenant:"bob" ~env:(env_of p) (Ccc.Request.Pattern p)));
      ("carol", "cross5", Ccc.Request.v ~tenant:"carol" ~env:cross_env
                            (Ccc.Request.Pattern cross));
      ("carol", "cross5", Ccc.Request.v ~tenant:"carol" ~env:cross_env
                            (Ccc.Request.Pattern cross));
      ("carol", "cross5.key",
       Ccc.Request.v ~tenant:"carol" ~env:cross_env
         (Ccc.Request.Key (Ccc.Serve.key_of t cross)));
      ("alice", "tilt", Ccc.Request.v ~tenant:"alice" ~env:cross_env
                          (Ccc.Request.Pattern tilt));
      ("dave", "garbage",
       Ccc.Request.v ~tenant:"dave" ~env:[]
         (Ccc.Request.Text "R = NOT A STENCIL ("));
      ("eve", "too-late",
       Ccc.Request.v ~deadline_us:(-1.0) ~tenant:"eve" ~env:cross_env
         (Ccc.Request.Pattern cross));
    ]
  in
  let tickets =
    List.map (fun (_, _, r) -> Ccc.Serve.submit t r) requests
  in
  Ccc.Serve.resume t;
  let rows =
    List.map2
      (fun (tenant, label, _) tk -> (tenant, label, Ccc.Serve.wait t tk))
      requests tickets
  in
  Ccc.Serve.shutdown t;
  (t, obs, rows)

let serve_cmd =
  let run nodes tuned demo trace =
    if not demo then begin
      prerr_endline
        "ccc serve: pass --demo (the scheduler has no network front end)";
      exit 2
    end;
    let config = or_die (config_of ~nodes ~tuned) in
    let t, _obs, rows = serve_demo_session ~tracing:(trace <> None) config in
    List.iter
      (fun (tenant, label, (r : Ccc.Serve.response)) ->
        if r.Ccc.Serve.window >= 0 then
          Printf.printf "%-6s %-10s [shard %d window %d batched %d coalesced %d] %s\n"
            tenant label r.Ccc.Serve.shard r.Ccc.Serve.window
            r.Ccc.Serve.batched r.Ccc.Serve.coalesced
            (Ccc.Outcome.to_string r.Ccc.Serve.outcome)
        else
          Printf.printf "%-6s %-10s [at admission] %s\n" tenant label
            (Ccc.Outcome.to_string r.Ccc.Serve.outcome))
      rows;
    Format.printf "%a@." Ccc.Serve.pp_stats (Ccc.Serve.stats t);
    match trace with
    | None -> ()
    | Some path ->
        let lanes = Ccc.Serve.trace_lanes t in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Ccc.Trace.to_chrome_json_lanes lanes));
        Printf.printf "trace: %d spans in %d lanes written to %s\n"
          (List.fold_left
             (fun acc l -> acc + Ccc.Trace.lane_span_count l)
             0 lanes)
          (List.length lanes) path
  in
  let demo_flag =
    Arg.(value & flag
         & info [ "demo" ]
             ~doc:"Run the canned multi-tenant trace: five tenants, \
                   duplicate and batchable stencils, a catalog-key \
                   request, a refusal and a missed deadline.")
  in
  let serve_trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the session's merged cross-domain trace as Chrome \
             trace_event JSON to $(docv): one named lane for the \
             scheduler and one per shard, queue-wait spans separate \
             from dispatch windows and engine phases (open in Perfetto).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "The multi-tenant stencil service: an admission/queueing \
          scheduler sharding requests across resident engines, coalescing \
          fingerprint-identical requests, fair-queueing tenants and \
          shedding load with structured outcomes")
    Term.(const run $ nodes_arg $ tuned_flag $ demo_flag $ serve_trace_arg)

(* ------------------------------------------------------------------ *)
(* stats / top: the serve-plane metrics surface over the demo session *)

let stats_cmd =
  let run nodes tuned demo =
    if not demo then begin
      prerr_endline
        "ccc stats: pass --demo (there is no live scheduler to scrape)";
      exit 2
    end;
    let config = or_die (config_of ~nodes ~tuned) in
    let t, _obs, _rows = serve_demo_session ~tracing:false config in
    print_string (Ccc.Serve.prometheus t)
  in
  let demo_flag =
    Arg.(value & flag
         & info [ "demo" ]
             ~doc:"Scrape the canned demo session (the only scheduler \
                   this process can reach).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Prometheus-style text exposition of a serve session: scheduler \
          counters, per-tenant families with tenant labels, latency \
          histograms with log-spaced buckets, and per-shard engine \
          registries labeled shard=\"N\"")
    Term.(const run $ nodes_arg $ tuned_flag $ demo_flag)

let top_cmd =
  let run nodes tuned once =
    if not once then begin
      prerr_endline
        "ccc top: pass --once (there is no live scheduler to watch)";
      exit 2
    end;
    let config = or_die (config_of ~nodes ~tuned) in
    let t, obs, _rows = serve_demo_session ~tracing:false config in
    let s = Ccc.Serve.stats t in
    (* per-tenant families live in the scheduler's registry under
       serve.tenant.<name>.<field>; handles are found by name *)
    let mtr = obs.Ccc.Obs.metrics in
    let tenant_counter name field =
      Ccc.Metrics.Counter.value
        (Ccc.Metrics.counter mtr ("serve.tenant." ^ name ^ "." ^ field))
    in
    let tenant_gauge name field =
      Ccc.Metrics.Gauge.value
        (Ccc.Metrics.gauge mtr ("serve.tenant." ^ name ^ "." ^ field))
    in
    Printf.printf "serve top — %d shards, window %d, queue depth %d\n"
      s.Ccc.Serve.shards_ s.Ccc.Serve.max_batch s.Ccc.Serve.queue_depth;
    Printf.printf
      "outcomes   %d completed  %d degraded  %d refused  %d shed  (%d windows)\n"
      s.Ccc.Serve.completed s.Ccc.Serve.degraded s.Ccc.Serve.refused
      s.Ccc.Serve.shed s.Ccc.Serve.windows;
    let q label = function
      | None -> ()
      | Some (p50, p95, p99) ->
          Printf.printf "latency    %s p50 %.0f  p95 %.0f  p99 %.0f us\n"
            label p50 p95 p99
    in
    q "queued " s.Ccc.Serve.queued_q;
    q "service" s.Ccc.Serve.service_q;
    Printf.printf "%-8s %9s %8s %6s %6s %8s %7s\n" "TENANT" "ADMITTED"
      "SERVED" "COAL" "SHED" "DLMISS" "DEPTH";
    List.iter
      (fun (name, served) ->
        Printf.printf "%-8s %9d %8d %6d %6d %8d %7.0f\n" name
          (tenant_counter name "admitted")
          served
          (tenant_counter name "coalesced")
          (tenant_counter name "shed")
          (tenant_counter name "deadline_missed")
          (tenant_gauge name "queue_depth"))
      s.Ccc.Serve.tenants
  in
  let once_flag =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render one snapshot of the canned demo session and \
                   exit (the only mode without a live scheduler).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "A per-tenant SLO snapshot of a serve session: outcome counts, \
          latency quantiles, and one row per tenant (admitted, served, \
          coalesced, shed, deadline-missed, live queue depth)")
    Term.(const run $ nodes_arg $ tuned_flag $ once_flag)

(* ------------------------------------------------------------------ *)
(* gallery *)

let gallery_cmd =
  let run () =
    List.iter
      (fun (name, p) ->
        Printf.printf "%s: %d taps, %d flops/point, borders %s\n%s\n" name
          (Ccc.Pattern.tap_count p)
          (Ccc.Pattern.useful_flops_per_point p)
          (Ccc.Render.borders p) (Ccc.Render.pattern p);
        print_endline (Ccc.Pattern.to_fortran p);
        print_newline ())
      (Ccc.Pattern.gallery ())
  in
  Cmd.v
    (Cmd.info "gallery" ~doc:"Show the built-in stencil patterns")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "ccc" ~version:"1.0.0"
      ~doc:"The Connection Machine Convolution Compiler (simulated CM-2)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; estimate_cmd; trace_cmd; profile_cmd;
            program_cmd; lint_cmd; batch_cmd; conform_cmd; race_cmd;
            serve_cmd; stats_cmd; top_cmd; gallery_cmd ]))
