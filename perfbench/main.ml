(* Entry point: one workload per invocation.

     main.exe --workload timestep|serve|oneshot --seed N --seconds S
              --trace 0|1 [--trace-out FILE] [--nproc N] [--commit SHA]
     main.exe --list-metrics

   Prints the host facts, the workload's description and inputs digest,
   then either the end-to-end metrics (untraced) or the per-layer
   metrics (traced, spans written as Chrome trace JSON to FILE), and as
   the last line one JSON object.  Exits 1 on any wrong output. *)

open Common

let workloads = [ "timestep"; "serve"; "oneshot" ]

let host_facts ~nproc ~commit =
  let probe = Ccc.Machine.create (Ccc.Config.with_nodes ~rows:1 ~cols:1 config) in
  note "host_cores nproc=%s domain_recommended_count=%d; ocaml %s; commit %s" nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit;
  note "machine node_grid=%dx%d nodes=%d memory_words_per_node=%d"
    config.Ccc.Config.node_rows config.Ccc.Config.node_cols
    (Ccc.Config.node_count config)
    (Ccc_cm2.Memory.words (Ccc.Machine.memory probe 0))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and trace_out = ref "" in
  let nproc = ref "unknown" and commit = ref "unknown" in
  let list_metrics = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " timestep | serve | oneshot");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured loop");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--trace-out", Arg.Set_string trace_out, " Chrome trace JSON path (traced run)");
      ("--nproc", Arg.Set_string nproc, " host core count as nproc reports it");
      ("--commit", Arg.Set_string commit, " commit of the measured tree");
      ("--list-metrics", Arg.Set list_metrics, " print the per-layer catalogue");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !list_metrics then begin
    List.iter
      (fun (n, u, b) ->
        Printf.printf "%s %s %s\n" n u (match b with Layers.Higher -> "higher" | Lower -> "lower"))
      Layers.catalogue;
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  host_facts ~nproc:!nproc ~commit:!commit;
  note "seed %d seconds %g trace %d" !seed !seconds !trace;
  let seed = !seed and seconds = !seconds in
  let attempted, failed, metrics =
    if !trace = 0 then
      match !workload with
      | "timestep" -> Timestep.run ~seed ~seconds
      | "serve" -> Serve_load.run ~seed ~seconds
      | _ -> Oneshot.run ~seed ~seconds
    else begin
      let tr = Spans.tracer () in
      let a, f, layers =
        match !workload with
        | "timestep" -> Timestep.run_traced ~seed ~seconds ~tr
        | "serve" -> Serve_load.run_traced ~seed ~seconds ~tr
        | _ -> Oneshot.run_traced ~seed ~seconds ~tr
      in
      if !trace_out <> "" then begin
        let tid = 1 + List.length (List.filter (( > ) !workload) workloads) in
        Spans.write_chrome ~path:!trace_out ~tid ~label:!workload tr;
        note "trace written to %s (%d spans)" !trace_out (Ccc.Trace.event_count tr)
      end;
      (a, f, Layers.metrics layers)
    end
  in
  note "attempted %d failed %d failed_frac %.6f" attempted failed
    (ratio (float_of_int failed) (float_of_int attempted));
  print_result { correct = failed = 0; attempted; failed; metrics };
  if failed > 0 then exit 1
