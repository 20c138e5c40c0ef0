(* The per-layer metric catalogue: every traced run reports each of
   these, in this order, with 0 for a layer the workload never reaches.
   BENCHMARK.json's per_layer list is this list; the self-test checks
   that the two agree. *)

type better = Higher | Lower

let catalogue =
  [
    ("frontend.calls", "count", Lower);
    ("frontend.us_per_call", "us", Lower);
    ("frontend.src_mb_per_s", "MB/s", Higher);
    ("fingerprint.calls", "count", Lower);
    ("fingerprint.us_per_call", "us", Lower);
    ("compiler.calls", "count", Lower);
    ("compiler.ms_per_call", "ms", Lower);
    ("compiler.widths_rejected", "count", Lower);
    ("compiler.dynamic_words", "words", Lower);
    ("compiler.registers_used", "count", Lower);
    ("machine.creates", "count", Lower);
    ("machine.ms_per_create", "ms", Lower);
    ("machine.mb_allocated", "MB", Lower);
    ("engine.cache.hit_ratio", "ratio", Higher);
    ("engine.cache.misses", "count", Lower);
    ("engine.cache.evictions", "count", Lower);
    ("engine.arena.reuse_ratio", "ratio", Higher);
    ("engine.run.ms", "ms", Lower);
    ("kernel_build.calls", "count", Lower);
    ("kernel_build.ms_per_call", "ms", Lower);
    ("fft_build.calls", "count", Lower);
    ("fft_build.ms_per_call", "ms", Lower);
    ("dist.scatter.ms", "ms", Lower);
    ("dist.scatter.mb", "MB", Lower);
    ("dist.streams.ms", "ms", Lower);
    ("dist.streams.mb", "MB", Lower);
    ("dist.gather.ms", "ms", Lower);
    ("dist.gather.mb", "MB", Lower);
    ("dist.gb_per_s", "GB/s", Higher);
    ("halo.ms", "ms", Lower);
    ("halo.mb", "MB", Lower);
    ("halo.modeled_cycles", "cycles", Lower);
    ("kernel.ms", "ms", Lower);
    ("kernel.host_gflops", "GFLOP/s", Higher);
    ("kernel.computed_mb", "MB", Lower);
    ("kernel.flops_per_byte", "flop/B", Higher);
    ("kernel.modeled_cycles", "cycles", Lower);
    ("kernel.host_ns_per_modeled_cycle", "ns/cycle", Lower);
    ("exec.ms", "ms", Lower);
    ("fft.calls", "count", Lower);
    ("fft.ms", "ms", Lower);
    ("fft.modeled_cycles", "cycles", Lower);
    ("fft.host_ns_per_modeled_cycle", "ns/cycle", Lower);
    ("guard.check_output.ms", "ms", Lower);
    ("guard.check_halo.ms", "ms", Lower);
    ("guard.share", "ratio", Lower);
    ("guard.detections", "count", Lower);
    ("serve.submit_us", "us", Lower);
    ("serve.queue_wait_p50_ms", "ms", Lower);
    ("serve.queue_wait_p90_ms", "ms", Lower);
    ("serve.service_p50_ms", "ms", Lower);
    ("serve.service_p90_ms", "ms", Lower);
    ("serve.windows", "count", Lower);
    ("serve.batch_mean", "count", Higher);
    ("serve.coalesced_ratio", "ratio", Higher);
    ("serve.shed", "count", Lower);
    ("model.comm_cycles", "cycles", Lower);
    ("model.compute_cycles", "cycles", Lower);
    ("gen.lag_p90_ms", "ms", Lower);
    ("trace.overhead_pct", "%", Lower);
    ("trace.accounted_pct", "%", Higher);
  ]

(* Values a workload measured, keyed by catalogue name. *)
type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.exists (fun (n, _, _) -> n = name) catalogue) then
    invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let metrics (t : t) =
  List.map
    (fun (name, unit_, _) ->
      Common.m name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt t name)))
    catalogue

(* Per-layer self times under the roots named [root], printed for the
   reader, each with its share of the untraced operation time. *)
let print_self_times ?(root = "op") ~ops ~untraced_us tr =
  let tbl = Common.Spans.self_times ~root tr in
  let rows =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  List.iter
    (fun (name, us) ->
      Common.note "self %-8s %-22s %10.4f ms/op  %6.2f%% of untraced op time" root name
        (us /. 1e3 /. float_of_int (max 1 ops))
        (100.0 *. Common.ratio us untraced_us))
    rows

(* The layers' self times summed over the operation trees: everything
   but the operation roots' own time. *)
let accounted_us tr =
  Hashtbl.fold
    (fun name us acc -> if name = "op" then acc else acc +. us)
    (Common.Spans.self_times tr) 0.0
