(* Open-loop traffic generator for the multi-tenant serve scheduler
   (PR 7): a deterministic arrival schedule is paced against the wall
   clock and submitted without waiting (open loop -- arrivals do not
   slow down when the service backs up, which is what makes overload
   visible).  Three ramped load levels sweep the scheduler from
   underload into saturation and report p50/p95/p99 sojourn and
   goodput; a duplicate-heavy closed mix then measures what
   fingerprint coalescing saves against the one-shot counterfactual,
   the same accounting as the engine-bench service section.  Results
   land in BENCH_PR7.json. *)

module Serve = Ccc.Serve
module Outcome = Ccc.Outcome

let config = Ccc.Config.default
let rows = 32
let cols = 32

let env_for p =
  let names =
    Ccc.Pattern.source_var p
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Ccc.Pattern.taps p)
  in
  List.mapi
    (fun i n ->
      ( n,
        Ccc.Grid.init ~rows ~cols (fun r c ->
            sin (float_of_int ((r * (i + 3)) + c) /. 9.0)) ))
    names

(* The mix: mostly-duplicate arrivals over three gallery stencils,
   each bound once to one environment so fingerprint-identical
   requests are coalescible (production ticks re-run the same stencil
   on the same resident source grid).  The weights skew toward cross5
   the way a hot kernel dominates a real trace. *)
let mix =
  let item name weight =
    let p = List.assoc name (Ccc.Pattern.gallery ()) in
    (name, p, env_for p, weight)
  in
  [ item "cross5" 6; item "square9" 3; item "cross9" 1 ]

let total_weight = List.fold_left (fun a (_, _, _, w) -> a + w) 0 mix

(* Deterministic request sequence: a fixed linear congruential
   generator drives the mix and the tenant rotation, so every run
   offers the same trace (only the wall-clock pacing varies). *)
let lcg = ref 0x1234_5678

let pick () =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFF_FFFF;
  let r = !lcg mod total_weight in
  let rec go acc = function
    | [] -> assert false
    | (name, p, env, w) :: rest ->
        if r < acc + w then (name, p, env) else go (acc + w) rest
  in
  go 0 mix

let tenants = [| "alice"; "bob"; "carol"; "dave" |]
let now_us () = Unix.gettimeofday () *. 1e6

let spin_until t_us =
  while now_us () < t_us do
    Domain.cpu_relax ()
  done

(* Latency quantiles come from the bucketed Metrics.Histogram — the
   same log-spaced estimator the serve scheduler reports through
   [Serve.stats] and [ccc stats], so bench and service agree on one
   implementation.  Empty histograms report 0 (nothing completed at
   that level). *)
let histo_q h p =
  if Ccc.Metrics.Histogram.count h = 0 then 0.0
  else Ccc.Metrics.Histogram.quantile h p

type level = {
  offered_rps : int;
  requests : int;
  completed : int;
  shed : int;
  refused : int;
  coalesced : int;
  goodput_rps : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

let deadline_budget_us = 50_000.0

let run_level ~offered_rps ~n =
  (* queue_depth 32: the per-tenant admission bound is the lever that
     keeps the overload level's backlog (and so its tail latency)
     finite -- the excess is shed with a structured outcome instead of
     queued past its deadline. *)
  let settings = { Ccc.Engine.default_settings with queue_depth = 32 } in
  let t = Serve.create ~settings ~shards:2 ~clock:now_us config in
  (* Warm-up: one deadline-free request per stencil compiles every
     plan into the shard caches, so the paced phase measures the
     steady state rather than the first-window compile storm. *)
  List.iter
    (fun (_, p, env, _) ->
      ignore
        (Serve.wait t
           (Serve.submit t
              (Ccc.Request.v ~tenant:"warmup" ~env (Ccc.Request.Pattern p)))))
    mix;
  let interval = 1e6 /. float_of_int offered_rps in
  let start = now_us () in
  let tickets =
    List.init n (fun i ->
        spin_until (start +. (float_of_int i *. interval));
        let _, p, env = pick () in
        Serve.submit t
          (Ccc.Request.v
             ~deadline_us:(now_us () +. deadline_budget_us)
             ~tenant:tenants.(i mod Array.length tenants)
             ~env (Ccc.Request.Pattern p)))
  in
  let responses = List.map (Serve.wait t) tickets in
  let finish = now_us () in
  Serve.shutdown t;
  if List.length responses <> n then failwith "traffic: lost tickets";
  let st = Serve.stats t in
  if st.Serve.completed + st.Serve.degraded + st.Serve.refused + st.Serve.shed
     <> n + List.length mix
  then failwith "traffic: outcomes do not cover the trace";
  let ok = List.filter (fun r -> Outcome.is_success r.Serve.outcome) responses in
  let sojourn = Ccc.Metrics.Histogram.create () in
  List.iter
    (fun r ->
      Ccc.Metrics.Histogram.observe sojourn (r.Serve.queued_us +. r.Serve.service_us))
    ok;
  {
    offered_rps;
    requests = n;
    completed = List.length ok;
    shed = st.Serve.shed;
    refused = st.Serve.refused;
    coalesced = st.Serve.coalesced;
    goodput_rps = float_of_int (List.length ok) /. ((finish -. start) /. 1e6);
    p50_us = histo_q sojourn 0.50;
    p95_us = histo_q sojourn 0.95;
    p99_us = histo_q sojourn 0.99;
  }

(* Coalescing under a duplicate-heavy backlog: every request admitted
   while the scheduler is paused, so each shard drains its class in
   one window and each duplicate set collapses to a single engine
   call.  The counterfactual is the PR-2 service accounting: the same
   trace served one-shot pays the halo exchange and the front-end
   launch once per request instead of once per class. *)
type coalescing = {
  co_requests : int;
  co_distinct : int;
  co_engine_calls : int;
  comm_cycles : int;
  comm_cycles_oneshot : int;
  comm_saving_pct : float;
  frontend_s : float;
  frontend_s_oneshot : float;
  frontend_saving_pct : float;
}

let run_coalescing ~dups =
  let t = Serve.create ~shards:2 ~max_batch:64 ~paused:true config in
  let tickets =
    List.concat_map
      (fun (_, p, env, _) ->
        List.init dups (fun i ->
            Serve.submit t
              (Ccc.Request.v
                 ~tenant:tenants.(i mod Array.length tenants)
                 ~env (Ccc.Request.Pattern p))))
      mix
  in
  Serve.resume t;
  let responses = List.map (Serve.wait t) tickets in
  Serve.shutdown t;
  List.iter
    (fun r ->
      if not (Outcome.is_success r.Serve.outcome) then
        failwith
          (Printf.sprintf "traffic: coalescing request not served: %s"
             (Outcome.to_string r.Serve.outcome)))
    responses;
  let st = Serve.stats t in
  let comm, fe, calls =
    List.fold_left
      (fun (c, f, k) (_, (es : Ccc.Engine.stats)) ->
        ( c + es.Ccc.Engine.comm_cycles,
          f +. es.Ccc.Engine.frontend_s,
          k + es.Ccc.Engine.runs + es.Ccc.Engine.batches ))
      (0, 0.0, 0) st.Serve.engines
  in
  let comm1, fe1 =
    List.fold_left
      (fun (c, f) (_, p, env, _) ->
        match Ccc.compile_pattern config p with
        | Error e -> failwith (Ccc.Outcome.reject_to_string e)
        | Ok compiled ->
            let r = Ccc.apply config compiled env in
            ( c + (dups * r.Ccc.Exec.stats.Ccc.Stats.comm_cycles),
              f +. (float_of_int dups *. r.Ccc.Exec.stats.Ccc.Stats.frontend_s)
            ))
      (0, 0.0) mix
  in
  let pct saved full = 100.0 *. (1.0 -. (saved /. full)) in
  {
    co_requests = List.length tickets;
    co_distinct = List.length mix;
    co_engine_calls = calls;
    comm_cycles = comm;
    comm_cycles_oneshot = comm1;
    comm_saving_pct = pct (float_of_int comm) (float_of_int comm1);
    frontend_s = fe;
    frontend_s_oneshot = fe1;
    frontend_saving_pct = pct fe fe1;
  }

let () =
  let levels =
    List.map
      (fun offered_rps -> run_level ~offered_rps ~n:240)
      [ 200; 1600; 12800 ]
  in
  let co = run_coalescing ~dups:12 in
  if co.comm_saving_pct < 90.0 then
    failwith
      (Printf.sprintf "traffic: comm saving %.1f%% below the 90%% floor"
         co.comm_saving_pct);
  if co.frontend_saving_pct < 55.0 then
    failwith
      (Printf.sprintf "traffic: front-end saving %.1f%% below the 55%% floor"
         co.frontend_saving_pct);
  Printf.printf "open-loop ramp (240 requests/level, %.0f ms deadline):\n"
    (deadline_budget_us /. 1e3);
  Printf.printf "%9s | %9s %5s %7s %9s | %9s %9s %9s\n" "offered/s" "completed"
    "shed" "refused" "goodput/s" "p50 us" "p95 us" "p99 us";
  List.iter
    (fun l ->
      Printf.printf "%9d | %9d %5d %7d %9.0f | %9.0f %9.0f %9.0f\n"
        l.offered_rps l.completed l.shed l.refused l.goodput_rps l.p50_us
        l.p95_us l.p99_us)
    levels;
  Printf.printf
    "coalescing: %d requests over %d stencils -> %d engine calls; comm \
     saving %.1f%%, front end saving %.1f%%\n"
    co.co_requests co.co_distinct co.co_engine_calls co.comm_saving_pct
    co.frontend_saving_pct;
  let oc = open_out "BENCH_PR7.json" in
  Printf.fprintf oc "{\n  \"bench\": \"serve-traffic\",\n";
  Printf.fprintf oc "  \"nodes\": \"4x4\",\n  \"global\": [%d, %d],\n" rows
    cols;
  Printf.fprintf oc
    "  \"shards\": 2,\n  \"deadline_us\": %.0f,\n  \"open_loop\": [\n"
    deadline_budget_us;
  List.iteri
    (fun i l ->
      Printf.fprintf oc
        "    {\"offered_rps\": %d, \"requests\": %d, \"completed\": %d, \
         \"shed\": %d, \"refused\": %d, \"coalesced\": %d, \"goodput_rps\": \
         %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}%s\n"
        l.offered_rps l.requests l.completed l.shed l.refused l.coalesced
        l.goodput_rps l.p50_us l.p95_us l.p99_us
        (if i = List.length levels - 1 then "" else ","))
    levels;
  Printf.fprintf oc "  ],\n  \"coalescing\": {\n";
  Printf.fprintf oc
    "    \"requests\": %d, \"distinct_stencils\": %d, \"engine_calls\": %d,\n"
    co.co_requests co.co_distinct co.co_engine_calls;
  Printf.fprintf oc
    "    \"comm_cycles\": %d, \"comm_cycles_oneshot\": %d, \
     \"comm_saving_pct\": %.1f,\n"
    co.comm_cycles co.comm_cycles_oneshot co.comm_saving_pct;
  Printf.fprintf oc
    "    \"frontend_s\": %.6f, \"frontend_s_oneshot\": %.6f, \
     \"frontend_saving_pct\": %.1f\n"
    co.frontend_s co.frontend_s_oneshot co.frontend_saving_pct;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  print_endline "json: written to BENCH_PR7.json"
