(* The unified telemetry layer: span tracer, metrics registry, and the
   cycle-attribution profiler.

   The load-bearing property is the last one: the profiler's per-phase
   attribution must sum to the analytic cycle model *and* to the
   cycle-accurate interpreter, instruction for instruction, on random
   patterns — that is what lets the paper's Table-1 split be read off
   live telemetry instead of a hand calculation.  (The interpreter leg
   is transitive: Exec.run in Simulate mode asserts Cost = Interp on
   every half-strip, and we pin the attribution to the simulated
   stats.) *)

module Q = QCheck2
module Gen = QCheck2.Gen
module Trace = Ccc.Trace
module Metrics = Ccc.Metrics
module Profiler = Ccc.Profiler
module Obs = Ccc.Obs

let config = Ccc.Config.default

(* A counter clock: each reading advances by one microsecond, so
   durations are deterministic and strictly positive. *)
let counter_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

(* ------------------------------------------------------------------ *)
(* Span tracer *)

let test_span_nesting () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  let result =
    Trace.with_span tr ~attrs:[ ("phase", Trace.Str "outer") ] "a" (fun () ->
        Trace.with_span tr "b" (fun () -> ());
        Trace.with_span tr "c" (fun () ->
            Trace.add_attr tr "cycles" (Trace.Int 42);
            17))
  in
  Alcotest.(check int) "with_span returns the body's value" 17 result;
  (match Trace.roots tr with
  | [ a ] ->
      Alcotest.(check string) "root name" "a" (Trace.span_name a);
      Alcotest.(check (list string))
        "children in start order" [ "b"; "c" ]
        (List.map Trace.span_name (Trace.span_children a));
      (match Trace.find_attr a "phase" with
      | Some (Trace.Str s) -> Alcotest.(check string) "root attr" "outer" s
      | _ -> Alcotest.fail "missing phase attr");
      let c = List.nth (Trace.span_children a) 1 in
      (match Trace.find_attr c "cycles" with
      | Some (Trace.Int n) -> Alcotest.(check int) "add_attr lands" 42 n
      | _ -> Alcotest.fail "missing cycles attr");
      Alcotest.(check bool)
        "durations nest" true
        (Trace.span_dur a >= Trace.span_dur c)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  Alcotest.(check int) "event count" 3 (Trace.event_count tr)

let test_span_exception () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  (match
     Trace.with_span tr "outer" (fun () ->
         Trace.with_span tr "inner" (fun () -> failwith "boom"))
   with
  | (_ : unit) -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  match Trace.roots tr with
  | [ outer ] ->
      Alcotest.(check (list string))
        "inner span closed and attached" [ "inner" ]
        (List.map Trace.span_name (Trace.span_children outer))
  | _ -> Alcotest.fail "outer span not closed on exception"

let test_disabled_noop () =
  let tr = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  let r =
    Trace.with_span tr ~attrs:[ ("k", Trace.Int 1) ] "x" (fun () -> 5)
  in
  Alcotest.(check int) "body still runs" 5 r;
  Trace.emit tr ~attrs:[ ("k", Trace.Int 1) ] "e";
  Trace.add_attr tr "k" (Trace.Bool true);
  Alcotest.(check int) "nothing recorded" 0 (Trace.event_count tr);
  Alcotest.(check (list string)) "no roots" []
    (List.map Trace.span_name (Trace.roots tr));
  Alcotest.(check bool) "Obs.disabled is not tracing" false
    (Obs.tracing Obs.disabled)

let test_emit_explicit_times () =
  let tr = Trace.create ~clock:(fun () -> 0.0) () in
  Trace.with_span tr "parent" (fun () ->
      Trace.emit tr ~ts:100.0 ~dur:7.0 "child");
  match Trace.roots tr with
  | [ p ] -> (
      match Trace.span_children p with
      | [ c ] ->
          Alcotest.(check (float 0.0)) "ts" 100.0 (Trace.span_ts c);
          Alcotest.(check (float 0.0)) "dur" 7.0 (Trace.span_dur c)
      | _ -> Alcotest.fail "one child expected")
  | _ -> Alcotest.fail "one root expected"

(* Chrome JSON well-formedness without a JSON parser: balanced
   delimiters outside strings, correct escaping, one complete event
   per recorded span. *)
let check_balanced what s =
  let depth_obj = ref 0 and depth_arr = ref 0 in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
        else if Char.code c < 0x20 then
          Alcotest.failf "%s: raw control character in string" what
      else
        match c with
        | '"' -> in_string := true
        | '{' -> incr depth_obj
        | '}' -> decr depth_obj
        | '[' -> incr depth_arr
        | ']' -> decr depth_arr
        | _ -> ())
    s;
  Alcotest.(check bool) (what ^ ": string closed") false !in_string;
  Alcotest.(check int) (what ^ ": braces balanced") 0 !depth_obj;
  Alcotest.(check int) (what ^ ": brackets balanced") 0 !depth_arr

let count_substring needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_chrome_json () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  Trace.with_span tr "run" (fun () ->
      Trace.emit tr
        ~attrs:
          [
            ("note", Trace.Str "quote \" backslash \\ newline \n tab \t");
            ("n", Trace.Int (-3));
            ("x", Trace.Float 1.5);
            ("flag", Trace.Bool true);
          ]
        "weird";
      Trace.with_span tr "inner" (fun () -> ()));
  let json = Trace.to_chrome_json tr in
  check_balanced "chrome json" json;
  Alcotest.(check char) "array open" '[' json.[0];
  Alcotest.(check int) "one complete event per span"
    (Trace.event_count tr)
    (count_substring "\"ph\":\"X\"" json);
  Alcotest.(check bool) "quote escaped" true
    (count_substring "quote \\\"" json = 1);
  Alcotest.(check bool) "newline escaped" true
    (count_substring "\\n tab" json = 1);
  Alcotest.(check bool) "bool attr" true
    (count_substring "\"flag\":true" json = 1);
  Alcotest.(check bool) "int attr" true
    (count_substring "\"n\":-3" json = 1)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_basic () =
  let m = Metrics.create () in
  let c = Metrics.counter m "runs" in
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.Counter.value c);
  Alcotest.(check int) "same handle by name" 5
    (Metrics.Counter.value (Metrics.counter m "runs"));
  let g = Metrics.gauge m "temp" in
  Metrics.Gauge.set g 2.0;
  Metrics.Gauge.add g 0.5;
  Alcotest.(check (float 1e-12)) "gauge" 2.5 (Metrics.Gauge.value g);
  let h = Metrics.histogram m "lat" in
  Alcotest.(check bool) "empty histogram mean is nan" true
    (Float.is_nan (Metrics.Histogram.mean h));
  List.iter (fun v -> Metrics.Histogram.observe h v) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "count" 3 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-12)) "min" 1.0 (Metrics.Histogram.min h);
  Alcotest.(check (float 1e-12)) "max" 3.0 (Metrics.Histogram.max h);
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Metrics.Histogram.mean h);
  (match Metrics.gauge m "runs" with
  | (_ : Metrics.Gauge.t) -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  Metrics.reset m;
  Alcotest.(check int) "counter reset" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "histogram reset" 0 (Metrics.Histogram.count h)

let test_metrics_export () =
  let m = Metrics.create () in
  Metrics.Counter.incr ~by:7 (Metrics.counter m "b.count");
  Metrics.Gauge.set (Metrics.gauge m "a.gauge") 1.25;
  Metrics.Histogram.observe (Metrics.histogram m "c.hist") 2.0;
  let table = Format.asprintf "%a" Metrics.pp m in
  (* Name-sorted: a.gauge before b.count before c.hist. *)
  let index_of needle =
    let n = String.length needle and h = String.length table in
    let rec go i =
      if i + n > h then Alcotest.failf "%s not printed" needle
      else if String.sub table i n = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "sorted by name" true
    (index_of "a.gauge" < index_of "b.count"
    && index_of "b.count" < index_of "c.hist");
  let json = Metrics.to_json m in
  check_balanced "metrics json" json;
  Alcotest.(check bool) "counter as integer" true
    (count_substring "\"b.count\":7" json = 1);
  Alcotest.(check bool) "histogram summarized" true
    (count_substring "\"count\":1" json = 1)

(* ------------------------------------------------------------------ *)
(* Bucketed histogram quantiles *)

let rec increasing = function
  | a :: (b :: _ as rest) -> a < b && increasing rest
  | _ -> true

let test_histogram_quantiles () =
  let h = Metrics.Histogram.create () in
  (* empty reports 0, not nan: quantiles feed pinned text renderers
     (stats tables, Expo lines) where a "nan" would poison output *)
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0
    (Metrics.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "empty p50 is 0" 0.0 (Metrics.Histogram.p50 h);
  Alcotest.(check (float 0.0)) "empty p99 is 0" 0.0 (Metrics.Histogram.p99 h);
  for v = 1 to 100 do
    Metrics.Histogram.observe h (float_of_int v)
  done;
  let p50 = Metrics.Histogram.p50 h
  and p95 = Metrics.Histogram.p95 h
  and p99 = Metrics.Histogram.p99 h in
  Alcotest.(check bool) "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "clamped to observed range" true
    (p50 >= 1.0 && p99 <= 100.0);
  (* Uniform 1..100: the true p50 is 50, inside the (32, 64] bucket;
     the tail quantiles must sit in the overflow-side (64, 128]
     bucket, clamped at the observed max. *)
  Alcotest.(check bool) "p50 lands in its bucket" true
    (p50 > 32.0 && p50 <= 64.0);
  Alcotest.(check bool) "p95 above the median bucket" true (p95 > 64.0);
  Alcotest.(check (float 1e-9)) "q=0 clamps to min" 1.0
    (Metrics.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 clamps to max" 100.0
    (Metrics.Histogram.quantile h 1.0);
  let bs = Metrics.Histogram.buckets h in
  Alcotest.(check int) "bucket counts sum to count" 100
    (List.fold_left (fun a (_, c) -> a + c) 0 bs);
  Alcotest.(check bool) "bucket bounds increasing" true
    (increasing (List.map fst bs));
  (* A single sample answers every quantile with itself. *)
  let h1 = Metrics.Histogram.create () in
  Metrics.Histogram.observe h1 7.0;
  Alcotest.(check (float 1e-9)) "single sample p50" 7.0
    (Metrics.Histogram.p50 h1);
  Alcotest.(check (float 1e-9)) "single sample p99" 7.0
    (Metrics.Histogram.p99 h1)

(* A histogram's bucketed quantile estimate can never leave the bucket
   the exact quantile lives in: for any sample set, the estimate and
   the true order statistic share a power-of-two bucket (and both are
   clamped to the observed range). *)
let prop_histogram_quantile_bucket =
  Q.Test.make ~count:200
    ~name:"histogram quantile shares the exact quantile's bucket"
    Gen.(
      pair
        (list_size (int_range 1 60) (float_range 0.1 100_000.0))
        (float_range 0.0 1.0))
    (fun (samples, q) ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.observe h) samples;
      let est = Metrics.Histogram.quantile h q in
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      (* Same rank convention as the estimator: 1-indexed ceil. *)
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int n)))
      in
      let exact = List.nth sorted (rank - 1) in
      let bucket v =
        if v <= 1.0 then 0
        else int_of_float (Float.ceil (Float.log2 v))
      in
      let lo = List.hd sorted and hi = List.nth sorted (n - 1) in
      est >= lo && est <= hi
      && (bucket est = bucket exact
         || (* interpolation may clamp into the neighbouring bucket at
               the observed min/max *)
         est = lo || est = hi))

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

module Flight = Ccc.Flight

let test_flight_ring () =
  let ring = Flight.create ~capacity:4 ~clock:(counter_clock ()) () in
  Alcotest.(check int) "capacity" 4 (Flight.capacity ring);
  Alcotest.(check int) "fresh ring empty" 0 (Flight.recorded ring);
  List.iteri
    (fun i kind -> Flight.record ring kind (Printf.sprintf "event %d" i))
    [
      Flight.Admission;
      Flight.Window_open;
      Flight.Guard_trip;
      Flight.Cache_evict;
      Flight.Shed;
      Flight.Degraded;
    ];
  Alcotest.(check int) "true total survives wrap" 6 (Flight.recorded ring);
  let evs = Flight.events ring in
  Alcotest.(check int) "ring holds capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest two overwritten, order kept"
    [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Flight.seq) evs);
  Alcotest.(check bool) "timestamps monotone" true
    (increasing (List.map (fun e -> e.Flight.ts) evs));
  let dump = Flight.dump ring in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in dump") true
        (count_substring needle dump >= 1))
    [ "guard-trip"; "cache-evict"; "shed"; "degraded"; "(2 dropped)"; "event 5" ];
  Alcotest.(check bool) "overwritten event gone" true
    (count_substring "event 0" dump = 0);
  (match Flight.create ~capacity:0 () with
  | (_ : Flight.t) -> Alcotest.fail "zero capacity accepted"
  | exception Invalid_argument _ -> ())

let test_flight_two_domains () =
  (* The serve-plane write pattern: coordinator and worker hammer one
     ring concurrently; no record may be lost and the ring must stay
     well-formed (the mutex is the whole point). *)
  let ring = Flight.create ~capacity:32 () in
  let n = 2_000 in
  let writer kind () =
    for i = 1 to n do
      Flight.record ring kind (string_of_int i)
    done
  in
  let d = Domain.spawn (writer Flight.Admission) in
  writer Flight.Window_open ();
  Domain.join d;
  Alcotest.(check int) "no record lost" (2 * n) (Flight.recorded ring);
  let evs = Flight.events ring in
  Alcotest.(check int) "full ring" 32 (List.length evs);
  Alcotest.(check bool) "seqs strictly increasing" true
    (increasing (List.map (fun e -> e.Flight.seq) evs))

(* ------------------------------------------------------------------ *)
(* Prometheus-style exposition *)

module Expo = Ccc.Expo

let test_expo_render () =
  let m = Metrics.create () in
  Metrics.Counter.incr ~by:7 (Metrics.counter m "engine.runs");
  Metrics.Gauge.set (Metrics.gauge m "serve.queue.depth") 3.0;
  Metrics.Counter.incr ~by:2 (Metrics.counter m "serve.tenant.alice.shed");
  Metrics.Counter.incr ~by:5 (Metrics.counter m "serve.tenant.bob.shed");
  let h = Metrics.histogram m "serve.queued_us" in
  List.iter (Metrics.Histogram.observe h) [ 3.0; 40.0; 500.0 ];
  let text = Expo.render [ ([], m) ] in
  Alcotest.(check string) "deterministic" text (Expo.render [ ([], m) ]);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true
        (count_substring needle text >= 1))
    [
      "# TYPE ccc_engine_runs counter";
      "ccc_engine_runs 7";
      "ccc_serve_queue_depth 3";
      (* tenant fold: one family, a label per tenant *)
      "# TYPE ccc_serve_tenant_shed counter";
      "ccc_serve_tenant_shed{tenant=\"alice\"} 2";
      "ccc_serve_tenant_shed{tenant=\"bob\"} 5";
      (* histogram: cumulative buckets, mandatory +Inf, sum, count *)
      "ccc_serve_queued_us_bucket{le=\"+Inf\"} 3";
      "ccc_serve_queued_us_sum 543";
      "ccc_serve_queued_us_count 3";
    ]
    ;
  Alcotest.(check int) "TYPE header once per family" 1
    (count_substring "# TYPE ccc_serve_tenant_shed " text);
  (* Cumulative bucket series: 3.0 -> (2,4], 40.0 -> (32,64],
     500.0 -> (256,512]; cumulative counts 1, 2, 3. *)
  Alcotest.(check bool) "cumulative buckets" true
    (count_substring "ccc_serve_queued_us_bucket{le=\"4\"} 1" text = 1
    && count_substring "ccc_serve_queued_us_bucket{le=\"64\"} 2" text = 1
    && count_substring "ccc_serve_queued_us_bucket{le=\"512\"} 3" text = 1);
  (* Extra label sets keep registries apart and sort deterministically. *)
  let m0 = Metrics.create () and m1 = Metrics.create () in
  Metrics.Counter.incr (Metrics.counter m0 "engine.runs");
  Metrics.Counter.incr ~by:2 (Metrics.counter m1 "engine.runs");
  let sharded =
    Expo.render [ ([ ("shard", "0") ], m0); ([ ("shard", "1") ], m1) ]
  in
  let i0 = count_substring "ccc_engine_runs{shard=\"0\"} 1" sharded
  and i1 = count_substring "ccc_engine_runs{shard=\"1\"} 2" sharded in
  Alcotest.(check (pair int int)) "shard labels" (1, 1) (i0, i1)

(* ------------------------------------------------------------------ *)
(* Trace lanes *)

let test_chrome_json_lanes () =
  let mk label =
    let tr = Trace.create ~clock:(counter_clock ()) () in
    Trace.with_span tr label (fun () ->
        Trace.with_span tr (label ^ ".inner") (fun () -> ()));
    tr
  in
  let t0 = mk "submit" and t1 = mk "window" in
  let lanes =
    [
      Trace.lane ~tid:0 ~label:"scheduler" t0;
      Trace.lane ~tid:1 ~label:"shard 0" t1;
    ]
  in
  Alcotest.(check (list int)) "lane tids" [ 0; 1 ]
    (List.map Trace.lane_tid lanes);
  Alcotest.(check int) "lane span count" 2
    (Trace.lane_span_count (List.hd lanes));
  let json = Trace.to_chrome_json_lanes lanes in
  check_balanced "lanes json" json;
  Alcotest.(check int) "one thread_name metadata event per lane" 2
    (count_substring "\"name\":\"thread_name\"" json);
  Alcotest.(check bool) "lane labels in metadata" true
    (count_substring "\"name\":\"scheduler\"" json = 1
    && count_substring "\"name\":\"shard 0\"" json = 1);
  Alcotest.(check int) "four complete span events" 4
    (count_substring "\"ph\":\"X\"" json);
  Alcotest.(check int) "spans carry lane 1's tid" 2
    (count_substring "\"ph\":\"X\",\"pid\":1,\"tid\":1," json);
  (* A single ~tid:1 lane renders the same span events the flat
     exporter does, plus one metadata record. *)
  let flat = Trace.to_chrome_json t0 in
  let single = Trace.to_chrome_json_lanes [ Trace.lane ~tid:1 ~label:"x" t0 ] in
  Alcotest.(check int) "single lane = flat + metadata"
    (count_substring "\"ph\":\"X\"" flat)
    (count_substring "\"ph\":\"X\"" single);
  (* lane_of_spans lets a merger rebundle spans under a new lane. *)
  let rebundled =
    Trace.lane_of_spans ~tid:7 ~label:"merged" (Trace.roots t0)
  in
  Alcotest.(check int) "rebundled keeps the spans" 2
    (Trace.lane_span_count rebundled)

(* ------------------------------------------------------------------ *)
(* Profiler = Cost, on every gallery plan *)

let test_profiler_matches_cost () =
  List.iter
    (fun (name, p) ->
      match Ccc.compile_pattern config p with
      | Error _ -> ()
      | Ok compiled ->
          List.iter
            (fun plan ->
              for lines = 0 to 5 do
                let c = Profiler.halfstrip config plan ~lines in
                Alcotest.(check int)
                  (Printf.sprintf "%s width %d lines %d" name
                     plan.Ccc.Plan.width lines)
                  (Ccc.Cost.halfstrip_cycles config plan ~lines)
                  (Profiler.total c)
              done)
            compiled.Ccc.Compile.plans)
    (Ccc.Pattern.gallery ())

let test_attribute_matches_estimate () =
  List.iter
    (fun (name, p) ->
      match Ccc.compile_pattern config p with
      | Error _ -> ()
      | Ok compiled ->
          let stats =
            Ccc.Exec.estimate ~sub_rows:16 ~sub_cols:16 config
              [ Ccc.Exec.compiled compiled ]
          in
          let b =
            Ccc.Exec.attribute ~sub_rows:16 ~sub_cols:16 config
              [ Ccc.Exec.compiled compiled ]
          in
          Alcotest.(check int)
            (name ^ ": attributed compute = estimate")
            stats.Ccc.Stats.compute_cycles
            (Profiler.total b.Profiler.compute);
          Alcotest.(check int)
            (name ^ ": attributed comm = estimate")
            stats.Ccc.Stats.comm_cycles b.Profiler.comm_cycles;
          Alcotest.(check (float 1e-12))
            (name ^ ": attributed front end = estimate")
            stats.Ccc.Stats.frontend_s b.Profiler.frontend_s)
    (Ccc.Pattern.gallery ())

(* ------------------------------------------------------------------ *)
(* Instrumented execution *)

let grid_for ~seed ~rows ~cols =
  Ccc.Grid.init ~rows ~cols (fun r c ->
      let h = (seed * 0x9e3779b1) lxor (r * 31) lxor (c * 131) in
      let h = h lxor (h lsr 13) in
      float_of_int (h land 0xffff) /. 65536.0 -. 0.5)

let env_for ~rows ~cols pattern =
  let names =
    Ccc.Pattern.source_var pattern
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Ccc.Pattern.taps pattern)
    @ (match Ccc.Pattern.bias pattern with
      | Some c -> Option.to_list (Ccc.Coeff.array_name c)
      | None -> [])
  in
  List.mapi (fun i n -> (n, grid_for ~seed:(0x5eed + i) ~rows ~cols)) names

let rec sum_halfstrip_cycles span =
  let own =
    if Trace.span_name span = "run.halfstrip" then
      match Trace.find_attr span "cycles" with
      | Some (Trace.Int n) -> n
      | _ -> 0
    else 0
  in
  own
  + List.fold_left
      (fun acc c -> acc + sum_halfstrip_cycles c)
      0 (Trace.span_children span)

let test_run_spans_and_metrics () =
  let p = List.assoc "cross5" (Ccc.Pattern.gallery ()) in
  let compiled =
    match Ccc.compile_pattern config p with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Ccc.Outcome.reject_to_string e)
  in
  let obs = Obs.create ~clock:(fun () -> 0.0) () in
  let env = env_for ~rows:32 ~cols:32 p in
  let { Ccc.Exec.output = _; stats } =
    Ccc.apply ~obs ~mode:Ccc.Exec.Simulate config compiled env
  in
  (match Trace.roots obs.Obs.trace with
  | [ run ] ->
      Alcotest.(check string) "root is the run span" "run"
        (Trace.span_name run);
      let names = List.map Trace.span_name (Trace.span_children run) in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("run has " ^ n) true (List.mem n names))
        [ "run.scatter"; "run.streams"; "run.halo"; "run.compute";
          "run.gather"; "run.frontend" ];
      Alcotest.(check int) "half-strip cycle attrs sum to the stats"
        stats.Ccc.Stats.compute_cycles (sum_halfstrip_cycles run)
  | _ -> Alcotest.fail "expected exactly one run root span");
  Alcotest.(check int) "metrics absorbed the run"
    stats.Ccc.Stats.compute_cycles
    (Metrics.Counter.value (Metrics.counter obs.Obs.metrics "run.cycles.compute"))

let test_trace_header_names_width () =
  let p = List.assoc "cross5" (Ccc.Pattern.gallery ()) in
  let compiled =
    match Ccc.compile_pattern config p with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Ccc.Outcome.reject_to_string e)
  in
  (match Ccc.Exec.trace ~lines:1 config compiled with
  | header :: _ ->
      Alcotest.(check string) "fallback reports the selected width"
        "half-strip: width 8 (widest available), 1 lines" header
  | [] -> Alcotest.fail "empty trace");
  match Ccc.Exec.trace ~width:2 ~lines:1 config compiled with
  | header :: _ ->
      Alcotest.(check string) "requested width reported"
        "half-strip: width 2 (requested), 1 lines" header
  | [] -> Alcotest.fail "empty trace"

let test_engine_metrics () =
  let engine = Ccc.Engine.create config in
  let p = List.assoc "cross5" (Ccc.Pattern.gallery ()) in
  let env = env_for ~rows:32 ~cols:32 p in
  (match Ccc.Engine.run engine p env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine run: %s" (Ccc.Outcome.reject_to_string e));
  (match Ccc.Engine.run engine p env with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine run: %s" (Ccc.Outcome.reject_to_string e));
  let s = Ccc.Engine.stats engine in
  Alcotest.(check int) "two runs" 2 s.Ccc.Engine.runs;
  Alcotest.(check int) "one miss, one hit" 1 s.Ccc.Engine.hits;
  (match s.Ccc.Engine.per_call_compute with
  | Some (min, mean, max) ->
      Alcotest.(check int) "per-call min = max on identical calls" min max;
      Alcotest.(check (float 1e-9)) "mean agrees" (float_of_int min) mean
  | None -> Alcotest.fail "per-call histogram empty after two runs");
  (* The public registry view carries the same numbers. *)
  let m = Ccc.Engine.metrics engine in
  Alcotest.(check int) "registry runs counter" 2
    (Metrics.Counter.value (Metrics.counter m "engine.runs"));
  Ccc.Engine.reset engine;
  let s = Ccc.Engine.stats engine in
  Alcotest.(check int) "reset zeroes runs" 0 s.Ccc.Engine.runs;
  Alcotest.(check bool) "reset empties histogram" true
    (s.Ccc.Engine.per_call_compute = None)

(* ------------------------------------------------------------------ *)
(* Property: attribution = Cost = Interp on random patterns *)

let gen_offset =
  Gen.map2
    (fun drow dcol -> Ccc.Offset.make ~drow ~dcol)
    (Gen.int_range (-2) 2) (Gen.int_range (-2) 2)

let gen_pattern =
  let open Gen in
  map
    (fun offs ->
      List.sort_uniq Ccc.Offset.compare offs)
    (list_size (int_range 1 7) gen_offset)
  >>= fun offsets ->
  oneofl [ Ccc.Boundary.Circular; Ccc.Boundary.End_off 0.0 ]
  >>= fun boundary ->
  return
    (Ccc.Pattern.create ~boundary
       (List.mapi
          (fun i off ->
            Ccc.Tap.make off (Ccc.Coeff.Array (Printf.sprintf "C%d" (i + 1))))
          offsets))

let print_pattern p = Format.asprintf "%a" Ccc.Pattern.pp p

let prop_attribution_sums_to_interp_and_cost =
  Q.Test.make
    ~name:"per-phase attribution = analytic cost = interpreter cycles"
    ~count:40 ~print:print_pattern gen_pattern (fun p ->
      match Ccc.compile_pattern config p with
      | Error _ -> Q.assume_fail ()
      | Ok compiled ->
          (* Leg 1: every plan, several line counts — the profiler's
             nine phases sum to the closed-form model. *)
          List.iter
            (fun plan ->
              for lines = 0 to 4 do
                if
                  Profiler.total (Profiler.halfstrip config plan ~lines)
                  <> Ccc.Cost.halfstrip_cycles config plan ~lines
                then Q.Test.fail_report "phase sum <> Cost.halfstrip_cycles"
              done)
            compiled.Ccc.Compile.plans;
          (* Leg 2: a cycle-accurate run (Exec asserts Cost = Interp on
             every half-strip) must equal the statement-level
             attribution, and the traced half-strip spans must carry
             exactly the simulated compute cycles. *)
          let obs = Obs.create ~clock:(fun () -> 0.0) () in
          let env = env_for ~rows:20 ~cols:20 p in
          let { Ccc.Exec.output = _; stats } =
            Ccc.apply ~obs ~mode:Ccc.Exec.Simulate config compiled env
          in
          let b =
            Ccc.Exec.attribute ~sub_rows:5 ~sub_cols:5 config
              [ Ccc.Exec.compiled compiled ]
          in
          let traced =
            List.fold_left
              (fun acc s -> acc + sum_halfstrip_cycles s)
              0
              (Trace.roots obs.Obs.trace)
          in
          Profiler.total b.Profiler.compute = stats.Ccc.Stats.compute_cycles
          && b.Profiler.comm_cycles = stats.Ccc.Stats.comm_cycles
          && traced = stats.Ccc.Stats.compute_cycles)

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "explicit timestamps" `Quick
            test_emit_explicit_times;
          Alcotest.test_case "chrome trace_event export" `Quick
            test_chrome_json;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_metrics_basic;
          Alcotest.test_case "pp and json export" `Quick test_metrics_export;
          Alcotest.test_case "bucketed quantiles" `Quick
            test_histogram_quantiles;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap and dump" `Quick test_flight_ring;
          Alcotest.test_case "two writer domains" `Quick
            test_flight_two_domains;
        ] );
      ( "expo",
        [ Alcotest.test_case "prometheus rendering" `Quick test_expo_render ] );
      ( "lanes",
        [
          Alcotest.test_case "chrome export with named lanes" `Quick
            test_chrome_json_lanes;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "per-phase sum = Cost on gallery plans" `Quick
            test_profiler_matches_cost;
          Alcotest.test_case "attribute = estimate on gallery" `Quick
            test_attribute_matches_estimate;
        ] );
      ( "integration",
        [
          Alcotest.test_case "run spans and metrics fold" `Quick
            test_run_spans_and_metrics;
          Alcotest.test_case "trace header names the width" `Quick
            test_trace_header_names_width;
          Alcotest.test_case "engine registry" `Quick test_engine_metrics;
        ] );
      ( "properties",
        [
          to_alcotest prop_attribution_sums_to_interp_and_cost;
          to_alcotest prop_histogram_quantile_bucket;
        ] );
    ]
