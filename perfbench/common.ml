(* Shared plumbing of the benchmark: wall clock, order statistics,
   seeded input generation, the operation-sequence digest, the span
   recorder and the metric report. *)

let config = Ccc.Config.default
let now_s () = Unix.gettimeofday ()

(* Whole microseconds since the benchmark started: the clock of the
   span tracer and of the serve scheduler.  Whole numbers print exactly
   in the Chrome trace. *)
let epoch = now_s ()
let us_of s = Float.round ((s -. epoch) *. 1e6)
let now_us () = us_of (now_s ())

(* Drop what earlier set-ups left behind before the next one: a second
   cycle also frees the heap a finished domain left to the others. *)
let settle () =
  Gc.full_major ();
  Gc.full_major ()

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics.  Percentiles interpolate linearly between the two
   closest ranks (the numpy default), so p50 of an even sample is the
   mean of the middle pair. *)

let percentile p xs =
  match Array.length xs with
  | 0 -> 0.0
  | n ->
      let a = Array.copy xs in
      Array.sort compare a;
      let r = p *. float_of_int (n - 1) in
      let lo = truncate r in
      let hi = min (n - 1) (lo + 1) in
      let w = r -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = percentile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  match Array.length xs with 0 -> 0.0 | n -> sum xs /. float_of_int n

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A run's latency percentile is the mean, over ten consecutive tenths
   of the run, of each tenth's percentile.  On a host shared with other
   tenants the speed switches between modes within a run as they come
   and go; the plain percentile, or a median over parts, snaps to
   whichever mode held the majority (on a 2-core x86-64 guest it jumped
   by a third between otherwise identical runs), while the mean weighs
   the modes by their share of the run. *)
let parts = 10

let run_percentile p xs =
  let n = Array.length xs in
  if n < 2 * parts then percentile p xs
  else
    mean
      (Array.init parts (fun k ->
           let lo = k * n / parts and hi = (k + 1) * n / parts in
           percentile p (Array.sub xs lo (hi - lo))))

(* A growable sample of floats. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* ------------------------------------------------------------------ *)
(* Seeded inputs.  Every workload draws from its own stream so adding
   a draw to one workload never perturbs another's inputs. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

(* Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v
  done

let random_grid st ~rows ~cols ~lo ~hi =
  Ccc.Grid.init ~rows ~cols (fun _ _ -> lo +. Random.State.float st (hi -. lo))

(* A digest of the generated operation sequence: the workload feeds it
   every input it generated (stencil texts, shapes, arrival times,
   grid bits), so two runs with one seed print the same digest. *)
module Digest_acc = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let add_string t s = Buffer.add_string t s; Buffer.add_char t '\n'
  let add_int t i = add_string t (string_of_int i)

  let add_grid t g =
    let h = ref 0L in
    Array.iter
      (fun v ->
        h := Int64.add (Int64.mul !h 1099511628211L) (Int64.bits_of_float v))
      (Ccc.Grid.raw g);
    add_string t
      (Printf.sprintf "grid %dx%d %Lx" (Ccc.Grid.rows g) (Ccc.Grid.cols g) !h)

  let hex t = Digest.to_hex (Digest.string (Buffer.contents t))
end

(* ------------------------------------------------------------------ *)
(* Seeded random stencils: 3 to 13 distinct offsets within radius 2,
   CSHIFT or EOSHIFT, array coefficients C1..Ck in tap order mixed with
   scalar literals that print exactly (multiples of 1/16). *)

let radius2_offsets =
  List.concat_map
    (fun dr -> List.map (fun dc -> (dr, dc)) [ -2; -1; 0; 1; 2 ])
    [ -2; -1; 0; 1; 2 ]

let random_pattern st =
  let ntaps = 3 + Random.State.int st 11 in
  let pool = Array.of_list radius2_offsets in
  shuffle st pool;
  let offsets = List.sort compare (Array.to_list (Array.sub pool 0 ntaps)) in
  let boundary =
    if Random.State.bool st then Ccc.Boundary.Circular
    else Ccc.Boundary.End_off 0.0
  in
  let narrays = ref 0 in
  let taps =
    List.map
      (fun (drow, dcol) ->
        let coeff =
          if Random.State.int st 3 = 0 then
            Ccc.Coeff.Scalar (float_of_int (1 + Random.State.int st 31) /. 16.0)
          else begin
            incr narrays;
            Ccc.Coeff.Array (Printf.sprintf "C%d" !narrays)
          end
        in
        Ccc.Tap.make (Ccc.Offset.make ~drow ~dcol) coeff)
      offsets
  in
  Ccc.Pattern.create ~boundary taps

(* An environment binding the source X and C1..C13 — enough for every
   gallery stencil and every random stencil above. *)
let max_coeffs = 13

let random_env st ~rows ~cols =
  ("X", random_grid st ~rows ~cols ~lo:(-1.0) ~hi:1.0)
  :: List.init max_coeffs (fun i ->
         ( Printf.sprintf "C%d" (i + 1),
           random_grid st ~rows ~cols ~lo:(-1.0) ~hi:1.0 ))

(* The output check: every completed operation's grid against the
   reference evaluator, to the suite-wide 1e-9. *)
let tolerance = 1e-9

let output_ok pattern env grid =
  match Ccc.Reference.apply pattern env with
  | expected -> Ccc.Grid.max_abs_diff expected grid <= tolerance
  | exception _ -> false

let bit_identical a b =
  Ccc.Grid.rows a = Ccc.Grid.rows b
  && Ccc.Grid.cols a = Ccc.Grid.cols b
  &&
  let ra = Ccc.Grid.raw a and rb = Ccc.Grid.raw b in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float rb.(i) then ok := false)
    ra;
  !ok

(* Useful flops and modeled CM-2 seconds of a completed operation. *)
let modeled (s : Ccc.Stats.t) =
  (float_of_int (Ccc.Stats.useful_flops s), Ccc.Stats.elapsed_s s)

(* ------------------------------------------------------------------ *)
(* Spans.  The benchmark's own spans around its calls into each layer,
   recorded by a wall-clock {!Ccc.Trace} tracer (memory only, written
   out at the end).  The root span of an operation carries its id in
   the [op] attribute; its children are the layer calls. *)

module Spans = struct
  (* When set, the tracer's clock reads this instead of the wall clock:
     {!interval} uses it to record a span whose extent a response
     reported rather than this domain observed. *)
  let pinned = ref None
  let clock () = match !pinned with Some t -> t | None -> now_us ()
  let tracer () = Ccc.Trace.create ~clock ()

  (* Every span carries the id of the operation it belongs to ([-1]
     for set-up work outside any operation). *)
  let current = ref (-1)
  let op_attr () = [ ("op", Ccc.Trace.Int !current) ]

  let root tr name id f =
    current := id;
    Fun.protect
      ~finally:(fun () -> current := -1)
      (fun () -> Ccc.Trace.with_span tr ~attrs:(op_attr ()) name f)

  let op tr id f = root tr "op" id f
  let layer tr name f = Ccc.Trace.with_span tr ~attrs:(op_attr ()) name f

  (* A span over the known wall-clock interval [ts, ts + dur] (seconds);
     [f] may record children inside it with {!leaf}. *)
  let interval tr name ~id ~ts ~dur f =
    current := id;
    pinned := Some (us_of ts);
    Ccc.Trace.with_span tr ~attrs:(op_attr ()) name (fun () ->
        pinned := None;
        f ();
        pinned := Some (us_of (ts +. dur)));
    pinned := None;
    current := -1

  let leaf tr name ~ts ~dur =
    Ccc.Trace.emit tr ~attrs:(op_attr ()) ~ts:(us_of ts)
      ~dur:(us_of (ts +. dur) -. us_of ts)
      name

  (* Self time per span name, in microseconds, summed over the
     operation trees (roots named [op]; set-up spans are their own
     roots and stay out): a span's duration minus the part covered by
     its children. *)
  let self_times ?(root = "op") tr =
    let tbl = Hashtbl.create 16 in
    let rec walk s =
      let kids = Ccc.Trace.span_children s in
      let covered =
        List.fold_left (fun acc k -> acc +. Ccc.Trace.span_dur k) 0.0 kids
      in
      let name = Ccc.Trace.span_name s in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name
        (prev +. Float.max 0.0 (Ccc.Trace.span_dur s -. covered));
      List.iter walk kids
    in
    List.iter
      (fun r -> if Ccc.Trace.span_name r = root then walk r)
      (Ccc.Trace.roots tr);
    tbl

  (* Total duration in microseconds of the spans of one name, anywhere
     in the tree. *)
  let total tr name =
    let rec walk acc s =
      let acc = if Ccc.Trace.span_name s = name then acc +. Ccc.Trace.span_dur s else acc in
      List.fold_left walk acc (Ccc.Trace.span_children s)
    in
    List.fold_left walk 0.0 (Ccc.Trace.roots tr)

  let write_chrome ~path ~tid ~label tr =
    let json =
      Ccc.Trace.to_chrome_json_lanes [ Ccc.Trace.lane ~tid ~label tr ]
    in
    let oc = open_out path in
    output_string oc json;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* The report.  Human-readable lines first, then as the last line of
   standard output one JSON object: correct, attempted, failed and the
   metrics, each with its unit. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let finite v = if Float.is_finite v then v else 0.0

let json_number v =
  let v = finite v in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter
    (fun x -> Printf.printf "metric %-36s %18.6f %s\n" x.name (finite x.value) x.unit_)
    r.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           (* names and units are plain identifiers: nothing to escape *)
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (json_number x.value) x.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed metrics

let note fmt = Printf.printf (fmt ^^ "\n%!")
