(* Workload [serve]: open loop at a fixed offered rate into a
   1-shard [Serve] session; every singleton request runs under
   [Engine.run_guarded].  The generator (this domain) and the shard
   worker make two domains; the generator sleeps between arrivals and
   never spins.

   Mix: the gallery stencils plus a dense 7 x 7 scalar Gaussian, which
   [Auto] routes to the FFT path, on 32 x 32 and 64 x 64 grids, spelled
   as [Text], [Pattern] or [Key].  Traffic shapes: single requests,
   duplicates across tenants (coalescing), same-source bursts of
   distinct stencils (batch windows), and a trickle of first-seen random
   stencils (cache misses, compiles, kernel builds).  No production
   trace exists; the mix is a seeded synthetic draw and its proportions
   are printed with every run.

   Why: the only workload with guards, queueing, coalescing, batching
   and the FFT path; the guards do most of its work. *)

open Common

(* Offered load: under a third of what one shard sustains on this mix
   (~345 req/s completed under overload on a 2-core x86-64 host), so
   queues stay short but real and latency tracks service time rather
   than queueing noise. *)
let rate = 100.0
let sizes = [| 32; 64 |]
let envs_per_size = 8
let tenants = [| "tenant-a"; "tenant-b"; "tenant-c"; "tenant-d" |]
let setup_reps = 5

let gauss7 () =
  let sigma = 2.0 in
  let raw =
    List.concat_map
      (fun dr ->
        List.map
          (fun dc ->
            (dr, dc, exp (-.float_of_int ((dr * dr) + (dc * dc)) /. (2.0 *. sigma *. sigma))))
          [ -3; -2; -1; 0; 1; 2; 3 ])
      [ -3; -2; -1; 0; 1; 2; 3 ]
  in
  let total = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 raw in
  Ccc.Pattern.create
    (List.map
       (fun (drow, dcol, w) ->
         Ccc.Tap.make (Ccc.Offset.make ~drow ~dcol) (Ccc.Coeff.Scalar (w /. total)))
       raw)

(* The catalogue with its draw weights (percent). *)
let catalogue =
  [|
    ("cross5", Ccc.Pattern.cross5 (), 25);
    ("square9", Ccc.Pattern.square9 (), 15);
    ("cross9", Ccc.Pattern.cross9 (), 15);
    ("diamond13", Ccc.Pattern.diamond13 (), 15);
    ("asymmetric5", Ccc.Pattern.asymmetric5 (), 10);
    ("gauss7", gauss7 (), 20);
  |]

(* Event shapes (percent): one request; a duplicate of one request from
   2-3 tenants at once; a burst of 3 distinct stencils over one source;
   one first-seen random stencil. *)
let p_single = 65
let p_duplicate = 15
let p_burst = 15

type spelling = Text | Pattern | Key
type kind = Single | Duplicate | Burst | Trickle

type req = {
  due : float;  (** seconds after the session start *)
  tenant : string;
  stencil : int;  (** index into [stencils] *)
  spelling : spelling;
  size : int;  (** index into [sizes] *)
  env : int;
  kind : kind;
}

type inputs = {
  stencils : Ccc.Pattern.t array;  (** catalogue, then the trickle *)
  texts : string array;
  envs : Ccc.Reference.env array array;  (** by size, then index *)
  reqs : req array;
  digest : string;
}

let spelling_name = function Text -> "text" | Pattern -> "pattern" | Key -> "key"

let kind_name = function
  | Single -> "single"
  | Duplicate -> "duplicate"
  | Burst -> "burst"
  | Trickle -> "trickle"

(* A shuffled deck holding each label in proportion to its weight,
   [n] cards in all (largest remainder): the schedule draws from decks
   rather than independently, so every seed offers the same mix and
   only the order, the arrival times and the data differ. *)
let deck st n weighted =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 weighted in
  let exact = List.map (fun (x, w) -> (x, float_of_int (n * w) /. float_of_int total)) weighted in
  let base = List.map (fun (x, e) -> (x, int_of_float e, e -. Float.of_int (int_of_float e))) exact in
  let short = n - List.fold_left (fun a (_, k, _) -> a + k) 0 base in
  let by_remainder = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) base in
  let cards =
    List.concat
      (List.mapi (fun i (x, k, _) -> List.init (if i < short then k + 1 else k) (fun _ -> x)) by_remainder)
  in
  let a = Array.of_list cards in
  shuffle st a;
  a

let generate ~seed ~seconds =
  let st = rng ~seed ~salt:2 in
  let ncat = Array.length catalogue in
  let stencils = ref (List.rev (Array.to_list (Array.map (fun (_, p, _) -> p) catalogue))) in
  let nstencils = ref ncat in
  let envs =
    Array.map
      (fun n -> Array.init envs_per_size (fun _ -> random_env st ~rows:n ~cols:n))
      sizes
  in
  let reqs = ref [] in
  let push r = reqs := r :: !reqs in
  (* mean requests per event, so the request rate is [rate] *)
  let per_event =
    ((float_of_int p_single *. 1.0) +. (float_of_int p_duplicate *. 2.5)
    +. (float_of_int p_burst *. 3.0)
    +. float_of_int (100 - p_single - p_duplicate - p_burst))
    /. 100.0
  in
  (* The session is cut into [parts] equal segments, each with the full
     mix (the latency percentiles are taken per part); within a segment
     the arrival gaps are drawn uniformly from half to one and a half
     times the mean gap, scaled to fill it. *)
  let span = seconds /. float_of_int parts in
  let per_segment = max 4 (int_of_float (Float.round (span *. rate /. per_event))) in
  for seg = 0 to parts - 1 do
    let kinds =
      deck st per_segment
        [ (Single, p_single); (Duplicate, p_duplicate); (Burst, p_burst);
          (Trickle, 100 - p_single - p_duplicate - p_burst) ]
    in
    let sizes_deck = deck st per_segment [ (0, 1); (1, 1) ] in
    let named =
      Array.fold_left (fun a k -> if k = Single || k = Duplicate then a + 1 else a) 0 kinds
    in
    let stencil_deck = deck st named (List.init ncat (fun i -> let _, _, w = catalogue.(i) in (i, w))) in
    let spelling_deck =
      deck st (4 * per_segment) [ (Text, 4); (Pattern, 3); (Key, 3) ]
    in
    let next_named = ref 0 and next_spelling = ref 0 in
    let draw_stencil () =
      let i = stencil_deck.(!next_named) in
      incr next_named;
      i
    in
    let draw_spelling () =
      let x = spelling_deck.(!next_spelling mod Array.length spelling_deck) in
      incr next_spelling;
      x
    in
    let draw_tenant () = tenants.(Random.State.int st (Array.length tenants)) in
    let gaps = Array.init per_segment (fun _ -> 0.5 +. Random.State.float st 1.0) in
    let scale = span /. (sum gaps +. 0.5 +. Random.State.float st 1.0) in
    let t = ref (float_of_int seg *. span) in
    Array.iteri
      (fun e kind ->
        t := !t +. (gaps.(e) *. scale);
        let due = !t and size = sizes_deck.(e) in
        let env = Random.State.int st envs_per_size in
        match kind with
        | Single ->
            push
              { due; tenant = draw_tenant (); stencil = draw_stencil (); spelling = draw_spelling ();
                size; env; kind }
        | Duplicate ->
            let stencil = draw_stencil () and spelling = draw_spelling () in
            let copies = 2 + (e mod 2) in
            let first = Random.State.int st (Array.length tenants) in
            for c = 0 to copies - 1 do
              push
                { due; tenant = tenants.((first + c) mod Array.length tenants); stencil; spelling;
                  size; env; kind }
            done
        | Burst ->
            (* three distinct compiled-path stencils (gauss7, last in
               the catalogue, is excluded: a batch is always compiled) *)
            let tenant = draw_tenant () in
            let pool = Array.init (ncat - 1) Fun.id in
            shuffle st pool;
            for c = 0 to 2 do
              push { due; tenant; stencil = pool.(c); spelling = draw_spelling (); size; env; kind }
            done
        | Trickle ->
            let p = random_pattern st in
            stencils := p :: !stencils;
            let spelling = if e mod 2 = 0 then Text else Pattern in
            push { due; tenant = draw_tenant (); stencil = !nstencils; spelling; size; env; kind };
            incr nstencils)
      kinds
  done;
  let stencils = Array.of_list (List.rev !stencils) in
  let texts = Array.map Ccc.Pattern.to_fortran stencils in
  let reqs = Array.of_list (List.rev !reqs) in
  let d = Digest_acc.create () in
  Array.iter (Digest_acc.add_string d) texts;
  Array.iter (Array.iter (List.iter (fun (_, g) -> Digest_acc.add_grid d g))) envs;
  Array.iter
    (fun r ->
      Digest_acc.add_string d
        (Printf.sprintf "%.0f %s %d %s %d %d %s" (r.due *. 1e6) r.tenant r.stencil
           (spelling_name r.spelling) sizes.(r.size) r.env (kind_name r.kind)))
    reqs;
  { stencils; texts; envs; reqs; digest = Digest_acc.hex d }

let settings = { Ccc.Engine.default_settings with jobs = 1 }

(* Set-up: [Serve.create] plus the catalogue warm-up — every catalogue
   stencil at both sizes, spelled as a [Pattern] (which also registers
   its key for later [Key] requests), submitted and awaited. *)
let setup inputs =
  let t0 = now_s () in
  let svc = Ccc.Serve.create ~settings ~shards:1 ~clock:now_us config in
  let ncat = Array.length catalogue in
  let tickets =
    List.concat_map
      (fun size ->
        List.init ncat (fun i ->
            Ccc.Serve.submit svc
              (Ccc.Request.v ~tenant:"warmup" ~env:inputs.envs.(size).(0)
                 (Ccc.Request.Pattern (inputs.stencils.(i))))))
      (List.init (Array.length sizes) Fun.id)
  in
  let ok =
    List.for_all
      (fun tk -> Ccc.Outcome.is_success (Ccc.Serve.wait svc tk).Ccc.Serve.outcome)
      tickets
  in
  if not ok then failwith "serve: catalogue warm-up failed";
  (svc, now_s () -. t0)

let setups inputs =
  let times = Array.make setup_reps 0.0 in
  let rec go i =
    settle ();
    let svc, dt = setup inputs in
    times.(i) <- dt;
    if i + 1 < setup_reps then begin
      Ccc.Serve.shutdown svc;
      go (i + 1)
    end
    else svc
  in
  let svc = go 0 in
  (svc, times)

(* What one request saw, on the generator's wall clock. *)
type seen = {
  lag : float;  (** s the generator ran late *)
  submit : float;  (** s inside [Serve.submit] *)
  start : float;  (** absolute wall time [submit] was called *)
  response : Ccc.Serve.response;
}

let latency s =
  s.lag +. s.submit +. ((s.response.queued_us +. s.response.service_us) /. 1e6)

(* One open-loop session over [reqs]: sleep until each request is due,
   submit it, move on; then drain and collect every response. *)
let session svc inputs reqs =
  let keys =
    Array.map (Ccc.Serve.key_of svc) inputs.stencils
  in
  let n = Array.length reqs in
  let tickets = Array.make n None in
  let timing = Array.make n (0.0, 0.0, 0.0) in
  let t0 = now_s () +. 0.01 in
  Array.iteri
    (fun i r ->
      let due = t0 +. r.due in
      let now = now_s () in
      if due > now then Unix.sleepf (due -. now);
      let stencil =
        match r.spelling with
        | Text -> Ccc.Request.Text inputs.texts.(r.stencil)
        | Pattern -> Ccc.Request.Pattern (inputs.stencils.(r.stencil))
        | Key -> Ccc.Request.Key keys.(r.stencil)
      in
      let request =
        Ccc.Request.v ~tenant:r.tenant ~env:inputs.envs.(r.size).(r.env) stencil
      in
      let start = now_s () in
      let tk = Ccc.Serve.submit svc request in
      let stop = now_s () in
      tickets.(i) <- Some tk;
      timing.(i) <- (start -. due, stop -. start, start))
    reqs;
  Ccc.Serve.shutdown svc;
  let seen =
    Array.mapi
      (fun i tk ->
        let lag, submit, start = timing.(i) in
        { lag; submit; start; response = Ccc.Serve.wait svc (Option.get tk) })
      tickets
  in
  (seen, t0)

(* Outcome and output check of every request, outside the timed
   region; references are computed once per (stencil, size, env). *)
let check inputs reqs seen =
  let refs = Hashtbl.create 64 in
  Array.mapi
    (fun i s ->
      let r = reqs.(i) in
      match s.response.Ccc.Serve.outcome with
      | Ccc.Outcome.Completed { result; _ } ->
          let key = (r.stencil, r.size, r.env) in
          let expected =
            match Hashtbl.find_opt refs key with
            | Some g -> g
            | None ->
                let g =
                  Ccc.Reference.apply (inputs.stencils.(r.stencil))
                    inputs.envs.(r.size).(r.env)
                in
                Hashtbl.add refs key g;
                g
          in
          Ccc.Grid.max_abs_diff expected result.Ccc.Exec.output <= tolerance
      | o ->
          note "request %d failed: %s" i (Ccc.Outcome.to_string o);
          false)
    seen

let describe inputs ~seconds =
  let reqs = inputs.reqs in
  let n = Array.length reqs in
  let share pred = 100.0 *. ratio (float_of_int (Array.fold_left (fun a r -> if pred r then a + 1 else a) 0 reqs)) (float_of_int n) in
  note "workload serve: open loop, %.0f req/s offered for %.3g s, 1 shard, run_guarded, %d tenants"
    rate seconds (Array.length tenants);
  note "mix: %s"
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun i (name, _, _) -> Printf.sprintf "%s %.1f%%" name (share (fun r -> r.stencil = i)))
             catalogue))
    ^ Printf.sprintf ", random %.1f%%" (share (fun r -> r.kind = Trickle)));
  note "shapes: single %.1f%%, duplicate %.1f%%, burst %.1f%%, trickle %.1f%%; sizes 32x32 %.1f%%, 64x64 %.1f%%"
    (share (fun r -> r.kind = Single)) (share (fun r -> r.kind = Duplicate))
    (share (fun r -> r.kind = Burst)) (share (fun r -> r.kind = Trickle))
    (share (fun r -> r.size = 0)) (share (fun r -> r.size = 1));
  note "spellings: text %.1f%%, pattern %.1f%%, key %.1f%%"
    (share (fun r -> r.spelling = Text)) (share (fun r -> r.spelling = Pattern))
    (share (fun r -> r.spelling = Key));
  note "requests %d, inputs digest %s" n inputs.digest

let summarize inputs reqs seen =
  let ok = check inputs reqs seen in
  let failed = Array.fold_left (fun a b -> if b then a else a + 1) 0 ok in
  let lat = Samples.create () and flops = ref 0.0 and model_s = ref 0.0 in
  Array.iteri
    (fun i s ->
      match s.response.Ccc.Serve.outcome with
      | Ccc.Outcome.Completed { result; _ } when ok.(i) ->
          Samples.push lat (latency s *. 1e3);
          let f, ms = modeled result.Ccc.Exec.stats in
          flops := !flops +. f;
          model_s := !model_s +. ms
      | _ -> ())
    seen;
  (failed, Samples.to_array lat, !flops, !model_s)

let run ~seed ~seconds =
  let inputs = generate ~seed ~seconds in
  describe inputs ~seconds;
  let svc, setup_times = setups inputs in
  let seen, t0 = session svc inputs inputs.reqs in
  let failed, lat, flops, model_s = summarize inputs inputs.reqs seen in
  let last_done =
    Array.fold_left (fun acc s -> Float.max acc (s.start -. s.lag +. latency s)) t0 seen
  in
  let completed = Array.length lat in
  let st = Ccc.Serve.stats svc in
  note "requests attempted %d, completed correctly %d, failed %d; windows %d, coalesced %d, shed %d"
    (Array.length seen) completed failed st.windows st.coalesced st.shed;
  note "latency sample count %d (p90 leaves %d beyond it)" completed (completed / 10);
  let ms f = Array.map f seen in
  let q f = (median (ms f), percentile 0.9 (ms f)) in
  let lag50, lag90 = q (fun s -> s.lag *. 1e3) in
  let sub50, sub90 = q (fun s -> s.submit *. 1e3) in
  let q50, q90 = q (fun s -> s.response.queued_us /. 1e3) in
  let sv50, sv90 = q (fun s -> s.response.service_us /. 1e3) in
  note "components p50/p90 ms: generator lag %.4f/%.4f, submit %.4f/%.4f, queue wait %.4f/%.4f, service %.4f/%.4f"
    lag50 lag90 sub50 sub90 q50 q90 sv50 sv90;
  note "setup_s samples: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  ( Array.length seen,
    failed,
    [
      m "setup_s" "s" (median setup_times);
      m "latency_p50_ms" "ms" (run_percentile 0.5 lat);
      m "latency_p90_ms" "ms" (run_percentile 0.9 lat);
      m "ops_per_s" "1/s" (ratio (float_of_int completed) (last_done -. t0));
      m "modeled_gflops" "GFLOP/s" (ratio flops model_s /. 1e9);
    ] )

(* ------------------------------------------------------------------ *)
(* The traced run.  Two sessions of [seconds / 2] over the same
   schedule, each on a fresh service: the first untraced, the second
   with a span around every [Serve.submit] and the response's queue
   wait and service time laid out as spans.  The shard's layers run on
   its worker domain, so the service time is split afterwards by
   replaying every executed class through the layers' public functions
   (see {!replay_session}); the admission-side layers,
   [Parser.parse_statement] and [Recognize.statement] for text requests
   and [Fingerprint.key] for every request, are timed on this domain. *)

(* The halo-padded source the transform path convolves, assembled on
   the host with the pattern's boundary semantics. *)
let padded_frame p x ~pad =
  let rows = Ccc.Grid.rows x and cols = Ccc.Grid.cols x in
  Ccc.Grid.init ~rows:(rows + (2 * pad)) ~cols:(cols + (2 * pad)) (fun r c ->
      let gr = r - pad and gc = c - pad in
      match Ccc.Pattern.boundary p with
      | Ccc.Boundary.Circular -> Ccc.Grid.get_circular x gr gc
      | Ccc.Boundary.End_off fill -> Ccc.Grid.get_endoff x ~fill gr gc)

(* Per-layer sums over the replay, seconds. *)
type replay = {
  mutable guarded : float;  (** [Engine.run_guarded] *)
  mutable unguarded : float;  (** [Engine.run] *)
  mutable check_output : float;
  mutable check_halo : float;
  mutable singles : int;
  mutable batch_s : float;
  mutable batches : int;
  mutable fft_n : int;
  mutable fft_s : float;
  mutable fft_cycles : float;
  mutable detections : int;
  mutable compiles : int;
  mutable compile_s : float;
  mutable rejected : int;
  mutable dyn_words : int;
  mutable regs : int;
  mutable compiled_ok : int;
  mutable kbuild_n : int;
  mutable kbuild_s : float;
  mutable fbuild_n : int;
  mutable fbuild_s : float;
}

let timed tr name f = time (fun () -> Spans.layer tr name f)

(* Replay every executed class of a session, in dispatch order and at
   the session's pace, on a fresh engine on a second domain — so cache
   misses, plan and arena rebuilds fall where they fell on the shard,
   and each run meets the conditions the shard's did (a runtime with
   two domains, caches gone cold while the worker idled; a back-to-back
   replay on the main domain ran a third faster and hid that time).
   Each [Engine.run_guarded] is followed by the layer calls that account
   for it: when the engine's counters show it compiled or built a
   transform plan, the same [Compile.compile] and [Kernel.build] or
   [Fft.build] standalone; then [Engine.run] (now a hit),
   [Guard.check_output], [Guard.check_halo] and, on the transform path,
   [Fft.execute].  Batch windows replay through [Engine.run_batch]. *)
let replay_session tr inputs reqs seen machine =
  let acc =
    { guarded = 0.0; unguarded = 0.0; check_output = 0.0; check_halo = 0.0; singles = 0;
      batch_s = 0.0; batches = 0; fft_n = 0; fft_s = 0.0; fft_cycles = 0.0; detections = 0;
      compiles = 0; compile_s = 0.0; rejected = 0; dyn_words = 0; regs = 0; compiled_ok = 0;
      kbuild_n = 0; kbuild_s = 0.0; fbuild_n = 0; fbuild_s = 0.0 }
  in
  let engine = Ccc.Engine.create ~settings config in
  (* Executed classes, in dispatch order: one per (window, size, env,
     stencil); a window group with several classes ran as one batch. *)
  let classes = Hashtbl.create 256 and order = ref [] in
  Array.iteri
    (fun i s ->
      let r = reqs.(i) and resp = s.response in
      if resp.Ccc.Serve.window >= 0 && resp.Ccc.Serve.batched > 0 then begin
        let key = (resp.Ccc.Serve.window, r.size, r.env, r.stencil) in
        if not (Hashtbl.mem classes key) then begin
          Hashtbl.add classes key (i, resp.Ccc.Serve.batched);
          order := key :: !order
        end
      end)
    seen;
  let order = List.rev !order in
  let compile p =
    let c, dt = timed tr "compiler" (fun () -> Ccc.Compile.compile config p) in
    acc.compiles <- acc.compiles + 1;
    acc.compile_s <- acc.compile_s +. dt;
    match c with
    | Ok c ->
        let w = Ccc.Compile.widest c in
        acc.rejected <- acc.rejected + List.length c.Ccc.Compile.rejected;
        acc.dyn_words <- acc.dyn_words + w.Ccc.Plan.dynamic_words;
        acc.regs <- acc.regs + w.Ccc.Plan.registers_used;
        acc.compiled_ok <- acc.compiled_ok + 1;
        let _, dt = timed tr "kernel_build" (fun () -> Ccc.Kernel.build config c) in
        acc.kbuild_n <- acc.kbuild_n + 1;
        acc.kbuild_s <- acc.kbuild_s +. dt
    | Error rej -> acc.rejected <- acc.rejected + List.length rej
  in
  let batch_done = Hashtbl.create 64 in
  let session_t0 = Array.fold_left (fun a s -> Float.min a s.start) infinity seen in
  let replay_t0 = now_s () in
  List.iter
    (fun ((w, size, envi, _) as key) ->
      let i, batched = Hashtbl.find classes key in
      let sd = seen.(i) in
      let due = replay_t0 +. (sd.start +. sd.submit +. (sd.response.Ccc.Serve.queued_us /. 1e6) -. session_t0) in
      let now = now_s () in
      if due > now then Unix.sleepf (due -. now);
      let r = reqs.(i) in
      let p = inputs.stencils.(r.stencil) in
      let env = inputs.envs.(size).(envi) in
      let rows = sizes.(size) in
      if batched > 1 then begin
        if not (Hashtbl.mem batch_done (w, size, envi)) then begin
          Hashtbl.add batch_done (w, size, envi) ();
          let patterns =
            List.filter_map
              (fun ((w', s', e', st') as k') ->
                if w' = w && s' = size && e' = envi && snd (Hashtbl.find classes k') > 1
                then Some (inputs.stencils.(st'))
                else None)
              order
          in
          Spans.root tr "replay" i (fun () ->
              let _, dt = timed tr "engine.run_batch" (fun () -> Ccc.Engine.run_batch engine patterns env) in
              acc.batch_s <- acc.batch_s +. dt;
              acc.batches <- acc.batches + 1)
        end
      end
      else begin
        let pad = Ccc.Pattern.max_border p in
        let boundary = Ccc.Pattern.boundary p and needs_corners = Ccc.Pattern.needs_corners p in
        let wm = Ccc.Machine.alloc_all machine ~words:0 in
        let source = Ccc.Dist.scatter machine (Ccc.Reference.lookup env "X") in
        let halo = Ccc.Halo.exchange ~source ~pad ~boundary ~needs_corners () in
        Spans.root tr "replay" i (fun () ->
            let before = Ccc.Engine.stats engine in
            let _, g = timed tr "engine.run_guarded" (fun () -> Ccc.Engine.run_guarded engine p env) in
            let after = Ccc.Engine.stats engine in
            if after.compiles > before.compiles then compile p;
            for _ = 1 to after.fft_builds - before.fft_builds do
              let _, dt = timed tr "fft_build" (fun () -> Ccc.Fft.build p ~rows ~cols:rows env) in
              acc.fbuild_n <- acc.fbuild_n + 1;
              acc.fbuild_s <- acc.fbuild_s +. dt
            done;
            let fft_runs = (Ccc.Engine.stats engine).fft_runs in
            let res, u = timed tr "engine.run" (fun () -> Ccc.Engine.run engine p env) in
            acc.guarded <- acc.guarded +. g;
            acc.unguarded <- acc.unguarded +. u;
            acc.singles <- acc.singles + 1;
            match res with
            | Error _ -> ()
            | Ok res ->
                let f, o =
                  timed tr "guard.check_output" (fun () -> Ccc.Guard.check_output p env res.Ccc.Exec.output)
                in
                let fh, h =
                  timed tr "guard.check_halo" (fun () ->
                      Ccc.Guard.check_halo ~source ~halo ~boundary ~needs_corners)
                in
                acc.detections <- acc.detections + List.length f + List.length fh;
                acc.check_output <- acc.check_output +. o;
                acc.check_halo <- acc.check_halo +. h;
                if (Ccc.Engine.stats engine).fft_runs > fft_runs then begin
                  let plan = Ccc.Fft.plan p ~rows ~cols:rows env in
                  let frame = padded_frame p (Ccc.Reference.lookup env "X") ~pad:(Ccc.Fft.pad plan) in
                  let _, f = timed tr "fft" (fun () -> Ccc.Fft.execute plan ~padded:frame) in
                  acc.fft_n <- acc.fft_n + 1;
                  acc.fft_s <- acc.fft_s +. f;
                  acc.fft_cycles <-
                    acc.fft_cycles +. float_of_int res.Ccc.Exec.stats.Ccc.Stats.compute_cycles
                end);
        Ccc.Machine.free_all_after machine wm
      end)
    order;
  Ccc.Engine.shutdown engine;
  acc

let run_traced ~seed ~seconds ~tr =
  let inputs = generate ~seed ~seconds in
  describe inputs ~seconds;
  note "traced run: one session, its spans rebuilt from measured times and response fields, then a paced replay of every executed class";
  let reqs = inputs.reqs in
  let layers = Layers.create () in
  let set = Layers.set layers in
  let fi = float_of_int in
  let svc, _ = setup inputs in
  let seen, _ = session svc inputs reqs in
  let st = Ccc.Serve.stats svc in
  let failed, _, _, _ = summarize inputs reqs seen in
  (* One operation tree per request: generator lag, submit, queue wait,
     service.  Nothing is recorded while the session runs, so tracing
     costs the session nothing. *)
  Array.iteri
    (fun i s ->
      let due = s.start -. s.lag in
      let q = s.response.queued_us /. 1e6 and sv = s.response.service_us /. 1e6 in
      Spans.interval tr "op" ~id:i ~ts:due ~dur:(latency s) (fun () ->
          Spans.leaf tr "gen.lag" ~ts:due ~dur:s.lag;
          Spans.leaf tr "serve.submit" ~ts:s.start ~dur:s.submit;
          Spans.leaf tr "serve.queue_wait" ~ts:(s.start +. s.submit) ~dur:q;
          Spans.leaf tr "serve.service" ~ts:(s.start +. s.submit +. q) ~dur:sv))
    seen;
  settle ();
  (* front end and fingerprint: once per submitted request, as at
     admission *)
  let fe_n = ref 0 and fe_s = ref 0.0 and fe_bytes = ref 0 in
  let fp_n = ref 0 and fp_s = ref 0.0 in
  Array.iteri
    (fun i r ->
      let p = inputs.stencils.(r.stencil) in
      Spans.root tr "admit" i (fun () ->
          if r.spelling = Text then begin
            let text = inputs.texts.(r.stencil) in
            let _, dt =
              timed tr "frontend" (fun () -> Ccc.Recognize.statement (Ccc.Parser.parse_statement text))
            in
            incr fe_n;
            fe_s := !fe_s +. dt;
            fe_bytes := !fe_bytes + String.length text
          end;
          let _, dt = timed tr "fingerprint" (fun () -> Ccc.Fingerprint.key config p) in
          incr fp_n;
          fp_s := !fp_s +. dt))
    reqs;
  let machine, machine_s = time (fun () -> Ccc.machine config) in
  let machine_mb =
    fi (Ccc.Machine.node_count machine * Ccc_cm2.Memory.words (Ccc.Machine.memory machine 0) * 8) /. 1e6
  in
  (* the tracer is written only by the replay domain until the join *)
  let acc = Domain.join (Domain.spawn (fun () -> replay_session tr inputs reqs seen machine)) in
  set "frontend.calls" (fi !fe_n);
  set "frontend.us_per_call" (ratio !fe_s (fi !fe_n) *. 1e6);
  set "frontend.src_mb_per_s" (ratio (fi !fe_bytes) !fe_s /. 1e6);
  set "fingerprint.calls" (fi !fp_n);
  set "fingerprint.us_per_call" (ratio !fp_s (fi !fp_n) *. 1e6);
  set "compiler.calls" (fi acc.compiles);
  set "compiler.ms_per_call" (ratio acc.compile_s (fi acc.compiles) *. 1e3);
  set "compiler.widths_rejected" (fi acc.rejected);
  set "compiler.dynamic_words" (ratio (fi acc.dyn_words) (fi acc.compiled_ok));
  set "compiler.registers_used" (ratio (fi acc.regs) (fi acc.compiled_ok));
  set "machine.creates" 1.0;
  set "machine.ms_per_create" (machine_s *. 1e3);
  set "machine.mb_allocated" machine_mb;
  (match st.engines with
  | (_, es) :: _ ->
      set "engine.cache.hit_ratio" (ratio (fi es.hits) (fi (es.hits + es.misses)));
      set "engine.cache.misses" (fi es.misses);
      set "engine.cache.evictions" (fi es.evictions);
      set "engine.arena.reuse_ratio"
        (ratio (fi es.arena_reuses) (fi (es.arena_reuses + es.arena_rebuilds)))
  | [] -> ());
  set "engine.run.ms" (ratio acc.unguarded (fi acc.singles) *. 1e3);
  set "kernel_build.calls" (fi acc.kbuild_n);
  set "kernel_build.ms_per_call" (ratio acc.kbuild_s (fi acc.kbuild_n) *. 1e3);
  set "fft_build.calls" (fi acc.fbuild_n);
  set "fft_build.ms_per_call" (ratio acc.fbuild_s (fi acc.fbuild_n) *. 1e3);
  set "fft.calls" (fi acc.fft_n);
  set "fft.ms" (ratio acc.fft_s (fi acc.fft_n) *. 1e3);
  set "fft.modeled_cycles" (ratio acc.fft_cycles (fi acc.fft_n));
  set "fft.host_ns_per_modeled_cycle" (ratio (acc.fft_s *. 1e9) acc.fft_cycles);
  set "guard.check_output.ms" (ratio acc.check_output (fi acc.singles) *. 1e3);
  set "guard.check_halo.ms" (ratio acc.check_halo (fi acc.singles) *. 1e3);
  set "guard.share" (ratio (acc.guarded -. acc.unguarded) acc.guarded);
  let degraded =
    Array.fold_left
      (fun a s -> match s.response.Ccc.Serve.outcome with Ccc.Outcome.Degraded _ -> a + 1 | _ -> a)
      0 seen
  in
  set "guard.detections" (fi (acc.detections + degraded));
  let q = Array.map (fun s -> s.response.Ccc.Serve.queued_us /. 1e3) seen in
  let sv = Array.map (fun s -> s.response.Ccc.Serve.service_us /. 1e3) seen in
  set "serve.submit_us" (mean (Array.map (fun s -> s.submit *. 1e6) seen));
  set "serve.queue_wait_p50_ms" (median q);
  set "serve.queue_wait_p90_ms" (percentile 0.9 q);
  set "serve.service_p50_ms" (median sv);
  set "serve.service_p90_ms" (percentile 0.9 sv);
  set "serve.windows" (fi st.windows);
  set "serve.batch_mean" (ratio (fi st.admitted) (fi st.windows));
  set "serve.coalesced_ratio" (ratio (fi st.coalesced) (fi st.admitted));
  set "serve.shed" (fi st.shed);
  let comm = ref 0.0 and compute = ref 0.0 and ncomp = ref 0 in
  Array.iter
    (fun s ->
      match s.response.Ccc.Serve.outcome with
      | Ccc.Outcome.Completed { result; _ } ->
          incr ncomp;
          comm := !comm +. fi result.Ccc.Exec.stats.Ccc.Stats.comm_cycles;
          compute := !compute +. fi result.Ccc.Exec.stats.Ccc.Stats.compute_cycles
      | _ -> ())
    seen;
  set "model.comm_cycles" (ratio !comm (fi !ncomp));
  set "model.compute_cycles" (ratio !compute (fi !ncomp));
  set "gen.lag_p90_ms" (percentile 0.9 (Array.map (fun s -> s.lag *. 1e3) seen));
  set "trace.overhead_pct" 0.0;
  (* Accounting: the replayed layer self times (compile, builds, the
     unguarded engine run, both guard checks, batch runs) against the
     worker's busy time in the traced session, which is per window its
     longest service time. *)
  let busy = Hashtbl.create 256 in
  Array.iter
    (fun s ->
      let w = s.response.Ccc.Serve.window in
      if w >= 0 then
        Hashtbl.replace busy w
          (Float.max s.response.Ccc.Serve.service_us
             (Option.value ~default:0.0 (Hashtbl.find_opt busy w))))
    seen;
  let busy_s = Hashtbl.fold (fun _ v a -> a +. v) busy 0.0 /. 1e6 in
  let replayed_s =
    acc.unguarded +. acc.check_output +. acc.check_halo +. acc.compile_s +. acc.kbuild_s
    +. acc.fbuild_s +. acc.batch_s
  in
  set "trace.accounted_pct" (100.0 *. ratio replayed_s busy_s);
  note "replayed classes: %d singletons, %d batches; per singleton run_guarded %.4f ms, run %.4f ms"
    acc.singles acc.batches
    (ratio acc.guarded (fi acc.singles) *. 1e3)
    (ratio acc.unguarded (fi acc.singles) *. 1e3);
  note "accounting: replayed layer time %.1f ms over in-session worker busy time %.1f ms"
    (replayed_s *. 1e3) (busy_s *. 1e3);
  let untraced_us = sum (Array.map (fun s -> latency s *. 1e6) seen) in
  Layers.print_self_times ~ops:(Array.length reqs) ~untraced_us tr;
  Layers.print_self_times ~root:"admit" ~ops:(Array.length reqs) ~untraced_us tr;
  Layers.print_self_times ~root:"replay" ~ops:(Array.length reqs) ~untraced_us tr;
  (Array.length reqs, failed, layers)
