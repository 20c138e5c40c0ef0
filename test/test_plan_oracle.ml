(* The compiler's plan passes against their oracles.

   [Schedule.build_multi], [Schedule.check_hazards] and [Verify.verify]
   run over flat tables; [Plan_oracle] keeps the list-and-hash-table
   versions they replaced.  The two must agree exactly: every plan and
   every rejected width of [Compile.compile] and [Compile.compile_fused],
   and every hazard verdict and verifier finding — on compiled plans,
   on every [Mutate] mutant and on hand-corrupted plans.  Beside that
   equivalence this suite pins the size-0 ring fix (the oracles divide
   by zero there) and a deterministic allocation budget for the
   verifier and the compiler. *)

module Q = QCheck2
module Gen = QCheck2.Gen
module Finding = Ccc_analysis.Finding
module Verify = Ccc_analysis.Verify
module Mutate = Ccc_analysis.Mutate
module Compile = Ccc_compiler.Compile
module Schedule = Ccc_compiler.Schedule
module Plan = Ccc_microcode.Plan
module Instr = Ccc_microcode.Instr
module Pattern = Ccc.Pattern

let config = Ccc.Config.default
let nregs = config.Ccc.Config.fpu_registers

(* ------------------------------------------------------------------ *)
(* Hand-corrupted plans *)

let with_phase (plan : Plan.t) p f =
  {
    plan with
    Plan.phases =
      Array.mapi (fun i ph -> if i = p then f ph else ph) plan.Plan.phases;
  }

(* Rewrite the first slot of a section that [f] changes. *)
let first_slot f slots =
  let rec go = function
    | [] -> []
    | slot :: rest -> (
        match f slot with Some slot' -> slot' :: rest | None -> slot :: go rest)
  in
  go slots

(* The first multiply-add of phase [p] rewritten by [f]. *)
let madds (plan : Plan.t) p f =
  with_phase plan p (fun ph ->
      {
        ph with
        Plan.madds =
          first_slot
            (function Instr.Madd _ as slot -> Some (f slot) | _ -> None)
            ph.Plan.madds;
      })

let corruptions (plan : Plan.t) =
  let last = Array.length plan.Plan.phases - 1 in
  let one = Option.value plan.Plan.one_reg ~default:plan.Plan.zero_reg in
  let nterms = Array.length plan.Plan.coeff_streams in
  let phase0 = plan.Plan.phases.(0) in
  [
    (* the phase table disagrees with the unroll factor *)
    ("unroll + 1", { plan with Plan.unroll = plan.Plan.unroll + 1 });
    ( "a phase too many",
      { plan with Plan.phases = Array.append plan.Plan.phases [| phase0 |] } );
    ("first phase only", { plan with Plan.phases = [| phase0 |] });
    (* out-of-range registers *)
    ( "madd destination past the file",
      madds plan 0 (function
        | Instr.Madd m -> Instr.Madd { m with dst = nregs + 3 }
        | slot -> slot) );
    ("madd data r-1", madds plan 0 (function
        | Instr.Madd m -> Instr.Madd { m with data = -1 }
        | slot -> slot));
    ( "madd accumulator past the allocation",
      madds plan last (function
        | Instr.Madd m -> Instr.Madd { m with acc = plan.Plan.registers_used }
        | slot -> slot) );
    ( "store past the file",
      with_phase plan 0 (fun ph ->
          {
            ph with
            Plan.stores =
              first_slot
                (function
                  | Instr.Store s ->
                      Some (Instr.Store { s with reg = nregs + 7 })
                  | _ -> None)
                ph.Plan.stores;
          }) );
    ( "load past the file",
      with_phase plan last (fun ph ->
          {
            ph with
            Plan.loads =
              first_slot
                (function
                  | Instr.Load l -> Some (Instr.Load { l with reg = nregs + 1 })
                  | _ -> None)
                ph.Plan.loads;
          }) );
    ( "warmup load r-2",
      {
        plan with
        Plan.prologue =
          Array.map
            (first_slot (function
              | Instr.Load l -> Some (Instr.Load { l with reg = -2 })
              | _ -> None))
            plan.Plan.prologue;
      } );
    (* pinned registers *)
    ( "madd writes the pinned zero",
      madds plan 0 (function
        | Instr.Madd m -> Instr.Madd { m with dst = plan.Plan.zero_reg }
        | slot -> slot) );
    ( "madd reads a pinned register",
      madds plan last (function
        | Instr.Madd m -> Instr.Madd { m with data = one }
        | slot -> slot) );
    ( "load overwrites the pinned zero",
      with_phase plan 0 (fun ph ->
          {
            ph with
            Plan.loads =
              first_slot
                (function
                  | Instr.Load l ->
                      Some (Instr.Load { l with reg = plan.Plan.zero_reg })
                  | _ -> None)
                ph.Plan.loads;
          }) );
    ( "ring over the pinned zero",
      {
        plan with
        Plan.rings =
          (match plan.Plan.rings with
          | r :: rest -> { r with Plan.base = plan.Plan.zero_reg } :: rest
          | [] -> []);
      } );
    (* a dropped store *)
    ( "first store dropped",
      with_phase plan 0 (fun ph ->
          { ph with Plan.stores = List.tl ph.Plan.stores }) );
    ( "last store dropped",
      with_phase plan last (fun ph ->
          {
            ph with
            Plan.stores = List.rev (List.tl (List.rev ph.Plan.stores));
          }) );
    (* a wrong stream table *)
    ( "streams reversed",
      {
        plan with
        Plan.coeff_streams =
          Array.of_list (List.rev (Array.to_list plan.Plan.coeff_streams));
      } );
    ( "a stream short",
      {
        plan with
        Plan.coeff_streams = Array.sub plan.Plan.coeff_streams 0 (nterms - 1);
      } );
    ( "a stream too many",
      {
        plan with
        Plan.coeff_streams =
          Array.append plan.Plan.coeff_streams [| Ccc.Coeff.One |];
      } );
    ( "stream index past the table",
      madds plan 0 (function
        | Instr.Madd m -> Instr.Madd { m with coeff_index = nterms + 2 }
        | slot -> slot) );
    ( "stream index -1",
      madds plan last (function
        | Instr.Madd m -> Instr.Madd { m with coeff_index = -1 }
        | slot -> slot) );
    (* a dishonest word count *)
    ( "word count + 1",
      { plan with Plan.dynamic_words = plan.Plan.dynamic_words + 1 } );
    (* timing: reads after their overwrite lands, and a load into a
       register the first multiply-add writes (under [slow_loads] the
       two land on one cycle) *)
    ( "multiply-adds reversed",
      with_phase plan 0 (fun ph ->
          { ph with Plan.madds = List.rev ph.Plan.madds })
    );
    ( "last load retargeted to the first multiply-add's destination",
      with_phase plan 0 (fun ph ->
          match
            List.find_opt
              (function Instr.Madd _ -> true | _ -> false)
              ph.Plan.madds
          with
          | Some (Instr.Madd { dst; _ }) ->
              {
                ph with
                Plan.loads =
                  List.rev
                    (first_slot
                       (function
                         | Instr.Load l ->
                             Some (Instr.Load { l with reg = dst })
                         | _ -> None)
                       (List.rev ph.Plan.loads));
              }
          | _ -> ph) );
    (* malformed sections and ring tables *)
    ( "madd moved to the stores",
      with_phase plan 0 (fun ph ->
          match ph.Plan.madds with
          | m :: rest ->
              { ph with Plan.madds = rest; stores = ph.Plan.stores @ [ m ] }
          | [] -> ph) );
    ( "store moved to the loads",
      with_phase plan last (fun ph ->
          match ph.Plan.stores with
          | s :: rest ->
              { ph with Plan.stores = rest; loads = s :: ph.Plan.loads }
          | [] -> ph) );
    ( "load moved to the madds",
      with_phase plan 0 (fun ph ->
          match ph.Plan.loads with
          | l :: rest ->
              { ph with Plan.loads = rest; madds = l :: ph.Plan.madds }
          | [] -> ph) );
    ( "a duplicated ring",
      { plan with Plan.rings = plan.Plan.rings @ [ List.hd plan.Plan.rings ] }
    );
    ( "ring 0 takes ring 1's column",
      {
        plan with
        Plan.rings =
          (match plan.Plan.rings with
          | r0 :: r1 :: rest ->
              { r0 with Plan.src = r1.Plan.src; dcol = r1.Plan.dcol }
              :: r1 :: rest
          | rings -> rings);
      } );
    ( "ring 1 and its load take ring 0's column",
      match plan.Plan.rings with
      | r0 :: r1 :: rest ->
          let plan =
            {
              plan with
              Plan.rings =
                r0 :: { r1 with Plan.src = r0.Plan.src; dcol = r0.Plan.dcol }
                :: rest;
            }
          in
          with_phase plan 0 (fun ph ->
              {
                ph with
                Plan.loads =
                  List.mapi
                    (fun k slot ->
                      match slot with
                      | Instr.Load l when k = 1 ->
                          Instr.Load
                            { l with src = r0.Plan.src; dcol = r0.Plan.dcol }
                      | slot -> slot)
                    ph.Plan.loads;
              })
      | _ -> plan );
    ( "a ring of an unknown source",
      {
        plan with
        Plan.rings =
          List.map
            (fun (r : Plan.ring) ->
              if r == List.hd plan.Plan.rings then { r with Plan.src = 9 }
              else r)
            plan.Plan.rings;
      } );
  ]

(* Every plan the passes must judge alike: the plan itself, its
   mutants and its corruptions. *)
let variants plan =
  (("compiled", plan)
   :: List.map
        (fun (m : Mutate.mutant) -> (m.Mutate.description, m.Mutate.plan))
        (Mutate.mutants plan))
  @ corruptions plan

(* ------------------------------------------------------------------ *)
(* Agreement *)

type 'a verdict = Returned of 'a | Failed of Finding.t list | Raised of string

let verdict f =
  match f () with
  | v -> Returned v
  | exception Finding.Failed fs -> Failed fs
  | exception e -> Raised (Printexc.to_string e)

let show_verdict show = function
  | Returned v -> "returned " ^ show v
  | Failed fs -> "failed: " ^ String.concat "; " (List.map Finding.to_string fs)
  | Raised e -> "raised " ^ e

let show_findings fs =
  "[" ^ String.concat "; " (List.map Finding.to_string fs) ^ "]"

(* [None] when both passes judge [plan] alike, else what differs. *)
let disagreement ?(config = config) (name, plan) =
  let hazards = verdict (fun () -> Schedule.check_hazards config plan) in
  let hazards' =
    verdict (fun () -> Plan_oracle.Schedule.check_hazards config plan)
  in
  let findings = verdict (fun () -> Verify.verify config plan) in
  let findings' = verdict (fun () -> Plan_oracle.Verify.verify config plan) in
  if hazards <> hazards' then
    Some
      (Printf.sprintf "%s: check_hazards %s, oracle %s" name
         (show_verdict (fun () -> "()") hazards)
         (show_verdict (fun () -> "()") hazards'))
  else if findings <> findings' then
    Some
      (Printf.sprintf "%s (width %d): verify %s, oracle %s" name plan.Plan.width
         (show_verdict show_findings findings)
         (show_verdict show_findings findings'))
  else None

let all_agree plans =
  match List.find_map disagreement (List.concat_map variants plans) with
  | None -> true
  | Some what -> Q.Test.fail_report what

let show_widths = function
  | Ok plans ->
      String.concat ", "
        (List.map (fun (p : Plan.t) -> string_of_int p.Plan.width) plans)
  | Error rejected ->
      "none: "
      ^ String.concat "; "
          (List.map
             (fun (w, f) -> Printf.sprintf "%d %s" w (Finding.to_string f))
             rejected)

let prop_compile_matches_oracle =
  Q.Test.make ~name:"compile = oracle pipeline; checks agree on every variant"
    ~count:150 ~print:Tutil.print_pattern Tutil.gen_pattern (fun p ->
      let got = Compile.compile config p in
      if got <> Plan_oracle.compile config p then
        Q.Test.fail_reportf "compile differs from the oracle (widths %s)"
          (show_widths (Result.map (fun c -> c.Compile.plans) got));
      match got with Ok c -> all_agree c.Compile.plans | Error _ -> true)

let prop_compile_fused_matches_oracle =
  Q.Test.make
    ~name:"compile_fused = oracle pipeline; checks agree on every variant"
    ~count:80 ~print:Tutil.print_multi (Tutil.gen_multi_biased Gen.bool)
    (fun m ->
      let got = Compile.compile_fused config m in
      if got <> Plan_oracle.compile_fused config m then
        Q.Test.fail_reportf "compile_fused differs from the oracle (widths %s)"
          (show_widths (Result.map (fun c -> c.Compile.fused_plans) got));
      match got with
      | Ok c -> all_agree c.Compile.fused_plans
      | Error _ -> true)

let gallery_plans () =
  List.concat_map
    (fun (_, p) ->
      match Compile.compile config p with
      | Ok c -> c.Compile.plans
      | Error _ -> [])
    (Pattern.gallery ())
  @
  match Compile.compile_fused config (Ccc.Seismic.fused_kernel ()) with
  | Ok f -> f.Compile.fused_plans
  | Error _ -> []

(* A load latency that lands the last load of a line on the cycle the
   first multiply-add's result lands: with a corrupted register the two
   writes tie, and which one a later read observes is the history's tie
   rule. *)
let slow_loads =
  {
    config with
    Ccc.Config.load_latency =
      config.Ccc.Config.memory_op_cycles
      + config.Ccc.Config.pipe_reversal_cycles
      + config.Ccc.Config.madd_writeback_latency;
  }

let test_gallery_agrees () =
  List.iter
    (fun (name, p) ->
      if Compile.compile config p <> Plan_oracle.compile config p then
        Alcotest.failf "%s: compile differs from the oracle" name)
    (Pattern.gallery ());
  let seismic = Ccc.Seismic.fused_kernel () in
  if Compile.compile_fused config seismic
     <> Plan_oracle.compile_fused config seismic
  then Alcotest.fail "fused seismic: compile_fused differs from the oracle";
  List.iter
    (fun config ->
      match
        List.find_map (disagreement ~config)
          (List.concat_map variants (gallery_plans ()))
      with
      | None -> ()
      | Some what -> Alcotest.fail what)
    [ config; slow_loads ]

(* With a one-cycle writeback, a pair partner's read of the other
   chain's tagged register can no longer beat its overwrite: widths are
   rejected as infeasible, and the scheduler's findings must match the
   oracle's, cycle for cycle. *)
let short_writeback = { config with Ccc.Config.madd_writeback_latency = 1 }

let test_infeasible_agrees () =
  let infeasible = ref 0 in
  List.iter
    (fun (name, p) ->
      let got = Compile.compile short_writeback p in
      if got <> Plan_oracle.compile short_writeback p then
        Alcotest.failf "%s: compile under a one-cycle writeback differs" name;
      let rejected =
        match got with Ok c -> c.Compile.rejected | Error r -> r
      in
      List.iter
        (fun (_, (f : Finding.t)) ->
          if f.Finding.check = Finding.Infeasible then incr infeasible)
        rejected)
    (Pattern.gallery ());
  Alcotest.(check bool) "some width is rejected as infeasible" true
    (!infeasible > 0)

let prop_infeasible_matches_oracle =
  Q.Test.make ~name:"one-cycle writeback: compile = oracle pipeline" ~count:80
    ~print:Tutil.print_pattern Tutil.gen_pattern (fun p ->
      Compile.compile short_writeback p = Plan_oracle.compile short_writeback p)

(* ------------------------------------------------------------------ *)
(* A size-0 ring is a finding, not a division by zero *)

let cross5_w8 () =
  match Compile.compile config (Pattern.cross5 ()) with
  | Ok c -> Option.get (Compile.plan_for_width c 8)
  | Error _ -> Alcotest.fail "cross5 does not compile"

let size0 () =
  let plan = cross5_w8 () in
  {
    plan with
    Plan.rings =
      (match plan.Plan.rings with
      | r :: rest -> { r with Plan.size = 0 } :: rest
      | [] -> Alcotest.fail "cross5 has no ring");
  }

let test_size0_ring_verify () =
  let fs = Verify.verify config (size0 ()) in
  Alcotest.(check bool)
    "the size-0 ring is a ring-layout finding" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.check = Finding.Ring_layout
         && f.Finding.message = "ring for source 0 column -1 has size 0")
       fs);
  Alcotest.(check bool)
    "the oracle divides by zero" true
    (match Plan_oracle.Verify.verify config (size0 ()) with
    | _ -> false
    | exception Division_by_zero -> true)

let test_size0_ring_hazards () =
  (match Schedule.check_hazards config (size0 ()) with
  | () -> Alcotest.fail "check_hazards passed a size-0 ring"
  | exception Finding.Failed [ f ] ->
      Alcotest.(check string)
        "finding"
        "error[ring-layout] phase 0: ring for source 0 column -1 has size 0"
        (Finding.to_string f)
  | exception Finding.Failed fs ->
      Alcotest.failf "expected one finding: %s" (show_findings fs));
  Alcotest.(check bool)
    "the oracle divides by zero" true
    (match Plan_oracle.Schedule.check_hazards config (size0 ()) with
    | () -> false
    | exception Division_by_zero -> true)

(* ------------------------------------------------------------------ *)
(* Allocation budget *)

(* Words a call allocates on either heap, large blocks included: the
   forced minor collections bring the counters up to date, and the
   words they promote are not counted twice.  A collection that lands
   inside the call can still inflate one reading, never deflate it, so
   the least of three readings is the call's own allocation —
   deterministic for a given build, and so a bound that holds on any
   host. *)
let allocated f =
  let total () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let once () =
    let before = total () in
    ignore (Sys.opaque_identity (f ()));
    total () -. before
  in
  min (once ()) (min (once ()) (once ()))

(* The dynamic parts the verifier interprets: the warmup prologue, then
   one line per phase over the unroll period plus the longest ring and
   one line more (the liveness tail). *)
let interpreted_parts (plan : Plan.t) =
  let max_ring =
    List.fold_left
      (fun m (r : Plan.ring) -> max m r.Plan.size)
      1 plan.Plan.rings
  in
  let parts (ph : Plan.phase) =
    List.length ph.Plan.loads + List.length ph.Plan.madds
    + List.length ph.Plan.stores
  in
  let n =
    ref (Array.fold_left (fun a l -> a + List.length l) 0 plan.Plan.prologue)
  in
  for line = 0 to plan.Plan.unroll + max_ring do
    n := !n + parts plan.Plan.phases.(line mod plan.Plan.unroll)
  done;
  !n

(* The rewritten passes take 2-11 words per part and 17-35 k words per
   gallery statement, where the list-based ones took 39-63 words per
   part and 61-238 k words per statement. *)
let verify_words_per_part = 16.0
let compile_words_per_statement = 50_000.0

(* The verifier's write log is one array per domain, grown to the
   largest interpretation run there; warm it up before measuring. *)
let warm_up () =
  List.iter (fun plan -> ignore (Verify.verify config plan)) (gallery_plans ())

let test_verify_allocation () =
  warm_up ();
  List.iter
    (fun (plan : Plan.t) ->
      let words = allocated (fun () -> Verify.verify config plan) in
      let per_part = words /. float_of_int (interpreted_parts plan) in
      if per_part > verify_words_per_part then
        Alcotest.failf
          "Verify.verify on a width-%d plan allocates %.1f words per dynamic \
           part (%.0f words for %d parts); the budget is %.0f"
          plan.Plan.width per_part words (interpreted_parts plan)
          verify_words_per_part)
    (gallery_plans ())

let test_compile_allocation () =
  warm_up ();
  List.iter
    (fun (name, p) ->
      let words = allocated (fun () -> Compile.compile config p) in
      if words > compile_words_per_statement then
        Alcotest.failf
          "Compile.compile of %s allocates %.0f words; the budget is %.0f" name
          words compile_words_per_statement)
    (Pattern.gallery ())

let () =
  Alcotest.run "plan oracle"
    [
      ( "equivalence",
        Alcotest.test_case "gallery and fused seismic" `Quick
          test_gallery_agrees
        :: Alcotest.test_case "infeasible widths" `Quick test_infeasible_agrees
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_compile_matches_oracle;
               prop_compile_fused_matches_oracle;
               prop_infeasible_matches_oracle;
             ]
      );
      ( "size-0 ring",
        [
          Alcotest.test_case "verify reports it" `Quick test_size0_ring_verify;
          Alcotest.test_case "check_hazards reports it" `Quick
            test_size0_ring_hazards;
        ] );
      ( "allocation budget",
        [
          Alcotest.test_case "verify words per dynamic part" `Quick
            test_verify_allocation;
          Alcotest.test_case "compile words per statement" `Quick
            test_compile_allocation;
        ] );
    ]
