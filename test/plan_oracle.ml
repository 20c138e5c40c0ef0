(* The plan passes as they stood before they moved to flat tables:
   [Schedule.build_multi] (with [build]), [Schedule.check_hazards] and
   [Verify.verify], over lists, tuples and hash tables.  Test-only:
   they are the oracles the rewritten passes must match value for
   value, finding for finding ([test_plan_oracle.ml]). *)

module Schedule = struct
  open Ccc_stencil
  module Regalloc = Ccc_compiler.Regalloc
  module Plan = Ccc_microcode.Plan
  module Instr = Ccc_microcode.Instr

  module Finding = Ccc_analysis.Finding

  exception Infeasible of Finding.t

  let infeasible ?phase ?cycle fmt =
    Format.kasprintf
      (fun m ->
        raise (Infeasible (Finding.make ?phase ?cycle Finding.Infeasible m)))
      fmt

  (* The slots a chain occupies in the multiply-add section are fixed by
     the pair structure alone (section 5.3: results are computed in
     interleaved pairs), so issue cycles are known before tap ordering:
     pair [p] starts after [p] full pairs, the two chains of a pair issue
     on alternate slots, and a final unpartnered chain interleaves with
     discarded-slot nops to preserve its own accumulate spacing. *)
  type chain_layout = {
    first_issue : int array;  (** cycle of each chain's first multiply-add *)
    section_cycles : int;  (** total length of the multiply-add section *)
  }

  let layout_chains (config : Ccc_cm2.Config.t) ~width ~chain_len =
    let madd = config.madd_issue_cycles in
    let first_issue = Array.make width 0 in
    let cycle = ref 0 in
    let emit_slot chain i =
      if i = 0 then first_issue.(chain) <- !cycle;
      cycle := !cycle + madd
    in
    let rec pairs j =
      if j < width then
        if j + 1 < width then begin
          for i = 0 to chain_len - 1 do
            emit_slot j i;
            emit_slot (j + 1) i
          done;
          pairs (j + 2)
        end
        else
          (* Lone final chain: a nop after each multiply-add keeps the
             accumulator spacing; the trailing nop is dropped. *)
          for i = 0 to chain_len - 1 do
            emit_slot j i;
            if i < chain_len - 1 then incr cycle
          done
    in
    pairs 0;
    { first_issue; section_cycles = !cycle }

  type ring_info = {
    ring : Plan.ring;
    occupied : int list;  (** row offsets present in this column *)
  }

  (* Lay the merged ring buffers out over the register file, source
     after source, column after column, starting just past the pinned
     registers. *)
  let build_rings multistencils (alloc : Regalloc.merged_allocation) ~first_data
      =
    let base = ref first_data in
    List.map
      (fun ((src, dcol), size) ->
        let ms = List.assoc src multistencils in
        let column =
          List.find
            (fun (c : Multistencil.column) -> c.dcol = dcol)
            (Multistencil.columns ms)
        in
        let min_drow = List.hd column.Multistencil.occupied in
        let ring = { Plan.src; dcol; base = !base; size; min_drow } in
        base := !base + size;
        { ring; occupied = column.Multistencil.occupied })
      alloc.Regalloc.merged_sizes

  let build_multi config (multi : Multi.t) multistencils
      (alloc : Regalloc.merged_allocation) =
    let source_taps = Multi.taps multi in
    let ntaps = List.length source_taps in
    let bias = Multi.bias multi in
    let zero_reg = 0 in
    let one_reg = match bias with Some _ -> Some 1 | None -> None in
    let first_data = match one_reg with Some _ -> 2 | None -> 1 in
    let registers_used = first_data + alloc.Regalloc.merged_registers in
    if registers_used > config.Ccc_cm2.Config.fpu_registers then
      failwith
        (Printf.sprintf
           "Schedule.build: allocation needs %d registers but the file has %d"
           registers_used config.Ccc_cm2.Config.fpu_registers);
    let rings = build_rings multistencils alloc ~first_data in
    let ring_of src dcol =
      match
        List.find_opt
          (fun r -> r.ring.Plan.src = src && r.ring.Plan.dcol = dcol)
          rings
      with
      | Some r -> r
      | None -> infeasible "no ring buffer for source %d column %d" src dcol
    in
    let reg_of_position ~line ~src (off : Offset.t) =
      let { ring; _ } = ring_of src off.dcol in
      Plan.ring_register ring ~line ~depth:(off.drow - ring.Plan.min_drow)
    in
    let width =
      match multistencils with
      | (_, ms) :: _ -> Multistencil.width ms
      | [] -> invalid_arg "Schedule.build_multi: no sources"
    in
    let chain_len = ntaps + (match bias with Some _ -> 1 | None -> 0) in
    let layout = layout_chains config ~width ~chain_len in
    let wb = config.Ccc_cm2.Config.madd_writeback_latency in
    let primary = Multi.primary_source multi in
    let primary_ms = List.assoc primary multistencils in
    (* One chain element per term: a (source, position) data tap or the
       bias.  Coefficient stream index = position in the Multi.taps
       order, bias last. *)
    let chain_elements occurrence =
      List.mapi
        (fun i (st : Multi.source_tap) ->
          let position =
            Offset.add st.Multi.tap.Tap.offset
              (Offset.make ~drow:0 ~dcol:occurrence)
          in
          (Some (st.Multi.source, position), i))
        source_taps
      @ (match bias with Some _ -> [ (None, ntaps) ] | None -> [])
    in
    let make_phase p =
      let tag_reg =
        Array.init width (fun j ->
            reg_of_position ~line:p ~src:primary
              (Multistencil.tagged_position primary_ms ~occurrence:j))
      in
      (* Deadline: the cycle on which a register's first overwriting
         accumulation lands, relative to the start of the madd section. *)
      let deadline reg =
        let dl = ref max_int in
        Array.iteri
          (fun j tag ->
            if tag = reg then dl := min !dl (layout.first_issue.(j) + wb))
          tag_reg;
        !dl
      in
      let chain_madds j =
        let keyed =
          List.map
            (fun (position, coeff_index) ->
              let data_reg =
                match position with
                | Some (src, pos) -> reg_of_position ~line:p ~src pos
                | None -> Option.get one_reg
              in
              ((deadline data_reg, coeff_index), data_reg, coeff_index))
            (chain_elements j)
        in
        let ordered =
          List.sort (fun (ka, _, _) (kb, _, _) -> compare ka kb) keyed
        in
        List.mapi
          (fun i (_, data_reg, coeff_index) ->
            let issue =
              layout.first_issue.(j) + (i * 2 * config.madd_issue_cycles)
            in
            let dl = deadline data_reg in
            if issue >= dl then
              infeasible ~phase:p ~cycle:issue
                "chain %d: tap reading r%d issues on cycle %d but the register \
                 is overwritten on cycle %d"
                j data_reg issue dl;
            Instr.Madd
              {
                dst = tag_reg.(j);
                data = data_reg;
                coeff_index;
                coeff_dcol = j;
                acc = (if i = 0 then zero_reg else tag_reg.(j));
              })
          ordered
      in
      let chains = Array.init width chain_madds in
      (* Interleave per the fixed layout. *)
      let madds = ref [] in
      let rec emit_pairs j =
        if j < width then
          if j + 1 < width then begin
            List.iter2
              (fun a b -> madds := b :: a :: !madds)
              chains.(j)
              chains.(j + 1);
            emit_pairs (j + 2)
          end
          else
            List.iteri
              (fun i m ->
                madds := m :: !madds;
                if i < chain_len - 1 then madds := Instr.Nop :: !madds)
              chains.(j)
      in
      emit_pairs 0;
      let loads =
        List.map
          (fun { ring; _ } ->
            Instr.Load
              {
                reg = Plan.ring_register ring ~line:p ~depth:0;
                src = ring.Plan.src;
                drow = ring.Plan.min_drow;
                dcol = ring.Plan.dcol;
              })
          rings
      in
      let stores =
        List.init width (fun j -> Instr.Store { reg = tag_reg.(j); dcol = j })
      in
      { Plan.loads; madds = List.rev !madds; stores }
    in
    let unroll = alloc.Regalloc.merged_unroll in
    let phases = Array.init unroll make_phase in
    (* Warmup prologue: fill every ring down to its column's deepest
       occupied element.  Warmup step i stands for virtual line i - len. *)
    let span_of { occupied; ring } =
      List.fold_left max min_int occupied - ring.Plan.min_drow + 1
    in
    let max_depth =
      List.fold_left (fun acc info -> max acc (span_of info - 1)) 0 rings
    in
    let prologue =
      Array.init max_depth (fun i ->
          let v = i - max_depth in
          List.filter_map
            (fun ({ ring; _ } as info) ->
              if span_of info > -v then
                Some
                  (Instr.Load
                     {
                       reg = Plan.ring_register ring ~line:v ~depth:0;
                       src = ring.Plan.src;
                       drow = ring.Plan.min_drow;
                       dcol = ring.Plan.dcol;
                     })
              else None)
            rings)
    in
    let coeff_streams =
      Array.of_list
        (List.map (fun (st : Multi.source_tap) -> st.Multi.tap.Tap.coeff)
           source_taps
        @ match bias with Some c -> [ c ] | None -> [])
    in
    let dynamic_words =
      Array.fold_left
        (fun acc phase ->
          acc
          + List.length phase.Plan.loads
          + List.length phase.Plan.madds
          + List.length phase.Plan.stores)
        0 phases
      + Array.fold_left (fun acc l -> acc + List.length l) 0 prologue
    in
    {
      Plan.width;
      multi;
      multistencils;
      rings = List.map (fun r -> r.ring) rings;
      unroll;
      phases;
      prologue;
      zero_reg;
      one_reg;
      registers_used;
      dynamic_words;
      coeff_streams;
    }

  let build config ms (alloc : Regalloc.allocation) =
    let multi = Multi.of_pattern (Multistencil.pattern ms) in
    let merged =
      {
        Regalloc.merged_sizes =
          List.map
            (fun (dcol, size) -> ((0, dcol), size))
            alloc.Regalloc.ring_sizes;
        merged_unroll = alloc.Regalloc.unroll;
        merged_registers = alloc.Regalloc.data_registers;
      }
    in
    build_multi config multi [ (0, ms) ] merged

  (* Static hazard verification, independent of the builder's own
     bookkeeping: replay each phase's issue cycles and confirm reads beat
     overwrites and stores follow landings. *)
  let check_hazards (config : Ccc_cm2.Config.t) (plan : Plan.t) =
    let wb = config.madd_writeback_latency in
    Array.iteri
      (fun p phase ->
        let fail ?cycle check fmt =
          Format.kasprintf
            (fun m ->
              raise (Finding.Failed [ Finding.make ~phase:p ?cycle check m ]))
            fmt
        in
        (* First pass: when does each register's first madd write land,
           and when does its last write land? *)
        let first_land = Hashtbl.create 16 in
        let last_land = Hashtbl.create 16 in
        let cycle = ref 0 in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Madd { dst; _ } ->
                let lands_at = !cycle + wb in
                if not (Hashtbl.mem first_land dst) then
                  Hashtbl.add first_land dst lands_at;
                Hashtbl.replace last_land dst lands_at
            | Instr.Load _ | Instr.Store _ | Instr.Nop -> ());
            cycle := !cycle + Instr.cycles config slot)
          phase.Plan.madds;
        let madd_section = !cycle in
        (* Second pass: verify data reads. *)
        let cycle = ref 0 in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Madd { data; _ } -> begin
                match Hashtbl.find_opt first_land data with
                | Some lands_at when !cycle >= lands_at ->
                    fail ~cycle:!cycle Finding.Hazard
                      "madd on cycle %d reads r%d after its overwrite lands on \
                       cycle %d"
                      !cycle data lands_at
                | Some _ | None -> ()
              end
            | Instr.Load _ | Instr.Store _ | Instr.Nop -> ());
            cycle := !cycle + Instr.cycles config slot)
          phase.Plan.madds;
        (* Third pass: stores happen after the final landing. *)
        let drain =
          max 0 (config.madd_writeback_latency - config.pipe_reversal_cycles)
        in
        let store_cycle =
          ref (madd_section + config.pipe_reversal_cycles + drain)
        in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Store { reg; _ } -> begin
                match Hashtbl.find_opt last_land reg with
                | Some lands_at when !store_cycle < lands_at ->
                    fail ~cycle:!store_cycle Finding.Hazard
                      "store of r%d on cycle %d precedes its landing on cycle %d"
                      reg !store_cycle lands_at
                | Some _ -> ()
                | None ->
                    fail ~cycle:!store_cycle Finding.Store_mismatch
                      "store of r%d which no chain wrote" reg
              end
            | Instr.Load _ | Instr.Madd _ | Instr.Nop -> ());
            store_cycle := !store_cycle + Instr.cycles config slot)
          phase.Plan.stores;
        (* Loads target the slot the ring rotation designates. *)
        List.iter
          (fun slot ->
            match slot with
            | Instr.Load { reg; src; dcol; _ } -> begin
                match
                  List.find_opt
                    (fun r -> r.Plan.src = src && r.Plan.dcol = dcol)
                    plan.Plan.rings
                with
                | None ->
                    fail Finding.Ring_layout
                      "load for unknown column %d of source %d" dcol src
                | Some ring ->
                    let expected = Plan.ring_register ring ~line:p ~depth:0 in
                    if reg <> expected then
                      fail Finding.Ring_layout
                        "load for column %d targets r%d, ring expects r%d" dcol
                        reg expected
              end
            | Instr.Store _ | Instr.Madd _ | Instr.Nop -> ())
          phase.Plan.loads)
      plan.Plan.phases
end

module Verify = struct
  module Finding = Ccc_analysis.Finding

  module Config = Ccc_cm2.Config
  module Plan = Ccc_microcode.Plan
  module Instr = Ccc_microcode.Instr
  module Cost = Ccc_microcode.Cost
  module Multi = Ccc_stencil.Multi
  module Offset = Ccc_stencil.Offset
  module Tap = Ccc_stencil.Tap
  module Coeff = Ccc_stencil.Coeff

  (* What a register holds, symbolically.  Rows are virtual: line [t]'s
     origin row is [-t] (the sweep moves one row up per line), so the
     element loaded at line [t] with displacement [drow] is row
     [drow - t] — absolute addresses drop out of the comparison. *)
  type value =
    | Unknown
    | Zero  (** the pinned 0.0 *)
    | One  (** the pinned 1.0 (bias operand) *)
    | Elem of { src : int; row : int; col : int }
    | Acc of { line : int; col : int; terms : int list }
        (** a partial sum for output column [col] of line [line];
            [terms] are the coefficient-stream indices folded in *)

  let pp_value ppf = function
    | Unknown -> Format.pp_print_string ppf "an undefined value"
    | Zero -> Format.pp_print_string ppf "the pinned 0.0"
    | One -> Format.pp_print_string ppf "the pinned 1.0"
    | Elem { src; row; col } ->
        Format.fprintf ppf "element (%+d,%+d) of source %d" row col src
    | Acc { line; col; terms } ->
        Format.fprintf ppf "a %d-term accumulation for line %d column %d"
          (List.length terms) line col

  (* One write into a register, on the FPU timeline: visible to any read
     on cycle >= land_at (Fpu: "a read on cycle t observes writes landed
     on cycles <= t"). *)
  type write = {
    land_at : int;
    value : value;
    born_line : int;  (** line whose dynamic part issued it; [min_int]
                          for the pinned initial values *)
    issue_cycle : int;
    mutable read : bool;
  }

  let verify (config : Config.t) (plan : Plan.t) : Finding.t list =
    let found = ref [] in
    let emit f = found := f :: !found in
    let nregs = config.Config.fpu_registers in
    let width = plan.Plan.width in
    let unroll = plan.Plan.unroll in
    let source_taps = Array.of_list (Multi.taps plan.Plan.multi) in
    let ntaps = Array.length source_taps in
    let nsources = Multi.source_count plan.Plan.multi in
    let has_bias = Multi.bias plan.Plan.multi <> None in
    let nterms = ntaps + if has_bias then 1 else 0 in
    let in_file r = r >= 0 && r < nregs in
    let declared r = r >= 0 && r < plan.Plan.registers_used in

    (* ---------------- plan-level structure and budget ---------------- *)
    if plan.Plan.registers_used > nregs then
      emit
        (Finding.makef Register_pressure
           "the plan declares %d registers but the file has %d"
           plan.Plan.registers_used nregs);
    if width < 1 then
      emit (Finding.makef Phase_shape "non-positive width %d" width);
    if unroll < 1 then
      emit (Finding.makef Phase_shape "non-positive unroll factor %d" unroll);
    if Array.length plan.Plan.phases <> unroll then
      emit
        (Finding.makef Phase_shape
           "unroll factor %d but %d phases in the dynamic-part table" unroll
           (Array.length plan.Plan.phases));
    if not (declared plan.Plan.zero_reg && in_file plan.Plan.zero_reg) then
      emit
        (Finding.makef Register_range "pinned zero register r%d out of range"
           plan.Plan.zero_reg);
    (match (plan.Plan.one_reg, has_bias) with
    | None, true ->
        emit
          (Finding.make Phase_shape
             "the pattern has a bias term but no pinned 1.0 register")
    | Some r, _ when not (declared r && in_file r) ->
        emit (Finding.makef Register_range "pinned 1.0 register r%d out of range" r)
    | Some _, false ->
        emit
          (Finding.make ~severity:Warning Dead_code
             "a pinned 1.0 register with no bias term to consume it")
    | _ -> ());

    (* Ring layout: disjoint, in range, clear of the pinned registers,
       one ring per (source, column), each size dividing the unroll
       factor (section 5.4: the table length is the LCM). *)
    let pinned =
      plan.Plan.zero_reg :: Option.to_list plan.Plan.one_reg
    in
    let ring_of : (int * int, Plan.ring) Hashtbl.t = Hashtbl.create 16 in
    let claimed : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun (r : Plan.ring) ->
        if r.Plan.size < 1 then
          emit
            (Finding.makef Ring_layout "ring for source %d column %+d has size %d"
               r.Plan.src r.Plan.dcol r.Plan.size);
        if r.Plan.src < 0 || r.Plan.src >= nsources then
          emit
            (Finding.makef Ring_layout "ring for unknown source %d" r.Plan.src);
        if Hashtbl.mem ring_of (r.Plan.src, r.Plan.dcol) then
          emit
            (Finding.makef Ring_layout
               "two rings for source %d column %+d" r.Plan.src r.Plan.dcol)
        else Hashtbl.add ring_of (r.Plan.src, r.Plan.dcol) r;
        if r.Plan.size >= 1 && unroll >= 1 && unroll mod r.Plan.size <> 0 then
          emit
            (Finding.makef Ring_layout
               "ring size %d of source %d column %+d does not divide the \
                unroll factor %d"
               r.Plan.size r.Plan.src r.Plan.dcol unroll);
        for reg = r.Plan.base to r.Plan.base + r.Plan.size - 1 do
          if not (declared reg && in_file reg) then
            emit
              (Finding.makef Register_range
                 "ring of source %d column %+d claims r%d, outside the %d \
                  declared registers"
                 r.Plan.src r.Plan.dcol reg plan.Plan.registers_used)
          else if List.mem reg pinned then
            emit
              (Finding.makef Pinned_write
                 "ring of source %d column %+d claims pinned register r%d"
                 r.Plan.src r.Plan.dcol reg)
          else
            match Hashtbl.find_opt claimed reg with
            | Some (src', dcol') ->
                emit
                  (Finding.makef Ring_layout
                     "r%d claimed by both source %d column %+d and source %d \
                      column %+d"
                     reg src' dcol' r.Plan.src r.Plan.dcol)
            | None -> Hashtbl.add claimed reg (r.Plan.src, r.Plan.dcol)
        done)
      plan.Plan.rings;

    (* Coefficient streams: taps in pattern order, then the bias. *)
    let expected_streams =
      Array.of_list
        (List.map
           (fun (st : Multi.source_tap) -> st.Multi.tap.Tap.coeff)
           (Multi.taps plan.Plan.multi)
        @ match Multi.bias plan.Plan.multi with Some c -> [ c ] | None -> [])
    in
    if Array.length plan.Plan.coeff_streams <> nterms then
      emit
        (Finding.makef Coeff_streams
           "%d coefficient streams for %d terms"
           (Array.length plan.Plan.coeff_streams)
           nterms)
    else
      Array.iteri
        (fun i c ->
          if not (Coeff.equal c expected_streams.(i)) then
            emit
              (Finding.makef Coeff_streams
                 "stream %d is %a where the pattern has %a" i Coeff.pp c Coeff.pp
                 expected_streams.(i)))
        plan.Plan.coeff_streams;

    (* Honest dynamic-word accounting, against the scratch budget. *)
    let actual_words =
      Array.fold_left
        (fun acc (ph : Plan.phase) ->
          acc + List.length ph.Plan.loads + List.length ph.Plan.madds
          + List.length ph.Plan.stores)
        0 plan.Plan.phases
      + Array.fold_left (fun acc l -> acc + List.length l) 0 plan.Plan.prologue
    in
    if actual_words <> plan.Plan.dynamic_words then
      emit
        (Finding.makef Budget
           "the plan declares %d dynamic-part words but its table holds %d"
           plan.Plan.dynamic_words actual_words);
    if actual_words > config.Config.scratch_memory_words then
      emit
        (Finding.makef Scratch_pressure
           "%d dynamic-part words exceed the %d-word scratch memory"
           actual_words config.Config.scratch_memory_words);
    (* Section 4.3: the loop branch cannot share a cycle with a dynamic
       issue; the priced loop must reserve at least one cycle for it. *)
    if config.Config.loop_branch_cycles < 1 then
      emit
        (Finding.makef Budget
           "loop-branch budget of %d cycles: the branch cannot share a cycle \
            with a dynamic-part issue"
           config.Config.loop_branch_cycles);

    if
      Array.length plan.Plan.phases = 0
      || unroll < 1 || width < 1
      || Array.length plan.Plan.phases <> unroll
    then List.rev !found
    else begin
      (* ---------------- the abstract interpretation ---------------- *)
      let hist : write list array = Array.make nregs [] in
      let pinned_write v =
        { land_at = min_int; value = v; born_line = min_int;
          issue_cycle = min_int; read = true }
      in
      if in_file plan.Plan.zero_reg then
        hist.(plan.Plan.zero_reg) <- [ pinned_write Zero ];
      Option.iter
        (fun r -> if in_file r then hist.(r) <- [ pinned_write One ])
        plan.Plan.one_reg;
      (* Newest first, ordered by landing cycle. *)
      let push reg w =
        let rec ins = function
          | [] -> [ w ]
          | x :: rest as l ->
              if w.land_at >= x.land_at then w :: l else x :: ins rest
        in
        hist.(reg) <- ins hist.(reg)
      in
      let resolve reg ~at =
        let rec go = function
          | [] -> None
          | w :: rest -> if w.land_at <= at then Some w else go rest
        in
        go hist.(reg)
      in
      let read_value reg ~at =
        match resolve reg ~at with
        | None -> Unknown
        | Some w ->
            w.read <- true;
            w.value
      in
      let in_flight reg ~at =
        match hist.(reg) with w :: _ -> w.land_at > at | [] -> false
      in
      let wb = config.Config.madd_writeback_latency in
      let drain = max 0 (wb - config.Config.pipe_reversal_cycles) in
      let cycle = ref (Cost.startup_cycles config) in

      (* The warmup prologue: step [i] is virtual line [i - length]. *)
      let plen = Array.length plan.Plan.prologue in
      Array.iteri
        (fun i loads ->
          let line = i - plen in
          List.iter
            (fun slot ->
              (match slot with
              | Instr.Load { reg; src; drow; dcol } ->
                  if not (in_file reg) then
                    emit
                      (Finding.makef Register_range ~cycle:!cycle ~instr:slot
                         "warmup load targets r%d, outside the register file" reg)
                  else begin
                    if List.mem reg pinned then
                      emit
                        (Finding.makef Pinned_write ~cycle:!cycle ~instr:slot
                           "warmup load overwrites pinned r%d" reg);
                    push reg
                      {
                        land_at = !cycle + config.Config.load_latency;
                        value = Elem { src; row = drow - line; col = dcol };
                        born_line = line;
                        issue_cycle = !cycle;
                        read = false;
                      }
                  end
              | _ ->
                  emit
                    (Finding.makef Phase_shape ~cycle:!cycle ~instr:slot
                       "warmup step %d contains a dynamic part that is not a \
                        load"
                       i));
              cycle := !cycle + Instr.cycles config slot)
            loads)
        plan.Plan.prologue;
      let startup_and_prologue = !cycle in
      if
        startup_and_prologue
        <> Cost.startup_cycles config + Cost.prologue_cycles config plan
      then
        emit
          (Finding.makef Cost_model
             "warmup prologue prices at %d cycles, the analytic model says %d"
             (startup_and_prologue - Cost.startup_cycles config)
             (Cost.prologue_cycles config plan));

      (* Expected multiplier operand for coefficient stream [ci] at
         occurrence [j] of line [t]. *)
      let expected_data ~line ~ci ~j =
        if ci >= 0 && ci < ntaps then begin
          let st = source_taps.(ci) in
          let off = st.Multi.tap.Tap.offset in
          Some
            (Elem
               {
                 src = st.Multi.source;
                 row = off.Offset.drow - line;
                 col = off.Offset.dcol + j;
               })
        end
        else if has_bias && ci = ntaps then Some One
        else None
      in

      (* Findings are reported over the first unroll period only; later
         lines run silently so the liveness scan can see every first-
         period write reach its consumer (or its overwrite). *)
      let max_ring =
        List.fold_left (fun m (r : Plan.ring) -> max m r.Plan.size) 1
          plan.Plan.rings
      in
      let total_lines = unroll + max_ring + 1 in
      let boundary_cycle = ref 0 in

      for line = 0 to total_lines - 1 do
        if line = unroll then boundary_cycle := !cycle;
        let report = line < unroll in
        let emitr f = if report then emit f in
        let p = line mod unroll in
        let phase = plan.Plan.phases.(p) in
        let line_begin = !cycle in
        cycle := !cycle + config.Config.line_overhead_cycles;

        (* Leading-edge loads: one per ring, in the slot the rotation
           designates, reading the column's top occupied row. *)
        let loaded : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Load { reg; src; drow; dcol } ->
                (if report then
                   match Hashtbl.find_opt ring_of (src, dcol) with
                   | None ->
                       emit
                         (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                            ~instr:slot
                            "load for source %d column %+d, which has no ring"
                            src dcol)
                   | Some ring ->
                       if Hashtbl.mem loaded (src, dcol) then
                         emit
                           (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                              ~instr:slot
                              "source %d column %+d loaded twice in one line"
                              src dcol)
                       else Hashtbl.add loaded (src, dcol) ();
                       let expected =
                         Plan.ring_register ring ~line ~depth:0
                       in
                       if reg <> expected then
                         emit
                           (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                              ~instr:slot
                              "load for source %d column %+d targets r%d; the \
                               ring rotation designates r%d"
                              src dcol reg expected);
                       if drow <> ring.Plan.min_drow then
                         emit
                           (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                              ~instr:slot
                              "load for source %d column %+d reads row %+d; \
                               the leading edge is row %+d"
                              src dcol drow ring.Plan.min_drow));
                if not (in_file reg) then
                  emitr
                    (Finding.makef Register_range ~phase:p ~cycle:!cycle
                       ~instr:slot "load targets r%d, outside the register file"
                       reg)
                else begin
                  if List.mem reg pinned then
                    emitr
                      (Finding.makef Pinned_write ~phase:p ~cycle:!cycle
                         ~instr:slot "load overwrites pinned r%d" reg);
                  push reg
                    {
                      land_at = !cycle + config.Config.load_latency;
                      value = Elem { src; row = drow - line; col = dcol };
                      born_line = line;
                      issue_cycle = !cycle;
                      read = false;
                    }
                end
            | _ ->
                emitr
                  (Finding.makef Phase_shape ~phase:p ~cycle:!cycle ~instr:slot
                     "load section contains a dynamic part that is not a load"));
            cycle := !cycle + Instr.cycles config slot)
          phase.Plan.loads;
        if report then
          Hashtbl.iter
            (fun (src, dcol) _ ->
              if not (Hashtbl.mem loaded (src, dcol)) then
                emit
                  (Finding.makef Ring_layout ~phase:p
                     "source %d column %+d is never loaded in phase %d" src dcol
                     p))
            ring_of;

        cycle := !cycle + config.Config.pipe_reversal_cycles;

        (* The multiply-add section.  Each madd reads its data operand at
           issue and its accumulator at issue + add_latency; its result
           lands at issue + writeback_latency (the Fpu timeline). *)
        let tally = Array.make_matrix (max nterms 1) (max width 1) 0 in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Nop -> ()
            | Instr.Madd { dst; data; coeff_index; coeff_dcol; acc } ->
                let issue = !cycle in
                let regs_ok =
                  List.for_all
                    (fun (name, r) ->
                      if in_file r && declared r then true
                      else begin
                        emitr
                          (Finding.makef Register_range ~phase:p ~cycle:issue
                             ~instr:slot
                             "multiply-add %s register r%d out of range" name r);
                        false
                      end)
                    [ ("destination", dst); ("data", data); ("accumulator", acc) ]
                in
                if regs_ok then begin
                  if
                    report && coeff_index >= 0 && coeff_index < nterms
                    && coeff_dcol >= 0 && coeff_dcol < width
                  then
                    tally.(coeff_index).(coeff_dcol) <-
                      tally.(coeff_index).(coeff_dcol) + 1;
                  (match expected_data ~line ~ci:coeff_index ~j:coeff_dcol with
                  | None ->
                      emitr
                        (Finding.makef Coeff_streams ~phase:p ~cycle:issue
                           ~instr:slot
                           "coefficient stream %d does not exist (the pattern \
                            has %d terms)"
                           coeff_index nterms)
                  | Some expected -> (
                      match read_value data ~at:issue with
                      | v when v = expected -> ()
                      | Unknown ->
                          emitr
                            (Finding.makef Unwritten_read ~phase:p ~cycle:issue
                               ~instr:slot
                               "data register r%d is read before any write \
                                lands"
                               data)
                      | Acc _ as v ->
                          emitr
                            (Finding.makef Hazard ~phase:p ~cycle:issue
                               ~instr:slot
                               "data register r%d was recycled: it holds %a, \
                                not %a — the overwrite landed before this read"
                               data pp_value v pp_value expected)
                      | v ->
                          emitr
                            (Finding.makef Wrong_element ~phase:p ~cycle:issue
                               ~instr:slot
                               "data register r%d holds %a where stream %d \
                                occurrence %d needs %a"
                               data pp_value v coeff_index coeff_dcol pp_value
                               expected)));
                  let acc_at = issue + config.Config.madd_add_latency in
                  let acc_val = read_value acc ~at:acc_at in
                  let next_terms =
                    match acc_val with
                    | Zero -> [ coeff_index ]
                    | Acc a when acc = dst ->
                        if a.line <> line then
                          emitr
                            (Finding.makef Chain_shape ~phase:p ~cycle:issue
                               ~instr:slot
                               "chains onto a stale accumulation from line %d"
                               a.line);
                        if a.col <> coeff_dcol then
                          emitr
                            (Finding.makef Chain_shape ~phase:p ~cycle:issue
                               ~instr:slot
                               "accumulation for column %d fed a coefficient \
                                of column %d"
                               a.col coeff_dcol);
                        if List.mem coeff_index a.terms then
                          emitr
                            (Finding.makef Chain_shape ~phase:p ~cycle:issue
                               ~instr:slot
                               "coefficient stream %d folded into the same \
                                accumulation twice"
                               coeff_index);
                        coeff_index :: a.terms
                    | Unknown ->
                        emitr
                          (Finding.makef Unwritten_read ~phase:p ~cycle:issue
                             ~instr:slot
                             "accumulator r%d is read before any write lands"
                             acc);
                        [ coeff_index ]
                    | v ->
                        emitr
                          (Finding.makef Chain_shape ~phase:p ~cycle:acc_at
                             ~instr:slot
                             "accumulator r%d holds %a — neither the pinned \
                              zero nor this chain's partial sum"
                             acc pp_value v);
                        [ coeff_index ]
                  in
                  if List.mem dst pinned then
                    emitr
                      (Finding.makef Pinned_write ~phase:p ~cycle:issue
                         ~instr:slot "multiply-add writes pinned r%d" dst);
                  push dst
                    {
                      land_at = issue + wb;
                      value =
                        Acc { line; col = coeff_dcol; terms = next_terms };
                      born_line = line;
                      issue_cycle = issue;
                      read = false;
                    }
                end
            | _ ->
                emitr
                  (Finding.makef Phase_shape ~phase:p ~cycle:!cycle ~instr:slot
                     "multiply-add section contains a memory operation"));
            cycle := !cycle + Instr.cycles config slot)
          phase.Plan.madds;

        cycle := !cycle + config.Config.pipe_reversal_cycles + drain;

        (* Stores: each must read a landed, complete accumulation for
           this line and exactly its own column. *)
        let stored = Array.make (max width 1) 0 in
        List.iter
          (fun slot ->
            (match slot with
            | Instr.Store { reg; dcol } ->
                let at = !cycle in
                if dcol < 0 || dcol >= width then
                  emitr
                    (Finding.makef Coverage ~phase:p ~cycle:at ~instr:slot
                       "store to column %d, outside the width-%d strip" dcol
                       width)
                else if report then stored.(dcol) <- stored.(dcol) + 1;
                if not (in_file reg) then
                  emitr
                    (Finding.makef Register_range ~phase:p ~cycle:at ~instr:slot
                       "store reads r%d, outside the register file" reg)
                else begin
                  if in_flight reg ~at then
                    emitr
                      (Finding.makef Hazard ~phase:p ~cycle:at ~instr:slot
                         "store of r%d while its accumulation is still in \
                          flight"
                         reg);
                  match read_value reg ~at with
                  | Acc a ->
                      if a.line <> line then
                        emitr
                          (Finding.makef Store_mismatch ~phase:p ~cycle:at
                             ~instr:slot
                             "stores line %d's accumulation during line %d"
                             a.line line);
                      if a.col <> dcol then
                        emitr
                          (Finding.makef Store_mismatch ~phase:p ~cycle:at
                             ~instr:slot
                             "stores the accumulation for column %d into \
                              column %d"
                             a.col dcol);
                      let missing =
                        List.filter
                          (fun i -> not (List.mem i a.terms))
                          (List.init nterms Fun.id)
                      in
                      if missing <> [] then
                        emitr
                          (Finding.makef Store_mismatch ~phase:p ~cycle:at
                             ~instr:slot
                             "stored accumulation is missing coefficient \
                              stream%s %s"
                             (if List.length missing = 1 then "" else "s")
                             (String.concat ", "
                                (List.map string_of_int missing)))
                  | Unknown ->
                      emitr
                        (Finding.makef Unwritten_read ~phase:p ~cycle:at
                           ~instr:slot "store of r%d which was never written"
                           reg)
                  | v ->
                      emitr
                        (Finding.makef Store_mismatch ~phase:p ~cycle:at
                           ~instr:slot "stores %a, not a completed accumulation"
                           pp_value v)
                end
            | _ ->
                emitr
                  (Finding.makef Phase_shape ~phase:p ~cycle:!cycle ~instr:slot
                     "store section contains a dynamic part that is not a \
                      store"));
            cycle := !cycle + Instr.cycles config slot)
          phase.Plan.stores;
        cycle := !cycle + config.Config.loop_branch_cycles;

        if report then begin
          for j = 0 to width - 1 do
            if stored.(j) = 0 then
              emit
                (Finding.makef Coverage ~phase:p
                   "output column %d is never stored in phase %d" j p)
            else if stored.(j) > 1 then
              emit
                (Finding.makef Coverage ~phase:p
                   "output column %d is stored %d times in phase %d" j
                   stored.(j) p)
          done;
          for ci = 0 to nterms - 1 do
            for j = 0 to width - 1 do
              if tally.(ci).(j) <> 1 then
                emit
                  (Finding.makef Coverage ~phase:p
                     "coefficient stream %d contributes %d multiply-adds to \
                      occurrence %d of phase %d (want exactly 1)"
                     ci tally.(ci).(j) j p)
            done
          done;
          (* Independent cycle accounting, against the analytic model. *)
          let line_total = !cycle - line_begin in
          if line_total <> Cost.line_cycles config plan then
            emit
              (Finding.makef Cost_model ~phase:p
                 "phase %d prices at %d cycles per line; the analytic model \
                  says %d"
                 p line_total
                 (Cost.line_cycles config plan))
        end
      done;
      if
        !boundary_cycle
        <> Cost.halfstrip_cycles config plan ~lines:unroll
      then
        emit
          (Finding.makef Cost_model
             "one unroll period prices at %d cycles; the analytic model says %d"
             !boundary_cycle
             (Cost.halfstrip_cycles config plan ~lines:unroll));

      (* ---------------- liveness: nothing written in vain ----------- *)
      Array.iteri
        (fun reg history ->
          match history with
          | [] | [ _ ] -> ()
          | _live :: overwritten ->
              List.iter
                (fun w ->
                  if
                    (not w.read) && w.born_line > min_int
                    && w.born_line < unroll
                  then
                    let phase =
                      if w.born_line >= 0 then Some (w.born_line mod unroll)
                      else None
                    in
                    match w.value with
                    | Elem _ ->
                        emit
                          (Finding.makef ~severity:Warning Dead_code ?phase
                             ~cycle:w.issue_cycle
                             "dead load: r%d (%a, loaded at line %d) is \
                              overwritten without ever being read"
                             reg pp_value w.value w.born_line)
                    | Acc _ ->
                        emit
                          (Finding.makef ~severity:Warning Dead_code ?phase
                             ~cycle:w.issue_cycle
                             "dead accumulation: r%d (%a) is overwritten \
                              without being stored or chained"
                             reg pp_value w.value)
                    | _ -> ())
                overwritten)
        hist;
      List.rev !found
    end

end

(* The compiler driver over the oracle passes: [Compile.compile] and
   [Compile.compile_fused] without the tracing spans. *)

module Finding = Ccc_analysis.Finding
module Compile = Ccc_compiler.Compile
module Regalloc = Ccc_compiler.Regalloc
module Multistencil = Ccc_stencil.Multistencil
module Multi = Ccc_stencil.Multi

let post_check config plan =
  Schedule.check_hazards config plan;
  match Verify.verify config plan with
  | [] -> ()
  | findings -> raise (Finding.Failed findings)

let checked (config : Ccc_cm2.Config.t) build =
  match build () with
  | (plan : Ccc_microcode.Plan.t) ->
      if plan.Ccc_microcode.Plan.dynamic_words > config.scratch_memory_words
      then
        Error
          (Finding.makef Finding.Scratch_pressure
             "scratch pressure: %d dynamic-part words exceed the %d-word \
              scratch memory"
             plan.Ccc_microcode.Plan.dynamic_words config.scratch_memory_words)
      else begin
        post_check config plan;
        Ok plan
      end
  | exception Schedule.Infeasible finding -> Error finding

let try_width (config : Ccc_cm2.Config.t) pattern width =
  let ms = Multistencil.make pattern ~width in
  let available = config.fpu_registers - Multistencil.pinned_registers ms in
  match Regalloc.allocate ms ~available with
  | Error { needed; available } ->
      Error
        (Finding.makef Finding.Register_pressure
           "register pressure: %d data registers needed, %d available" needed
           available)
  | Ok alloc -> checked config (fun () -> Schedule.build config ms alloc)

let try_width_fused (config : Ccc_cm2.Config.t) multi width =
  let nsources = Multi.source_count multi in
  let multistencils =
    List.init nsources (fun src ->
        (src, Multistencil.make (Multi.source_pattern multi src) ~width))
  in
  let pinned = match Multi.bias multi with Some _ -> 2 | None -> 1 in
  let available = config.fpu_registers - pinned in
  match Regalloc.allocate_multi multistencils ~available with
  | Error { Regalloc.needed; available } ->
      Error
        (Finding.makef Finding.Register_pressure
           "register pressure: %d data registers needed across %d sources, \
            %d available"
           needed nsources available)
  | Ok alloc ->
      checked config (fun () ->
          Schedule.build_multi config multi multistencils alloc)

let over_widths try_one =
  List.fold_left
    (fun (plans, rejected) width ->
      match try_one width with
      | Ok plan -> (plan :: plans, rejected)
      | Error finding -> (plans, (width, finding) :: rejected))
    ([], [])
    (List.sort_uniq (fun a b -> compare b a) Compile.candidate_widths)

let compile config pattern =
  match over_widths (try_width config pattern) with
  | [], rejected -> Error (List.rev rejected)
  | plans, rejected ->
      Ok
        {
          Compile.pattern;
          plans = List.rev plans;
          rejected = List.rev rejected;
        }

let compile_fused config multi =
  match over_widths (try_width_fused config multi) with
  | [], rejected -> Error (List.rev rejected)
  | plans, rejected ->
      Ok
        {
          Compile.multi;
          fused_plans = List.rev plans;
          fused_rejected = List.rev rejected;
        }
