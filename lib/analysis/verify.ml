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

(* The register histories, as one write log of [stride] ints per write.
   Every register write of the interpretation is a row; [head.(r)] is
   register [r]'s newest write and each row links to the next older one
   in landing order, so the per-part work reads and writes ints in
   preallocated arrays. *)
let stride = 9
let f_land = 0 (* visible to any read on cycle >= land (Fpu: "a read
                   on cycle t observes writes landed on cycles <= t") *)
let f_older = 1 (* the register's next older write, -1 at the end *)
let f_kind = 2
let f_read = 3 (* 1 once some read resolved to this write *)
let f_born = 4 (* line whose dynamic part issued it; [min_int] for the
                   pinned initial values *)
let f_issue = 5
let f_a = 6 (* Elem: source; Acc: output column *)
let f_b = 7 (* Elem: row; Acc: the coefficient stream folded in *)
let f_c = 8 (* Elem: column; Acc: the write it continues, or -1 *)

(* Kinds of the [value] a write holds; an Acc's line is its born line
   and its terms are the streams along its continuation links. *)
let k_zero = 1
let k_one = 2
let k_elem = 3
let k_acc = 4

let[@inline] field log w f = log.((w * stride) + f)
let[@inline] within r limit = r >= 0 && r < limit
let[@inline] kind log w = if w < 0 then 0 else field log w f_kind

(* Insert write [w] into register [reg]'s history: newest first,
   ordered by landing cycle, a new write before an equal one. *)
let push log head reg w =
  let land_at = field log w f_land in
  let prev = ref (-1) and cur = ref head.(reg) in
  while !cur >= 0 && land_at < field log !cur f_land do
    prev := !cur;
    cur := field log !cur f_older
  done;
  log.((w * stride) + f_older) <- !cur;
  if !prev < 0 then head.(reg) <- w
  else log.((!prev * stride) + f_older) <- w

(* The write a read of [reg] on cycle [at] observes, marked read; -1
   when no write has landed. *)
let read_at log head reg ~at =
  let w = ref head.(reg) in
  while !w >= 0 && field log !w f_land > at do
    w := field log !w f_older
  done;
  if !w >= 0 then log.((!w * stride) + f_read) <- 1;
  !w

(* One log per domain, grown to the largest interpretation run there
   and reused: every field of a row is written before it is read.  A
   verification takes the log out of its slot while it runs, so one
   that starts meanwhile on the same domain allocates its own. *)
let log_key = Domain.DLS.new_key (fun () -> ref [||])

let take_log words =
  let slot = Domain.DLS.get log_key in
  let log = !slot in
  slot := [||];
  if Array.length log >= words then log else Array.make words 0

let return_log log =
  let slot = Domain.DLS.get log_key in
  if Array.length log > Array.length !slot then slot := log

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
  let declared r = r >= 0 && r < plan.Plan.registers_used in
  let usable_limit = min nregs plan.Plan.registers_used in

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
  if not (declared plan.Plan.zero_reg && within plan.Plan.zero_reg nregs) then
    emit
      (Finding.makef Register_range "pinned zero register r%d out of range"
         plan.Plan.zero_reg);
  (match (plan.Plan.one_reg, has_bias) with
  | None, true ->
      emit
        (Finding.make Phase_shape
           "the pattern has a bias term but no pinned 1.0 register")
  | Some r, _ when not (declared r && within r nregs) ->
      emit (Finding.makef Register_range "pinned 1.0 register r%d out of range" r)
  | Some _, false ->
      emit
        (Finding.make ~severity:Warning Dead_code
           "a pinned 1.0 register with no bias term to consume it")
  | _ -> ());

  (* Ring layout: disjoint, in range, clear of the pinned registers,
     one ring per (source, column), each size dividing the unroll
     factor (section 5.4: the table length is the LCM).
     [first_ring.(i)] is the first ring with ring [i]'s (source,
     column); [claimed.(r)] is the ring that claimed register [r], or
     -1. *)
  let zero_reg = plan.Plan.zero_reg in
  let one_reg = Option.value plan.Plan.one_reg ~default:zero_reg in
  let rings = Array.of_list plan.Plan.rings in
  let nrings = Array.length rings in
  let first_with src dcol =
    let i = ref 0 in
    while
      !i < nrings
      && not (rings.(!i).Plan.src = src && rings.(!i).Plan.dcol = dcol)
    do
      incr i
    done;
    if !i = nrings then -1 else !i
  in
  let first_ring = Array.make nrings (-1) in
  let columns = ref 0 in
  let claimed = Array.make nregs (-1) in
  Array.iteri
    (fun i (r : Plan.ring) ->
      if r.Plan.size < 1 then
        emit
          (Finding.makef Ring_layout "ring for source %d column %+d has size %d"
             r.Plan.src r.Plan.dcol r.Plan.size);
      if r.Plan.src < 0 || r.Plan.src >= nsources then
        emit
          (Finding.makef Ring_layout "ring for unknown source %d" r.Plan.src);
      first_ring.(i) <- first_with r.Plan.src r.Plan.dcol;
      if first_ring.(i) < i then
        emit
          (Finding.makef Ring_layout
             "two rings for source %d column %+d" r.Plan.src r.Plan.dcol)
      else incr columns;
      if r.Plan.size >= 1 && unroll >= 1 && unroll mod r.Plan.size <> 0 then
        emit
          (Finding.makef Ring_layout
             "ring size %d of source %d column %+d does not divide the \
              unroll factor %d"
             r.Plan.size r.Plan.src r.Plan.dcol unroll);
      for reg = r.Plan.base to r.Plan.base + r.Plan.size - 1 do
        if not (declared reg && within reg nregs) then
          emit
            (Finding.makef Register_range
               "ring of source %d column %+d claims r%d, outside the %d \
                declared registers"
               r.Plan.src r.Plan.dcol reg plan.Plan.registers_used)
        else if reg = zero_reg || reg = one_reg then
          emit
            (Finding.makef Pinned_write
               "ring of source %d column %+d claims pinned register r%d"
               r.Plan.src r.Plan.dcol reg)
        else if claimed.(reg) >= 0 then begin
          let owner = rings.(claimed.(reg)) in
          emit
            (Finding.makef Ring_layout
               "r%d claimed by both source %d column %+d and source %d \
                column %+d"
               reg owner.Plan.src owner.Plan.dcol r.Plan.src r.Plan.dcol)
        end
        else claimed.(reg) <- i
      done)
    rings;

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
    (* Findings are reported over the first unroll period only; later
       lines run silently so the liveness scan can see every first-
       period write reach its consumer (or its overwrite). *)
    let max_ring =
      Array.fold_left (fun m (r : Plan.ring) -> max m r.Plan.size) 1 rings
    in
    let total_lines = unroll + max_ring + 1 in
    (* Every load and multiply-add may write once, after the two pinned
       values: that bounds the log. *)
    let phase_writes =
      Array.map
        (fun (ph : Plan.phase) ->
          List.length ph.Plan.loads + List.length ph.Plan.madds)
        plan.Plan.phases
    in
    let capacity = ref 2 in
    Array.iter
      (fun l -> capacity := !capacity + List.length l)
      plan.Plan.prologue;
    for line = 0 to total_lines - 1 do
      capacity := !capacity + phase_writes.(line mod unroll)
    done;
    let log = take_log (!capacity * stride) in
    let writes = ref 0 in
    let head = Array.make nregs (-1) in
    let write ~land_at ~kind ~born ~issue a b c =
      let w = !writes in
      incr writes;
      let o = w * stride in
      log.(o + f_land) <- land_at;
      log.(o + f_older) <- -1;
      log.(o + f_kind) <- kind;
      log.(o + f_read) <- 0;
      log.(o + f_born) <- born;
      log.(o + f_issue) <- issue;
      log.(o + f_a) <- a;
      log.(o + f_b) <- b;
      log.(o + f_c) <- c;
      w
    in
    let in_flight reg ~at =
      head.(reg) >= 0 && field log head.(reg) f_land > at
    in
    let rec terms w =
      if w < 0 then [] else field log w f_b :: terms (field log w f_c)
    in
    let value_of w =
      match kind log w with
      | 0 -> Unknown
      | k when k = k_zero -> Zero
      | k when k = k_one -> One
      | k when k = k_elem ->
          Elem
            {
              src = field log w f_a;
              row = field log w f_b;
              col = field log w f_c;
            }
      | _ ->
          Acc
            {
              line = field log w f_born;
              col = field log w f_a;
              terms = terms w;
            }
    in
    let rec has_term w ci =
      w >= 0 && (field log w f_b = ci || has_term (field log w f_c) ci)
    in
    (* The pinned values count as consumed: they are never dead. *)
    let pinned_write v =
      let w =
        write ~land_at:min_int ~kind:v ~born:min_int ~issue:min_int 0 0 0
      in
      log.((w * stride) + f_read) <- 1;
      w
    in
    if within zero_reg nregs then head.(zero_reg) <- pinned_write k_zero;
    Option.iter
      (fun r -> if within r nregs then head.(r) <- pinned_write k_one)
      plan.Plan.one_reg;
    let load_write ~cycle ~line ~src ~drow ~dcol =
      write
        ~land_at:(cycle + config.Config.load_latency)
        ~kind:k_elem ~born:line ~issue:cycle src (drow - line) dcol
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
                if not (within reg nregs) then
                  emit
                    (Finding.makef Register_range ~cycle:!cycle ~instr:slot
                       "warmup load targets r%d, outside the register file" reg)
                else begin
                  if reg = zero_reg || reg = one_reg then
                    emit
                      (Finding.makef Pinned_write ~cycle:!cycle ~instr:slot
                         "warmup load overwrites pinned r%d" reg);
                  push log head reg
                    (load_write ~cycle:!cycle ~line ~src ~drow ~dcol)
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

    (* The multiplier operand coefficient stream [ci] (0 <= ci <
       nterms) needs at occurrence [j] of line [t]: tap [ci]'s element,
       or the pinned 1.0 for the bias. *)
    let tap_src =
      Array.map (fun (st : Multi.source_tap) -> st.Multi.source) source_taps
    in
    let tap_offset =
      Array.map (fun (st : Multi.source_tap) -> st.Multi.tap.Tap.offset)
        source_taps
    in
    let holds_expected w ~line ~ci ~j =
      if ci = ntaps then kind log w = k_one
      else
        kind log w = k_elem
        && field log w f_a = tap_src.(ci)
        && field log w f_b = tap_offset.(ci).Offset.drow - line
        && field log w f_c = tap_offset.(ci).Offset.dcol + j
    in
    let expected ~line ~ci ~j =
      if ci = ntaps then One
      else
        Elem
          {
            src = tap_src.(ci);
            row = tap_offset.(ci).Offset.drow - line;
            col = tap_offset.(ci).Offset.dcol + j;
          }
    in
    (* A load's ring is the first with its (source, column); the k-th
       load of a well-formed phase is the k-th ring's. *)
    let ring_at ~hint src dcol =
      if
        hint < nrings
        && rings.(hint).Plan.src = src
        && rings.(hint).Plan.dcol = dcol
      then first_ring.(hint)
      else first_with src dcol
    in
    (* The columns by first ring, as a hash table filled in ring order:
       a line that misses a column reports the misses in this table's
       iteration order.  Built on the first such line. *)
    let ring_of =
      lazy
        (let table : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
         Array.iteri
           (fun i (r : Plan.ring) ->
             if first_ring.(i) = i then
               Hashtbl.add table (r.Plan.src, r.Plan.dcol) i)
           rings;
         table)
    in
    let line_cycles = Cost.line_cycles config plan in
    let loaded = Array.make nrings (-1) in
    let tally = Array.make (max nterms 1 * width) 0 in
    let stored = Array.make width 0 in
    let marks = Array.make (max nterms 1) (-1) in
    let boundary_cycle = ref 0 in

    for line = 0 to total_lines - 1 do
      if line = unroll then boundary_cycle := !cycle;
      let report = line < unroll in
      let p = line mod unroll in
      let phase = plan.Plan.phases.(p) in
      let line_begin = !cycle in
      cycle := !cycle + config.Config.line_overhead_cycles;

      (* Leading-edge loads: one per ring, in the slot the rotation
         designates, reading the column's top occupied row.
         [loaded.(i)] is the last line that loaded first ring [i]. *)
      let columns_loaded = ref 0 in
      List.iteri
        (fun k slot ->
          (match slot with
          | Instr.Load { reg; src; drow; dcol } ->
              if report then begin
                let ri = ring_at ~hint:k src dcol in
                if ri < 0 then
                  emit
                    (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                       ~instr:slot
                       "load for source %d column %+d, which has no ring" src
                       dcol)
                else begin
                  let ring = rings.(ri) in
                  if loaded.(ri) = line then
                    emit
                      (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                         ~instr:slot
                         "source %d column %+d loaded twice in one line" src
                         dcol)
                  else begin
                    loaded.(ri) <- line;
                    incr columns_loaded
                  end;
                  (* A size-0 ring has no rotation; its layout finding
                     is already out. *)
                  if ring.Plan.size <> 0 then begin
                    let expected = Plan.ring_register ring ~line ~depth:0 in
                    if reg <> expected then
                      emit
                        (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                           ~instr:slot
                           "load for source %d column %+d targets r%d; the \
                            ring rotation designates r%d"
                           src dcol reg expected)
                  end;
                  if drow <> ring.Plan.min_drow then
                    emit
                      (Finding.makef Ring_layout ~phase:p ~cycle:!cycle
                         ~instr:slot
                         "load for source %d column %+d reads row %+d; the \
                          leading edge is row %+d"
                         src dcol drow ring.Plan.min_drow)
                end
              end;
              if not (within reg nregs) then begin
                if report then
                  emit
                    (Finding.makef Register_range ~phase:p ~cycle:!cycle
                       ~instr:slot "load targets r%d, outside the register file"
                       reg)
              end
              else begin
                if report && (reg = zero_reg || reg = one_reg) then
                  emit
                    (Finding.makef Pinned_write ~phase:p ~cycle:!cycle
                       ~instr:slot "load overwrites pinned r%d" reg);
                push log head reg
                  (load_write ~cycle:!cycle ~line ~src ~drow ~dcol)
              end
          | _ ->
              if report then
                emit
                  (Finding.makef Phase_shape ~phase:p ~cycle:!cycle ~instr:slot
                     "load section contains a dynamic part that is not a \
                      load"));
          cycle := !cycle + Instr.cycles config slot)
        phase.Plan.loads;
      if report && !columns_loaded < !columns then
        Hashtbl.iter
          (fun (src, dcol) ri ->
            if loaded.(ri) <> line then
              emit
                (Finding.makef Ring_layout ~phase:p
                   "source %d column %+d is never loaded in phase %d" src dcol
                   p))
          (Lazy.force ring_of);

      cycle := !cycle + config.Config.pipe_reversal_cycles;

      (* The multiply-add section.  Each madd reads its data operand at
         issue and its accumulator at issue + add_latency; its result
         lands at issue + writeback_latency (the Fpu timeline). *)
      if report then Array.fill tally 0 (Array.length tally) 0;
      let out_of_range ~issue slot name r =
        if within r usable_limit then false
        else begin
          if report then
            emit
              (Finding.makef Register_range ~phase:p ~cycle:issue ~instr:slot
                 "multiply-add %s register r%d out of range" name r);
          true
        end
      in
      List.iter
        (fun slot ->
          (match slot with
          | Instr.Nop -> ()
          | Instr.Madd { dst; data; coeff_index; coeff_dcol; acc } ->
              let issue = !cycle in
              if
                (within dst usable_limit && within data usable_limit
                && within acc usable_limit)
                || not
                     (out_of_range ~issue slot "destination" dst
                     || out_of_range ~issue slot "data" data
                     || out_of_range ~issue slot "accumulator" acc)
              then begin
                if
                  report && coeff_index >= 0 && coeff_index < nterms
                  && coeff_dcol >= 0 && coeff_dcol < width
                then begin
                  let t = (coeff_index * width) + coeff_dcol in
                  tally.(t) <- tally.(t) + 1
                end;
                if coeff_index < 0 || coeff_index >= nterms then begin
                  if report then
                    emit
                      (Finding.makef Coeff_streams ~phase:p ~cycle:issue
                         ~instr:slot
                         "coefficient stream %d does not exist (the pattern \
                          has %d terms)"
                         coeff_index nterms)
                end
                else begin
                  let w = read_at log head data ~at:issue in
                  if
                    report
                    && not
                         (holds_expected w ~line ~ci:coeff_index ~j:coeff_dcol)
                  then begin
                    let want = expected ~line ~ci:coeff_index ~j:coeff_dcol in
                    if w < 0 then
                      emit
                        (Finding.makef Unwritten_read ~phase:p ~cycle:issue
                           ~instr:slot
                           "data register r%d is read before any write lands"
                           data)
                    else if kind log w = k_acc then
                      emit
                        (Finding.makef Hazard ~phase:p ~cycle:issue
                           ~instr:slot
                           "data register r%d was recycled: it holds %a, not \
                            %a — the overwrite landed before this read"
                           data pp_value (value_of w) pp_value want)
                    else
                      emit
                        (Finding.makef Wrong_element ~phase:p ~cycle:issue
                           ~instr:slot
                           "data register r%d holds %a where stream %d \
                            occurrence %d needs %a"
                           data pp_value (value_of w) coeff_index coeff_dcol
                           pp_value want)
                  end
                end;
                let acc_at = issue + config.Config.madd_add_latency in
                let a = read_at log head acc ~at:acc_at in
                (* The accumulation this madd continues, or -1 for a
                   fresh chain. *)
                let continues =
                  if kind log a = k_zero then -1
                  else if kind log a = k_acc && acc = dst then begin
                    if report then begin
                      if field log a f_born <> line then
                        emit
                          (Finding.makef Chain_shape ~phase:p ~cycle:issue
                             ~instr:slot
                             "chains onto a stale accumulation from line %d"
                             (field log a f_born));
                      if field log a f_a <> coeff_dcol then
                        emit
                          (Finding.makef Chain_shape ~phase:p ~cycle:issue
                             ~instr:slot
                             "accumulation for column %d fed a coefficient \
                              of column %d"
                             (field log a f_a) coeff_dcol);
                      if has_term a coeff_index then
                        emit
                          (Finding.makef Chain_shape ~phase:p ~cycle:issue
                             ~instr:slot
                             "coefficient stream %d folded into the same \
                              accumulation twice"
                             coeff_index)
                    end;
                    a
                  end
                  else begin
                    if report then
                      if a < 0 then
                        emit
                          (Finding.makef Unwritten_read ~phase:p ~cycle:issue
                             ~instr:slot
                             "accumulator r%d is read before any write lands"
                             acc)
                      else
                        emit
                          (Finding.makef Chain_shape ~phase:p ~cycle:acc_at
                             ~instr:slot
                             "accumulator r%d holds %a — neither the pinned \
                              zero nor this chain's partial sum"
                             acc pp_value (value_of a));
                    -1
                  end
                in
                if report && (dst = zero_reg || dst = one_reg) then
                  emit
                    (Finding.makef Pinned_write ~phase:p ~cycle:issue
                       ~instr:slot "multiply-add writes pinned r%d" dst);
                push log head dst
                  (write ~land_at:(issue + wb) ~kind:k_acc ~born:line ~issue
                     coeff_dcol coeff_index continues)
              end
          | _ ->
              if report then
                emit
                  (Finding.makef Phase_shape ~phase:p ~cycle:!cycle ~instr:slot
                     "multiply-add section contains a memory operation"));
          cycle := !cycle + Instr.cycles config slot)
        phase.Plan.madds;

      cycle := !cycle + config.Config.pipe_reversal_cycles + drain;

      (* Stores: each must read a landed, complete accumulation for
         this line and exactly its own column. *)
      Array.fill stored 0 width 0;
      List.iter
        (fun slot ->
          (match slot with
          | Instr.Store { reg; dcol } ->
              let at = !cycle in
              if dcol < 0 || dcol >= width then begin
                if report then
                  emit
                    (Finding.makef Coverage ~phase:p ~cycle:at ~instr:slot
                       "store to column %d, outside the width-%d strip" dcol
                       width)
              end
              else if report then stored.(dcol) <- stored.(dcol) + 1;
              if not (within reg nregs) then begin
                if report then
                  emit
                    (Finding.makef Register_range ~phase:p ~cycle:at ~instr:slot
                       "store reads r%d, outside the register file" reg)
              end
              else begin
                if report && in_flight reg ~at then
                  emit
                    (Finding.makef Hazard ~phase:p ~cycle:at ~instr:slot
                       "store of r%d while its accumulation is still in \
                        flight"
                       reg);
                let w = read_at log head reg ~at in
                if report then
                  if w < 0 then
                    emit
                      (Finding.makef Unwritten_read ~phase:p ~cycle:at
                         ~instr:slot "store of r%d which was never written" reg)
                  else if kind log w = k_acc then begin
                    if field log w f_born <> line then
                      emit
                        (Finding.makef Store_mismatch ~phase:p ~cycle:at
                           ~instr:slot
                           "stores line %d's accumulation during line %d"
                           (field log w f_born) line);
                    if field log w f_a <> dcol then
                      emit
                        (Finding.makef Store_mismatch ~phase:p ~cycle:at
                           ~instr:slot
                           "stores the accumulation for column %d into \
                            column %d"
                           (field log w f_a) dcol);
                    (* Mark the streams folded in; [marks] is stamped
                       with the write, so it never needs clearing. *)
                    let t = ref w in
                    while !t >= 0 do
                      let ci = field log !t f_b in
                      if ci >= 0 && ci < nterms then marks.(ci) <- w;
                      t := field log !t f_c
                    done;
                    let missing = ref [] in
                    for i = nterms - 1 downto 0 do
                      if marks.(i) <> w then missing := i :: !missing
                    done;
                    if !missing <> [] then
                      emit
                        (Finding.makef Store_mismatch ~phase:p ~cycle:at
                           ~instr:slot
                           "stored accumulation is missing coefficient \
                            stream%s %s"
                           (if List.length !missing = 1 then "" else "s")
                           (String.concat ", "
                              (List.map string_of_int !missing)))
                  end
                  else
                    emit
                      (Finding.makef Store_mismatch ~phase:p ~cycle:at
                         ~instr:slot "stores %a, not a completed accumulation"
                         pp_value (value_of w))
              end
          | _ ->
              if report then
                emit
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
            let n = tally.((ci * width) + j) in
            if n <> 1 then
              emit
                (Finding.makef Coverage ~phase:p
                   "coefficient stream %d contributes %d multiply-adds to \
                    occurrence %d of phase %d (want exactly 1)"
                   ci n j p)
          done
        done;
        (* Independent cycle accounting, against the analytic model. *)
        let line_total = !cycle - line_begin in
        if line_total <> line_cycles then
          emit
            (Finding.makef Cost_model ~phase:p
               "phase %d prices at %d cycles per line; the analytic model \
                says %d"
               p line_total line_cycles)
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
    for reg = 0 to nregs - 1 do
      if head.(reg) >= 0 then begin
        (* Past the live write, newest first. *)
        let w = ref (field log head.(reg) f_older) in
        while !w >= 0 do
          let born = field log !w f_born in
          if field log !w f_read = 0 && born > min_int && born < unroll
          then begin
            let phase = if born >= 0 then Some (born mod unroll) else None in
            let cycle = field log !w f_issue in
            if kind log !w = k_elem then
              emit
                (Finding.makef ~severity:Warning Dead_code ?phase ~cycle
                   "dead load: r%d (%a, loaded at line %d) is overwritten \
                    without ever being read"
                   reg pp_value (value_of !w) born)
            else if kind log !w = k_acc then
              emit
                (Finding.makef ~severity:Warning Dead_code ?phase ~cycle
                   "dead accumulation: r%d (%a) is overwritten without being \
                    stored or chained"
                   reg pp_value (value_of !w))
          end;
          w := field log !w f_older
        done
      end
    done;
    return_log log;
    List.rev !found
  end

let verify_exn config plan =
  match verify config plan with
  | [] -> ()
  | findings -> raise (Finding.Failed findings)
