open Ccc_stencil
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

(* Lay the merged ring buffers out over the register file, source
   after source, column after column, starting just past the pinned
   registers.  Each ring comes with its column's span: bottom occupied
   row minus the leading edge, plus one. *)
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
      let occupied = column.Multistencil.occupied in
      let min_drow = List.hd occupied in
      let ring = { Plan.src; dcol; base = !base; size; min_drow } in
      base := !base + size;
      (ring, List.fold_left max min_int occupied - min_drow + 1))
    alloc.Regalloc.merged_sizes
  |> Array.of_list

(* Index of the first ring holding source [src]'s column [dcol], or -1. *)
let ring_index (rings : Plan.ring array) src dcol =
  let i = ref 0 in
  while
    !i < Array.length rings
    && not (rings.(!i).Plan.src = src && rings.(!i).Plan.dcol = dcol)
  do
    incr i
  done;
  if !i = Array.length rings then -1 else !i

(* Every chain term and tagged accumulator is located once, as a ring
   index and a depth in that ring; each phase then only rotates.  The
   per-phase work reads and writes flat tables indexed by register,
   chain and term, so a plan allocates nothing beyond its own
   instructions. *)
let build_multi config (multi : Multi.t) multistencils
    (alloc : Regalloc.merged_allocation) =
  let source_taps = Array.of_list (Multi.taps multi) in
  let ntaps = Array.length source_taps in
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
  let laid_out = build_rings multistencils alloc ~first_data in
  let rings = Array.map fst laid_out and span = Array.map snd laid_out in
  let nrings = Array.length rings in
  let register ri ~depth ~line ~src ~dcol =
    if ri < 0 then infeasible "no ring buffer for source %d column %d" src dcol
    else Plan.ring_register rings.(ri) ~line ~depth
  in
  let width =
    match multistencils with
    | (_, ms) :: _ -> Multistencil.width ms
    | [] -> invalid_arg "Schedule.build_multi: no sources"
  in
  let chain_len = ntaps + (match bias with Some _ -> 1 | None -> 0) in
  let layout = layout_chains config ~width ~chain_len in
  let wb = config.Ccc_cm2.Config.madd_writeback_latency in
  let spacing = 2 * config.Ccc_cm2.Config.madd_issue_cycles in
  let primary = Multi.primary_source multi in
  let primary_ms = List.assoc primary multistencils in
  let depth_in ri (off : Offset.t) =
    if ri < 0 then 0 else off.drow - rings.(ri).Plan.min_drow
  in
  (* Occurrence [j]'s tagged accumulator, and term [i] of chain [j] at
     [j * ntaps + i]: coefficient stream index = position in the
     Multi.taps order, bias last. *)
  let tag_dcol = Array.make width 0 in
  let tag_ring = Array.make width (-1) and tag_depth = Array.make width 0 in
  for j = 0 to width - 1 do
    let off = Multistencil.tagged_position primary_ms ~occurrence:j in
    let ri = ring_index rings primary off.dcol in
    tag_dcol.(j) <- off.dcol;
    tag_ring.(j) <- ri;
    tag_depth.(j) <- depth_in ri off
  done;
  let term_ring = Array.make (width * ntaps) (-1) in
  let term_depth = Array.make (width * ntaps) 0 in
  for j = 0 to width - 1 do
    Array.iteri
      (fun i (st : Multi.source_tap) ->
        let off = st.Multi.tap.Tap.offset in
        let ri = ring_index rings st.Multi.source (off.dcol + j) in
        term_ring.((j * ntaps) + i) <- ri;
        term_depth.((j * ntaps) + i) <- depth_in ri off)
      source_taps
  done;
  let term_register ~line j i =
    if i = ntaps then Option.get one_reg
    else
      let st = source_taps.(i) in
      register
        term_ring.((j * ntaps) + i)
        ~depth:term_depth.((j * ntaps) + i)
        ~line ~src:st.Multi.source
        ~dcol:(st.Multi.tap.Tap.offset.dcol + j)
  in
  (* Deadline of a register: the cycle on which its first overwriting
     accumulation lands, relative to the start of the madd section;
     [max_int] for a register no chain overwrites. *)
  let reg_end =
    Array.fold_left
      (fun acc (r : Plan.ring) -> max acc (r.Plan.base + r.Plan.size))
      registers_used rings
  in
  let deadline = Array.make reg_end max_int in
  let tag = Array.make width 0 in
  let data = Array.make chain_len 0 and order = Array.make chain_len 0 in
  let ordered_data = Array.make (width * chain_len) 0 in
  let ordered_coeff = Array.make (width * chain_len) 0 in
  let madd j k =
    let c = (j * chain_len) + k in
    Instr.Madd
      {
        dst = tag.(j);
        data = ordered_data.(c);
        coeff_index = ordered_coeff.(c);
        coeff_dcol = j;
        acc = (if k = 0 then zero_reg else tag.(j));
      }
  in
  let load_list ~line keep =
    let loads = ref [] in
    for r = nrings - 1 downto 0 do
      if keep r then begin
        let ring = rings.(r) in
        loads :=
          Instr.Load
            {
              reg = Plan.ring_register ring ~line ~depth:0;
              src = ring.Plan.src;
              drow = ring.Plan.min_drow;
              dcol = ring.Plan.dcol;
            }
          :: !loads
      end
    done;
    !loads
  in
  let make_phase p =
    for j = 0 to width - 1 do
      tag.(j) <-
        register tag_ring.(j) ~depth:tag_depth.(j) ~line:p ~src:primary
          ~dcol:tag_dcol.(j)
    done;
    for j = 0 to width - 1 do
      let r = tag.(j) in
      deadline.(r) <- min deadline.(r) (layout.first_issue.(j) + wb)
    done;
    for j = 0 to width - 1 do
      (* Order the chain's terms by (deadline, coefficient index):
         insertion into the already-ordered prefix keeps equal
         deadlines in coefficient order. *)
      for i = 0 to chain_len - 1 do
        data.(i) <- term_register ~line:p j i;
        let key = deadline.(data.(i)) in
        let k = ref (i - 1) in
        while !k >= 0 && deadline.(data.(order.(!k))) > key do
          order.(!k + 1) <- order.(!k);
          decr k
        done;
        order.(!k + 1) <- i
      done;
      for k = 0 to chain_len - 1 do
        let i = order.(k) in
        let r = data.(i) in
        let issue = layout.first_issue.(j) + (k * spacing) in
        let dl = deadline.(r) in
        if issue >= dl then
          infeasible ~phase:p ~cycle:issue
            "chain %d: tap reading r%d issues on cycle %d but the register \
             is overwritten on cycle %d"
            j r issue dl;
        ordered_data.((j * chain_len) + k) <- r;
        ordered_coeff.((j * chain_len) + k) <- i
      done
    done;
    for j = 0 to width - 1 do
      deadline.(tag.(j)) <- max_int
    done;
    (* Interleave per the fixed layout, built back to front: pairs of
       chains alternate slots, a lone final chain puts a nop after each
       multiply-add but its last. *)
    let madds = ref [] in
    if width land 1 = 1 then
      for k = chain_len - 1 downto 0 do
        if k < chain_len - 1 then madds := Instr.Nop :: !madds;
        madds := madd (width - 1) k :: !madds
      done;
    for pair = (width / 2) - 1 downto 0 do
      for k = chain_len - 1 downto 0 do
        madds := madd ((2 * pair) + 1) k :: !madds;
        madds := madd (2 * pair) k :: !madds
      done
    done;
    let loads = load_list ~line:p (fun _ -> true) in
    let stores = ref [] in
    for j = width - 1 downto 0 do
      stores := Instr.Store { reg = tag.(j); dcol = j } :: !stores
    done;
    { Plan.loads; madds = !madds; stores = !stores }
  in
  let unroll = alloc.Regalloc.merged_unroll in
  let phases = Array.init unroll make_phase in
  (* Warmup prologue: fill every ring down to its column's deepest
     occupied element.  Warmup step i stands for virtual line i - len. *)
  let max_depth = Array.fold_left (fun acc s -> max acc (s - 1)) 0 span in
  let prologue_words = ref 0 in
  let prologue =
    Array.init max_depth (fun i ->
        let v = i - max_depth in
        load_list ~line:v (fun r ->
            let keep = span.(r) > -v in
            if keep then incr prologue_words;
            keep))
  in
  let coeff_streams =
    Array.init chain_len (fun i ->
        if i < ntaps then source_taps.(i).Multi.tap.Tap.coeff
        else Option.get bias)
  in
  let madd_slots = (width * chain_len) + ((width land 1) * (chain_len - 1)) in
  {
    Plan.width;
    multi;
    multistencils;
    rings = Array.to_list rings;
    unroll;
    phases;
    prologue;
    zero_reg;
    one_reg;
    registers_used;
    dynamic_words = (unroll * (nrings + madd_slots + width)) + !prologue_words;
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
   overwrites and stores follow landings.  A register's landings sit in
   tables indexed by register and stamped with the phase that wrote
   them; a register outside the file (only a malformed plan names one)
   is kept in a short list beside them. *)
let check_hazards (config : Ccc_cm2.Config.t) (plan : Plan.t) =
  let wb = config.madd_writeback_latency in
  let drain = max 0 (wb - config.pipe_reversal_cycles) in
  let nregs = config.fpu_registers in
  let in_file r = r >= 0 && r < nregs in
  let stamp = Array.make nregs (-1) in
  let first_land = Array.make nregs 0 and last_land = Array.make nregs 0 in
  let strays = ref [] in
  let record p r lands_at =
    if in_file r then begin
      if stamp.(r) <> p then begin
        stamp.(r) <- p;
        first_land.(r) <- lands_at
      end;
      last_land.(r) <- lands_at
    end
    else
      strays :=
        match List.assoc_opt r !strays with
        | None -> (r, (lands_at, lands_at)) :: !strays
        | Some (first, _) ->
            (r, (first, lands_at)) :: List.remove_assoc r !strays
  in
  let landed p r =
    if in_file r then stamp.(r) = p else List.mem_assoc r !strays
  in
  let first r =
    if in_file r then first_land.(r) else fst (List.assoc r !strays)
  in
  let last r =
    if in_file r then last_land.(r) else snd (List.assoc r !strays)
  in
  (* A load's ring is the first with its (source, column); the k-th
     load of a well-formed phase is the k-th ring's. *)
  let rings = Array.of_list plan.Plan.rings in
  let nrings = Array.length rings in
  let first_ring =
    Array.map
      (fun (r : Plan.ring) -> ring_index rings r.Plan.src r.Plan.dcol)
      rings
  in
  let find_ring ~hint src dcol =
    if
      hint < nrings
      && rings.(hint).Plan.src = src
      && rings.(hint).Plan.dcol = dcol
    then first_ring.(hint)
    else ring_index rings src dcol
  in
  Array.iteri
    (fun p phase ->
      let fail ?cycle check fmt =
        Format.kasprintf
          (fun m ->
            raise (Finding.Failed [ Finding.make ~phase:p ?cycle check m ]))
          fmt
      in
      strays := [];
      (* First pass: when does each register's first madd write land,
         and when does its last write land? *)
      let cycle = ref 0 in
      List.iter
        (fun slot ->
          (match slot with
          | Instr.Madd { dst; _ } -> record p dst (!cycle + wb)
          | Instr.Load _ | Instr.Store _ | Instr.Nop -> ());
          cycle := !cycle + Instr.cycles config slot)
        phase.Plan.madds;
      let madd_section = !cycle in
      (* Second pass: verify data reads. *)
      let cycle = ref 0 in
      List.iter
        (fun slot ->
          (match slot with
          | Instr.Madd { data; _ } when landed p data && !cycle >= first data ->
              fail ~cycle:!cycle Finding.Hazard
                "madd on cycle %d reads r%d after its overwrite lands on cycle \
                 %d"
                !cycle data (first data)
          | Instr.Madd _ | Instr.Load _ | Instr.Store _ | Instr.Nop -> ());
          cycle := !cycle + Instr.cycles config slot)
        phase.Plan.madds;
      (* Third pass: stores happen after the final landing. *)
      let store_cycle =
        ref (madd_section + config.pipe_reversal_cycles + drain)
      in
      List.iter
        (fun slot ->
          (match slot with
          | Instr.Store { reg; _ } ->
              if not (landed p reg) then
                fail ~cycle:!store_cycle Finding.Store_mismatch
                  "store of r%d which no chain wrote" reg
              else if !store_cycle < last reg then
                fail ~cycle:!store_cycle Finding.Hazard
                  "store of r%d on cycle %d precedes its landing on cycle %d"
                  reg !store_cycle (last reg)
          | Instr.Load _ | Instr.Madd _ | Instr.Nop -> ());
          store_cycle := !store_cycle + Instr.cycles config slot)
        phase.Plan.stores;
      (* Loads target the slot the ring rotation designates. *)
      List.iteri
        (fun k slot ->
          match slot with
          | Instr.Load { reg; src; dcol; _ } ->
              let ri = find_ring ~hint:k src dcol in
              if ri < 0 then
                fail Finding.Ring_layout
                  "load for unknown column %d of source %d" dcol src;
              let ring = rings.(ri) in
              if ring.Plan.size = 0 then
                fail Finding.Ring_layout
                  "ring for source %d column %+d has size 0" src dcol;
              let expected = Plan.ring_register ring ~line:p ~depth:0 in
              if reg <> expected then
                fail Finding.Ring_layout
                  "load for column %d targets r%d, ring expects r%d" dcol reg
                  expected
          | Instr.Store _ | Instr.Madd _ | Instr.Nop -> ())
        phase.Plan.loads)
    plan.Plan.phases
