module Machine = Ccc_cm2.Machine
module Memory = Ccc_cm2.Memory
module Geometry = Ccc_cm2.Geometry
module Exec = Ccc_runtime.Exec
module Halo = Ccc_runtime.Halo
module Dist = Ccc_runtime.Dist
module Grid = Ccc_runtime.Grid
module Reference = Ccc_runtime.Reference
module Kernel = Ccc_runtime.Kernel
module Compile = Ccc_compiler.Compile
module Pattern = Ccc_stencil.Pattern
module Finding = Ccc_analysis.Finding
module Verify = Ccc_analysis.Verify

(* Memory.read for an address inside a region: a word past the
   materialized prefix reads 0.0. *)
let[@inline] word raw addr = if addr < Array.length raw then raw.(addr) else 0.0

(* Re-derive every padded cell with the owner arithmetic of
   Halo.exchange_into's fill_cell.  A clean exchange computed exactly
   this value from exactly these reads, so exact (Float.compare)
   equality is the right test: zero false positives by construction,
   and NaN corner poison compares equal to itself.  The owner is
   resolved once per segment rather than per cell: a padded row splits
   into its west frame, body and east frame, and since an exchange's
   pad never exceeds the subgrid side, each segment is either corner
   poison, EOSHIFT fill from beyond the global edge, or one contiguous
   run of one node's subgrid row — compared word by word.  Findings
   come out node by node, row by row, column by column. *)
let check_halo ~(source : Dist.t) ~(halo : Halo.exchange) ~boundary
    ~needs_corners =
  let { Dist.machine; region; sub_rows; sub_cols } = source in
  let pad = halo.Halo.pad in
  let pcols = halo.Halo.padded_cols in
  let geometry = Machine.geometry machine in
  let grows = Dist.global_rows source and gcols = Dist.global_cols source in
  let fill_value =
    match boundary with
    | Ccc_stencil.Boundary.Circular -> None
    | Ccc_stencil.Boundary.End_off fill -> Some fill
  in
  let wrap v n = ((v mod n) + n) mod n in
  let findings = ref [] in
  for node = 0 to Machine.node_count machine - 1 do
    let raw = Memory.raw (Machine.memory machine node) in
    let node_row, node_col = Geometry.coord_of_node geometry node in
    let base_grow = node_row * sub_rows and base_gcol = node_col * sub_cols in
    for r = -pad to sub_rows + pad - 1 do
      (* the address of padded cell (r, 0) *)
      let at = halo.Halo.padded.Memory.base + ((r + pad) * pcols) + pad in
      (* columns [c0, c1) against [src] read from [from] on: a subgrid
         row at stride 1, one value at stride 0 *)
      let compare_run c0 c1 src from stride =
        for c = c0 to c1 - 1 do
          let want = word src (from + (stride * (c - c0)))
          and got = word raw (at + c) in
          if Float.compare want got <> 0 then
            findings :=
              Finding.makef Finding.Halo_integrity
                "halo: node %d padded cell (%d,%d) holds %.17g, exchange \
                 wrote %.17g"
                node r c got want
              :: !findings
        done
      in
      let grow = base_grow + r in
      let segment c0 c1 =
        let in_corner =
          (r < 0 || r >= sub_rows) && (c0 < 0 || c0 >= sub_cols)
        in
        if in_corner && not needs_corners then
          compare_run c0 c1 [| Float.nan |] 0 0
        else
          let gcol = base_gcol + c0 in
          let outside =
            grow < 0 || grow >= grows || gcol < 0 || gcol >= gcols
          in
          match fill_value with
          | Some fill when outside -> compare_run c0 c1 [| fill |] 0 0
          | Some _ | None ->
              let node', row', col' =
                Dist.owner source ~grow:(wrap grow grows)
                  ~gcol:(wrap gcol gcols)
              in
              compare_run c0 c1
                (Memory.raw (Machine.memory machine node'))
                (region.Memory.base + (row' * sub_cols) + col')
                1
      in
      segment (-pad) 0;
      segment 0 sub_cols;
      segment sub_cols (sub_cols + pad)
    done
  done;
  List.rev !findings

let check_output ?(limit = 8) pattern env output =
  let expected = Reference.apply pattern env in
  let rows = Grid.rows expected and cols = Grid.cols expected in
  let findings = ref [] and total = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let want = Grid.get expected r c and got = Grid.get output r c in
      if not (Float.abs (got -. want) <= 1e-9) then begin
        incr total;
        if !total <= limit then
          findings :=
            Finding.makef Finding.Output_integrity
              "output: cell (%d,%d) holds %.17g, reference %.17g" r c got want
            :: !findings
      end
    done
  done;
  if !total > limit then
    findings :=
      Finding.makef Finding.Output_integrity
        "output: %d cells diverge from the reference (first %d reported)"
        !total limit
      :: !findings;
  List.rev !findings

let check_kernel config compiled kernel =
  match Kernel.verify config compiled kernel with
  | () -> []
  | exception Finding.Failed fs ->
      Finding.makef Finding.Kernel_integrity
        "kernel: cached lowering failed sandbox re-verification (%d findings)"
        (List.length fs)
      :: fs
  | exception Invalid_argument msg ->
      [
        Finding.makef Finding.Kernel_integrity
          "kernel: specialization rejected the cached lowering: %s" msg;
      ]

let revalidate config (compiled : Compile.t) =
  List.concat_map (Verify.verify config) compiled.Compile.plans

let mix h bits =
  let rot =
    Int64.logor (Int64.shift_left h 7) (Int64.shift_right_logical h 57)
  in
  Int64.mul (Int64.logxor rot bits) 0x100000001B3L

let grid_checksum grid =
  let h = ref 0xcbf29ce484222325L in
  for r = 0 to Grid.rows grid - 1 do
    for c = 0 to Grid.cols grid - 1 do
      h := mix !h (Int64.bits_of_float (Grid.get grid r c))
    done
  done;
  !h

let region_checksum machine (region : Memory.region) =
  let h = ref 0xcbf29ce484222325L in
  for node = 0 to Machine.node_count machine - 1 do
    let mem = Machine.memory machine node in
    for i = 0 to region.Memory.words - 1 do
      h := mix !h (Int64.bits_of_float (Memory.read mem (region.Memory.base + i)))
    done
  done;
  !h

type watch = {
  hooks : Exec.hooks;
  caught : Finding.t list ref;
}

let watch pattern =
  let caught = ref [] in
  let boundary = Pattern.boundary pattern in
  let needs_corners = Pattern.needs_corners pattern in
  let hooks =
    {
      Exec.on_phase =
        (fun ctx ->
          if ctx.Exec.phase = "halo" then
            match (ctx.Exec.source, ctx.Exec.halo) with
            | Some source, Some halo -> begin
                match check_halo ~source ~halo ~boundary ~needs_corners with
                | [] -> ()
                | fs -> caught := fs @ !caught
              end
            | _ -> ());
      on_compute_node = (fun _ -> ());
    }
  in
  { hooks; caught }
