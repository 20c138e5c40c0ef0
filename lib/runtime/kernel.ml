open Ccc_stencil
module Memory = Ccc_cm2.Memory
module Config = Ccc_cm2.Config
module Compile = Ccc_compiler.Compile
module Plan = Ccc_microcode.Plan
module Interp = Ccc_microcode.Interp
module Finding = Ccc_analysis.Finding

(* The geometry-independent lowered form: per tap, which source it
   reads and its (drow, dcol) displacement, in pattern (= coefficient
   stream) order.  Specialization against concrete region layouts
   turns this into flat offset tables. *)
type t = {
  srcs : int array;
  drows : int array;
  dcols : int array;
  has_bias : bool;
}

let ntaps t = Array.length t.srcs
let nstreams t = ntaps t + if t.has_bias then 1 else 0

let lower multi =
  let taps = Multi.taps multi in
  let n = List.length taps in
  let srcs = Array.make n 0
  and drows = Array.make n 0
  and dcols = Array.make n 0 in
  List.iteri
    (fun i (st : Multi.source_tap) ->
      srcs.(i) <- st.Multi.source;
      drows.(i) <- st.Multi.tap.Tap.offset.Offset.drow;
      dcols.(i) <- st.Multi.tap.Tap.offset.Offset.dcol)
    taps;
  { srcs; drows; dcols; has_bias = Multi.bias multi <> None }

type source_layout = { base : int; pcols : int; pad : int }

type spec = {
  sub_rows : int;
  sub_cols : int;
  tap_off : int array;
  tap_stride : int array;
  coeff_off : int array;
  bias_off : int;
  dst_off : int;
  (* Tile decomposition of the subgrid, row-major, precomputed here so
     the execution loop never divides: tile [i] covers rows
     [tile_row0.(i), tile_row0.(i) + tile_nrows.(i)) and columns
     [tile_col0.(i), tile_col0.(i) + tile_ncols.(i)).  Edge tiles are
     clamped, so the tiles partition the subgrid exactly. *)
  tile_row0 : int array;
  tile_nrows : int array;
  tile_col0 : int array;
  tile_ncols : int array;
  (* One past the highest word any walk touches: the store length the
     unchecked accesses need. *)
  extent : int;
}

let tile_count spec = Array.length spec.tile_row0
let extent spec = spec.extent

let specialize t ?tile ~sub_rows ~sub_cols ~(sources : source_layout array)
    ~(coeff_bases : int array) ~dst_base ~words () =
  if sub_rows <= 0 || sub_cols <= 0 then
    invalid_arg "Kernel.specialize: non-positive subgrid";
  if Array.length coeff_bases <> nstreams t then
    invalid_arg
      (Printf.sprintf "Kernel.specialize: %d coefficient streams for %d"
         (Array.length coeff_bases) (nstreams t));
  let n = ntaps t in
  let tap_off = Array.make n 0 and tap_stride = Array.make n 0 in
  (* Every offset below is validated against [0, words) over the whole
     sweep once, here, and the highest word reached is kept as the
     walk's extent; together with the extent check on the store in
     [exec_tile], that is what licenses its unchecked array accesses. *)
  let extent = ref 0 in
  let check_span who off stride =
    let last = off + ((sub_rows - 1) * stride) + (sub_cols - 1) in
    if off < 0 || stride < sub_cols || last >= words then
      invalid_arg
        (Printf.sprintf
           "Kernel.specialize: %s walk [%d..%d] stride %d escapes %d words"
           who off last stride words);
    extent := max !extent (last + 1)
  in
  for i = 0 to n - 1 do
    let src = t.srcs.(i) in
    if src < 0 || src >= Array.length sources then
      invalid_arg "Kernel.specialize: tap source out of range";
    let layout = sources.(src) in
    tap_off.(i) <-
      layout.base
      + ((t.drows.(i) + layout.pad) * layout.pcols)
      + t.dcols.(i) + layout.pad;
    tap_stride.(i) <- layout.pcols;
    check_span (Printf.sprintf "tap %d" i) tap_off.(i) tap_stride.(i)
  done;
  let coeff_off = Array.sub coeff_bases 0 n in
  Array.iteri
    (fun i off -> check_span (Printf.sprintf "stream %d" i) off sub_cols)
    coeff_off;
  let bias_off = if t.has_bias then coeff_bases.(n) else -1 in
  if t.has_bias then check_span "bias stream" bias_off sub_cols;
  check_span "destination" dst_base sub_cols;
  (* Tile geometry: the requested shape is clamped into
     [1, sub_rows] x [1, sub_cols] (degenerate 1x1 and
     larger-than-subgrid requests are both legal), and edge tiles
     absorb the non-dividing remainder.  Every tile access is a subset
     of a walk [check_span] just validated, so the tile tables need no
     further bounds proof. *)
  let trows, tcols =
    match tile with
    | None -> (sub_rows, sub_cols)
    | Some (tr, tc) -> (min (max 1 tr) sub_rows, min (max 1 tc) sub_cols)
  in
  let ntr = (sub_rows + trows - 1) / trows in
  let ntc = (sub_cols + tcols - 1) / tcols in
  let ntiles = ntr * ntc in
  let tile_row0 = Array.make ntiles 0
  and tile_nrows = Array.make ntiles 0
  and tile_col0 = Array.make ntiles 0
  and tile_ncols = Array.make ntiles 0 in
  for i = 0 to ntiles - 1 do
    let row0 = i / ntc * trows and col0 = i mod ntc * tcols in
    tile_row0.(i) <- row0;
    tile_nrows.(i) <- min trows (sub_rows - row0);
    tile_col0.(i) <- col0;
    tile_ncols.(i) <- min tcols (sub_cols - col0)
  done;
  {
    sub_rows;
    sub_cols;
    tap_off;
    tap_stride;
    coeff_off;
    bias_off;
    dst_off = dst_base;
    tile_row0;
    tile_nrows;
    tile_col0;
    tile_ncols;
    extent = !extent;
  }

(* The branch-free inner loop, tile-blocked and tap-interchanged: per
   tile row the destination span is zeroed, then each tap (and last the
   bias) sweeps the span as a unit-stride fused multiply-accumulate
   trip with preresolved row bases hoisted out of the column loop.  Per
   cell the additions still run in exactly the tapwalk's order — 0.0,
   then taps in pattern order, bias last, each rounded through the
   destination word (a double survives the store/load round trip
   bit-for-bit) — so the interchange is bit-identical to the per-cell
   walk, signed zeros included.  All accesses are subsets of the walks
   [specialize] validated, and [exec_tile]/[exec_node] check that the
   store reaches their extent before calling in (one comparison per
   call), which licenses the unchecked reads and writes; the loop
   allocates nothing, so concurrent tiles share no scratch. *)
let run_tile spec tile (raw : float array) =
  let n = Array.length spec.tap_off in
  let sub_cols = spec.sub_cols in
  let row0 = Array.unsafe_get spec.tile_row0 tile in
  let nrows = Array.unsafe_get spec.tile_nrows tile in
  let col0 = Array.unsafe_get spec.tile_col0 tile in
  let ncols = Array.unsafe_get spec.tile_ncols tile in
  let has_bias = spec.bias_off >= 0 in
  for r = row0 to row0 + nrows - 1 do
    let dst = spec.dst_off + (r * sub_cols) + col0 in
    for j = 0 to ncols - 1 do
      Array.unsafe_set raw (dst + j) 0.0
    done;
    for i = 0 to n - 1 do
      let tap =
        Array.unsafe_get spec.tap_off i
        + (r * Array.unsafe_get spec.tap_stride i)
        + col0
      in
      let coeff = Array.unsafe_get spec.coeff_off i + (r * sub_cols) + col0 in
      for j = 0 to ncols - 1 do
        Array.unsafe_set raw (dst + j)
          (Array.unsafe_get raw (dst + j)
          +. Array.unsafe_get raw (coeff + j) *. Array.unsafe_get raw (tap + j)
          )
      done
    done;
    if has_bias then begin
      let bias = spec.bias_off + (r * sub_cols) + col0 in
      for j = 0 to ncols - 1 do
        Array.unsafe_set raw (dst + j)
          (Array.unsafe_get raw (dst + j) +. Array.unsafe_get raw (bias + j))
      done
    end
  done

let check_store who spec (raw : float array) =
  if Array.length raw < spec.extent then
    invalid_arg
      (Printf.sprintf
         "Kernel.%s: %d-word store is shorter than the %d-word walk extent"
         who (Array.length raw) spec.extent)

let exec_tile spec tile raw =
  check_store "exec_tile" spec raw;
  if tile < 0 || tile >= tile_count spec then
    invalid_arg "Kernel.exec_tile: tile out of range";
  run_tile spec tile raw

let exec_node spec raw =
  check_store "exec_node" spec raw;
  for tile = 0 to tile_count spec - 1 do
    run_tile spec tile raw
  done

(* ------------------------------------------------------------------ *)
(* Build-time verification on a one-node sandbox (the same style as
   [Exec.trace]): fill a padded temporary exactly as Halo.exchange_into
   would on a single node — boundary semantics of the subgrid itself,
   NaN-poisoned corners when no tap is diagonal — then require the
   lowered kernel to match Reference.apply, and the cycle-accurate
   interpreter run over the same bindings to match the kernel. *)

let sandbox_value name r c =
  let h = Hashtbl.hash (name, r, c) land 0x3FFFFFFF in
  (float_of_int h /. float_of_int 0x40000000) -. 0.5

let referenced_names pattern =
  List.sort_uniq compare (Reference.referenced_arrays pattern)

let verify (config : Config.t) (compiled : Compile.t) t =
  let pattern = compiled.Compile.pattern in
  let plan = Compile.widest compiled in
  let streams = plan.Plan.coeff_streams in
  if Array.length streams <> nstreams t then
    raise
      (Finding.Failed
         [
           Finding.makef Finding.Coeff_streams
             "kernel: plan carries %d coefficient streams, lowering expects %d"
             (Array.length streams) (nstreams t);
         ]);
  let pad = Pattern.max_border pattern in
  let sub_cols = plan.Plan.width in
  let sub_rows = max 6 ((2 * pad) + 2) in
  let env =
    List.map
      (fun name ->
        (name, Grid.init ~rows:sub_rows ~cols:sub_cols (sandbox_value name)))
      (referenced_names pattern)
  in
  let expected = Reference.apply pattern env in
  let pcols = sub_cols + (2 * pad) in
  let prows = sub_rows + (2 * pad) in
  let words =
    (prows * pcols) + (sub_rows * sub_cols * (Array.length streams + 1)) + 8
  in
  let mem = Memory.create ~words in
  let padded = Memory.alloc mem ~words:(prows * pcols) in
  let dst = Memory.alloc mem ~words:(sub_rows * sub_cols) in
  let coeffs =
    Array.map (fun _ -> Memory.alloc mem ~words:(sub_rows * sub_cols)) streams
  in
  let frame = Reference.padded_source pattern env ~pad_rows:pad ~pad_cols:pad in
  if not (Pattern.needs_corners pattern) then
    for r = -pad to sub_rows + pad - 1 do
      for c = -pad to sub_cols + pad - 1 do
        if (r < 0 || r >= sub_rows) && (c < 0 || c >= sub_cols) then
          Grid.set frame (r + pad) (c + pad) Float.nan
      done
    done;
  Memory.blit_in mem padded (Grid.raw frame);
  Array.iteri
    (fun i coeff ->
      for r = 0 to sub_rows - 1 do
        for c = 0 to sub_cols - 1 do
          Memory.write mem
            (coeffs.(i).Memory.base + (r * sub_cols) + c)
            (Reference.coeff_value env coeff r c)
        done
      done)
    streams;
  let specialize_with tile =
    let spec =
      specialize t ?tile ~sub_rows ~sub_cols
        ~sources:[| { base = padded.Memory.base; pcols; pad } |]
        ~coeff_bases:
          (Array.map (fun (r : Memory.region) -> r.Memory.base) coeffs)
        ~dst_base:dst.Memory.base ~words:(Memory.words mem) ()
    in
    Memory.reserve mem (extent spec);
    spec
  in
  let spec = specialize_with None in
  exec_node spec (Memory.raw mem);
  let kernel_out = Memory.blit_out mem dst in
  let check_against what actual =
    let findings = ref [] in
    for r = sub_rows - 1 downto 0 do
      for c = sub_cols - 1 downto 0 do
        let got = actual.((r * sub_cols) + c) in
        let want = Grid.get expected r c in
        if not (Float.abs (got -. want) <= 1e-9) then
          findings :=
            Finding.makef Finding.Store_mismatch
              "kernel: %s wrote %.17g at (%d,%d), reference %.17g" what got r
              c want
            :: !findings
      done
    done;
    if !findings <> [] then raise (Finding.Failed !findings)
  in
  check_against "lowered inner loop" kernel_out;
  (* The tiled walk again under a deliberately awkward blocking — a
     tile one short of the subgrid in each direction, so the sandbox
     exercises interior tiles, clamped edge tiles and the remainder
     columns — must write the very same bits. *)
  let tiled =
    specialize_with (Some (max 1 (sub_rows - 1), max 1 (sub_cols - 1)))
  in
  exec_node tiled (Memory.raw mem);
  let tiled_out = Memory.blit_out mem dst in
  Array.iteri
    (fun i k ->
      if not (Int64.equal (Int64.bits_of_float k)
                (Int64.bits_of_float tiled_out.(i)))
      then
        raise
          (Finding.Failed
             [
               Finding.makef Finding.Store_mismatch
                 "kernel: tiled walk wrote %.17g at (%d,%d) where the \
                  whole-subgrid walk wrote %.17g"
                 tiled_out.(i) (i / sub_cols) (i mod sub_cols) k;
             ]))
    kernel_out;
  (* Cross-check against the cycle-accurate interpreter over the same
     sandbox bindings. *)
  let bindings =
    {
      Interp.memory = mem;
      sources = [| { Interp.padded; padded_cols = pcols; pad } |];
      dst;
      dst_cols = sub_cols;
      coeffs;
    }
  in
  let strips = Stripmine.strips compiled ~sub_cols in
  List.iter
    (fun (s : Stripmine.strip) ->
      List.iter
        (fun (hs : Stripmine.halfstrip) ->
          ignore
            (Interp.run_halfstrip config hs.Stripmine.strip.Stripmine.plan
               bindings ~col0:hs.Stripmine.strip.Stripmine.col0
               ~rows:hs.Stripmine.rows))
        (Stripmine.halfstrips s ~sub_rows))
    strips;
  let interp_out = Memory.blit_out mem dst in
  check_against "interpreter" interp_out;
  Array.iteri
    (fun i k ->
      if not (Float.abs (k -. interp_out.(i)) <= 1e-9) then
        raise
          (Finding.Failed
             [
               Finding.makef Finding.Store_mismatch
                 "kernel: lowered inner loop wrote %.17g at (%d,%d) where the \
                  interpreter wrote %.17g"
                 k (i / sub_cols) (i mod sub_cols) interp_out.(i);
             ]))
    kernel_out

let build config compiled =
  let t = lower (Multi.of_pattern compiled.Compile.pattern) in
  verify config compiled t;
  t

let corrupt ?(seed = 1) t =
  let n = max 1 (ntaps t) in
  let victim = (seed land max_int) mod n in
  let dcols = Array.copy t.dcols in
  dcols.(victim) <- dcols.(victim) + 1;
  { t with dcols }
