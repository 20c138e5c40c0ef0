open Ccc_stencil

type env = (string * Grid.t) list

exception Unbound of string
exception Shape_mismatch of string

let lookup env name =
  match List.assoc_opt name env with
  | Some grid -> grid
  | None -> raise (Unbound name)

let coeff_value env coeff r c =
  match coeff with
  | Coeff.Array name -> Grid.get (lookup env name) r c
  | Coeff.Scalar v -> v
  | Coeff.One -> 1.0

let referenced_arrays pattern =
  Pattern.source_var pattern
  :: List.filter_map (fun t -> Coeff.array_name t.Tap.coeff)
       (Pattern.taps pattern)
  @ (match Pattern.bias pattern with
    | Some c -> Option.to_list (Coeff.array_name c)
    | None -> [])

let check_env pattern env =
  let source = lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source and cols = Grid.cols source in
  List.iter
    (fun name ->
      let g = lookup env name in
      if Grid.rows g <> rows || Grid.cols g <> cols then
        raise
          (Shape_mismatch
             (Printf.sprintf "%s is %dx%d but %s is %dx%d" name (Grid.rows g)
                (Grid.cols g)
                (Pattern.source_var pattern)
                rows cols)))
    (referenced_arrays pattern)

let wrap v n = ((v mod n) + n) mod n

let padded_source pattern env ~pad_rows ~pad_cols =
  let source = lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source and cols = Grid.cols source in
  let fill =
    match Pattern.boundary pattern with
    | Boundary.Circular -> None
    | Boundary.End_off fill -> Some fill
  in
  let src = Grid.raw source in
  let pcols = cols + (2 * pad_cols) in
  let padded = Grid.create ~rows:(rows + (2 * pad_rows)) ~cols:pcols in
  let dst = Grid.raw padded in
  for pr = 0 to rows + (2 * pad_rows) - 1 do
    let r = pr - pad_rows and base = pr * pcols in
    match fill with
    | Some fill when r < 0 || r >= rows -> Array.fill dst base pcols fill
    | _ ->
        let row = wrap r rows * cols in
        Array.blit src row dst (base + pad_cols) cols;
        for pc = 0 to pcols - 1 do
          let c = pc - pad_cols in
          if c < 0 || c >= cols then
            dst.(base + pc) <-
              (match fill with
              | Some fill -> fill
              | None -> src.(row + wrap c cols))
        done
  done;
  padded

(* A coefficient as a flat field read at [k.(stride * i)]: an array
   with stride 1, a literal or implicit 1.0 broadcast with stride 0. *)
let field env coeff =
  match coeff with
  | Coeff.Array name -> (Grid.raw (lookup env name), 1)
  | Coeff.Scalar _ | Coeff.One -> ([| coeff_value env coeff 0 0 |], 0)

(* The per-point fold [0.0 +. c_1 x_1 +. ... +. c_n x_n +. bias], run
   tap-major: each tap is resolved once and swept over the whole grid
   as multiply-adds into [out], so every point still sees the same
   operations in the same order.  Offsets are reduced to the grid
   first — CSHIFT modulo the side, EOSHIFT clamped to +-side, past
   which every read is the fill.  A tap's reads along one output row
   are then at most three runs: the columns [lo, hi) whose read stays
   in the row, a slice of one source row, and the columns pushed off
   either edge, which read the slice wrapped once under CSHIFT or the
   fill (a one-word field at stride 0) under EOSHIFT; a row pushed off
   the grid under EOSHIFT reads the fill throughout.  No grid-sized
   array is allocated but the result, whatever the pattern's border.
   The unsafe accesses stay inside [0, rows * cols) for [out] and the
   stride-1 fields (check_env fixed their shape), at word 0 of the
   stride-0 ones, and inside the source row [row, row + cols) by the
   choice of [lo] and [hi] and, for the CSHIFT edges, |dc| < cols.
   Which NaN payload survives an add of two NaNs depends on operand
   order, and so on code generation: ocamlopt folds a loaded operand
   of [+.] into the instruction, preferring the right one, and the
   other operand's NaN wins.  In the fold both adds have a loaded left
   operand ([acc], [sum]), so the right one wins; the tap add below has
   the same shape, and the bias add is spelled [bias +. sum] so that
   the bias wins too.  The reference property group pins this. *)
let apply pattern env =
  check_env pattern env;
  let source = lookup env (Pattern.source_var pattern) in
  let rows = Grid.rows source and cols = Grid.cols source in
  let src = (Grid.raw source, 1) in
  let reduce, fill =
    match Pattern.boundary pattern with
    | Boundary.Circular -> ((fun d n -> d mod n), None)
    | Boundary.End_off v ->
        ((fun d n -> max (-n) (min n d)), Some ([| v |], 0))
  in
  let result = Grid.create ~rows ~cols in
  let out = Grid.raw result in
  (* out.(o + c) += k.(ks * (o + c)) *. x.(xs * (xo + c)), c in [lo, hi) *)
  let madd (k, ks) (x, xs) ~o ~xo lo hi =
    for c = lo to hi - 1 do
      Array.unsafe_set out (o + c)
        (Array.unsafe_get out (o + c)
        +. (Array.unsafe_get k (ks * (o + c))
           *. Array.unsafe_get x (xs * (xo + c))))
    done
  in
  List.iter
    (fun tap ->
      let { Offset.drow; dcol } = tap.Tap.offset in
      let dr = reduce drow rows and dc = reduce dcol cols in
      let k = field env tap.Tap.coeff in
      let lo = max 0 (min cols (-dc)) and hi = min cols (max 0 (cols - dc)) in
      for r = 0 to rows - 1 do
        let o = r * cols and sr = r + dr in
        match fill with
        | Some fill when sr < 0 || sr >= rows -> madd k fill ~o ~xo:0 0 cols
        | _ -> (
            let row = wrap sr rows * cols in
            madd k src ~o ~xo:(row + dc) lo hi;
            match fill with
            | Some fill ->
                madd k fill ~o ~xo:0 0 lo;
                madd k fill ~o ~xo:0 hi cols
            | None ->
                madd k src ~o ~xo:(row + dc + cols) 0 lo;
                madd k src ~o ~xo:(row + dc - cols) hi cols)
      done)
    (Pattern.taps pattern);
  Option.iter
    (fun coeff ->
      let k, stride = field env coeff in
      for i = 0 to (rows * cols) - 1 do
        Array.unsafe_set out i
          (Array.unsafe_get k (stride * i) +. Array.unsafe_get out i)
      done)
    (Pattern.bias pattern);
  result
