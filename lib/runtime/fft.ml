open Ccc_stencil
module Finding = Ccc_analysis.Finding

exception Varying of string

(* ------------------------------------------------------------------ *)
(* Transform primitives                                                *)
(* ------------------------------------------------------------------ *)

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let padded_size ~n ~pad = next_pow2 (n + (2 * pad))

let bits_of n =
  let rec go b p = if p >= n then b else go (b + 1) (p * 2) in
  go 0 1

let bit_reverse ~bits i =
  let r = ref 0 and v = ref i in
  for _ = 1 to bits do
    r := (!r lsl 1) lor (!v land 1);
    v := !v lsr 1
  done;
  !r

let pi = 4.0 *. atan 1.0

let twiddle ~n ~k =
  let theta = 2.0 *. pi *. float_of_int k /. float_of_int n in
  (cos theta, -.sin theta)

(* Twiddle tables, one per (length, direction): [tab.(k)] is the
   factor for butterfly offset [k] at every stage — stage [len] uses
   entries [k * (n / len)].  Derived purely from (n, k) by {!twiddle},
   so the tables (and with them every worker's arithmetic) are a pure
   function of the transform length. *)
let twiddle_table ~inverse n =
  let half = max 1 (n / 2) in
  let wr = Array.make half 0.0 and wi = Array.make half 0.0 in
  for k = 0 to half - 1 do
    let re, im = twiddle ~n ~k in
    wr.(k) <- re;
    wi.(k) <- if inverse then -.im else im
  done;
  (wr, wi)

(* One contiguous in-place transform of [(re, im)] at [off], length
   [n].  The hot loops use unsafe accesses: every index is
   [off + i], i < n, and callers size the buffers. *)
let fft_at ~tables:(twr, twi) ~inverse ~scale re im ~off ~n =
  if n land (n - 1) <> 0 || n <= 0 then
    invalid_arg "Fft.fft: length must be a power of two";
  if Array.length re < off + n || Array.length im < off + n then
    invalid_arg "Fft.fft: buffer shorter than off + n";
  if n > 1 then begin
    let bits = bits_of n in
    for i = 0 to n - 1 do
      let j = bit_reverse ~bits i in
      if j > i then begin
        let a = off + i and b = off + j in
        let tr = Array.unsafe_get re a and ti = Array.unsafe_get im a in
        Array.unsafe_set re a (Array.unsafe_get re b);
        Array.unsafe_set im a (Array.unsafe_get im b);
        Array.unsafe_set re b tr;
        Array.unsafe_set im b ti
      end
    done;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let step = n / !len in
      let base = ref off in
      let stop = off + n in
      while !base < stop do
        for k = 0 to half - 1 do
          let wr = Array.unsafe_get twr (k * step) in
          let wi = Array.unsafe_get twi (k * step) in
          let a = !base + k in
          let b = a + half in
          let bre = Array.unsafe_get re b and bim = Array.unsafe_get im b in
          let tr = (wr *. bre) -. (wi *. bim) in
          let ti = (wr *. bim) +. (wi *. bre) in
          let are = Array.unsafe_get re a and aim = Array.unsafe_get im a in
          Array.unsafe_set re b (are -. tr);
          Array.unsafe_set im b (aim -. ti);
          Array.unsafe_set re a (are +. tr);
          Array.unsafe_set im a (aim +. ti)
        done;
        base := !base + !len
      done;
      len := !len * 2
    done
  end;
  ignore inverse;
  if scale <> 1.0 then
    for i = off to off + n - 1 do
      Array.unsafe_set re i (Array.unsafe_get re i *. scale);
      Array.unsafe_set im i (Array.unsafe_get im i *. scale)
    done

let fft ~inverse re im =
  let n = Array.length re in
  if Array.length im <> n then
    invalid_arg "Fft.fft: re and im lengths differ";
  let tables = twiddle_table ~inverse n in
  let scale = if inverse then 1.0 /. float_of_int n else 1.0 in
  fft_at ~tables ~inverse ~scale re im ~off:0 ~n

(* Column strip width for the column passes: each worker copies a
   [cw]-column slab into a contiguous scratch, transforms there, and
   copies back — turning the stride-[pcols] walks into unit-stride
   ones.  16 columns of 512 doubles is 64 KiB resident per pass. *)
let col_strip = 16

(* 2D transform over the row-major [prows x pcols] buffer: a pass
   over the rows and a slab pass over the columns.  [row_lo]/[row_hi]
   bound the rows that matter: on the forward side rows outside are
   known-zero (a zero row transforms to zero, so the row pass skips
   it); on the inverse side they are never read, so the column pass
   runs first — over every row, as it must — and the row pass then
   touches only the window.  Each pool item owns a disjoint strip and
   its twiddles come from shared read-only tables, so the result is
   bit-identical for every jobs value. *)
let transform2 ?(pool = Pool.sequential) ~inverse ~prows ~pcols ?(row_lo = 0)
    ?(row_hi = max_int) re im =
  let row_hi = min row_hi prows in
  let row_tables = twiddle_table ~inverse pcols in
  let col_tables = twiddle_table ~inverse prows in
  let row_scale = if inverse then 1.0 /. float_of_int pcols else 1.0 in
  let col_scale = if inverse then 1.0 /. float_of_int prows else 1.0 in
  let rows_pass () =
    if row_hi > row_lo then
      Pool.iter pool (row_hi - row_lo) (fun i ->
          let r = row_lo + i in
          fft_at ~tables:row_tables ~inverse ~scale:row_scale re im
            ~off:(r * pcols) ~n:pcols)
  in
  let cols_pass () =
    let strips = (pcols + col_strip - 1) / col_strip in
    Pool.iter pool strips (fun s ->
        let c0 = s * col_strip in
        let cw = min col_strip (pcols - c0) in
        let sre = Array.make (prows * cw) 0.0 in
        let sim = Array.make (prows * cw) 0.0 in
        for r = 0 to prows - 1 do
          let src = (r * pcols) + c0 in
          for j = 0 to cw - 1 do
            Array.unsafe_set sre ((j * prows) + r)
              (Array.unsafe_get re (src + j));
            Array.unsafe_set sim ((j * prows) + r)
              (Array.unsafe_get im (src + j))
          done
        done;
        for j = 0 to cw - 1 do
          fft_at ~tables:col_tables ~inverse ~scale:col_scale sre sim
            ~off:(j * prows) ~n:prows
        done;
        for r = 0 to prows - 1 do
          let dst = (r * pcols) + c0 in
          for j = 0 to cw - 1 do
            Array.unsafe_set re (dst + j)
              (Array.unsafe_get sre ((j * prows) + r));
            Array.unsafe_set im (dst + j)
              (Array.unsafe_get sim ((j * prows) + r))
          done
        done)
  in
  if inverse then begin
    cols_pass ();
    rows_pass ()
  end
  else begin
    rows_pass ();
    cols_pass ()
  end

(* ------------------------------------------------------------------ *)
(* Coefficient resolution                                              *)
(* ------------------------------------------------------------------ *)

(* Bit-exact uniformity: the transform path is a convolution only when
   the coefficient is one value everywhere; "close enough" would turn
   a real per-point field into a silently wrong answer. *)
let uniform_value env name =
  let g = Reference.lookup env name in
  let v = Grid.get g 0 0 in
  for r = 0 to Grid.rows g - 1 do
    for c = 0 to Grid.cols g - 1 do
      if Float.compare (Grid.get g r c) v <> 0 then raise (Varying name)
    done
  done;
  v

let resolve_coeff env = function
  | Coeff.Scalar v -> v
  | Coeff.One -> 1.0
  | Coeff.Array name -> uniform_value env name

let resolve pattern env =
  let coeffs =
    Array.of_list
      (List.map (fun t -> resolve_coeff env t.Tap.coeff) (Pattern.taps pattern))
  in
  let bias = Option.map (resolve_coeff env) (Pattern.bias pattern) in
  (coeffs, bias)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  rows : int;
  cols : int;
  pad : int;
  prows : int;
  pcols : int;
  offsets : (int * int) array;  (** tap (drow, dcol), pattern order *)
  terms : Coeff.t array;  (** tap coefficient terms, pattern order *)
  bias_term : Coeff.t option;
  mutable coeffs : float array;  (** resolved values, pattern order *)
  mutable bias : float option;
  kre : float array;  (** transformed coefficient image, prows*pcols *)
  kim : float array;
}

let pad p = p.pad
let rows p = p.rows
let cols p = p.cols
let padded_rows p = p.prows
let padded_cols p = p.pcols
let coeff_values p = Array.copy p.coeffs
let bias_value p = p.bias

(* Place tap c at image[(-dr) mod P_r][(-dc) mod P_c]: with the source
   embedded at offset [pad], the circular-convolution read of output
   point (r, c) at padded index (r + pad, c + pad) then sums exactly
   c_t * padded(r + pad + dr, c + pad + dc) — the stencil. *)
let retransform p =
  Array.fill p.kre 0 (Array.length p.kre) 0.0;
  Array.fill p.kim 0 (Array.length p.kim) 0.0;
  Array.iteri
    (fun i (dr, dc) ->
      let r = ((-dr) mod p.prows + p.prows) mod p.prows in
      let c = ((-dc) mod p.pcols + p.pcols) mod p.pcols in
      p.kre.((r * p.pcols) + c) <- p.kre.((r * p.pcols) + c) +. p.coeffs.(i))
    p.offsets;
  transform2 ~inverse:false ~prows:p.prows ~pcols:p.pcols p.kre p.kim

let plan pattern ~rows ~cols env =
  let pad = Pattern.max_border pattern in
  let prows = padded_size ~n:rows ~pad in
  let pcols = padded_size ~n:cols ~pad in
  let coeffs, bias = resolve pattern env in
  let offsets =
    Array.of_list
      (List.map
         (fun t -> (t.Tap.offset.Offset.drow, t.Tap.offset.Offset.dcol))
         (Pattern.taps pattern))
  in
  let p =
    {
      rows;
      cols;
      pad;
      prows;
      pcols;
      offsets;
      terms = Array.of_list (List.map (fun t -> t.Tap.coeff) (Pattern.taps pattern));
      bias_term = Pattern.bias pattern;
      coeffs;
      bias;
      kre = Array.make (prows * pcols) 0.0;
      kim = Array.make (prows * pcols) 0.0;
    }
  in
  retransform p;
  p

let rebind p env =
  let coeffs = Array.map (resolve_coeff env) p.terms in
  let bias = Option.map (resolve_coeff env) p.bias_term in
  let same =
    Array.length coeffs = Array.length p.coeffs
    && Array.for_all2 (fun x y -> Float.compare x y = 0) coeffs p.coeffs
    && Option.equal (fun x y -> Float.compare x y = 0) bias p.bias
  in
  if same then false
  else begin
    p.coeffs <- coeffs;
    p.bias <- bias;
    retransform p;
    true
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* The column slab pass over columns [c_lo, c_hi): each worker copies
   a slab into contiguous scratch, transforms there, copies back. *)
let cols_pass ?(pool = Pool.sequential) ~tables ~scale ~prows ~pcols ~c_lo
    ~c_hi ~inverse re im =
  let width = c_hi - c_lo in
  let strips = (width + col_strip - 1) / col_strip in
  Pool.iter pool strips (fun s ->
      let c0 = c_lo + (s * col_strip) in
      let cw = min col_strip (c_hi - c0) in
      let sre = Array.make (prows * cw) 0.0 in
      let sim = Array.make (prows * cw) 0.0 in
      for r = 0 to prows - 1 do
        let src = (r * pcols) + c0 in
        for j = 0 to cw - 1 do
          Array.unsafe_set sre ((j * prows) + r) (Array.unsafe_get re (src + j));
          Array.unsafe_set sim ((j * prows) + r) (Array.unsafe_get im (src + j))
        done
      done;
      for j = 0 to cw - 1 do
        fft_at ~tables ~inverse ~scale sre sim ~off:(j * prows) ~n:prows
      done;
      for r = 0 to prows - 1 do
        let dst = (r * pcols) + c0 in
        for j = 0 to cw - 1 do
          Array.unsafe_set re (dst + j) (Array.unsafe_get sre ((j * prows) + r));
          Array.unsafe_set im (dst + j) (Array.unsafe_get sim ((j * prows) + r))
        done
      done)

(* The source is real, so every row spectrum is Hermitian in the
   column index and the whole pipeline only computes columns
   [0, pcols/2]: the kernel spectrum is Hermitian too (real image),
   the product stays Hermitian, and after the inverse column pass
   [G(r, c) = conj G(r, pcols - c)] lets the inverse row pass mirror
   the missing bins from the same row before transforming.  This
   halves the dominant column passes. *)
let execute ?pool p ~padded =
  if
    Grid.rows padded <> p.rows + (2 * p.pad)
    || Grid.cols padded <> p.cols + (2 * p.pad)
  then
    invalid_arg
      (Printf.sprintf "Fft.execute: padded grid is %dx%d, want %dx%d"
         (Grid.rows padded) (Grid.cols padded)
         (p.rows + (2 * p.pad))
         (p.cols + (2 * p.pad)));
  let prows = p.prows and pcols = p.pcols in
  let n = prows * pcols in
  let bre = Array.make n 0.0 and bim = Array.make n 0.0 in
  let frame_rows = p.rows + (2 * p.pad) and frame_cols = p.cols + (2 * p.pad) in
  let praw = Grid.raw padded in
  for r = 0 to frame_rows - 1 do
    Array.blit praw (r * frame_cols) bre (r * pcols) frame_cols
  done;
  let pool' = match pool with Some q -> q | None -> Pool.sequential in
  let half = pcols / 2 in
  let fwd_row_tables = twiddle_table ~inverse:false pcols in
  let inv_row_tables = twiddle_table ~inverse:true pcols in
  let fwd_col_tables = twiddle_table ~inverse:false prows in
  let inv_col_tables = twiddle_table ~inverse:true prows in
  (* forward rows: rows beyond the frame are zero and transform to
     zero, so only the frame rows run *)
  Pool.iter pool' frame_rows (fun r ->
      fft_at ~tables:fwd_row_tables ~inverse:false ~scale:1.0 bre bim
        ~off:(r * pcols) ~n:pcols);
  cols_pass ~pool:pool' ~tables:fwd_col_tables ~scale:1.0 ~prows ~pcols
    ~c_lo:0 ~c_hi:(half + 1) ~inverse:false bre bim;
  (* pointwise product on the half plane *)
  Pool.iter pool' prows (fun r ->
      let base = r * pcols in
      for i = base to base + half do
        let ar = Array.unsafe_get bre i and ai = Array.unsafe_get bim i in
        let kr = Array.unsafe_get p.kre i and ki = Array.unsafe_get p.kim i in
        Array.unsafe_set bre i ((ar *. kr) -. (ai *. ki));
        Array.unsafe_set bim i ((ar *. ki) +. (ai *. kr))
      done);
  cols_pass ~pool:pool' ~tables:inv_col_tables
    ~scale:(1.0 /. float_of_int prows) ~prows ~pcols ~c_lo:0 ~c_hi:(half + 1)
    ~inverse:true bre bim;
  (* inverse rows: only the output window is read; mirror the missing
     Hermitian bins from the same row, then transform *)
  let inv_row_scale = 1.0 /. float_of_int pcols in
  Pool.iter pool' p.rows (fun i ->
      let r = p.pad + i in
      let base = r * pcols in
      for c = half + 1 to pcols - 1 do
        Array.unsafe_set bre (base + c) (Array.unsafe_get bre (base + pcols - c));
        Array.unsafe_set bim (base + c)
          (-.Array.unsafe_get bim (base + pcols - c))
      done;
      fft_at ~tables:inv_row_tables ~inverse:true ~scale:inv_row_scale bre bim
        ~off:base ~n:pcols);
  let bias = match p.bias with Some b -> b | None -> 0.0 in
  Grid.init ~rows:p.rows ~cols:p.cols (fun r c ->
      bre.(((r + p.pad) * pcols) + c + p.pad) +. bias)

let convolve ?pool pattern env =
  Reference.check_env pattern env;
  let source = Reference.lookup env (Pattern.source_var pattern) in
  let p =
    plan pattern ~rows:(Grid.rows source) ~cols:(Grid.cols source) env
  in
  execute ?pool p
    ~padded:
      (Reference.padded_source pattern env ~pad_rows:p.pad ~pad_cols:p.pad)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(* Deterministic sandbox data, same spirit as Kernel.build: the plan's
   math must reproduce Reference.apply to 1e-9 before the cache may
   serve it. *)
let sandbox_env pattern p =
  let source =
    Grid.init ~rows:p.rows ~cols:p.cols (fun r c ->
        sin (float_of_int ((r * 5) + c) /. 3.0))
  in
  let env = ref [ (Pattern.source_var pattern, source) ] in
  let bind coeff v =
    match Coeff.array_name coeff with
    | Some name ->
        if not (List.mem_assoc name !env) then
          env := (name, Grid.constant ~rows:p.rows ~cols:p.cols v) :: !env
    | None -> ()
  in
  List.iteri (fun i t -> bind t.Tap.coeff p.coeffs.(i)) (Pattern.taps pattern);
  (match (Pattern.bias pattern, p.bias) with
  | Some coeff, Some v -> bind coeff v
  | _ -> ());
  !env

let verify pattern p =
  let env = sandbox_env pattern p in
  let expected = Reference.apply pattern env in
  let got =
    execute p
      ~padded:
        (Reference.padded_source pattern env ~pad_rows:p.pad ~pad_cols:p.pad)
  in
  let diff = Grid.max_abs_diff expected got in
  if diff > 1e-9 then
    raise
      (Finding.Failed
         [
           Finding.makef ~ctx:"compute" Finding.Output_integrity
             "fft plan diverges from the reference evaluator by %.3e \
              (padded %dx%d)"
             diff p.prows p.pcols;
         ])

let build pattern ~rows ~cols env =
  let p = plan pattern ~rows ~cols env in
  verify pattern p;
  p

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Private splitmix64, as Ccc_fault.Inject: the corrupted bin is a
   pure function of the seed. *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Retransform the coefficient image with one usable tap negated,
   then restore the true value: the cached spectrum now encodes a
   different stencil (an O(coefficient) error at every output point —
   robustly above the 1e-9 guard threshold) while the plan's recorded
   values still claim the true one, exactly the lie a poisoned cache
   entry tells.  [rebind] with the same environment finds nothing to
   re-transform, so the corruption is persistent until {!verify}
   rejects the plan and it is rebuilt. *)
let corrupt ?(seed = 1) p =
  let state = ref (Int64.of_int seed) in
  let n = Array.length p.coeffs in
  if n > 0 then begin
    let start =
      Int64.to_int (Int64.unsigned_rem (splitmix state) (Int64.of_int n))
    in
    let rec pick k =
      if k >= n then start
      else
        let i = (start + k) mod n in
        if Float.abs p.coeffs.(i) > 1e-9 then i else pick (k + 1)
    in
    let i = pick 0 in
    let v = p.coeffs.(i) in
    p.coeffs.(i) <- -.v;
    retransform p;
    p.coeffs.(i) <- v
  end
