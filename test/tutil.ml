(* Shared helpers for the test suite. *)

let deterministic_seed = 0x5eed

(* A reproducible pseudo-random grid: values depend only on the seed
   and the position, so failures replay exactly. *)
let mixed_grid ~seed ~rows ~cols =
  Ccc.Grid.init ~rows ~cols (fun r c ->
      let h = (seed * 0x9e3779b1) lxor (r * 31) lxor (c * 131) in
      let h = h lxor (h lsr 13) in
      float_of_int (h land 0xffff) /. 65536.0 -. 0.5)

(* Bind every array a pattern references to a fresh grid. *)
let env_for ?(seed = deterministic_seed) ~rows ~cols pattern =
  let names =
    Ccc.Pattern.source_var pattern
    :: List.filter_map
         (fun t -> Ccc.Coeff.array_name t.Ccc.Tap.coeff)
         (Ccc.Pattern.taps pattern)
    @ (match Ccc.Pattern.bias pattern with
      | Some c -> Option.to_list (Ccc.Coeff.array_name c)
      | None -> [])
  in
  List.mapi (fun i n -> (n, mixed_grid ~seed:(seed + i) ~rows ~cols)) names

let compile_exn ?(config = Ccc.Config.default) pattern =
  match Ccc.compile_pattern config pattern with
  | Ok compiled -> compiled
  | Error e -> Alcotest.failf "compile failed: %s" (Ccc.Outcome.reject_to_string e)

let offset ~drow ~dcol = Ccc.Offset.make ~drow ~dcol

let tap ?(coeff = "C") ~drow ~dcol () =
  Ccc.Tap.make (offset ~drow ~dcol) (Ccc.Coeff.Array coeff)

let pattern_of_offsets offs =
  Ccc.Pattern.create
    (List.mapi
       (fun i (drow, dcol) ->
         Ccc.Tap.make (offset ~drow ~dcol)
           (Ccc.Coeff.Array (Printf.sprintf "C%d" (i + 1))))
       offs)

let check_close ?(tol = 1e-9) what expected actual =
  let diff = Ccc.Grid.max_abs_diff expected actual in
  if diff > tol then
    Alcotest.failf "%s: max |diff| = %g exceeds %g" what diff tol

(* Small machine configurations used across suites. *)
let config_2x2 = Ccc.Config.with_nodes ~rows:2 ~cols:2 Ccc.Config.default
let config_1x1 = Ccc.Config.with_nodes ~rows:1 ~cols:1 Ccc.Config.default

let run_both_modes ?(config = Ccc.Config.default) compiled env =
  let simulated =
    Ccc.apply ~mode:Ccc.Exec.Simulate config compiled env
  in
  let fast = Ccc.apply ~mode:Ccc.Exec.Fast config compiled env in
  (simulated, fast)

(* The per-point fold that defines a stencil statement: what
   [Reference.apply] computed before it became a resolved tap-major
   loop, kept as its specification.  Each point starts from +0.0, adds
   [coeff *. x] in [Pattern.taps] order through CSHIFT/EOSHIFT
   indexing, and adds the bias last. *)
let spec_apply pattern env =
  let module R = Ccc.Reference in
  R.check_env pattern env;
  let source = R.lookup env (Ccc.Pattern.source_var pattern) in
  let read =
    match Ccc.Pattern.boundary pattern with
    | Ccc.Boundary.Circular -> Ccc.Grid.get_circular source
    | Ccc.Boundary.End_off fill -> Ccc.Grid.get_endoff source ~fill
  in
  let taps = Ccc.Pattern.taps pattern in
  Ccc.Grid.init ~rows:(Ccc.Grid.rows source) ~cols:(Ccc.Grid.cols source)
    (fun r c ->
      let sum =
        List.fold_left
          (fun acc tap ->
            let { Ccc.Offset.drow; dcol } = tap.Ccc.Tap.offset in
            acc
            +. (R.coeff_value env tap.Ccc.Tap.coeff r c
               *. read (r + drow) (c + dcol)))
          0.0 taps
      in
      match Ccc.Pattern.bias pattern with
      | Some coeff -> sum +. R.coeff_value env coeff r c
      | None -> sum)

(* Cells whose float bits differ, as (row, col) — NaN payloads and the
   sign of zero included. *)
let bit_differences a b =
  let diffs = ref [] in
  for r = Ccc.Grid.rows a - 1 downto 0 do
    for c = Ccc.Grid.cols a - 1 downto 0 do
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Ccc.Grid.get a r c))
             (Int64.bits_of_float (Ccc.Grid.get b r c)))
      then diffs := (r, c) :: !diffs
    done
  done;
  !diffs
