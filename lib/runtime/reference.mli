(** Direct (host-side) evaluation of a stencil pattern: the correctness
    oracle the compiled pipeline is tested against, and also the
    semantic definition of what the recognized Fortran statement
    means. *)

type env = (string * Grid.t) list
(** Array bindings by (upcased) name: the source array and every
    coefficient array.  All grids must share one shape. *)

exception Unbound of string
exception Shape_mismatch of string

val lookup : env -> string -> Grid.t
(** Raises {!Unbound}. *)

val coeff_value : env -> Ccc_stencil.Coeff.t -> int -> int -> float
(** Value of a coefficient at a position: array element, literal
    scalar, or 1.0. *)

val apply : Ccc_stencil.Pattern.t -> env -> Grid.t
(** Evaluate [R(i,j) = sum_k C_k(i,j) * X(i + dr_k, j + dc_k) + bias(i,j)]
    over the whole array, with the pattern's boundary semantics.
    Raises {!Unbound} or {!Shape_mismatch} (from {!check_env}, before
    anything else is read).

    Evaluation order is part of the contract: every point starts from
    [+0.0], adds [C_k(i,j) *. X(...)] tap by tap in
    {!Ccc_stencil.Pattern.taps} order, and adds the bias last — the
    per-point fold that defines the statement, reproduced bit for bit
    (NaN payloads and signed zeros included).  The 1e-9 output guard
    ([Ccc_fault.Guard.check_output]) and the sandbox proofs of
    {!Kernel.verify} and {!Fft.verify} measure the compiled and
    transform paths against exactly these values.

    The evaluation is one resolved sweep per tap over flat arrays.
    CSHIFT offsets are reduced modulo the side and EOSHIFT offsets
    clamped to the side (every read past it is the fill); each output
    row then reads one slice of a source row and, at its edges, the
    wrapped slice or the fill.  No grid-sized array is allocated but
    the result, so a pattern's border, however wide, costs no
    memory. *)

val padded_source :
  Ccc_stencil.Pattern.t -> env -> pad_rows:int -> pad_cols:int -> Grid.t
(** The pattern's source framed by [pad_rows] rows and [pad_cols]
    columns on every side, with its boundary semantics applied: cell
    [(r, c)] holds the source read at [(r - pad_rows, c - pad_cols)]
    through CSHIFT wraparound or EOSHIFT fill — the global analogue of
    what {!Halo.exchange} assembles per node, used as the transform
    path's input ({!Fft}) and as the halo of {!Kernel.verify}'s
    sandbox.  Raises {!Unbound}. *)

val check_env : Ccc_stencil.Pattern.t -> env -> unit
(** Validate that every array the pattern references is bound and all
    shapes agree. *)

val referenced_arrays : Ccc_stencil.Pattern.t -> string list
(** Every array name the pattern reads: the source, the coefficient
    arrays, and the bias array if any (with repeats). *)
