(** Per-node parallel memory.

    Each CM-2 node owns the memory of its 32 bit-serial processors; in
    slicewise format a 32-bit word occupies one memory slice and moves
    to the floating-point chip in a single cycle (section 3).  We model
    the node memory as a flat word-addressed store of floats with a
    bump allocator, which is how the run-time library obtains subgrid
    and halo-temporary storage.

    [words] is the node's capacity, the size of its modeled address
    space; every bound is checked against it.  The host materializes
    only a zero-filled prefix of that space, grown on demand, so a
    machine costs the words its statements actually use rather than its
    capacity.  A word past the prefix has never been written and reads
    as [0.0], exactly as on a store zero-filled to full capacity. *)

type t

type region = { base : int; words : int }
(** A contiguous allocation. *)

val create : words:int -> t
(** Fresh memory of [words] words' capacity, all reading as zero.
    Allocates no host store: nothing is materialized until an
    {!alloc}, {!reserve} or {!write} asks for it.  Raises
    [Invalid_argument] unless [words > 0]. *)

val words : t -> int
(** The capacity [create] was given (not the materialized prefix). *)

val raw : t -> float array
(** The materialized prefix of the node's flat word store itself (not
    a copy).  It covers every allocated region and every {!reserve}d
    extent.  {!alloc}, {!reserve} and a {!write} past its end may
    replace it with a longer array, so fetch it again after any of
    those.  The store grows only on the coordinating domain, never
    inside a pool phase: workers write only inside allocated regions,
    which the prefix already covers.

    This is the precompiled-kernel fast path: {!Ccc_runtime.Kernel}
    resolves every operand to a word address at lowering time — the
    "dynamic parts" the paper computes once per stencil call
    (section 5) — and then walks the raw store without per-access
    bounds checks.  All other callers should use the checked
    {!read}/{!write}. *)

val reserve : t -> int -> unit
(** [reserve t n] materializes at least the first [n] words, so that
    [raw t] covers [[0, n)].  Growth at least doubles the prefix (up to
    the capacity), so repeated growth stays amortized.  Raises
    [Invalid_argument] unless [0 <= n <= words t]. *)

val read : t -> int -> float
(** [read t addr].  Raises [Invalid_argument] out of bounds; a word
    past the materialized prefix reads as [0.0]. *)

val write : t -> int -> float -> unit
(** [write t addr v].  Raises [Invalid_argument] out of bounds; a write
    past the materialized prefix grows it first. *)

val alloc : t -> words:int -> region
(** Allocate a fresh region; the prefix grows to cover it.  Raises
    [Failure] when memory is exhausted. *)

val free_all_after : t -> region -> unit
(** Roll the bump allocator back so that [region] is the last live
    allocation; models the run-time library releasing halo temporaries
    after a stencil call.  The materialized prefix keeps its length and
    contents, so the next statement reuses it. *)

val words_free : t -> int
(** Capacity not yet allocated. *)

val blit_out : t -> region -> float array
(** Copy a region's contents to a fresh array. *)

val blit_in : t -> region -> float array -> unit
(** Fill a region from an array of exactly [region.words] elements. *)
