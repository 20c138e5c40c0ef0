(** A simulated CM-2: configuration, node-grid geometry, and one memory
    per floating-point node.

    The machine is SIMD: every node executes the same instruction
    stream, so the microcode interpreter runs the data computation on
    each node's memory but accounts cycles once.  Each node memory has
    a fixed capacity, its modeled address space, which bounds every
    allocation; the paper's arrays (a 64 x 64 to 128 x 256 subgrid per
    node plus halo temporaries and coefficient arrays) fit in the
    default.  The host materializes only the words a node's
    allocations actually reach ({!Memory.raw}), so a fresh machine
    costs next to nothing whatever its capacity. *)

type t

val create : ?memory_words:int -> Config.t -> t
(** Build a machine from a configuration.  [memory_words] is the
    per-node memory capacity (default 1,048,576 words); no node store
    is materialized until it is allocated into. *)

val config : t -> Config.t
val geometry : t -> Geometry.t
val node_count : t -> int

val uid : t -> int
(** Process-globally-unique machine id.  The runtime's domain-safety
    probes offset node-indexed access-log slots by it, so two machines
    alive at once (one per serve shard since PR 7) never alias. *)

val memory : t -> int -> Memory.t
(** Memory of a node by id.  Raises [Invalid_argument] out of range. *)

val alloc_all : t -> words:int -> Memory.region
(** Allocate the same region on every node (SIMD allocation: the
    run-time library gives arrays identical layouts on all nodes).
    Returns the common region; raises [Failure] if any node cannot
    satisfy it or if layouts diverge. *)

val free_all_after : t -> Memory.region -> unit
(** Roll every node's allocator back past [region]. *)

val iter_nodes : t -> (int -> Memory.t -> unit) -> unit
