(** The one structured answer shape of the service layer.

    The paper's compiler had a single caller and two answers: a
    compiled loop or a section-6 rejection message.  A serving layer
    (ROADMAP item 1) has many tenants and four:

    - {e completed} — the request ran on the simulated substrate and
      carries the run's statistics (section 7's accounting);
    - {e degraded} — {!Ccc_service.Engine.run_guarded}'s recovery
      ladder bottomed out on the host reference path: the output is
      correct but slow, and the findings say why (PR 5);
    - {e refused} — the request itself is unserveable (parse error,
      unrecognizable statement, the structured section-6 resource
      rejection, too-small array, ill-formed batch);
    - {e shed} — the request was fine but the service declined it
      (admission control, deadline, shutdown).

    Before PR 7 the first three lived in three overlapping shapes and
    the fourth did not exist.  This module is the single definition:
    every arm carries the stencil fingerprint (when one was computed)
    plus cycle attribution so operators can bill simulated cycles per
    outcome. *)

type reject =
  | Parse_error of string
      (** the request text does not parse, or its arrays do not fit
          the statement: an unbound array, arrays of different shapes,
          or a grid that does not divide over the node grid *)
  | Rejected of Ccc_frontend.Diagnostics.t list
      (** the statement does not fit the stylized stencil form *)
  | Resource_error of (int * Ccc_analysis.Finding.t) list
      (** no multistencil width fits registers or scratch memory: the
          per-width rejection findings, widest first (the structured
          section-6 feedback) *)
  | Too_small of string
      (** the subgrid cannot accommodate the stencil's border *)
  | Invalid_batch of string
      (** the batch statements cannot run as one program: there are
          none, or two read one source array under different boundary
          semantics *)

type shed =
  | Overloaded of { tenant : string; queued : int; limit : int }
      (** admission control: the tenant's queue (or the tenant table)
          holds [queued] of at most [limit] *)
  | Deadline_exceeded of { tenant : string; deadline_us : float; now_us : float }
      (** the request's deadline (microseconds on the scheduler's
          clock) had already passed at admission or at dispatch *)
  | Shutting_down  (** submitted to (or queued in) a stopping scheduler *)

type degraded = {
  output : Ccc_runtime.Grid.t;
      (** the reference evaluator's result — correct by construction *)
  findings : Ccc_analysis.Finding.t list;
      (** every detection and diagnosis gathered on the ladder *)
  retries : int;
  recompiled : bool;
}

type t =
  | Completed of { result : Ccc_runtime.Exec.result; fingerprint : string option }
  | Degraded of { detail : degraded; fingerprint : string option }
  | Refused of { reject : reject; fingerprint : string option }
  | Shed of { shed : shed; fingerprint : string option }

(** {1 Constructors} *)

val completed : ?fingerprint:string -> Ccc_runtime.Exec.result -> t
val degraded : ?fingerprint:string -> degraded -> t
val refused : ?fingerprint:string -> reject -> t
val shed : ?fingerprint:string -> shed -> t

val checked : (unit -> 'a) -> ('a, reject) result
(** [checked f] runs [f] and answers the input errors of the run-time
    driver's check ({!Ccc_runtime.Exec.check}) as refusals: an
    unbound array, arrays of different shapes, a grid that does not
    divide over the node grid, and regions that do not fit the node
    memory the arena can still allocate as [Parse_error]; a border
    wider than the per-node subgrid as [Too_small]; statements that do
    not form one program ({!Ccc_runtime.Exec.Invalid_program}) as
    [Invalid_batch].  Other exceptions pass through. *)

(** {1 Accessors} *)

val fingerprint : t -> string option
(** The canonical stencil fingerprint ({!Fingerprint.pattern}), when
    the request got far enough to have one. *)

val is_success : t -> bool
(** [Completed] or [Degraded]: the caller holds a correct output grid. *)

val output : t -> Ccc_runtime.Grid.t option
(** The result grid of a successful outcome. *)

val compute_cycles : t -> int
val comm_cycles : t -> int
(** Cycle attribution: the simulated substrate cycles this outcome
    consumed.  [Degraded] ran on the host reference path and [Refused]
    / [Shed] never reached the substrate, so all three attribute 0. *)

val exit_code : t -> int
(** The single process-exit mapping shared by every [ccc] subcommand:
    0 for a success (including [Degraded] — the output is correct),
    1 for [Refused] (the historical rejection exit), 3 for [Shed]. *)

(** {1 Printing} *)

val reject_to_string : reject -> string
(** One line per rejection, [parse error: ...], [array too small: ...]
    and so on; the cram suite pins it on every CLI rejection path. *)

val shed_to_string : shed -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
