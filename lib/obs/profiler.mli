(** Cycle-attribution profiler.

    Splits the analytic cycle model ({!Ccc_microcode.Cost}) phase by
    phase, so every simulated sequencer cycle of a half-strip is
    tagged with the pipeline stage that spends it: startup, ring
    prologue, per-line overhead, leading-edge loads, pipe reversals,
    multiply-add issue, writeback drain, stores, and the loop-end
    branch.  By construction {!total} of {!halfstrip} equals
    [Cost.halfstrip_cycles] for every plan and line count — both are
    assembled from the same [Cost] terms — which is what lets the
    paper's Table-1 comm/compute/front-end breakdown (section 7)
    become live telemetry cross-checked against the model, and a
    property test re-checks the sum against the cycle-accurate
    interpreter on random patterns. *)

type compute = {
  startup : int;  (** microcode entry, static part issue, scratch reset *)
  prologue : int;  (** ring-buffer warm-up loads *)
  line_overhead : int;  (** per-line fixed overhead *)
  loads : int;  (** leading-edge load slots *)
  pipe_reversal : int;  (** two reversals per line *)
  madds : int;  (** multiply-add issue slots *)
  drain : int;  (** writeback latency not hidden by the reversal *)
  stores : int;  (** store slots *)
  loop_branch : int;  (** loop-end branch *)
  transform : int;
      (** the transform path's butterflies and spectral products
          ({!Ccc_microcode.Cost.fft_compute_cycles}), which run no
          microcode half-strips *)
}
(** Compute cycles of one or more half-strips, attributed to the nine
    sequencer phases of section 5's microcode routine, plus the
    transform path's compute as a tenth. *)

val zero : compute

val add : compute -> compute -> compute

val scale : int -> compute -> compute
(** [scale k c] multiplies every phase by [k] (e.g. iterations). *)

val total : compute -> int
(** Sum over all phases; equals [Cost.halfstrip_cycles] when the
    record came from {!halfstrip}. *)

val halfstrip :
  Ccc_cm2.Config.t -> Ccc_microcode.Plan.t -> lines:int -> compute
(** Attribution for one half-strip of [lines] lines, built from the
    same terms as [Cost.halfstrip_cycles] (zero lines pay startup
    only, like the cost model). *)

type breakdown = {
  comm_cycles : int;  (** NEWS-grid halo exchange cycles *)
  compute : compute;  (** per-phase compute attribution *)
  frontend_s : float;  (** host preparation + dispatch seconds *)
}
(** The paper's three-way sustained-time split, with the compute share
    opened up per phase. *)

val compute_attrs : compute -> (string * Trace.value) list
(** Non-zero phases as span attributes, declaration order. *)

val pp_compute : Format.formatter -> compute -> unit
(** A deterministic table: one line per non-zero phase with cycle
    count and percentage, then a total line. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
(** The comm/compute/front-end split followed by the per-phase
    compute table. *)
