(** The Connection Machine Convolution Compiler — public API.

    This is the user-level surface the paper promises: express a
    stencil computation as an ordinary Fortran 90 array assignment (or
    the Lisp [defstencil] of the first prototype), compile it once, and
    apply it to arrays at better-than-library-routine speed, on any
    stencil pattern rather than a preselected menu.

    For a single statement, compile and {!run}:

    {[
      let source = "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n\
                    REAL, ARRAY(:,:) :: R, X, C1, C2, C3, C4, C5\n\
                    R = C1 * CSHIFT(X, 1, -1) &\n\
                    \  + C2 * CSHIFT(X, 2, -1) &\n\
                    \  + C3 * X &\n\
                    \  + C4 * CSHIFT(X, 2, +1) &\n\
                    \  + C5 * CSHIFT(X, 1, +1)\n\
                    END\n"
      in
      let compiled = Ccc.compile_fortran_exn Ccc.Config.default source in
      match Ccc.run Ccc.Config.default compiled env with
      | Ok { Ccc.Exec.output; stats } -> ...
      | Error e -> prerr_endline (Ccc.Outcome.reject_to_string e)
    ]}

    For many statements over one resident machine — the paper's
    sustained production runs — use the persistent {!Engine}, whose
    plan cache and standing arena amortize compilation and per-call
    setup:

    {[
      let engine = Ccc.Engine.create Ccc.Config.default in
      match
        Result.bind (Ccc.Engine.recognize_statement stmt) (fun pattern ->
            Ccc.Engine.run engine pattern env)
      with
      | Ok { Ccc.Exec.output; stats } -> ...
      | Error e -> prerr_endline (Ccc.Outcome.reject_to_string e)
    ]}

    The submodule aliases expose each subsystem (machine model, stencil
    IR, front ends, compiler, microcode, run time, service layer) under
    one roof. *)

(** {1 Subsystems} *)

module Config = Ccc_cm2.Config
module Geometry = Ccc_cm2.Geometry
module Machine = Ccc_cm2.Machine
module Offset = Ccc_stencil.Offset
module Coeff = Ccc_stencil.Coeff
module Tap = Ccc_stencil.Tap
module Boundary = Ccc_stencil.Boundary
module Pattern = Ccc_stencil.Pattern
module Multi = Ccc_stencil.Multi
module Multistencil = Ccc_stencil.Multistencil
module Render = Ccc_stencil.Render
module Parser = Ccc_frontend.Parser
module Defstencil = Ccc_frontend.Defstencil
module Recognize = Ccc_frontend.Recognize
module Diagnostics = Ccc_frontend.Diagnostics
module Finding = Ccc_analysis.Finding
module Verify = Ccc_analysis.Verify
module Mutate = Ccc_analysis.Mutate
module Access = Ccc_analysis.Access
module Hb = Ccc_analysis.Hb
module Race = Ccc_analysis.Race
module Discipline = Ccc_analysis.Discipline
module Race_mutate = Ccc_analysis.Race_mutate
module Compile = Ccc_compiler.Compile
module Plan = Ccc_microcode.Plan
module Cost = Ccc_microcode.Cost
module Grid = Ccc_runtime.Grid
module Dist = Ccc_runtime.Dist
module Halo = Ccc_runtime.Halo
module Pool = Ccc_runtime.Pool
module Kernel = Ccc_runtime.Kernel

(** The transform-domain path (PR 10): circular convolution via
    zero-padded radix-2 transforms, the fifth execution backend for
    dense kernels the compiled multistencil rejects. *)
module Fft = Ccc_runtime.Fft

module Reference = Ccc_runtime.Reference
module Exec = Ccc_runtime.Exec
module Stats = Ccc_runtime.Stats
module Passes = Ccc_runtime.Passes
module Seismic = Ccc_runtime.Seismic
module Inject = Ccc_fault.Inject
module Guard = Ccc_fault.Guard
module Conformance = Ccc_fault.Conformance
module Engine = Ccc_service.Engine
module Fingerprint = Ccc_service.Fingerprint

(** The unified request outcome (PR 7): success-with-stats, degraded,
    refused and shed in one shape, each carrying the stencil
    fingerprint and cycle attribution.  Every result-typed entry point
    below rejects with its {!Outcome.reject}. *)
module Outcome = Ccc_service.Outcome

(** The multi-tenant stencil service (PR 7): {!Request} is the
    admission currency, {!Serve} the scheduler — sharded resident
    engines behind one queue, answering every request with an
    {!Outcome.t}. *)
module Request = Ccc_serve.Request

module Serve = Ccc_serve.Serve
module Obs = Ccc_obs.Obs
module Trace = Ccc_obs.Trace
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight
module Expo = Ccc_obs.Expo
module Profiler = Ccc_obs.Profiler

(** {1 Compilation entry points}

    Every [?obs] parameter below (default: disabled, allocation-free)
    threads an observability context ({!Obs}) through the pipeline:
    the front-end phases appear as [parse] / [recognize] spans and the
    compiler opens its own [compile] span tree (see
    {!Compile.compile}).  Rejections on every error path are also
    structured warnings on the ["ccc"] {!Logs} source, carrying the
    stencil fingerprint when one is recoverable. *)

val compile_pattern :
  ?obs:Obs.t -> Config.t -> Pattern.t -> (Compile.t, Outcome.reject) result
(** Compile a stencil given directly as IR. *)

val compile_fortran :
  ?obs:Obs.t -> Config.t -> string -> (Compile.t, Outcome.reject) result
(** Compile an isolated Fortran subroutine containing one stencil
    assignment (the paper's version-2 convention). *)

val compile_fortran_statement :
  ?obs:Obs.t -> Config.t -> string -> (Compile.t, Outcome.reject) result
(** Compile a single bare assignment statement. *)

val compile_defstencil :
  ?obs:Obs.t -> Config.t -> string -> (Compile.t, Outcome.reject) result
(** Compile a Lisp [defstencil] form (the version-1 convention). *)

val compile_fortran_exn : Config.t -> string -> Compile.t
(** Like {!compile_fortran} but raises [Failure]. *)

type program_unit = {
  unit_name : string;  (** subroutine name *)
  flagged : bool;  (** carried a [!CCC$ STENCIL] directive *)
  outcome : (Compile.t, Outcome.reject) result;
}

val compile_program :
  Config.t -> string -> (program_unit list, Outcome.reject) result
(** Compile every subroutine in a source file — the section-6 workflow
    for the production compiler.  A subroutine flagged with the
    [!CCC$ STENCIL] structured comment that cannot be processed is a
    reportable condition for the caller (the directive "justifies the
    compiler in providing feedback to the user"); unflagged failures
    are ordinary fallbacks to the general code path. *)

(** {1 Fused multi-source compilation (future work, section 7)}

    "Future versions of the compiler should be able to handle all ten
    terms as one stencil pattern": these entry points accept
    assignments whose terms shift several distinct arrays — e.g. the
    Gordon Bell statement with its [C10 * CSHIFT(POLD, 1, 0)] tenth
    term — and compile them into a single plan with one halo exchange
    per source. *)

val compile_multi :
  ?obs:Obs.t -> Config.t -> Multi.t -> (Compile.fused, Outcome.reject) result

val compile_fortran_statement_multi :
  ?obs:Obs.t -> Config.t -> string -> (Compile.fused, Outcome.reject) result

val apply_fused :
  ?obs:Obs.t ->
  ?mode:Exec.mode ->
  ?iterations:int ->
  ?jobs:int ->
  Config.t ->
  Compile.fused ->
  Reference.env ->
  Exec.result
(** One-shot fused run: the one-statement program [[Exec.fused f]] on a
    fresh machine.  Like {!apply}, raises {!Reference.Unbound},
    {!Reference.Shape_mismatch} (every array must have the first
    source's shape) or {!Exec.Too_small} before anything is
    allocated. *)

val fused_report : Compile.fused -> string

(** {1 Convenience} *)

val machine : ?memory_words:int -> Config.t -> Machine.t

val run :
  ?obs:Obs.t ->
  ?mode:Exec.mode ->
  ?iterations:int ->
  ?jobs:int ->
  Config.t ->
  Compile.t ->
  Reference.env ->
  (Exec.result, Outcome.reject) result
(** One-shot: build a machine, run, return output and statistics.  The
    primary entry point.  Input errors are refused, not raised: an
    unbound or mis-shaped array, or a grid that does not divide over
    the node grid, returns [Error (Parse_error _)], and a stencil whose
    border exceeds the per-node subgrid [Error (Too_small _)] (each
    with a structured warning carrying the stencil fingerprint).
    [jobs] (default 1) runs the per-node loops across that many
    domains (a {!Pool} spawned and joined inside the call); the output
    and statistics are bit-identical for every jobs value.  For
    repeated requests use {!Engine}, which keeps the machine (and
    compiled plans, and the pool) resident between calls. *)

val apply :
  ?obs:Obs.t ->
  ?mode:Exec.mode ->
  ?iterations:int ->
  ?jobs:int ->
  Config.t ->
  Compile.t ->
  Reference.env ->
  Exec.result
(** {!run} in exception style: raises {!Exec.Too_small},
    {!Reference.Unbound} or {!Reference.Shape_mismatch} instead of
    returning them.  Kept as the historical name. *)

val report : Compile.t -> string
(** The compilation report (widths, registers, rings, unroll factors,
    rejections) as text. *)
