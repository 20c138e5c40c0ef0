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
module Outcome = Ccc_service.Outcome
module Request = Ccc_serve.Request
module Serve = Ccc_serve.Serve
module Obs = Ccc_obs.Obs
module Trace = Ccc_obs.Trace
module Metrics = Ccc_obs.Metrics
module Flight = Ccc_obs.Flight
module Expo = Ccc_obs.Expo
module Profiler = Ccc_obs.Profiler

let src = Logs.Src.create "ccc" ~doc:"Ccc entry-point rejections"

module Log = (val Logs.src_log src : Logs.LOG)

open Outcome

(* Structured rejection log for service operators: every error path
   out of the result-typed entry points warns with the stencil
   fingerprint (when one is recoverable), so rejections correlate
   with requests. *)
let warn_rejection ?pattern e =
  Log.warn (fun m ->
      m "stencil %s rejected: %s"
        (match pattern with
        | Some p -> Fingerprint.pattern p
        | None -> "<unrecognized>")
        (reject_to_string e))

let compile_pattern ?obs config pattern =
  match Compile.compile ?obs config pattern with
  | Ok compiled -> Ok compiled
  | Error rejections ->
      let e = Resource_error rejections in
      warn_rejection ~pattern e;
      Error e

let of_recognized ?obs config = function
  | Ok pattern -> compile_pattern ?obs config pattern
  | Error diags -> Error (Rejected diags)

let parse_span obs f =
  match obs with
  | None -> f ()
  | Some o -> Obs.span o "parse" f

let recognize_span obs f =
  match obs with
  | None -> f ()
  | Some o -> Obs.span o "recognize" f

let compile_fortran ?obs config source =
  match parse_span obs (fun () -> Parser.parse_subroutine source) with
  | sub ->
      of_recognized ?obs config
        (recognize_span obs (fun () -> Recognize.subroutine sub))
  | exception Parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))

let compile_fortran_statement ?obs config source =
  match parse_span obs (fun () -> Parser.parse_statement source) with
  | stmt ->
      of_recognized ?obs config
        (recognize_span obs (fun () -> Recognize.statement stmt))
  | exception Parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))

let compile_defstencil ?obs config source =
  match parse_span obs (fun () -> Defstencil.parse source) with
  | form ->
      of_recognized ?obs config
        (recognize_span obs (fun () ->
             Recognize.subroutine (Defstencil.to_subroutine form)))
  | exception Defstencil.Error message -> Error (Parse_error message)

type program_unit = {
  unit_name : string;
  flagged : bool;
  outcome : (Compile.t, reject) result;
}

let compile_program config source =
  match Parser.parse_program source with
  | exception Parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))
  | subs ->
      Ok
        (List.map
           (fun (sub : Ccc_frontend.Ast.subroutine) ->
             let flagged =
               List.exists
                 (fun (s : Ccc_frontend.Ast.stmt) -> s.Ccc_frontend.Ast.flagged)
                 sub.Ccc_frontend.Ast.body
             in
             {
               unit_name = sub.Ccc_frontend.Ast.sub_name;
               flagged;
               outcome = of_recognized config (Recognize.subroutine sub);
             })
           subs)

let compile_fortran_exn config source =
  match compile_fortran config source with
  | Ok compiled -> compiled
  | Error e -> failwith (reject_to_string e)

let compile_multi ?obs config multi =
  match Compile.compile_fused ?obs config multi with
  | Ok fused -> Ok fused
  | Error rejections ->
      let e = Resource_error rejections in
      Log.warn (fun m ->
          m "multistencil (%d taps) rejected: %s"
            (Ccc_stencil.Multi.tap_count multi)
            (reject_to_string e));
      Error e

let compile_fortran_statement_multi ?obs config source =
  match parse_span obs (fun () -> Parser.parse_statement source) with
  | stmt -> begin
      match recognize_span obs (fun () -> Recognize.statement_multi stmt) with
      | Ok multi -> compile_multi ?obs config multi
      | Error diags -> Error (Rejected diags)
    end
  | exception Parser.Error { line; message } ->
      Error (Parse_error (Printf.sprintf "line %d: %s" line message))

let fused_report fused = Format.asprintf "%a" Compile.pp_fused_report fused

let machine ?memory_words config = Machine.create ?memory_words config

(* A one-shot pool for the one-shot entry points: spawned only when
   [jobs > 1], always joined on the way out (OCaml caps live domains,
   so leaking one per call would exhaust the runtime). *)
let with_pool jobs f =
  match jobs with
  | 1 -> f Pool.sequential
  | n ->
      let pool = Pool.create ~jobs:n in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let apply ?obs ?mode ?iterations ?(jobs = 1) config compiled env =
  with_pool jobs (fun pool ->
      Exec.run ?obs ?mode ?iterations ~pool (machine config) compiled env)

let run ?obs ?mode ?iterations ?jobs config compiled env =
  match
    checked (fun () -> apply ?obs ?mode ?iterations ?jobs config compiled env)
  with
  | Ok _ as ok -> ok
  | Error e as refused ->
      Log.warn (fun fmt ->
          fmt "stencil %s rejected: %s"
            (Fingerprint.pattern compiled.Compile.pattern)
            (reject_to_string e));
      refused

let apply_fused ?obs ?mode ?iterations ?(jobs = 1) config fused env =
  with_pool jobs (fun pool ->
      Exec.single
        (Exec.exec ?obs ?mode ?iterations ~pool
           (Exec.Arena.transient (machine config))
           [ Exec.fused fused ] env))

let report compiled = Format.asprintf "%a" Compile.pp_report compiled
