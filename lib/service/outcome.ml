module Compile = Ccc_compiler.Compile
module Stats = Ccc_runtime.Stats
module Exec = Ccc_runtime.Exec

type reject =
  | Parse_error of string
  | Rejected of Ccc_frontend.Diagnostics.t list
  | Resource_error of (int * Ccc_analysis.Finding.t) list
  | Too_small of string
  | Invalid_batch of string

type shed =
  | Overloaded of { tenant : string; queued : int; limit : int }
  | Deadline_exceeded of { tenant : string; deadline_us : float; now_us : float }
  | Shutting_down

type degraded = {
  output : Ccc_runtime.Grid.t;
  findings : Ccc_analysis.Finding.t list;
  retries : int;
  recompiled : bool;
}

type t =
  | Completed of { result : Ccc_runtime.Exec.result; fingerprint : string option }
  | Degraded of { detail : degraded; fingerprint : string option }
  | Refused of { reject : reject; fingerprint : string option }
  | Shed of { shed : shed; fingerprint : string option }

let completed ?fingerprint result = Completed { result; fingerprint }
let degraded ?fingerprint detail = Degraded { detail; fingerprint }
let refused ?fingerprint reject = Refused { reject; fingerprint }
let shed ?fingerprint s = Shed { shed = s; fingerprint }

let checked f =
  match f () with
  | v -> Ok v
  | exception Ccc_runtime.Reference.Unbound name ->
      Error (Parse_error (Printf.sprintf "unbound array %s" name))
  | exception Ccc_runtime.Reference.Shape_mismatch m -> Error (Parse_error m)
  | exception Exec.Too_small m -> Error (Too_small m)

let fingerprint = function
  | Completed { fingerprint; _ }
  | Degraded { fingerprint; _ }
  | Refused { fingerprint; _ }
  | Shed { fingerprint; _ } ->
      fingerprint

let is_success = function
  | Completed _ | Degraded _ -> true
  | Refused _ | Shed _ -> false

let output = function
  | Completed { result; _ } -> Some result.Exec.output
  | Degraded { detail; _ } -> Some detail.output
  | Refused _ | Shed _ -> None

let compute_cycles = function
  | Completed { result; _ } -> result.Exec.stats.Stats.compute_cycles
  | Degraded _ | Refused _ | Shed _ -> 0

let comm_cycles = function
  | Completed { result; _ } -> result.Exec.stats.Stats.comm_cycles
  | Degraded _ | Refused _ | Shed _ -> 0

let exit_code = function
  | Completed _ | Degraded _ -> 0
  | Refused _ -> 1
  | Shed _ -> 3

(* The cram suite pins this text on every CLI rejection path. *)
let reject_to_string = function
  | Parse_error m -> "parse error: " ^ m
  | Rejected diags ->
      "not a recognizable stencil assignment:\n"
      ^ String.concat "\n"
          (List.map Ccc_frontend.Diagnostics.to_string diags)
  | Resource_error rejections ->
      "resource limits: " ^ Compile.no_workable rejections
  | Too_small m -> "array too small: " ^ m
  | Invalid_batch m -> "invalid batch: " ^ m

let shed_to_string = function
  | Overloaded { tenant; queued; limit } ->
      Printf.sprintf "overloaded: tenant %s holds %d of %d queue slots" tenant
        queued limit
  | Deadline_exceeded { tenant; deadline_us; now_us } ->
      Printf.sprintf
        "deadline exceeded: tenant %s asked for %.0f us, clock read %.0f us"
        tenant deadline_us now_us
  | Shutting_down -> "shutting down: the scheduler no longer admits requests"

let to_string = function
  | Completed { result; _ } ->
      Printf.sprintf "completed: compute %d cycles, comm %d cycles"
        result.Exec.stats.Stats.compute_cycles
        result.Exec.stats.Stats.comm_cycles
  | Degraded { detail; _ } ->
      Printf.sprintf
        "degraded to the reference path: %d findings, %d retries%s"
        (List.length detail.findings)
        detail.retries
        (if detail.recompiled then ", recompiled" else "")
  | Refused { reject; _ } -> reject_to_string reject
  | Shed { shed; _ } -> shed_to_string shed

let pp ppf t =
  (match t with
  | Completed _ -> Format.pp_print_string ppf "completed"
  | Degraded _ -> Format.pp_print_string ppf "degraded"
  | Refused _ -> Format.pp_print_string ppf "refused"
  | Shed _ -> Format.pp_print_string ppf "shed");
  (match fingerprint t with
  | Some fp -> Format.fprintf ppf " [%s]" fp
  | None -> ());
  Format.fprintf ppf ": %s" (to_string t)
