open Ccc_stencil
module Exec = Ccc_runtime.Exec

let menu () =
  [
    ("cross5", Pattern.cross5 ());
    ("cross9", Pattern.cross9 ());
    ("square9", Pattern.square9 ());
  ]

(* Shape equality: same offsets and no bias; coefficients are routine
   arguments and do not matter. *)
let same_shape a b =
  Pattern.bias a = None
  && Pattern.bias b = None
  && List.length (Pattern.offsets a) = List.length (Pattern.offsets b)
  && List.for_all2 Offset.equal (Pattern.offsets a) (Pattern.offsets b)

let supports pattern =
  List.exists (fun (_, p) -> same_shape pattern p) (menu ())

type outcome =
  | Library of Ccc_runtime.Stats.t
  | Fallback of Ccc_runtime.Stats.t

let estimate ?(iterations = 1) ~sub_rows ~sub_cols config pattern =
  if supports pattern then
    match Ccc_compiler.Compile.compile ~widths:[ 4; 2; 1 ] config pattern with
    | Ok compiled ->
        Library
          (Exec.estimate ~primitive:Ccc_runtime.Halo.Legacy ~iterations
             ~sub_rows ~sub_cols config [ Exec.compiled compiled ])
    | Error _ ->
        Fallback (Naive.estimate ~iterations ~sub_rows ~sub_cols config pattern)
  else
    Fallback (Naive.estimate ~iterations ~sub_rows ~sub_cols config pattern)
