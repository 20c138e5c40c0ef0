(* Unit tests for the front end: lexer, Fortran parser, defstencil
   reader, and the stencil recognizer with its diagnostics. *)

open Ccc_frontend
module Pattern = Ccc_stencil.Pattern
module Offset = Ccc_stencil.Offset
module Coeff = Ccc_stencil.Coeff
module Tap = Ccc_stencil.Tap
module Boundary = Ccc_stencil.Boundary

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let kinds src = List.map (fun t -> t.Token.kind) (Lexer.tokenize src)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lex_basic () =
  match kinds "R = C1 * X" with
  | [ Token.Ident "R"; Token.Equal; Token.Ident "C1"; Token.Star;
      Token.Ident "X"; Token.Eof ] ->
      ()
  | ks ->
      Alcotest.failf "unexpected tokens: %s"
        (String.concat " " (List.map Token.describe ks))

let test_lex_case_insensitive () =
  match kinds "cshift(x, dim=1)" with
  | Token.Ident "CSHIFT" :: Token.Lparen :: Token.Ident "X" :: _ -> ()
  | _ -> Alcotest.fail "identifiers not upcased"

let test_lex_numbers () =
  match kinds "1.5 2 .25 3e2 1.0E-3 2d0" with
  | [ Token.Number a; Token.Number b; Token.Number c; Token.Number d;
      Token.Number e; Token.Number f; Token.Eof ] ->
      Alcotest.(check (float 1e-12)) "1.5" 1.5 a;
      Alcotest.(check (float 1e-12)) "2" 2.0 b;
      Alcotest.(check (float 1e-12)) ".25" 0.25 c;
      Alcotest.(check (float 1e-12)) "3e2" 300.0 d;
      Alcotest.(check (float 1e-12)) "1.0E-3" 0.001 e;
      Alcotest.(check (float 1e-12)) "2d0" 2.0 f
  | ks ->
      Alcotest.failf "unexpected: %s"
        (String.concat " " (List.map Token.describe ks))

let test_lex_continuation_trailing () =
  (* A trailing '&' joins the next line; no Newline token appears. *)
  match kinds "A = B &\n + C" with
  | [ Token.Ident "A"; Token.Equal; Token.Ident "B"; Token.Plus;
      Token.Ident "C"; Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "trailing continuation failed"

let test_lex_continuation_leading_ampersand () =
  (* The paper's style: '&' ends one line and '+' begins the next,
     with an optional leading '&'. *)
  match kinds "A = B &\n& + C" with
  | [ Token.Ident "A"; Token.Equal; Token.Ident "B"; Token.Plus;
      Token.Ident "C"; Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "leading-ampersand continuation failed"

let test_lex_comments () =
  match kinds "A = B ! a comment\nC = D" with
  | [ Token.Ident "A"; Token.Equal; Token.Ident "B"; Token.Newline;
      Token.Ident "C"; Token.Equal; Token.Ident "D"; Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "comment not skipped"

let test_lex_directive () =
  match kinds "!ccc$ stencil\nR = X" with
  | Token.Directive "STENCIL" :: Token.Newline :: _ -> ()
  | ks ->
      Alcotest.failf "directive missing: %s"
        (String.concat " " (List.map Token.describe ks))

let test_lex_double_colon () =
  match kinds "REAL :: A" with
  | [ Token.Ident "REAL"; Token.Double_colon; Token.Ident "A"; Token.Eof ] -> ()
  | _ -> Alcotest.fail "double colon"

let test_lex_error_position () =
  match Lexer.tokenize "A = ?" with
  | _ -> Alcotest.fail "expected a lexer error"
  | exception Lexer.Error { line; col; _ } ->
      check_int "line" 1 line;
      check_int "col" 5 col

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_stmt = Parser.parse_statement

let test_parse_sum_of_products () =
  let stmt = parse_stmt "R = C1 * CSHIFT(X, 1, -1) + C2 * X" in
  check_str "lhs" "R" stmt.Ast.lhs;
  match stmt.Ast.rhs with
  | Ast.Add (Ast.Mul (Ast.Var "C1", Ast.Call ("CSHIFT", _)),
             Ast.Mul (Ast.Var "C2", Ast.Var "X")) ->
      ()
  | e -> Alcotest.failf "unexpected rhs: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_keyword_args () =
  let stmt = parse_stmt "R = CSHIFT(X, DIM=1, SHIFT=-1)" in
  match stmt.Ast.rhs with
  | Ast.Call ("CSHIFT",
              [ Ast.Positional (Ast.Var "X");
                Ast.Keyword ("DIM", Ast.Num 1.0);
                Ast.Keyword ("SHIFT", Ast.Neg (Ast.Num 1.0)) ]) ->
      ()
  | e -> Alcotest.failf "unexpected rhs: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_precedence () =
  (* A + B * C parses as A + (B * C). *)
  let stmt = parse_stmt "R = A + B * C" in
  match stmt.Ast.rhs with
  | Ast.Add (Ast.Var "A", Ast.Mul (Ast.Var "B", Ast.Var "C")) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_parenthesized () =
  let stmt = parse_stmt "R = (A + B) * C" in
  match stmt.Ast.rhs with
  | Ast.Mul (Ast.Add (Ast.Var "A", Ast.Var "B"), Ast.Var "C") -> ()
  | _ -> Alcotest.fail "parentheses ignored"

let test_parse_directive_flags_statement () =
  let stmt = parse_stmt "!CCC$ STENCIL\nR = C1 * CSHIFT(X, 1, 1)" in
  check_bool "flagged" true stmt.Ast.flagged

let test_parse_subroutine_cross () =
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n\
       REAL, ARRAY(:,:) :: R, X, C1, C2, C3, C4, C5\n\
       R = C1 * CSHIFT(X, 1, -1) &\n\
       \  + C2 * CSHIFT(X, 2, -1) &\n\
       \  + C3 * X &\n\
       \  + C4 * CSHIFT(X, 2, +1) &\n\
       \  + C5 * CSHIFT(X, 1, +1)\n\
       END\n"
  in
  check_str "name" "CROSS" sub.Ast.sub_name;
  check_int "params" 7 (List.length sub.Ast.params);
  check_int "one statement" 1 (List.length sub.Ast.body);
  check_int "declared rank" 2 (Option.get (Ast.declared_rank sub "C3"))

let test_parse_dimension_attribute () =
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE S (A, B)\nREAL, DIMENSION(:,:) :: A, B\nA = B * CSHIFT(B,1,1)\nEND SUBROUTINE S\n"
  in
  check_int "rank" 2 (Option.get (Ast.declared_rank sub "A"))

let test_parse_program_two_subroutines () =
  let subs =
    Parser.parse_program
      "SUBROUTINE A1 (R, X)\nR = X * CSHIFT(X,1,1)\nEND\n\n\
       SUBROUTINE A2 (R, X)\nR = X * CSHIFT(X,2,1)\nEND\n"
  in
  Alcotest.(check (list string))
    "names" [ "A1"; "A2" ]
    (List.map (fun s -> s.Ast.sub_name) subs)

let test_parse_error_reports_line () =
  match Parser.parse_statement "R = C1 *\n* X" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Error { line; _ } -> check_int "line" 1 line

let test_parse_missing_end () =
  match Parser.parse_subroutine "SUBROUTINE S (A)\nA = A * CSHIFT(A,1,1)\n" with
  | _ -> Alcotest.fail "expected missing END"
  | exception Parser.Error _ -> ()

let test_parse_explicit_shape_declaration () =
  (* Old-style declarations with explicit bounds still record rank. *)
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE S (A, B)\nREAL A(256, 256), B(256, 256)\nA = B * CSHIFT(B, 1, 1)\nEND\n"
  in
  check_int "rank from explicit bounds" 2 (Option.get (Ast.declared_rank sub "A"))

let test_parse_end_subroutine_with_name () =
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE NAMED (R, X)\nR = X * CSHIFT(X, 1, 1)\nEND SUBROUTINE NAMED\n"
  in
  check_str "name" "NAMED" sub.Ast.sub_name

let test_parse_comment_after_continuation () =
  (* A comment on the continued line must not break the statement. *)
  let stmt =
    parse_stmt "R = C1 * CSHIFT(X, 1, 1) &\n! midway remark\n + C2 * X"
  in
  match stmt.Ast.rhs with
  | Ast.Add (_, Ast.Mul (Ast.Var "C2", Ast.Var "X")) -> ()
  | e -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_empty_parameter_list () =
  let sub = Parser.parse_subroutine "SUBROUTINE NOPARAMS ()\nEND\n" in
  check_int "no parameters" 0 (List.length sub.Ast.params);
  check_int "no body" 0 (List.length sub.Ast.body)

let test_parse_unary_plus_and_minus_nesting () =
  let stmt = parse_stmt "R = C1 * CSHIFT(X, 1, - -2)" in
  match stmt.Ast.rhs with
  | Ast.Mul (_, Ast.Call ("CSHIFT", [ _; _; Ast.Positional shift ])) -> begin
      match shift with
      | Ast.Neg (Ast.Neg (Ast.Num 2.0)) -> ()
      | e -> Alcotest.failf "shift parsed as %s" (Format.asprintf "%a" Ast.pp_expr e)
    end
  | _ -> Alcotest.fail "statement shape"

(* ------------------------------------------------------------------ *)
(* Defstencil *)

let cross_form =
  "(defstencil cross (r x c1 c2 c3 c4 c5)\n\
  \  (single-float single-float)\n\
  \  (:= r (+ (* c1 (cshift x 1 -1))\n\
  \           (* c2 (cshift x 2 -1))\n\
  \           (* c3 x)\n\
  \           (* c4 (cshift x 2 +1))\n\
  \           (* c5 (cshift x 1 +1)))))"

let test_defstencil_parses () =
  let form = Defstencil.parse cross_form in
  check_str "name" "CROSS" form.Defstencil.name;
  check_int "params" 7 (List.length form.Defstencil.params);
  check_int "types" 2 (List.length form.Defstencil.element_types)

let test_defstencil_matches_fortran () =
  (* The two front ends of the paper share recognition; the same
     stencil written both ways must produce identical patterns. *)
  let from_lisp =
    match
      Recognize.subroutine
        (Defstencil.to_subroutine (Defstencil.parse cross_form))
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "lisp form rejected"
  in
  check_bool "same pattern" true
    (Pattern.equal from_lisp (Pattern.cross5 ()))

let test_defstencil_error () =
  match Defstencil.parse "(defstencil oops)" with
  | _ -> Alcotest.fail "expected failure"
  | exception Defstencil.Error _ -> ()

let test_sexp_comments_and_nesting () =
  match Sexp.parse "; heading\n(a (b c) ; tail\n d)" with
  | Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ];
                Sexp.Atom "d" ] ->
      ()
  | s -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Sexp.pp s)

(* ------------------------------------------------------------------ *)
(* Recognizer *)

let recognize src = Recognize.statement (Parser.parse_statement src)

let pattern_exn src =
  match recognize src with
  | Ok p -> p
  | Error ds ->
      Alcotest.failf "rejected: %s"
        (String.concat "; " (List.map Diagnostics.to_string ds))

let diag_codes src =
  match recognize src with
  | Ok _ -> Alcotest.failf "unexpectedly accepted: %s" src
  | Error ds -> List.map (fun d -> Diagnostics.code_name d.Diagnostics.code) ds

let test_recognize_double_negated_shift_amount () =
  let p = pattern_exn "R = C1 * CSHIFT(X, 1, - -2) + C2 * X" in
  check_bool "composed to +2" true
    (Option.is_some (Pattern.find_tap p (Offset.make ~drow:2 ~dcol:0)))

let test_recognize_shift_by_zero () =
  (* CSHIFT by zero is the identity: a (0,0) tap. *)
  let p = pattern_exn "R = C1 * CSHIFT(X, 1, 0) + C2 * CSHIFT(X, 2, 1)" in
  check_bool "zero shift gives the center tap" true
    (Option.is_some (Pattern.find_tap p Offset.zero))

let test_recognize_opposite_shifts_cancel () =
  (* Nested opposite shifts compose to the center. *)
  let p =
    pattern_exn "R = C1 * CSHIFT(CSHIFT(X, 1, -1), 1, +1) + C2 * CSHIFT(X, 2, 1)"
  in
  check_bool "cancelled to (0,0)" true
    (Option.is_some (Pattern.find_tap p Offset.zero))

let test_recognize_result_may_equal_source () =
  (* Fortran 90 semantics evaluate the right side fully before
     assignment, so X = ... CSHIFT(X ...) is a legal stencil. *)
  let p = pattern_exn "X = C1 * CSHIFT(X, 1, -1) + C2 * X" in
  check_str "in-place" "X" (Pattern.result_var p);
  check_str "source" "X" (Pattern.source_var p)

let test_recognize_cross5 () =
  let p =
    pattern_exn
      "R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1) + C3 * X \
       + C4 * CSHIFT(X, 2, +1) + C5 * CSHIFT(X, 1, +1)"
  in
  check_bool "equals gallery cross5" true (Pattern.equal p (Pattern.cross5 ()))

let test_recognize_nested_shifts_compose () =
  let p =
    pattern_exn "R = C1 * CSHIFT(CSHIFT(X, 1, -1), 2, -1) + C2 * X"
  in
  check_bool "composed tap" true
    (Option.is_some (Pattern.find_tap p (Offset.make ~drow:(-1) ~dcol:(-1))))

let test_recognize_keyword_form () =
  let p = pattern_exn "R = C1 * CSHIFT(X, DIM=1, SHIFT=-1) + C2 * X" in
  check_bool "tap north" true
    (Option.is_some (Pattern.find_tap p (Offset.make ~drow:(-1) ~dcol:0)))

let test_recognize_coeff_on_right () =
  (* T ::= s(X) * c is also legal. *)
  let p = pattern_exn "R = CSHIFT(X, 1, 1) * C1 + X * C2" in
  check_int "two taps" 2 (Pattern.tap_count p)

let test_recognize_bare_shift_term () =
  (* T ::= s(X): implicit coefficient 1. *)
  let p = pattern_exn "R = CSHIFT(X, 1, 1) + C1 * X" in
  match Pattern.find_tap p (Offset.make ~drow:1 ~dcol:0) with
  | Some tap -> check_bool "coeff one" true (Coeff.equal tap.Tap.coeff Coeff.One)
  | None -> Alcotest.fail "tap missing"

let test_recognize_bias_term () =
  (* T ::= c: a bare coefficient array. *)
  let p = pattern_exn "R = C1 * CSHIFT(X, 1, 1) + B" in
  match Pattern.bias p with
  | Some (Coeff.Array "B") -> ()
  | _ -> Alcotest.fail "bias not recognized"

let test_recognize_scalar_coeff () =
  let p = pattern_exn "R = 0.25 * CSHIFT(X, 1, 1) + 2.0 * X" in
  match Pattern.find_tap p Offset.zero with
  | Some { Tap.coeff = Coeff.Scalar v; _ } ->
      Alcotest.(check (float 0.0)) "scalar" 2.0 v
  | _ -> Alcotest.fail "scalar coefficient lost"

let test_recognize_eoshift () =
  let p = pattern_exn "R = C1 * EOSHIFT(X, 1, -1) + C2 * X" in
  check_bool "end-off boundary" true
    (Boundary.equal (Pattern.boundary p) (Boundary.End_off 0.0))

let test_recognize_eoshift_boundary_value () =
  let p = pattern_exn "R = C1 * EOSHIFT(X, DIM=1, SHIFT=-1, BOUNDARY=7.5) + C2 * X" in
  check_bool "fill 7.5" true
    (Boundary.equal (Pattern.boundary p) (Boundary.End_off 7.5))

let test_reject_mixed_shift_kinds () =
  check_bool "mixed-shift-kinds reported" true
    (List.mem "mixed-shift-kinds"
       (diag_codes "R = C1 * CSHIFT(X, 1, 1) + C2 * EOSHIFT(X, 1, 1)"))

let test_reject_two_shifted_variables () =
  check_bool "multiple-shifted-variables" true
    (List.mem "multiple-shifted-variables"
       (diag_codes "R = C1 * CSHIFT(X, 1, 1) + C2 * CSHIFT(Y, 1, 1)"))

let test_reject_subtraction () =
  check_bool "subtraction" true
    (List.mem "subtraction"
       (diag_codes "R = C1 * CSHIFT(X, 1, 1) - C2 * X"))

let test_reject_no_shift () =
  check_bool "no-shifted-variable" true
    (List.mem "no-shifted-variable" (diag_codes "R = C1 * C2"))

let test_reject_duplicate_offset () =
  check_bool "duplicate-offset" true
    (List.mem "duplicate-offset"
       (diag_codes "R = C1 * CSHIFT(X, 1, 1) + C2 * CSHIFT(X, 1, 1)"))

let test_reject_dim3 () =
  check_bool "unsupported-dimension" true
    (List.mem "unsupported-dimension"
       (diag_codes "R = C1 * CSHIFT(X, 3, 1) + C2 * X"))

let test_reject_coeff_product () =
  check_bool "not-an-array-coefficient" true
    (List.mem "not-an-array-coefficient"
       (diag_codes "R = C1 * C2 * CSHIFT(X, 1, 1) + C3 * X"))

let test_reject_variable_shift_amount () =
  check_bool "bad-shift-call" true
    (List.mem "bad-shift-call" (diag_codes "R = C1 * CSHIFT(X, 1, N) + C2 * X"))

let test_reject_multiple_bias () =
  check_bool "multiple-bias-terms" true
    (List.mem "multiple-bias-terms"
       (diag_codes "R = C1 * CSHIFT(X, 1, 1) + A + B"))

let test_subroutine_checks_params () =
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE S (R, X)\nR = C9 * CSHIFT(X, 1, 1)\nEND\n"
  in
  match Recognize.subroutine sub with
  | Ok _ -> Alcotest.fail "should reject non-parameter coefficient"
  | Error ds -> check_bool "mentions C9" true
      (List.exists
         (fun d ->
           let msg = Diagnostics.to_string d in
           String.length msg > 0
           &&
           (* crude containment check *)
           let re = "C9" in
           let rec contains i =
             i + String.length re <= String.length msg
             && (String.sub msg i (String.length re) = re || contains (i + 1))
           in
           contains 0)
         ds)

let test_compile_program_units () =
  (* The section-6 workflow: one file, three subroutines; one compiled
     by the convolution module, one falls back unflagged, one is a
     flagged failure (loud feedback). *)
  let source =
    "SUBROUTINE GOOD (R, X, C1, C2)\n\
     REAL, ARRAY(:,:) :: R, X, C1, C2\n\
     !CCC$ STENCIL\n\
     R = C1 * CSHIFT(X, 1, -1) + C2 * X\n\
     END\n\n\
     SUBROUTINE PLAIN (R, X, C1)\n\
     REAL, ARRAY(:,:) :: R, X, C1\n\
     R = C1 * X\n\
     END\n\n\
     SUBROUTINE FLAGGEDBAD (R, X, Y, C1)\n\
     REAL, ARRAY(:,:) :: R, X, Y, C1\n\
     !CCC$ STENCIL\n\
     R = C1 * CSHIFT(X, 1, 1) + CSHIFT(Y, 2, 1)\n\
     END\n"
  in
  match Ccc.compile_program Ccc.Config.default source with
  | Error e -> Alcotest.failf "program: %s" (Ccc.Outcome.reject_to_string e)
  | Ok units -> begin
      check_int "three units" 3 (List.length units);
      match units with
      | [ good; plain; bad ] ->
          check_str "good name" "GOOD" good.Ccc.unit_name;
          check_bool "good flagged" true good.Ccc.flagged;
          check_bool "good compiled" true (Result.is_ok good.Ccc.outcome);
          check_bool "plain unflagged" false plain.Ccc.flagged;
          check_bool "plain fell back" true (Result.is_error plain.Ccc.outcome);
          check_bool "bad flagged" true bad.Ccc.flagged;
          check_bool "bad reported" true (Result.is_error bad.Ccc.outcome)
      | _ -> Alcotest.fail "unexpected unit list"
    end

let test_subroutine_requires_single_statement () =
  let sub =
    Parser.parse_subroutine
      "SUBROUTINE S (R, X, C1)\nR = C1 * CSHIFT(X, 1, 1)\nR = C1 * X\nEND\n"
  in
  match Recognize.subroutine sub with
  | Ok _ -> Alcotest.fail "should reject two statements"
  | Error _ -> ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          tc "basic tokens" test_lex_basic;
          tc "case insensitive" test_lex_case_insensitive;
          tc "numeric literals" test_lex_numbers;
          tc "trailing continuation" test_lex_continuation_trailing;
          tc "leading-ampersand continuation"
            test_lex_continuation_leading_ampersand;
          tc "comments" test_lex_comments;
          tc "CCC$ directive" test_lex_directive;
          tc "double colon" test_lex_double_colon;
          tc "error position" test_lex_error_position;
        ] );
      ( "parser",
        [
          tc "sum of products" test_parse_sum_of_products;
          tc "keyword arguments" test_parse_keyword_args;
          tc "precedence" test_parse_precedence;
          tc "parentheses" test_parse_parenthesized;
          tc "directive flags statement" test_parse_directive_flags_statement;
          tc "CROSS subroutine" test_parse_subroutine_cross;
          tc "DIMENSION attribute" test_parse_dimension_attribute;
          tc "program with two subroutines" test_parse_program_two_subroutines;
          tc "error line number" test_parse_error_reports_line;
          tc "missing END" test_parse_missing_end;
          tc "explicit shape declarations" test_parse_explicit_shape_declaration;
          tc "END SUBROUTINE with name" test_parse_end_subroutine_with_name;
          tc "comment after continuation" test_parse_comment_after_continuation;
          tc "empty parameter list" test_parse_empty_parameter_list;
          tc "nested unary signs" test_parse_unary_plus_and_minus_nesting;
        ] );
      ( "defstencil",
        [
          tc "parses the paper's form" test_defstencil_parses;
          tc "agrees with the Fortran front end" test_defstencil_matches_fortran;
          tc "malformed form" test_defstencil_error;
          tc "sexp comments and nesting" test_sexp_comments_and_nesting;
        ] );
      ( "recognizer",
        [
          tc "cross5" test_recognize_cross5;
          tc "nested shifts compose" test_recognize_nested_shifts_compose;
          tc "keyword form" test_recognize_keyword_form;
          tc "coefficient on the right" test_recognize_coeff_on_right;
          tc "bare shift term" test_recognize_bare_shift_term;
          tc "bias term" test_recognize_bias_term;
          tc "scalar coefficients" test_recognize_scalar_coeff;
          tc "EOSHIFT boundary" test_recognize_eoshift;
          tc "EOSHIFT BOUNDARY= value" test_recognize_eoshift_boundary_value;
          tc "rejects mixed shift kinds" test_reject_mixed_shift_kinds;
          tc "rejects two shifted variables" test_reject_two_shifted_variables;
          tc "rejects subtraction" test_reject_subtraction;
          tc "rejects shift-free statements" test_reject_no_shift;
          tc "rejects duplicate offsets" test_reject_duplicate_offset;
          tc "rejects DIM=3" test_reject_dim3;
          tc "rejects coefficient products" test_reject_coeff_product;
          tc "rejects variable shift amounts" test_reject_variable_shift_amount;
          tc "rejects multiple bias terms" test_reject_multiple_bias;
          tc "double-negated shift amounts" test_recognize_double_negated_shift_amount;
          tc "shift by zero" test_recognize_shift_by_zero;
          tc "opposite shifts cancel" test_recognize_opposite_shifts_cancel;
          tc "in-place update allowed" test_recognize_result_may_equal_source;
          tc "subroutine parameter check" test_subroutine_checks_params;
          tc "whole-program compilation with directives"
            test_compile_program_units;
          tc "subroutine single-statement rule"
            test_subroutine_requires_single_statement;
        ] );
    ]
