(* Tests for the textual front end: lexer, parser, elaboration, and an
   end-to-end source-to-interpreter round trip. *)

open Streamit
open Types

let t name f = Alcotest.test_case name `Quick f

let toks src = List.map (fun (t, _, _) -> t) (Frontend.Lexer.tokenize src)

let lexer_tests =
  [
    t "numbers, idents, keywords" (fun () ->
        Alcotest.(check (list string)) "tokens"
          [ "filter"; "Foo"; "pop"; "2"; "push"; "1"; "<eof>" ]
          (List.map Frontend.Token.to_string (toks "filter Foo pop 2 push 1")));
    t "float literals" (fun () ->
        match toks "3.25 10" with
        | [ Frontend.Token.FLOAT f; Frontend.Token.INT 10; Frontend.Token.EOF ] ->
          Alcotest.(check (float 1e-9)) "f" 3.25 f
        | _ -> Alcotest.fail "bad tokens");
    t "operators" (fun () ->
        Alcotest.(check int) "count" 14 (* 13 operators + EOF *)
          (List.length (toks "<= >= == != << >> + - * / % & |")));
    t "comments skipped" (fun () ->
        Alcotest.(check int) "only eof" 1
          (List.length (toks "// line\n/* block\nmore */")));
    t "unterminated comment errors" (fun () ->
        try
          ignore (toks "/* oops");
          Alcotest.fail "expected lex error"
        with Frontend.Lexer.Lex_error _ -> ());
    t "bad character errors with position" (fun () ->
        try
          ignore (toks "a\n  $");
          Alcotest.fail "expected lex error"
        with Frontend.Lexer.Lex_error (_, line, _) ->
          Alcotest.(check int) "line" 2 line);
    t "out-of-range literals error with position" (fun () ->
        List.iter
          (fun lit ->
            try
              ignore (toks ("x +\n  " ^ lit));
              Alcotest.failf "expected lex error for %s" lit
            with Frontend.Lexer.Lex_error (_, line, col) ->
              Alcotest.(check (pair int int)) lit (2, 3) (line, col))
          [ "99999999999999999999"; "4611686018427387904"; "1e999"; "1.5e400" ];
        match toks "4611686018427387903 1e308" with
        | [ Frontend.Token.INT n; Frontend.Token.FLOAT _; Frontend.Token.EOF ] ->
          Alcotest.(check int) "max_int" max_int n
        | _ -> Alcotest.fail "bad tokens");
  ]

(* Token.to_string now renders FLOAT through the canonical formatter
   (Obs.Canon), and the lexer accepts the exponent forms that
   formatter can emit.  Round trip: printing any float token and
   re-lexing it must give back the same bits. *)
let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"float tokens round-trip through the lexer"
         ~count:300
         QCheck.(make Gen.(map abs_float float))
         (fun f ->
           QCheck.assume (Float.is_finite f);
           match toks (Obs.Canon.finite f) with
           | [ Frontend.Token.FLOAT g; Frontend.Token.EOF ] ->
             Int64.bits_of_float g = Int64.bits_of_float f
           | _ -> false));
    t "exponent forms lex as floats" (fun () ->
        List.iter
          (fun (src, want) ->
            match toks src with
            | [ Frontend.Token.FLOAT f; Frontend.Token.EOF ] ->
              Alcotest.(check (float 1e-9)) src want f
            | _ -> Alcotest.fail ("not a single FLOAT: " ^ src))
          [
            ("1e5", 1e5);
            ("1e+16", 1e16);
            ("1.5E-3", 1.5e-3);
            ("2.5e2", 250.0);
          ]);
    t "exponent needs digits: 16elems stays INT + IDENT" (fun () ->
        match toks "16elems" with
        | [ Frontend.Token.INT 16; Frontend.Token.IDENT "elems";
            Frontend.Token.EOF ] ->
          ()
        | _ -> Alcotest.fail "expected INT 16, IDENT elems");
    t "float token printing is canonical" (fun () ->
        Alcotest.(check string) "half" "0.5"
          (Frontend.Token.to_string (Frontend.Token.FLOAT 0.5));
        Alcotest.(check string) "integral" "3.0"
          (Frontend.Token.to_string (Frontend.Token.FLOAT 3.0)));
  ]

let simple_src =
  {|
filter Doubler pop 1 push 1 {
  push(pop() * 2.0);
}
filter Adder pop 2 push 1 {
  let a = pop();
  let b = pop();
  push(a + b);
}
pipeline Main {
  add Doubler;
  add Adder;
}
|}

let parser_tests =
  [
    t "parses filters and pipeline" (fun () ->
        let prog = Frontend.Parser.parse_program simple_src in
        Alcotest.(check string) "name" "Main" (Ast.name_of prog);
        Alcotest.(check int) "filters" 2 (Ast.num_filters prog));
    t "elaborated program runs" (fun () ->
        let g = Flatten.flatten (Frontend.Parser.parse_program simple_src) in
        let out =
          Interp.run_steady_states g
            ~input:(fun i -> VFloat (float_of_int i))
            ~iters:2
        in
        (* Doubler: 0 2 4 6 -> Adder: 2, 10 *)
        Alcotest.(check bool) "values" true
          (List.for_all2 equal_value out [ VFloat 2.0; VFloat 10.0 ]));
    t "splitjoin with weights" (fun () ->
        let src =
          {|
filter Id pop 1 push 1 { push(pop()); }
filter Neg pop 1 push 1 { push(0.0 - pop()); }
splitjoin SJ {
  split roundrobin(1, 1);
  add Id;
  add Neg;
  join roundrobin(1, 1);
}
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let out =
          Interp.run_steady_states g
            ~input:(fun i -> VFloat (float_of_int (i + 1)))
            ~iters:2
        in
        Alcotest.(check bool) "values" true
          (List.for_all2 equal_value out
             [ VFloat 1.0; VFloat (-2.0); VFloat 3.0; VFloat (-4.0) ]));
    t "peek and int filters" (fun () ->
        let src =
          {|
filter Diff int pop 1 push 1 peek 2 {
  push(peek(1) - peek(0));
  let _d = pop();
}
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let out =
          Interp.run_steady_states g ~input:(fun i -> VInt (i * i)) ~iters:4
        in
        (* differences of squares: 1, 3, 5, 7 *)
        Alcotest.(check (list int)) "diffs" [ 1; 3; 5; 7 ]
          (List.map to_int out));
    t "tables parse and resolve" (fun () ->
        let src =
          {|
filter Weighted pop 2 push 1 {
  table w = [0.25, 0.75];
  push(pop() * w[0] + pop() * w[1]);
}
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let out =
          Interp.run_steady_states g
            ~input:(fun i -> VFloat (float_of_int (i + 1)))
            ~iters:1
        in
        Alcotest.(check bool) "weighted" true
          (List.for_all2 equal_value out [ VFloat ((1.0 *. 0.25) +. (2.0 *. 0.75)) ]));
    t "for loops and arrays" (fun () ->
        let src =
          {|
filter Rev pop 4 push 4 {
  array w[4];
  for j = 0 to 4 { w[j] = pop(); }
  for j = 0 to 4 { push(w[3 - j]); }
}
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let out =
          Interp.run_steady_states g ~input:(fun i -> VFloat (float_of_int i)) ~iters:1
        in
        Alcotest.(check bool) "reversed" true
          (List.for_all2 equal_value out
             [ VFloat 3.0; VFloat 2.0; VFloat 1.0; VFloat 0.0 ]));
    t "declared rates checked at parse time" (fun () ->
        let src = "filter Bad pop 1 push 2 { push(pop()); }" in
        try
          ignore (Frontend.Parser.parse_program src);
          Alcotest.fail "expected parse error"
        with Frontend.Parser.Parse_error _ -> ());
    t "unknown stream reference rejected" (fun () ->
        let src = "pipeline P { add Ghost; }" in
        try
          ignore (Frontend.Parser.parse_program src);
          Alcotest.fail "expected parse error"
        with Frontend.Parser.Parse_error _ -> ());
    t "syntax error carries position" (fun () ->
        let src = "filter F pop 1 push 1 {\n  push(;\n}" in
        try
          ignore (Frontend.Parser.parse_program src);
          Alcotest.fail "expected parse error"
        with Frontend.Parser.Parse_error (_, line, _) ->
          Alcotest.(check int) "line" 2 line);
    t "parsed program compiles to the GPU" (fun () ->
        let g = Flatten.flatten (Frontend.Parser.parse_program simple_src) in
        match Swp_core.Compile.compile g with
        | Ok c ->
          Alcotest.(check (result unit string)) "schedule" (Ok ())
            (Swp_core.Swp_schedule.validate g c.Swp_core.Compile.schedule)
        | Error m -> Alcotest.fail m);
  ]

let suite = lexer_tests @ roundtrip_tests @ parser_tests
