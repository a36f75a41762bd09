(* Tests for CUDA source generation: structural properties of the
   emitted C (golden-style substring checks, balanced braces, index-map
   forms) rather than compiling with a real nvcc. *)

open Streamit

let t name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let balanced_braces s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

(* The CUDA device function of one filter, as the profiler prints it. *)
let cuda_fn ?style f =
  Kir.Print_c.work_fn Kir.Print_c.Cuda ?style
    ~fn_name:(Kir.Print_c.work_fn_name f) f

let sample_filter =
  Kernel.Build.(
    Kernel.make_filter ~name:"Scale" ~pop:2 ~push:2
      ~tables:[ ("coef", [| Types.VFloat 0.5; Types.VFloat 2.0 |]) ]
      [
        let_ "a" pop;
        let_ "b" pop;
        push ((v "a" *: tbl "coef" (i 0)) +: (v "b" *: tbl "coef" (i 1)));
        push (v "a" -: v "b");
      ])

let emit_tests =
  [
    t "identifier mangling" (fun () ->
        Alcotest.(check string) "spaces" "split_sj_1" (Kir.Ir.c_ident "split sj 1");
        Alcotest.(check string) "leading digit" "_1x" (Kir.Ir.c_ident "1x");
        Alcotest.(check string) "empty" "_anon" (Kir.Ir.c_ident ""));
    t "device function with coalesced indices (eq. 10/11)" (fun () ->
        let c = cuda_fn sample_filter in
        Alcotest.(check bool) "braces" true (balanced_braces c);
        Alcotest.(check bool) "device fn" true
          (contains c "static __device__ void work_Scale");
        Alcotest.(check bool) "constant table" true
          (contains c "__constant__ float Scale_coef[2]");
        (* coalesced read index: 128*n + (tid/128)*128*rate + tid%128 *)
        Alcotest.(check bool) "shuffled index" true
          (contains c "(128 * (_pop) + (tid / 128) * 128 * 2 + (tid % 128))"));
    t "natural indices for the non-coalesced baseline" (fun () ->
        let c = cuda_fn ~style:Kir.Ir.Natural sample_filter in
        Alcotest.(check bool) "natural" true (contains c "(tid * 2 + (_pop))"));
    t "pops hoisted in evaluation order" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"Sum3" ~pop:3 ~push:1
              [ push (pop +: pop +: pop) ])
        in
        let c = cuda_fn f in
        (* three temporaries, each bumping _pop before the push *)
        Alcotest.(check bool) "t1" true (contains c "_t1");
        Alcotest.(check bool) "t3" true (contains c "_t3");
        Alcotest.(check bool) "push after" true
          (contains c "out[") );
    t "conditional-arm pops print and run" (fun () ->
        (* only the taken arm may pop, so every printer turns the
           conditional into an if/else; the kernels must lint clean and
           the lowered program must compute what the interpreter does *)
        let src =
          {|
filter Src pop 0 push 1 { state k = [0.0]; k[0] = k[0] + 1.0; push(k[0] % 5.0 - 2.0); }
filter CondPop pop 1 push 1 peek 2 { let x = peek(1); push(x > 0.0 ? pop() : pop()); }
filter Pick pop 2 push 1 { let s = pop(); push(s < 0.0 ? pop() + s : -pop()); }
pipeline P { add Src; add CondPop; add Pick; }
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        let p = Kir.Lower.lower c in
        List.iter
          (fun target ->
            match Kir.Backend.emit_checked target p with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          Kir.Ir.all_targets;
        Alcotest.(check bool) "if/else in place of ?:" true
          (contains (Kir.Backend.emit Kir.Ir.Cuda p) "if ((x > 0.0f)) {");
        let input i = Types.VFloat (float_of_int (i mod 5) -. 2.0) in
        let scale = c.Swp_core.Compile.config.Swp_core.Select.scale in
        let want = Interp.run_steady_states g ~input ~iters:(3 * scale) in
        let got = Kir.Eval.run p ~input ~iters:3 in
        Alcotest.(check bool) "tokens out" true (want <> []);
        Alcotest.(check (list string)) "kir-eval = interpreter"
          (List.map Types.string_of_value want)
          (List.map Types.string_of_value got));
    t "peek before a later pop, int lets: fixtures on every target" (fun () ->
        let program file =
          let src = In_channel.with_open_bin file In_channel.input_all in
          let g = Flatten.flatten (Frontend.Parser.parse_program src) in
          let c = Result.get_ok (Swp_core.Compile.compile g) in
          let scale = c.Swp_core.Compile.config.Swp_core.Select.scale in
          (g, scale, Kir.Lower.lower c)
        in
        let find hay needle from =
          let nl = String.length needle in
          let rec go i =
            if i + nl > String.length hay then max_int
            else if String.sub hay i nl = needle then i
            else go (i + 1)
          in
          go from
        in
        (* push(peek(1) * 10.0 + pop()): the interpreter reads token 1,
           so the peek must be read while _pop is still 0 *)
        let g, scale, p = program "fixtures/peek_pop.str" in
        List.iter
          (fun target ->
            let src = Result.get_ok (Kir.Backend.emit_checked target p) in
            let fn = find src "work_PeekPop(" 0 in
            Alcotest.(check bool)
              (Kir.Ir.target_name target ^ ": peek read before the pop")
              true
              (find src "_pop + (1)" fn < find src "_pop++" fn))
          Kir.Ir.all_targets;
        let input i = Types.VFloat (float_of_int (i mod 7)) in
        Alcotest.(check (list string)) "kir-eval = interpreter"
          (List.map Types.string_of_value
             (Interp.run_steady_states g ~input ~iters:(2 * scale)))
          (List.map Types.string_of_value (Kir.Eval.run p ~input ~iters:2));
        (* b = a + 1 holds an int; x = 1 is later given y * 0.5 *)
        let _, _, p = program "fixtures/int_let.str" in
        List.iter
          (fun target ->
            let src = Result.get_ok (Kir.Backend.emit_checked target p) in
            let int_b, float_x =
              if target = Kir.Ir.Wgsl then ("var b: i32", "var x: f32")
              else ("int b", "float x")
            in
            let name = Kir.Ir.target_name target in
            Alcotest.(check bool) (name ^ ": b is int") true
              (contains src (int_b ^ " = (a + 1);"));
            Alcotest.(check bool) (name ^ ": x is float") true
              (contains src (float_x ^ " = 1;")))
          Kir.Ir.all_targets);
    t "loops and conditionals lower structurally" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"Loopy" ~pop:4 ~push:4
              [
                arr "w" 4;
                for_ "j" (i 0) (i 4) [ seti "w" (v "j") pop ];
                for_ "j" (i 0) (i 4)
                  [
                    if_ (geti "w" (v "j") >: f 0.0)
                      [ push (geti "w" (v "j")) ]
                      [ push (neg (geti "w" (v "j"))) ];
                  ];
              ])
        in
        let c = cuda_fn f in
        Alcotest.(check bool) "for" true (contains c "for (int j = 0; j < 4; j++)");
        Alcotest.(check bool) "if/else" true (contains c "} else {");
        Alcotest.(check bool) "array decl" true (contains c "float w[4]");
        Alcotest.(check bool) "braces" true (balanced_braces c));
    t "integer filters use int buffers" (fun () ->
        let f =
          Kernel.Build.(
            Kernel.make_filter ~name:"IntOp" ~pop:1 ~push:1 ~in_ty:Types.TInt
              ~out_ty:Types.TInt
              [ push ((pop <<: i 2) |: i 1) ])
        in
        let c = cuda_fn f in
        Alcotest.(check bool) "signature" true
          (contains c "(const int* in, int* out, int tid)"));
  ]

let kernel_tests =
  [
    t "splitter/joiner lowering rates check" (fun () ->
        let dup = Kir.Lower.splitter_filter Ast.Duplicate 3 in
        Alcotest.(check (result unit string)) "dup" (Ok ()) (Kernel.check_filter dup);
        Alcotest.(check int) "push" 3 dup.Kernel.push_rate;
        let rr = Kir.Lower.splitter_filter (Ast.Round_robin [ 2; 3 ]) 2 in
        Alcotest.(check int) "rr pop" 5 rr.Kernel.pop_rate;
        let j = Kir.Lower.joiner_filter [ 1; 4 ] in
        Alcotest.(check int) "join pop" 5 j.Kernel.pop_rate);
    t "whole-program generation for a benchmark" (fun () ->
        let g = Flatten.flatten (Benchmarks.Bitonic.stream ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        let src = Kir.Backend.emit_compiled Kir.Ir.Cuda c in
        Alcotest.(check bool) "braces" true (balanced_braces src);
        Alcotest.(check bool) "kernel" true
          (contains src "__global__ void swp_kernel");
        Alcotest.(check bool) "switch on SM (Sec. IV-C)" true
          (contains src "switch (sm)");
        Alcotest.(check bool) "staging predicates" true
          (contains src "stage_on");
        Alcotest.(check bool) "launch config" true (contains src "swp_kernel<<<"));
    t "profile driver generation (Fig. 6)" (fun () ->
        let f = sample_filter in
        let src = Kir.Print_c.profile_driver f ~numfirings:26880 in
        Alcotest.(check bool) "events" true (contains src "cudaEventElapsedTime");
        Alcotest.(check bool) "iterates" true (contains src "26880 / blockDim.x");
        Alcotest.(check bool) "braces" true (balanced_braces src));
    t "every scheduled instance appears in the kernel" (fun () ->
        let g = Flatten.flatten (Benchmarks.Dct.stream ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        let src = Kir.Print_c.kernel Kir.Print_c.Cuda (Kir.Lower.lower c) in
        List.iter
          (fun (e : Swp_core.Swp_schedule.entry) ->
            let marker =
              Printf.sprintf "k=%d) o=%d f=%d" e.inst.Swp_core.Instances.k e.o e.f
            in
            if not (contains src marker) then
              Alcotest.failf "instance marker missing: %s" marker)
          (List.filteri (fun i _ -> i < 5)
             c.Swp_core.Compile.schedule.Swp_core.Swp_schedule.entries));
  ]

let suite = emit_tests @ kernel_tests
