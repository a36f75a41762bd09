(* Stateful-filter extension (the paper's stated future work, Sec. VII):
   persistent state arrays, instance serialization via loop-carried
   dependences (which makes RecMII non-zero), and end-to-end agreement
   between the interpreter and the device functional simulator. *)

open Streamit
open Types

let t name f = Alcotest.test_case name `Quick f

(* Running-sum accumulator: out[i] = sum of inputs up to i. *)
let accumulator () =
  Kernel.Build.(
    Kernel.make_filter ~name:"Accum" ~pop:1 ~push:1
      ~state:[ ("acc", [| VFloat 0.0 |]) ]
      [
        seti "acc" (i 0) (geti "acc" (i 0) +: pop);
        push (geti "acc" (i 0));
      ])

(* First-order IIR: y = a*y_prev + x. *)
let iir a_coef =
  Kernel.Build.(
    Kernel.make_filter ~name:"IIR" ~pop:1 ~push:1
      ~state:[ ("y", [| VFloat 0.0 |]) ]
      [
        seti "y" (i 0) ((geti "y" (i 0) *: f a_coef) +: pop);
        push (geti "y" (i 0));
      ])

let stateful_pipeline () =
  Ast.pipeline "stateful"
    [ Ast.Filter (accumulator ()); Ast.Filter (iir 0.5) ]

let interp_tests =
  [
    t "is_stateful and validation" (fun () ->
        Alcotest.(check bool) "stateful" true (Kernel.is_stateful (accumulator ()));
        Alcotest.(check bool) "stateless" false (Kernel.is_stateful (Kernel.identity ()));
        Alcotest.(check (result unit string)) "checks" (Ok ())
          (Kernel.check_filter (accumulator ())));
    t "accumulator accumulates across firings" (fun () ->
        let g = Flatten.flatten (Ast.Filter (accumulator ())) in
        let out =
          Interp.run_steady_states g ~input:(fun _ -> VFloat 1.0) ~iters:5
        in
        Alcotest.(check bool) "running sums" true
          (List.for_all2 equal_value out
             [ VFloat 1.0; VFloat 2.0; VFloat 3.0; VFloat 4.0; VFloat 5.0 ]));
    t "reset restores initial state" (fun () ->
        let g = Flatten.flatten (Ast.Filter (accumulator ())) in
        let it = Interp.create g in
        Interp.fire it ~input:(fun _ -> VFloat 7.0) 0;
        Interp.reset it;
        Interp.fire it ~input:(fun _ -> VFloat 7.0) 0;
        match Interp.output it with
        | [ VFloat 7.0 ] -> ()
        | o ->
          Alcotest.failf "expected [7], got %s"
            (String.concat " " (List.map string_of_value o)));
    t "IIR matches direct recurrence" (fun () ->
        let g = Flatten.flatten (Ast.Filter (iir 0.5)) in
        let xs = [| 1.0; 2.0; -1.0; 0.5; 3.0 |] in
        let out =
          Interp.run_steady_states g ~input:(fun i -> VFloat xs.(i mod 5)) ~iters:5
          |> List.map to_float
        in
        let y = ref 0.0 in
        List.iteri
          (fun i o ->
            y := (0.5 *. !y) +. xs.(i);
            Alcotest.(check (float 1e-9)) (Printf.sprintf "y%d" i) !y o)
          out);
  ]

let scheduling_tests =
  [
    t "stateful nodes carry serialization deps" (fun () ->
        let g = Flatten.flatten (stateful_pipeline ()) in
        match Swp_core.Compile.compile g with
        | Error m -> Alcotest.fail m
        | Ok c ->
          let deps = Swp_core.Instances.deps g c.Swp_core.Compile.config in
          (* each stateful node contributes a loop-carried self chain *)
          let carried =
            List.filter
              (fun (d : Swp_core.Instances.dep) ->
                d.src.Swp_core.Instances.node = d.dst.Swp_core.Instances.node
                && d.jlag = -1)
              deps
          in
          Alcotest.(check int) "two loop-carried chains" 2 (List.length carried));
    t "RecMII is non-zero with state" (fun () ->
        let g = Flatten.flatten (stateful_pipeline ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        Alcotest.(check bool) "recmii > 0" true
          (Swp_core.Mii.rec_mii g c.Swp_core.Compile.config > 0));
    t "schedule validates with state serialization" (fun () ->
        let g = Flatten.flatten (stateful_pipeline ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        Alcotest.(check (result unit string)) "valid" (Ok ())
          (Swp_core.Swp_schedule.validate g c.Swp_core.Compile.schedule));
    t "stateful passes are serialized in the timing model" (fun () ->
        let arch = Gpusim.Arch.geforce_8800_gts_512 in
        let node f = { Graph.id = 0; name = "n"; kind = Graph.NFilter f } in
        let stateless =
          Kernel.Build.(
            Kernel.make_filter ~name:"sl" ~pop:1 ~push:1 [ push (pop *: f 2.0) ])
        in
        let c1 =
          (Option.get
             (Gpusim.Timing.pass_of_node arch (node stateless) ~threads:256
                ~regs_cap:16 ~layout:Gpusim.Timing.Shuffled)).Gpusim.Timing.compute_cycles
        in
        let c2 =
          (Option.get
             (Gpusim.Timing.pass_of_node arch (node (accumulator ()))
                ~threads:256 ~regs_cap:16 ~layout:Gpusim.Timing.Shuffled)).Gpusim.Timing.compute_cycles
        in
        Alcotest.(check bool) "serialized is slower" true (c2 > 4 * c1));
    t "device simulation matches interpreter with state" (fun () ->
        let g = Flatten.flatten (stateful_pipeline ()) in
        let c = Result.get_ok (Swp_core.Compile.compile g) in
        match
          Swp_core.Funcsim.matches_interpreter c
            ~input:(fun i -> VFloat (float_of_int (i mod 7) /. 2.0))
            ~iters:1
        with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
  ]

let frontend_tests =
  [
    t "state declarations parse and run" (fun () ->
        let src =
          {|
filter Counter pop 1 push 1 {
  state n = [0.0];
  n[0] = n[0] + 1.0;
  push(pop() * n[0]);
}
|}
        in
        let g = Flatten.flatten (Frontend.Parser.parse_program src) in
        let out =
          Interp.run_steady_states g ~input:(fun _ -> VFloat 1.0) ~iters:4
          |> List.map to_float
        in
        Alcotest.(check bool) "1 2 3 4" true
          (out = [ 1.0; 2.0; 3.0; 4.0 ]));
    t "state arrays emit as device globals" (fun () ->
        let f = accumulator () in
        let c =
          Kir.Print_c.work_fn Kir.Print_c.Cuda
            ~fn_name:(Kir.Print_c.work_fn_name f) f
        in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "__device__ state" true
          (contains c "__device__ float Accum_acc[1]");
        Alcotest.(check bool) "prefixed access" true (contains c "Accum_acc[0]"));
  ]

let suite = interp_tests @ scheduling_tests @ frontend_tests
