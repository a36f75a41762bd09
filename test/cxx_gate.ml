(* Device-code syntax gate.

     cxx_gate.exe FILE...

   prints one C++ translation unit holding the region helpers and work
   functions of every C-family kernel in the given files: each stretch
   from a line starting with "static " up to the next "void
   swp_kernel(" line, in its own namespace, under a [#line] directive
   so a diagnostic names the kernel file and line.  A prelude supplies
   <math.h> and int/float min/max; the dialect's qualifiers, chosen by
   file extension (.cu, .cl, .metal), are defined away around each
   kernel.  test/dune runs `%{cxx} -fsyntax-only` on the result, so a
   work function that shifts a float or uses an undeclared scalar
   fails the build.  A file with no work function is an error. *)

let prelude =
  {|#include <math.h>
static inline int min(int a, int b) { return a < b ? a : b; }
static inline int max(int a, int b) { return a > b ? a : b; }
static inline float min(float a, float b) { return a < b ? a : b; }
static inline float max(float a, float b) { return a > b ? a : b; }
|}

let qualifiers file =
  match Filename.extension file with
  | ".cu" -> [ "__device__"; "__constant__" ]
  | ".cl" -> [ "__global"; "__constant" ]
  | ".metal" -> [ "device"; "constant" ]
  | ext -> failwith ("cxx_gate: no dialect for extension " ^ ext)

let contains line key =
  let k = String.length key in
  let rec at j =
    j + k <= String.length line && (String.sub line j k = key || at (j + 1))
  in
  at 0

let () =
  print_string prelude;
  let chunks = ref 0 in
  Array.iteri
    (fun i file ->
      if i > 0 then begin
        let quals = qualifiers file in
        let lines =
          String.split_on_char '\n'
            (In_channel.with_open_bin file In_channel.input_all)
        in
        let found = ref false and inside = ref false in
        let close () =
          if !inside then begin
            print_string "}\n";
            List.iter (Printf.printf "#undef %s\n") quals;
            inside := false
          end
        in
        List.iteri
          (fun n line ->
            if (not !inside) && String.starts_with ~prefix:"static " line
            then begin
              incr chunks;
              found := true;
              inside := true;
              List.iter (Printf.printf "#define %s\n") quals;
              Printf.printf "namespace kernel%d {\n#line %d %S\n" !chunks
                (n + 1) file
            end;
            (* the kernel entry point ends a chunk *)
            if contains line "void swp_kernel(" then close ()
            else if !inside then print_endline line)
          lines;
        close ();
        if not !found then begin
          prerr_endline ("cxx_gate: no work function in " ^ file);
          exit 1
        end
      end)
    Sys.argv
