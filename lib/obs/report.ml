type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One canonical float rendering shared by the compact and indented
   printers, so a report serialized either way carries the same numbers
   (the determinism signature hashes the compact form).  Delegates to
   [Canon.json]: shortest round-trip form, non-finite as [null]. *)
let num = Canon.json

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (num f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        write b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string doc =
  let b = Buffer.create 1024 in
  write b doc;
  Buffer.contents b

let rec write_indent b level = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write b v
  | Arr [] -> Buffer.add_string b "[]"
  | Arr xs ->
    let pad = String.make ((level + 1) * 2) ' ' in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        write_indent b (level + 1) x)
      xs;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make (level * 2) ' ');
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    let pad = String.make ((level + 1) * 2) ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\": ";
        write_indent b (level + 1) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make (level * 2) ' ');
    Buffer.add_char b '}'

let to_string_indent doc =
  let b = Buffer.create 1024 in
  write_indent b 0 doc;
  Buffer.add_char b '\n';
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys doc =
  match keys with
  | [] -> Some doc
  | k :: rest -> ( match member k doc with Some v -> path rest v | None -> None)

(* ---------- reader ---------- *)

exception Parse_error of string

(* Strict validation (rejects overlongs and surrogates): the daemon
   echoes string fields back, so accepting invalid UTF-8 here would
   mean emitting it later. *)
let utf8_valid s =
  let n = String.length s in
  let byte i = Char.code s.[i] in
  let cont i = i < n && byte i land 0xC0 = 0x80 in
  let rec go i =
    if i >= n then true
    else
      let c = byte i in
      if c < 0x80 then go (i + 1)
      else if c < 0xC2 then false (* bare continuation or overlong lead *)
      else if c < 0xE0 then cont (i + 1) && go (i + 2)
      else if c < 0xF0 then
        let b1_ok =
          i + 1 < n
          &&
          let b1 = byte (i + 1) in
          if c = 0xE0 then b1 >= 0xA0 && b1 <= 0xBF (* no overlongs *)
          else if c = 0xED then b1 >= 0x80 && b1 <= 0x9F (* no surrogates *)
          else b1 land 0xC0 = 0x80
        in
        b1_ok && cont (i + 2) && go (i + 3)
      else if c < 0xF5 then
        let b1_ok =
          i + 1 < n
          &&
          let b1 = byte (i + 1) in
          if c = 0xF0 then b1 >= 0x90 && b1 <= 0xBF
          else if c = 0xF4 then b1 >= 0x80 && b1 <= 0x8F (* <= U+10FFFF *)
          else b1 land 0xC0 = 0x80
        in
        b1_ok && cont (i + 2) && cont (i + 3) && go (i + 4)
      else false
  in
  go 0

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits after a "\u"; [!pos] is on the 'u'. *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos + 1 to !pos + 4 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 5;
    !code
  in
  let add_utf8 b code =
    let add c = Buffer.add_char b (Char.chr c) in
    if code < 0x80 then add code
    else if code < 0x800 then begin
      add (0xC0 lor (code lsr 6));
      add (0x80 lor (code land 0x3F))
    end
    else if code < 0x10000 then begin
      add (0xE0 lor (code lsr 12));
      add (0x80 lor ((code lsr 6) land 0x3F));
      add (0x80 lor (code land 0x3F))
    end
    else begin
      add (0xF0 lor (code lsr 18));
      add (0x80 lor ((code lsr 12) land 0x3F));
      add (0x80 lor ((code lsr 6) land 0x3F));
      add (0x80 lor (code land 0x3F))
    end
  in
  (* A "\uXXXX" escape, joining a UTF-16 surrogate pair into one code
     point; a lone surrogate has no UTF-8 encoding and is refused. *)
  let unicode_escape b =
    let hi = hex4 () in
    if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
    else if hi >= 0xD800 && hi <= 0xDBFF then begin
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        fail "lone high surrogate";
      advance ();
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
      add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else add_utf8 b hi
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char b '"'; advance ()
         | '\\' -> Buffer.add_char b '\\'; advance ()
         | '/' -> Buffer.add_char b '/'; advance ()
         | 'n' -> Buffer.add_char b '\n'; advance ()
         | 'r' -> Buffer.add_char b '\r'; advance ()
         | 't' -> Buffer.add_char b '\t'; advance ()
         | 'b' -> Buffer.add_char b '\b'; advance ()
         | 'f' -> Buffer.add_char b '\012'; advance ()
         | 'u' -> unicode_escape b
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      | _ ->
        (* the run of plain bytes up to the next quote or backslash *)
        let start = !pos in
        while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
          advance ()
        done;
        Buffer.add_substring b s start (!pos - start);
        go ()
    in
    go ();
    let out = Buffer.contents b in
    if not (utf8_valid out) then fail "invalid UTF-8 in string";
    out
  in
  (* RFC 8259 number grammar:
     -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (digit ()) then fail "bad number";
      while digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      integral := false;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    match (if !integral then int_of_string_opt text else None) with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail ("number out of range " ^ text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          (* Duplicate keys are a classic smuggling vector (readers
             disagree on which copy wins); refuse them outright. *)
          if List.mem_assoc k acc then fail (Printf.sprintf "duplicate key %S" k);
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v
