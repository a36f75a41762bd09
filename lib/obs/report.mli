(** The repo's one JSON module: a document tree, its deterministic
    writer and its reader.

    The writer is deterministic — field order is the construction order,
    floats render through one canonical formatter — so the same report
    built twice (or on different domain counts) serializes to the same
    bytes and can be hashed for a determinism signature.

    The reader ({!parse}) is hardened for a long-lived daemon fed by
    untrusted clients: it follows the RFC 8259 grammar exactly and also
    rejects duplicate object keys, non-finite numbers and strings that
    are not valid UTF-8 (lone surrogate escapes included). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control chars). *)

val num : float -> string
(** Canonical float rendering ({!Canon.json}): non-finite values become
    [null], integral values get one decimal ([12.0]), everything else
    the shortest decimal string that round-trips. *)

val to_string : t -> string
(** Compact single-line serialization (the hashable form). *)

val to_string_indent : t -> string
(** Two-space indented serialization, newline-terminated. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val path : string list -> t -> t option
(** Nested field lookup: [path ["a"; "b"] doc]. *)

exception Parse_error of string

val parse : string -> t
(** Parse one JSON document.  Integral numbers that fit an OCaml [int]
    read as [Int], every other number as [Float].  A [\uD83D\uDE00]
    surrogate pair decodes to one 4-byte UTF-8 sequence.
    @raise Parse_error on malformed input or trailing bytes; the
    message names the byte offset. *)
