(* Ambient-effect classification.

   The determinism contract says simulation code may not read the wall
   clock, draw from the global [Random] state, query the ambient system
   or perform ambient I/O: every figure is a function of the seed.
   [classify] names the category of a banned identifier; Discipline's
   [wall-clock], [global-rng] and [ambient-effect] rules check every
   identifier of lib/ against it, file by file, so a wrapper that hides
   an effect is flagged where it references the effect. *)

let benign_sys =
  [
    "opaque_identity";
    "word_size";
    "int_size";
    "big_endian";
    "max_string_length";
    "max_array_length";
    "max_floatarray_length";
    "unix";
    "win32";
    "cygwin";
    "backend_type";
    "ocaml_version";
  ]

let io_prims =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "print_int";
    "print_float";
    "print_char";
    "print_bytes";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "prerr_int";
    "prerr_float";
    "prerr_char";
    "prerr_bytes";
    "read_line";
    "read_int";
    "read_int_opt";
    "read_float";
    "read_float_opt";
    "open_in";
    "open_in_bin";
    "open_out";
    "open_out_bin";
    "stdin";
    "stdout";
    "stderr";
  ]

(* [Some category] when the identifier is a banned ambient effect. *)
let rec classify parts =
  match parts with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      Some "wall clock"
  | "Unix" :: _ :: _ -> Some "ambient Unix"
  | [ "Sys"; f ] when not (List.mem f benign_sys) -> Some "ambient Sys"
  | "Random" :: _ :: _ -> Some "global Random"
  | [ p ] when List.mem p io_prims -> Some "ambient I/O"
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "std_formatter" | "err_formatter") ]
    ->
      Some "ambient I/O"
  | "In_channel" :: _ :: _ | "Out_channel" :: _ :: _ -> Some "ambient I/O"
  | "Stdlib" :: (_ :: _ as rest) -> classify rest
  | _ -> None
