(* Interprocedural effect taint.

   The determinism contract says simulation code — everything reachable
   from the DES, the Raft protocol, and the parallel campaign runner —
   may not read the wall clock, draw from the global [Random] state,
   query the ambient system, or perform ambient I/O.  The [wall-clock]
   and [global-rng] rules (Discipline) catch direct uses anywhere in
   lib/; this pass catches them through any number of local wrappers:
   it walks the call graph forward from every value defined under the
   entry directories and reports each reached value that directly
   references a banned effect, with the full call chain as evidence.

   A finding points at the value that references the effect, never at
   its callers, so allowlisting a file for [effect-taint] cuts the taint
   at that file. *)

let rule = "effect-taint"

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

let findings ~entry_dirs (cg : Callgraph.t) =
  let is_entry path = List.exists (Source.contains path) entry_dirs in
  let roots =
    List.filter (fun (v : Callgraph.value) -> is_entry v.vpath) cg.values
  in
  let walk = Callgraph.reach cg roots in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (v : Callgraph.value) ->
      List.filter_map
        (fun (parts, line) ->
          match classify parts with
          | None -> None
          | Some category ->
              let effect_name = String.concat "." parts in
              let k = Callgraph.value_key v ^ "!" ^ effect_name in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.replace seen k ();
                let chain =
                  List.map Callgraph.display (Callgraph.chain walk v)
                  @ [ effect_name ]
                in
                Some
                  (Finding.v ~path:v.vpath ~line ~rule
                     (Printf.sprintf
                        "%s reaches banned effect `%s` (%s) from a \
                         DES/raft/parallel entry point: %s"
                        (Callgraph.display v) effect_name category
                        (String.concat " -> " chain)))
              end)
        v.vrefs)
    walk.order
