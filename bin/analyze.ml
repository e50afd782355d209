(* The static checker's CLI (see DESIGN.md §12).

   Reads the .cmt/.cmti files the compiler wrote for every .ml/.mli
   under the given directories and under the --callers directories
   (via compiler-libs), and runs the rules of lib/analysis over their
   typed trees and the typed reference index built from them:

     poly-compare        =, <>, <, >, <=, >= against a constructor with a
                         payload or a tuple literal; lib/ only
     hot-alloc           allocation inside a [@hot] binding; lib/ only
     mutable-global      a top-level mutable value in lib/ or bin/
     unused-export       a val of a lib/**/*.mli that nothing outside its
                         own module references (lib/prelude exempt)
     unset-optional      a ?label on a lib/**/*.mli value that no call
                         outside its own module passes

   Two bans are the compiler's, not rules here: catch-all match arms
   (fragile-match, warning 4, a build error in lib/ and bin/), and the
   identifiers lib/prelude marks with an alert (the wall clock, global
   Random, ambient Sys/Unix/I/O, Obj.magic, polymorphic compare/hash/
   min/max, exit, and Netsim.Fabric.send), errors in lib/.

   The compiled units name their sources relative to the build root, so
   run it there: `dune build @analysis` does, with the object
   directories of every library and executable as dependencies.

   Usage:
     analyze.exe [--self-test] [--allow FILE] [--callers DIR]... DIR...
         scan; exit 1 on unsuppressed hits or on a stale allowlist entry.
         A --callers DIR is read only for its .cmt files: the references
         the interface rules count.  --self-test judges fixtures
         instead: every rule must fire in bad*.ml(i) files, none in
         good*.ml(i).

   Exit 2 on a path that cannot be read, a malformed allowlist, an .ml
   with no .cmt or an .mli with no .cmti among the inputs (named), a
   unit whose source changed after it was compiled (named), or a
   --callers directory with no .cmt: a library or executable missing
   from the dune dependencies, or a stale build, fails loudly instead
   of passing with fewer files or callers or with old typed trees.

   The allowlist (lint.allow) holds [path-suffix:rule-id] lines and #
   comments.  An entry that suppresses no finding is stale and fails the
   scan, so the list only ever shrinks with the code it excuses. *)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("analyze: " ^ msg);
      exit 2)
    fmt

(* Sys_error messages read "PATH: reason". *)
let cannot_read path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  fail "cannot read %s: %s" path reason

let read_file path =
  let ic =
    try open_in_bin path with Sys_error msg -> cannot_read path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every file under [path] with one of [suffixes], hidden object
   directories included. *)
let rec files_under suffixes path =
  if try Sys.is_directory path with Sys_error msg -> cannot_read path msg
  then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           files_under suffixes (Filename.concat path entry))
  else if List.exists (Filename.check_suffix path) suffixes then [ path ]
  else []

(* A ppx-preprocessed [.pp.ml] is a marshalled AST, not a source. *)
let sources dirs =
  List.concat_map (files_under [ ".ml"; ".mli" ]) dirs
  |> List.filter (fun p ->
         not (Filename.check_suffix (Filename.chop_extension p) ".pp"))

let load_units suffixes dir =
  List.map
    (fun path ->
      try Cmt_format.read_cmt path
      with exn -> fail "cannot read %s: %s" path (Printexc.to_string exn))
    (files_under suffixes dir)

let load_allow path =
  match Analysis.Finding.parse_allow (read_file path) with
  | Ok allow -> allow
  | Error line -> fail "malformed allowlist entry: %s" line

(* Fixture verdict: every rule fires at least once across bad*.ml(i),
   and good*.ml(i) stay entirely clean. *)
let self_test findings =
  let is_bad (f : Analysis.Finding.t) =
    String.starts_with ~prefix:"bad" (Filename.basename f.path)
  in
  let bad_hits, good_hits = List.partition is_bad findings in
  let silent =
    List.filter
      (fun (rule, _doc) ->
        not
          (List.exists
             (fun (f : Analysis.Finding.t) -> String.equal f.rule rule)
             bad_hits))
      Analysis.Driver.rules
  in
  List.iter
    (fun (rule, _doc) ->
      Printf.eprintf
        "analyze --self-test: rule %s never fired on the bad fixtures\n" rule)
    silent;
  List.iter
    (fun f ->
      Printf.eprintf
        "analyze --self-test: false positive in clean fixture:\n  %s\n"
        (Analysis.Finding.render f))
    good_hits;
  if silent <> [] || good_hits <> [] then exit 1;
  Printf.printf
    "analyze --self-test: all %d rules fire, clean fixtures clean\n"
    (List.length Analysis.Driver.rules)

let report ~allow_file (findings, stale) =
  List.iter
    (fun f -> prerr_endline (Analysis.Finding.render f))
    findings;
  List.iter
    (fun (e : Analysis.Finding.entry) ->
      Printf.eprintf "%s:%d: stale allowlist entry `%s:%s` suppresses no finding\n"
        (Option.value ~default:"" allow_file)
        e.lineno e.suffix e.rule_id)
    stale;
  if findings = [] && stale = [] then print_endline "analysis: clean"
  else begin
    Printf.eprintf "analysis: %d finding(s), %d stale allowlist entry(ies)\n"
      (List.length findings) (List.length stale);
    exit 1
  end

let run ~self_check ~allow_file ~callers dirs =
  let allow = Option.fold ~none:[] ~some:load_allow allow_file in
  let callers =
    List.concat_map
      (fun dir ->
        match load_units [ ".cmt" ] dir with
        | [] -> fail "--callers %s yields no .cmt" dir
        | units -> units)
      callers
  in
  let units = List.concat_map (load_units [ ".cmt"; ".cmti" ]) dirs in
  let sources = sources dirs in
  List.iter
    (fun path ->
      fail "%s has no %s among the inputs" path
        (if Filename.check_suffix path ".mli" then ".cmti" else ".cmt"))
    (Analysis.Driver.uncompiled units sources);
  let digest path =
    try (path, Digest.file path) with Sys_error msg -> cannot_read path msg
  in
  List.iter
    (fun (u : Cmt_format.cmt_infos) ->
      fail "unit %s is stale: %s changed after it was compiled" u.cmt_modname
        (Option.value ~default:"" u.cmt_sourcefile))
    (Analysis.Driver.stale units (List.map digest sources));
  let result = Analysis.Driver.analyze ~allow ~callers units in
  if self_check then self_test (fst result) else report ~allow_file result

let () =
  let allow_file = ref None and callers = ref [] and dirs = ref [] in
  let self_check = ref false in
  let add r x = r := !r @ [ x ] in
  let specs =
    [
      ("--allow", Arg.String (fun f -> allow_file := Some f), "FILE allowlist");
      ("--callers", Arg.String (add callers), "DIR read for references only");
      ("--self-test", Arg.Set self_check, " judge bad*/good* fixtures");
    ]
  in
  let usage =
    "usage: analyze [--self-test] [--allow FILE] [--callers DIR]... DIR..."
  in
  Arg.parse specs (add dirs) usage;
  match !dirs with
  | [] ->
      Arg.usage specs usage;
      exit 2
  | dirs ->
      run ~self_check:!self_check ~allow_file:!allow_file ~callers:!callers
        dirs
