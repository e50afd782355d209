(* The static checker's CLI (see DESIGN.md §12).

   Parses every .ml/.mli under the given directories into a Parsetree
   (via compiler-libs) and runs the rules of lib/analysis:

     parse-error         a file the frontend cannot parse
     poly-compare        =, <>, <, >, <=, >= against a constructor with a
                         payload or a tuple literal; lib/ only
     hot-alloc           allocation inside a [@hot] binding; lib/ only
     mutable-global      a top-level mutable value in lib/ or bin/
     unset-optional      a ?label on a lib/**/*.mli value that no call
                         outside its own module passes

   Two bans are the compiler's, not rules here: catch-all match arms
   (fragile-match, warning 4, a build error in lib/ and bin/), and the
   identifiers lib/prelude marks with an alert (the wall clock, global
   Random, ambient Sys/Unix/I/O, Obj.magic, polymorphic compare/hash/
   min/max, exit, and Netsim.Fabric.send), errors in lib/.

   Usage:
     analyze.exe [--allow FILE] [--callers DIR]... [--exclude DIR]... DIR...
         scan; exit 1 on unsuppressed hits or on a stale allowlist entry.
         A --callers DIR is read only for the call sites unset-optional
         counts; an --exclude DIR is not read at all.
     analyze.exe --self-test DIR
         fixture mode: every rule must fire in bad*.ml(i) files, none
         in good*.ml(i)

   A path that cannot be read, or a malformed allowlist, exits 2.

   The allowlist (lint.allow) holds [path-suffix:rule-id] lines and #
   comments.  An entry that suppresses no finding is stale and fails the
   scan, so the list only ever shrinks with the code it excuses. *)

(* Sys_error messages read "PATH: reason". *)
let cannot_read path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  Printf.eprintf "analyze: cannot read %s: %s\n" path reason;
  exit 2

let read_file path =
  let ic =
    try open_in_bin path with Sys_error msg -> cannot_read path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec source_files ~exclude path =
  if List.mem path exclude then []
  else if
    try Sys.is_directory path with Sys_error msg -> cannot_read path msg
  then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           source_files ~exclude (Filename.concat path entry))
  else if
    (Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli")
    (* When run under dune the tree also holds ppx-preprocessed [.pp.ml]
       marshalled-AST artifacts; only real sources are analyzable. *)
    && not (Filename.check_suffix (Filename.chop_extension path) ".pp")
  then [ path ]
  else []

let load_files ~exclude dirs =
  List.concat_map (source_files ~exclude) dirs
  |> List.map (fun path -> { Analysis.Driver.path; content = read_file path })

let load_allow path =
  match Analysis.Finding.parse_allow (read_file path) with
  | Ok allow -> allow
  | Error line ->
      prerr_endline ("analyze: malformed allowlist entry: " ^ line);
      exit 2

let run_scan ~allow_file ~callers ~exclude dirs =
  let allow = Option.fold ~none:[] ~some:load_allow allow_file in
  let config = Analysis.Driver.default_config ~allow () in
  let findings, stale =
    Analysis.Driver.analyze ~config
      ~callers:(load_files ~exclude callers)
      (load_files ~exclude dirs)
  in
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

(* Fixture mode: fixtures are given virtual paths directly under lib/,
   inside every rule's scope; every rule must fire at least once across
   bad*.ml(i), and good*.ml(i) must stay entirely clean. *)
let self_test dir =
  let files = source_files ~exclude:[] dir in
  if files = [] then begin
    prerr_endline ("analyze --self-test: no fixtures under " ^ dir);
    exit 2
  end;
  let virtual_files =
    List.map
      (fun path ->
        {
          Analysis.Driver.path = "lib/" ^ Filename.basename path;
          content = read_file path;
        })
      files
  in
  let findings, _stale = Analysis.Driver.analyze ~callers:[] virtual_files in
  let is_bad (f : Analysis.Finding.t) =
    let base = Filename.basename f.path in
    String.length base >= 3 && String.equal (String.sub base 0 3) "bad"
  in
  let bad_hits, good_hits = List.partition is_bad findings in
  let failures = ref 0 in
  List.iter
    (fun (rule, _doc) ->
      if
        not
          (List.exists
             (fun (f : Analysis.Finding.t) -> String.equal f.rule rule)
             bad_hits)
      then begin
        Printf.eprintf "analyze --self-test: rule %s never fired on the bad \
                        fixtures\n"
          rule;
        incr failures
      end)
    Analysis.Driver.rules;
  List.iter
    (fun f ->
      Printf.eprintf "analyze --self-test: false positive in clean fixture:\n  %s\n"
        (Analysis.Finding.render f);
      incr failures)
    good_hits;
  if !failures > 0 then exit 1;
  Printf.printf
    "analyze --self-test: all %d rules fire, clean fixtures clean\n"
    (List.length Analysis.Driver.rules)

let () =
  let allow_file = ref None and callers = ref [] and exclude = ref [] in
  let dirs = ref [] and fixtures = ref None in
  let add r x = r := !r @ [ x ] in
  let specs =
    [
      ("--allow", Arg.String (fun f -> allow_file := Some f), "FILE allowlist");
      ("--callers", Arg.String (add callers), "DIR read for call sites only");
      ("--exclude", Arg.String (add exclude), "DIR not read at all");
      ("--self-test", Arg.String (fun d -> fixtures := Some d), "DIR fixtures");
    ]
  in
  let usage = "usage: analyze [--allow FILE] [--callers DIR]... \
               [--exclude DIR]... DIR...\n       analyze --self-test DIR" in
  Arg.parse specs (add dirs) usage;
  match (!fixtures, !dirs) with
  | Some dir, [] -> self_test dir
  | None, _ :: _ ->
      run_scan ~allow_file:!allow_file ~callers:!callers ~exclude:!exclude
        !dirs
  | _ ->
      Arg.usage specs usage;
      exit 2
