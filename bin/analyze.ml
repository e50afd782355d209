(* The static checker's CLI (see DESIGN.md §12).

   Parses every .ml/.mli under the given directories into a Parsetree
   (via compiler-libs) and runs the rules of lib/analysis:

     effect-taint        call paths from DES/raft/parallel entry points
                         to banned ambient effects, through wrappers
     shared-state        top-level mutable values in modules reachable
                         from domain-spawned closures
     protocol-wildcard   catch-all arms in matches over [@@protocol]
                         variant constructors
     parse-error         a file the frontend cannot parse
     wall-clock, global-rng, obj-magic, poly-compare, direct-print,
     stdlib-exit, raw-fabric-send, mutable-global, hot-alloc
                         lib/'s source discipline (lib/analysis/
                         discipline.ml); lib/ only

   Usage:
     analyze.exe [--allow FILE] DIR...   scan; exit 1 on unsuppressed hits
                                         or on a stale allowlist entry
     analyze.exe --self-test DIR         fixture mode: every rule must fire
                                         in bad*.ml files, none in good*.ml

   The allowlist (lint.allow) holds [path-suffix:rule-id] lines and #
   comments.  An entry that suppresses no finding is stale and fails the
   scan, so the list only ever shrinks with the code it excuses. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec source_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> source_files (Filename.concat path entry))
  else if
    (Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli")
    (* When run under dune the tree also holds ppx-preprocessed [.pp.ml]
       marshalled-AST artifacts; only real sources are analyzable. *)
    && not (Filename.check_suffix (Filename.chop_extension path) ".pp")
  then [ path ]
  else []

let load_files dirs =
  List.concat_map source_files dirs
  |> List.map (fun path -> { Analysis.path; content = read_file path })

let load_allow path =
  match Analysis.Finding.parse_allow (read_file path) with
  | Ok allow -> allow
  | Error line ->
      prerr_endline ("analyze: malformed allowlist entry: " ^ line);
      exit 2

let run_scan ~allow_file dirs =
  let allow = Option.fold ~none:[] ~some:load_allow allow_file in
  let config = Analysis.Driver.default_config ~allow () in
  let findings, stale = Analysis.analyze ~config (load_files dirs) in
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

(* Fixture mode: fixtures are given virtual paths under lib/raft/ so
   they sit in a taint entry domain and in every discipline rule's
   scope; every rule must fire at least once across bad*.ml, and
   good*.ml must stay entirely clean. *)
let self_test dir =
  let files = List.filter (fun p -> Filename.check_suffix p ".ml") (source_files dir) in
  if files = [] then begin
    prerr_endline ("analyze --self-test: no fixtures under " ^ dir);
    exit 2
  end;
  let virtual_files =
    List.map
      (fun path ->
        {
          Analysis.path = "lib/raft/" ^ Filename.basename path;
          content = read_file path;
        })
      files
  in
  let findings, _stale = Analysis.analyze virtual_files in
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
    Analysis.rules;
  List.iter
    (fun f ->
      Printf.eprintf "analyze --self-test: false positive in clean fixture:\n  %s\n"
        (Analysis.Finding.render f);
      incr failures)
    good_hits;
  if !failures > 0 then exit 1;
  Printf.printf
    "analyze --self-test: all %d rules fire, clean fixtures clean\n"
    (List.length Analysis.rules)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--self-test"; dir ] -> self_test dir
  | _ :: "--allow" :: allow :: dirs when dirs <> [] ->
      run_scan ~allow_file:(Some allow) dirs
  | _ :: dirs
    when dirs <> []
         && not (List.exists (fun d -> d = "--allow" || d = "--self-test") dirs)
    ->
      run_scan ~allow_file:None dirs
  | _ ->
      prerr_endline
        "usage: analyze [--allow FILE] DIR...\n       analyze --self-test DIR";
      exit 2
