(* Unit tests for the static checker (lib/analysis): the typed
   reference index and every rule over the compiled fixtures of
   analysis_fixtures/, the allowlist and its stale-entry gate, and the
   per-file source discipline on the typed tree: comparisons against a
   boxed operand, [@hot] allocation, and module-level mutable state in
   lib/ and bin/.  Those cases type-check snippets in-process under a
   lib/ module's own compile flags, as the identifier-ban cases do.  Two
   bans are the compiler's: catch-all arms over a variant are its
   fragile-match error (the fragile-match cases type-check snippets
   in-process under it; test/match_fixtures pins its exact messages),
   and lib/'s identifier bans are lib/prelude's alerts
   (test/prelude_fixtures pins the exact alerts). *)

module A = Analysis
module F = Analysis.Finding

let run ?allow ~callers units = A.Driver.analyze ?allow ~callers units
let with_rule rule fs = List.filter (fun (f : F.t) -> f.rule = rule) fs
let lines_of rule fs = with_rule rule fs |> List.map (fun (f : F.t) -> f.line)

(* {2 Snippets under a lib/ module's flags}

   [check_under args src] type-checks [src] in-process under the [-I],
   [-open] and [-alert] arguments among [args] ([lib_args cmt]: those
   the lib/ module behind [cmt] was compiled with; dune runs the
   compiler one level above this test), and returns its typed tree and
   each active alert as (line, kind).  [typed path src] is that tree as
   the compiled unit of [path]. *)

let lib_args cmt =
  let rec pick = function
    | ("-I" as f) :: dir :: rest when Filename.is_relative dir ->
        (f, Filename.concat (Test_data.path Filename.parent_dir_name) dir)
        :: pick rest
    | (("-open" | "-alert") as f) :: arg :: rest -> (f, arg) :: pick rest
    | _ :: rest -> pick rest
    | [] -> []
  in
  pick (Array.to_list (Cmt_format.read_cmt cmt).Cmt_format.cmt_args)

let check_under args src =
  let all flag =
    List.filter_map (fun (f, a) -> if f = flag then Some a else None) args
  in
  let fired = ref [] in
  let warnings = Warnings.backup ()
  and reporters = (!Location.warning_reporter, !Location.alert_reporter)
  and dirs = !Clflags.include_dirs
  and opens = !Clflags.open_modules in
  List.iter Warnings.parse_alert_option (all "-alert");
  (Location.warning_reporter := fun _ _ -> None);
  (Location.alert_reporter :=
     fun loc (a : Warnings.alert) ->
       (match Warnings.report_alert a with
       | `Active _ ->
           fired := (loc.Location.loc_start.pos_lnum, a.kind) :: !fired
       | `Inactive -> ());
       None);
  Clflags.include_dirs := List.rev (all "-I");
  Clflags.open_modules := List.rev (all "-open");
  Fun.protect
    ~finally:(fun () ->
      Warnings.restore warnings;
      Location.warning_reporter := fst reporters;
      Location.alert_reporter := snd reporters;
      Clflags.include_dirs := dirs;
      Clflags.open_modules := opens;
      Compmisc.init_path ())
    (fun () ->
      Compmisc.init_path ();
      let ast = Parse.implementation (Lexing.from_string src) in
      let str, _, _, _, _ =
        Typemod.type_structure (Compmisc.initial_env ()) ast
      in
      (str, List.rev !fired))

let alerts_under args src = snd (check_under args src)

let objs lib m =
  Test_data.path
    (Printf.sprintf "../lib/%s/.%s.objs/byte/%s__%s.cmt" lib lib lib m)

let store = objs "kvsm" "Store"

let typed path src =
  let unit = Cmt_format.read_cmt store in
  {
    unit with
    cmt_annots =
      Cmt_format.Implementation (fst (check_under (lib_args store) src));
    cmt_sourcefile = Some path;
  }

let analyze units = fst (run ~callers:[] units)

(* {2 Compiled fixtures}

   Every rule reads the .cmt/.cmti files dune compiles from
   analysis_fixtures/lib (scanned as lib/ code); the interface rules
   also read analysis_fixtures/callers (as the tests directory is). *)

let fixture_objs =
  Test_data.path "analysis_fixtures/lib/.analysis_fixtures.objs/byte"

let caller_objs =
  Test_data.path "analysis_fixtures/callers/.analysis_fixture_callers.objs/byte"

let units_in dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f ->
         Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
  |> List.map (fun f -> Cmt_format.read_cmt (Filename.concat dir f))

let read dir f = Cmt_format.read_cmt (Filename.concat dir f)

(* The .cmt and .cmti of one fixture module. *)
let fixture m = [ read fixture_objs (m ^ ".cmt"); read fixture_objs (m ^ ".cmti") ]
let caller m = read caller_objs (m ^ ".cmt")

let test_typed_fixtures () =
  let findings, _ =
    run ~callers:(units_in caller_objs) (units_in fixture_objs)
  in
  Alcotest.(check (list string))
    "bad cases fire, near-misses do not"
    [
      "bad_discipline.ml:5: poly-compare";
      "bad_discipline.ml:6: poly-compare";
      "bad_discipline.ml:7: poly-compare";
      "bad_discipline.ml:10: mutable-global";
      "bad_discipline.ml:11: mutable-global";
      "bad_discipline.ml:16: hot-alloc";
      "bad_discipline.ml:16: hot-alloc";
      "bad_discipline.ml:17: hot-alloc";
      "bad_discipline.ml:18: hot-alloc";
      "bad_discipline.ml:25: hot-alloc";
      "bad_discipline.ml:29: hot-alloc";
      "bad_exports.mli:7: unused-export";
      "bad_exports.mli:16: unused-export";
      "bad_exports.mli:19: unused-export";
      "bad_exports.mli:22: unused-export";
      "bad_exports.mli:25: unused-export";
      "bad_planted.ml:4: poly-compare";
      "bad_planted.ml:5: mutable-global";
      "bad_planted.mli:4: unset-optional";
      "bad_shared.ml:7: mutable-global";
      "bad_shared.ml:8: mutable-global";
      "bad_shared.ml:12: mutable-global";
      "bad_shared.ml:13: mutable-global";
      "bad_unset.mli:5: unset-optional";
      "bad_unset.mli:5: unused-export";
      "bad_unset.mli:9: unset-optional";
      "bad_unset.mli:13: unset-optional";
    ]
    (List.map
       (fun (f : F.t) ->
         Printf.sprintf "%s:%d: %s" (Filename.basename f.path) f.line f.rule)
       findings)

(* {2 Reference index} *)

let index ~callers units = A.Index.build ~callers (List.concat units)

let decl idx path name =
  match
    List.find_opt
      (fun (d : A.Index.decl) ->
        Filename.basename d.path = path && d.name = name)
      (A.Index.decls idx)
  with
  | Some d -> d
  | None -> Alcotest.failf "%s: %s not declared" path name

let referenced idx path name = A.Index.referenced idx (decl idx path name)

let test_index_build () =
  let idx = index ~callers:[] [ fixture "good_exports" ] in
  Alcotest.(check (list string))
    "the interface's vals in source order, nested ones qualified"
    [ "aliased"; "Ord.compare"; "Shape.shaped"; "Packed.size"; "helper"; "mean" ]
    (List.map (fun (d : A.Index.decl) -> d.name) (A.Index.decls idx));
  Alcotest.(check (list (option string)))
    "units name their sources relative to the build root"
    [
      Some "test/analysis_fixtures/lib/good_exports.ml";
      Some "test/analysis_fixtures/lib/good_exports.mli";
    ]
    (List.map A.Index.source (fixture "good_exports"));
  Alcotest.(check bool) "a module's own use never reaches its interface" false
    (referenced idx "good_exports.mli" "helper")

let test_index_resolution () =
  let idx =
    index
      ~callers:[ caller "exports_callers" ]
      [ fixture "bad_exports"; fixture "good_exports" ]
  in
  Alcotest.(check bool) "a qualified call from another module" true
    (referenced idx "good_exports.mli" "helper");
  Alcotest.(check bool) "only its own module calls it" false
    (referenced idx "bad_exports.mli" "helper");
  Alcotest.(check bool) "the caller's own [mean] is not this one" false
    (referenced idx "bad_exports.mli" "mean");
  Alcotest.(check bool) "Good_exports.mean beside a local [mean]" true
    (referenced idx "good_exports.mli" "mean")

let test_index_aliases () =
  let idx =
    index
      ~callers:[ caller "exports_callers"; caller "unset_alias" ]
      [ fixture "bad_exports"; fixture "good_exports"; fixture "good_unset" ]
  in
  let check msg expected path name =
    Alcotest.(check bool) msg expected (referenced idx path name)
  in
  check "a value through a module alias" true "good_exports.mli" "aliased";
  check "a module alias alone uses nothing" false "bad_exports.mli" "aliased";
  check "a functor argument's values" true "bad_exports.mli" "Ord.compare";
  check "not its neighbours" false "bad_exports.mli" "beside_ord";
  check "an include's values" true "good_exports.mli" "Shape.shaped";
  check "[module type of] uses none" false "bad_exports.mli" "shaped";
  check "a pack's values" true "good_exports.mli" "Packed.size";
  let passed name label =
    A.Index.passed idx (decl idx "good_unset.mli" name) label
  in
  Alcotest.(check bool) "a label passed through an alias" true
    (passed "make" "size");
  Alcotest.(check bool) "a label passed by a qualified nested name" true
    (passed "Inner.build" "depth");
  Alcotest.(check bool) "a left-out optional is not passed" false
    (passed "pick" "seed")

(* good_unset.mli's ?size (line 5), ?seed (8) and ?depth (15), each
   set by one caller file only. *)
let test_unset_optional () =
  let unset callers =
    lines_of "unset-optional"
      (fst (run ~callers (fixture "good_unset")))
  in
  Alcotest.(check (list int)) "no caller sets any" [ 5; 8; 15 ] (unset []);
  Alcotest.(check (list int))
    "a tests-directory caller sets ?size through an alias, ?depth by name"
    [ 8 ]
    (unset [ caller "unset_alias" ]);
  Alcotest.(check (list int)) "forwarding an option counts" [ 5; 15 ]
    (unset [ caller "unset_forward" ])

let test_callers_are_not_checked () =
  let planted = fixture "bad_planted" in
  Alcotest.(check (list string)) "each planted line fires when scanned"
    [ "poly-compare"; "mutable-global"; "unset-optional" ]
    (List.map
       (fun (f : F.t) -> f.rule)
       (fst (run ~callers:[ caller "unset_alias" ] planted)));
  let findings, _ = run ~callers:planted [] in
  Alcotest.(check int) "caller-only units raise nothing" 0
    (List.length findings)

(* {2 Allowlist} *)

(* A mutable global behind a wrapper, and a module in another library
   that only calls a wrapper: the rule fires where the global is
   defined, whoever reads it. *)
let global_files () =
  [
    typed "lib/raft/entry.ml" "let run step = step ()";
    typed "lib/stats/util.ml" "let hits = ref 0\nlet step () = !hits";
  ]

let allow_of source =
  match F.parse_allow source with
  | Ok allow -> allow
  | Error line -> Alcotest.failf "parse_allow failed: %s" line

let test_allowlist_mutable_global () =
  let allow =
    allow_of
      "telemetry/metrics.ml:mutable-global\n\
       lib/telemetry/gone.ml:mutable-global\n"
  in
  let findings, stale =
    run ~allow ~callers:[]
      [ typed "lib/telemetry/metrics.ml" "let dead = ref 0" ]
  in
  Alcotest.(check int) "suppressed by path suffix" 0 (List.length findings);
  Alcotest.(check (list string)) "the entry that matches nothing is stale"
    [ "lib/telemetry/gone.ml" ]
    (List.map (fun (e : F.entry) -> e.suffix) stale)

let test_stale_allow_entries () =
  (* util.ml defines the global; entry.ml only calls it, and util.ml
     holds no boxed compare. *)
  let allow =
    allow_of
      "# header\n\
       util.ml:mutable-global\n\
       entry.ml:mutable-global\n\n\
       util.ml:poly-compare\n"
  in
  let findings, stale = run ~allow ~callers:[] (global_files ()) in
  Alcotest.(check int) "global suppressed" 0 (List.length findings);
  Alcotest.(check (list (pair int string)))
    "stale entries, by line"
    [ (3, "entry.ml:mutable-global"); (5, "util.ml:poly-compare") ]
    (List.map
       (fun (e : F.entry) -> (e.lineno, e.suffix ^ ":" ^ e.rule_id))
       stale)

(* {2 Mutable globals} *)

let shared_body =
  "let tbl = Hashtbl.create 4\n\
   type c = { mutable n : int }\n\
   let cell = { n = 0 }\n\
   let work x = Hashtbl.length tbl + cell.n + x\n"

let test_mutable_global_everywhere () =
  (* No spawn site anywhere: module-level state is shared by whichever
     domain runs the module. *)
  List.iter
    (fun path ->
      Alcotest.(check (list int)) path [ 1; 3 ]
        (lines_of "mutable-global" (analyze [ typed path shared_body ])))
    [ "lib/telemetry/s.ml"; "bin/s.ml" ];
  (* The fields are out of scope: the annotation picks them from
     Kvsm.Command, where they are mutable. *)
  Alcotest.(check (list int)) "a field resolved by its type" [ 1 ]
    (lines_of "mutable-global"
       (analyze
          [
            typed "lib/kvsm/s.ml"
              "let span : Command.put_span =\n\
              \  { key_start = 0; key_end = 0; value_start = 0 }\n";
          ]))

let test_mutable_global_near_misses () =
  let source =
    "let fresh () = Hashtbl.create 4\n\
     let distinct xs =\n\
    \  let seen = Hashtbl.create 4 in\n\
    \  List.iter (fun x -> Hashtbl.replace seen x ()) xs;\n\
    \  Hashtbl.length seen\n\
     let counter () = ref 0\n\
     type p = { n : int }\n\
     let origin = { n = 0 }\n\
     let digits = [ 3; 1; 4 ]\n"
  in
  List.iter
    (fun path ->
      Alcotest.(check (list int)) path []
        (lines_of "mutable-global" (analyze [ typed path source ])))
    [ "lib/stats/q.ml"; "lib/telemetry/q.ml"; "bin/q.ml" ]

(* {2 Fragile matches}

   lib/ and bin/ build with warning 4 as an error, so a catch-all arm
   over a variant never reaches the analyzer.  [fragile_lines src]
   type-checks [src] under that warning and returns the lines it fires
   on. *)

let fragile_lines src =
  let fired = ref [] in
  let warnings = Warnings.backup () and reporter = !Location.warning_reporter in
  ignore (Warnings.parse_options false "+4");
  (Location.warning_reporter :=
     fun loc w ->
       (match w with
       | Warnings.Fragile_match _ ->
           fired := loc.Location.loc_start.pos_lnum :: !fired
       | _ -> ());
       None);
  Fun.protect
    ~finally:(fun () ->
      Warnings.restore warnings;
      Location.warning_reporter := reporter)
    (fun () ->
      Compmisc.init_path ();
      let ast = Parse.implementation (Lexing.from_string src) in
      ignore (Typemod.type_structure (Compmisc.initial_env ()) ast));
  List.rev !fired

let test_fragile_match_fires () =
  Alcotest.(check (list int)) "lines" [ 2; 3 ]
    (fragile_lines
       ("type m = A | B\n"
       ^ "let f = function A -> 0 | _ -> 1\n"
       ^ "let nested = function Some A -> 0 | Some _ | None -> 1"))

let test_fragile_match_negative () =
  Alcotest.(check (list int)) "no fragile match" []
    (fragile_lines
       ("type m = A | B\n"
       ^ "let exhaustive = function A -> 0 | B -> 1\n"
       ^ "let guarded = function A when true -> 0 | A -> 1 | B -> 2\n"
       ^ "let nested = function Some A -> 0 | Some B | None -> 1\n"
       ^ "let payload = function Some _ -> 0 | None -> 1"))

(* {2 lib/'s identifier bans}

   Every lib/ library compiles with lib/prelude opened and its alerts
   as errors, so a banned identifier never reaches the analyzer.
   [alerts ~cmt src] returns the active alerts of [src] under the flags
   of the lib/ module behind [cmt]; test/prelude_fixtures pins the exact
   messages. *)

let alerts ?(cmt = store) src = alerts_under (lib_args cmt) src
let lines_of_kind kind =
  List.filter_map (fun (l, k) -> if k = kind then Some l else None)

(* An ambient effect behind a wrapper: the alert fires where the effect
   is named, and the wrapper's callers name nothing banned. *)
let test_ambient_effect_at_sink () =
  Alcotest.(check (list (pair int string)))
    "only the line naming Sys"
    [ (2, "ambient_effect") ]
    (alerts
       "let run () = 0\n\
        let home () = Sys.getenv \"HOME\"\n\
        let step () = home ()\n\
        let entry () = String.length (step ()) + run ()\n")

let test_ambient_effect_any_dir () =
  let home = "let home () = Sys.getenv \"HOME\"" in
  List.iter
    (fun cmt ->
      Alcotest.(check (list int)) cmt [ 1 ]
        (lines_of_kind "ambient_effect" (alerts ~cmt home)))
    [ objs "scenarios" "Report"; objs "analysis" "Finding" ]

(* telemetry/chrome_trace.ml writes the trace file it is asked for
   under a file-level [[@@@alert "-ambient_effect"]]; the lift is
   ambient_effect's alone. *)
let test_ambient_effect_exporter () =
  let cmt = objs "telemetry" "Recorder"
  and lift = "[@@@alert \"-ambient_effect\"]\n" in
  let write = "let write path = open_out path" in
  Alcotest.(check (list int)) "the exporter writes the file it is asked for"
    [] (lines_of_kind "ambient_effect" (alerts ~cmt (lift ^ write)));
  Alcotest.(check (list int)) "the same call in the recorder" [ 1 ]
    (lines_of_kind "ambient_effect" (alerts ~cmt write));
  Alcotest.(check (list int)) "the exemption is ambient_effect's alone" [ 2 ]
    (lines_of_kind "wall_clock"
       (alerts ~cmt (lift ^ "let stamp () = Sys.time ()")))

let test_exit_exact () =
  let source =
    "type o = { mutable exit : int }\n\
     let bail () = exit 1\n\
     let die c = Stdlib.exit c\n\
     let mk exit = { exit }\n\
     let field o = o.exit\n\
     let labelled ~exit = exit + 1\n\
     let optional ?(exit = 0) () = exit\n\
     let call f exit = f ~exit\n\
     let matched = function { exit } -> exit\n\
     let local () = let exit = 2 in exit\n\
     let rec loop n = n and exit = 3\n\
     let set o = o.exit <- o.exit + 1\n"
  in
  Alcotest.(check (list int)) "only real exits fire" [ 2; 3 ]
    (lines_of_kind "stdlib_exit" (alerts source));
  Alcotest.(check (list int)) "bin/ may exit" []
    (lines_of_kind "stdlib_exit" (alerts_under [] source))

let test_compare_exact () =
  let source =
    "let a xs = List.sort compare xs\n\
     let b x y = Stdlib.compare x y\n\
     let c xs = List.sort Int.compare xs\n\
     let d compare xs = List.sort compare xs\n\
     let e xs = let compare = Float.compare in List.sort compare xs\n\
     let f = function compare -> compare 1 2\n"
  in
  Alcotest.(check (list int)) "only the polymorphic compares fire" [ 1; 2 ]
    (lines_of_kind "poly_compare" (alerts source))

(* {2 Rendering, allowlist parsing} *)

(* A file that does not parse (or type-check) has no compiled unit, so
   bin/analyze names it and exits 2 (test/golden/cli_errors.golden.txt)
   instead of scanning fewer files; an .ml is paired with its .cmt and
   an .mli with its .cmti. *)
let test_parse_error () =
  (match check_under [] "\nlet = (" with
  | exception Syntaxerr.Error _ -> ()
  | _ -> Alcotest.fail "an unparsable snippet type-checked");
  let dir = "test/analysis_fixtures/lib/" in
  Alcotest.(check (list string)) "the sources with no unit, in order"
    [ dir ^ "broken.ml"; "lib/raft/ok.mli" ]
    (A.Driver.uncompiled
       (typed "lib/raft/ok.ml" "let x = 1" :: fixture "good_exports")
       [
         dir ^ "good_exports.ml";
         dir ^ "broken.ml";
         dir ^ "good_exports.mli";
         "lib/raft/ok.ml";
         "lib/raft/ok.mli";
       ])

(* A unit whose recorded source digest is not its source's digest now
   was compiled from an older text, so bin/analyze names it and exits 2
   instead of judging a typed tree that no longer describes the file.
   A unit built from a preprocessed .pp.ml records that file, never a
   scanned source, and is not judged. *)
let test_stale_unit () =
  let unit path text =
    {
      (read fixture_objs "good_exports.cmt") with
      Cmt_format.cmt_sourcefile = Some path;
      cmt_source_digest = Some (Digest.string text);
    }
  in
  let units =
    [
      unit "lib/raft/a.ml" "let x = 1";
      unit "lib/raft/a.mli" "val x : int";
      unit "lib/raft/b.pp.ml" "let y = 2";
    ]
  in
  let stale sources =
    List.filter_map
      (fun (u : Cmt_format.cmt_infos) -> u.cmt_sourcefile)
      (A.Driver.stale units
         (List.map (fun (path, text) -> (path, Digest.string text)) sources))
  in
  Alcotest.(check (list string)) "sources as compiled" []
    (stale [ ("lib/raft/a.ml", "let x = 1"); ("lib/raft/a.mli", "val x : int") ]);
  Alcotest.(check (list string)) "the units whose source changed, in order"
    [ "lib/raft/a.ml"; "lib/raft/a.mli" ]
    (stale
       [
         ("lib/raft/a.mli", "val x : float");
         ("lib/raft/a.ml", "let x = 1.");
         ("lib/raft/b.ml", "let y = 3");
       ])

let test_render () =
  let f = F.v ~path:"lib/x.ml" ~line:3 ~rule:"mutable-global" "msg" in
  Alcotest.(check string) "render" "lib/x.ml:3: [mutable-global] msg"
    (F.render f)

let test_parse_allow () =
  let finding ?(path = "lib/x.ml") rule = F.v ~path ~line:1 ~rule "" in
  (match allow_of "# comment\n\nlib/x.ml:poly-compare\n" with
  | [ e ] ->
      Alcotest.(check int) "line" 3 e.F.lineno;
      Alcotest.(check bool) "suffix match" true
        (F.suppresses e (finding "poly-compare"));
      Alcotest.(check bool) "rule must match" false
        (F.suppresses e (finding "mutable-global"))
  | entries -> Alcotest.failf "expected one entry, got %d" (List.length entries));
  (match allow_of "engine.ml:mutable-global" with
  | [ e ] ->
      List.iter
        (fun (path, expected) ->
          Alcotest.(check bool) path expected
            (F.suppresses e (finding ~path "mutable-global")))
        [
          ("engine.ml", true);
          ("lib/des/engine.ml", true);
          ("lib/des/myengine.ml", false);
        ]
  | entries -> Alcotest.failf "expected one entry, got %d" (List.length entries));
  List.iter
    (fun source ->
      match F.parse_allow source with
      | Ok _ -> Alcotest.failf "malformed entry accepted: %S" source
      | Error _ -> ())
    [ "garbage-without-colon"; ":mutable-global"; "lib/x.ml:" ]

(* {2 Source discipline (lib/ only)} *)

let test_compare_boxed () =
  let source =
    "let a x y = x <> Some y\n\
     let b x y = Stdlib.(=) (x, y) (1, 2)\n\
     let c x = x >= `Tag 3\n\
     let e x = x = None\n\
     let f x y = x == Some y\n\
     let g (x : int) y = x < y\n\
     let h ( = ) x y = x = Some y\n"
  in
  Alcotest.(check (list int)) "boxed operands fire" [ 1; 2; 3 ]
    (lines_of "poly-compare" (analyze [ typed "lib/kvsm/x.ml" source ]))

let test_hot_and_binding () =
  let fs =
    analyze
      [
        typed "lib/netsim/h.ml"
          "let cold xs = List.map succ xs\n\
           and warm xs =\n\
          \  List.map succ xs\n\
           [@@hot]\n";
      ]
  in
  Alcotest.(check (list int)) "only the marked and-binding" [ 3 ]
    (lines_of "hot-alloc" fs);
  Alcotest.(check (list int)) "through a module alias" [ 2 ]
    (lines_of "hot-alloc"
       (analyze
          [
            typed "lib/netsim/l.ml"
              "module L = List\nlet[@hot] warm xs = L.map succ xs\n";
          ]))

let test_hot_unparenthesized_lambda () =
  let fs =
    analyze
      [
        typed "lib/netsim/h.ml"
          "let[@hot] each f xs =\n\
          \  List.iter f xs;\n\
          \  ignore @@ fun x -> f x\n";
      ]
  in
  Alcotest.(check (list int)) "lambda after @@" [ 3 ] (lines_of "hot-alloc" fs)

let test_hot_own_parameters () =
  let fs =
    analyze
      [
        typed "lib/netsim/h.ml"
          "let[@hot] step t ~dt ?(k = 1) = t + (dt * k)\n\
           let classify = function 0 -> `Zero | _ -> `Other [@@hot]\n\
           module Inner = struct\n\
          \  let[@hot] pair = fun a b -> a + b\n\
           end\n";
      ]
  in
  Alcotest.(check (list int)) "parameters are not lambdas" []
    (lines_of "hot-alloc" fs)

let test_mutable_global_without_spawn () =
  let source = "let counter = ref 0\nlet fresh () = ref 0\nlet n = 3\n" in
  Alcotest.(check (list int)) "lib/raft top-level ref" [ 1 ]
    (lines_of "mutable-global" (analyze [ typed "lib/raft/g.ml" source ]));
  Alcotest.(check (list int)) "outside lib/raft" [ 1 ]
    (lines_of "mutable-global" (analyze [ typed "lib/stats/g.ml" source ]));
  Alcotest.(check (list int)) "through a module alias" [ 2 ]
    (lines_of "mutable-global"
       (analyze
          [
            typed "lib/stats/h.ml" "module H = Hashtbl\nlet t = H.create 4\n";
          ]))

let tests =
  [
    Alcotest.test_case "index-build" `Quick test_index_build;
    Alcotest.test_case "index-resolution" `Quick test_index_resolution;
    Alcotest.test_case "index-aliases" `Quick test_index_aliases;
    Alcotest.test_case "typed-fixtures" `Quick test_typed_fixtures;
    Alcotest.test_case "unset-optional" `Quick test_unset_optional;
    Alcotest.test_case "callers-are-not-checked" `Quick
      test_callers_are_not_checked;
    Alcotest.test_case "ambient-effect-at-sink" `Quick
      test_ambient_effect_at_sink;
    Alcotest.test_case "ambient-effect-any-dir" `Quick
      test_ambient_effect_any_dir;
    Alcotest.test_case "ambient-effect-exporter" `Quick
      test_ambient_effect_exporter;
    Alcotest.test_case "allowlist-mutable-global" `Quick
      test_allowlist_mutable_global;
    Alcotest.test_case "stale-allow-entries" `Quick test_stale_allow_entries;
    Alcotest.test_case "mutable-global-everywhere" `Quick
      test_mutable_global_everywhere;
    Alcotest.test_case "mutable-global-near-misses" `Quick
      test_mutable_global_near_misses;
    Alcotest.test_case "fragile-match" `Quick test_fragile_match_fires;
    Alcotest.test_case "fragile-match-negative" `Quick
      test_fragile_match_negative;
    Alcotest.test_case "parse-error" `Quick test_parse_error;
    Alcotest.test_case "finding-render" `Quick test_render;
    Alcotest.test_case "parse-allow" `Quick test_parse_allow;
    Alcotest.test_case "stdlib-exit-exact" `Quick test_exit_exact;
    Alcotest.test_case "poly-compare-exact" `Quick test_compare_exact;
    Alcotest.test_case "poly-compare-boxed" `Quick test_compare_boxed;
    Alcotest.test_case "hot-and-binding" `Quick test_hot_and_binding;
    Alcotest.test_case "hot-unparenthesized-lambda" `Quick
      test_hot_unparenthesized_lambda;
    Alcotest.test_case "hot-own-parameters" `Quick test_hot_own_parameters;
    Alcotest.test_case "mutable-global-no-spawn" `Quick
      test_mutable_global_without_spawn;
    Alcotest.test_case "stale-unit" `Quick test_stale_unit;
  ]
