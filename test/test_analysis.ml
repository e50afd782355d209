(* Unit tests for the static checker (lib/analysis): call graph
   construction and resolution, parse-error surfacing, the allowlist
   and its stale-entry gate, and the cases where the per-file source
   discipline is exact on the AST: ambient effects flagged where they
   are named, in any lib/ directory, and module-level mutable state in
   lib/ and bin/.  Catch-all arms over a variant are the compiler's
   fragile-match error: the fragile-match cases type-check snippets
   in-process under it, and the test/match_fixtures rule pins the
   compiler's exact messages. *)

module A = Analysis
module F = Analysis.Finding
module Cg = Analysis.Callgraph

let file path content = { A.Driver.path; content }
let analyze ?config files = fst (A.Driver.analyze ?config ~callers:[] files)
let with_rule rule fs = List.filter (fun (f : F.t) -> f.rule = rule) fs
let lines_of rule fs = with_rule rule fs |> List.map (fun (f : F.t) -> f.line)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let src lib path content = A.Source.parse ~library:lib ~path content

(* {2 Call graph} *)

let test_callgraph_build () =
  let cg =
    Cg.build [ src "Raft" "lib/raft/a.ml" "let f x = x + 1\nlet g y = f y" ]
  in
  let g =
    match Cg.lookup cg ~path:"lib/raft/a.ml" ~name:"g" with
    | Some v -> v
    | None -> Alcotest.fail "g not found"
  in
  Alcotest.(check int) "g line" 2 g.Cg.vline;
  Alcotest.(check string) "display" "Raft.A.g" (Cg.display g);
  match Cg.callees cg g with
  | [ (callee, line) ] ->
      Alcotest.(check string) "edge g->f" "f" callee.Cg.vname;
      Alcotest.(check int) "edge line" 2 line
  | edges -> Alcotest.failf "expected one edge, got %d" (List.length edges)

let test_callgraph_resolution () =
  let cg =
    Cg.build
      [
        src "Stats" "lib/stats/rng.ml" "let fresh () = 0";
        src "Raft" "lib/raft/a.ml" "let f x = x";
        src "Raft" "lib/raft/b.ml" "let h () = A.f (Stats.Rng.fresh ())";
      ]
  in
  let resolve parts =
    Cg.resolve cg ~path:"lib/raft/b.ml" ~lib:"Raft" parts
  in
  (match resolve [ "A"; "f" ] with
  | Some v -> Alcotest.(check string) "same-library" "lib/raft/a.ml" v.Cg.vpath
  | None -> Alcotest.fail "A.f unresolved");
  (match resolve [ "Stats"; "Rng"; "fresh" ] with
  | Some v ->
      Alcotest.(check string) "library-qualified" "lib/stats/rng.ml" v.Cg.vpath
  | None -> Alcotest.fail "Stats.Rng.fresh unresolved");
  Alcotest.(check bool) "locals stay unresolved" true
    (resolve [ "nonexistent" ] = None)

let test_callgraph_aliases () =
  let cg =
    Cg.build
      [
        src "Multiraft" "lib/multiraft/group_manager.ml" "let create () = 0";
        src "Scenarios" "lib/scenarios/multiraft_scenario.ml" "let sweep () = 1";
        src "Scenarios" "lib/scenarios/scenarios.ml"
          "module Multiraft = Multiraft_scenario";
        src "" "bin/x.ml"
          "module Gm = Multiraft.Group_manager
           let a = Gm.create ()
           let b = Scenarios.Multiraft.sweep ()";
      ]
  in
  let resolved parts =
    Option.map
      (fun v -> v.Cg.vpath)
      (Cg.resolve cg ~path:"bin/x.ml" ~lib:"" parts)
  in
  Alcotest.(check (option string)) "file alias"
    (Some "lib/multiraft/group_manager.ml") (resolved [ "Gm"; "create" ]);
  Alcotest.(check (option string)) "library wrapper alias"
    (Some "lib/scenarios/multiraft_scenario.ml")
    (resolved [ "Scenarios"; "Multiraft"; "sweep" ]);
  Alcotest.(check (option string)) "an alias is per file" None
    (Option.map
       (fun v -> v.Cg.vpath)
       (Cg.resolve cg ~path:"lib/scenarios/scenarios.ml" ~lib:"Scenarios"
          [ "Gm"; "create" ]))

(* {2 Ambient effects} *)

(* An ambient effect behind a wrapper in another library: the rule
   fires where the effect is named, whoever calls it. *)
let effect_files =
  [
    file "lib/raft/entry.ml" "let run () = Stats.Util.step ()";
    file "lib/stats/util.ml"
      "let step () = home ()\nlet home () = Sys.getenv \"HOME\"";
  ]

let test_ambient_effect_at_sink () =
  match analyze effect_files with
  | [ f ] ->
      Alcotest.(check string) "rule" "ambient-effect" f.F.rule;
      Alcotest.(check string) "points at the effectful file" "lib/stats/util.ml"
        f.F.path;
      Alcotest.(check int) "line of the reference" 2 f.F.line;
      Alcotest.(check bool) "names the identifier and category" true
        (contains f.F.message "`Sys.getenv` (ambient Sys)")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_ambient_effect_any_dir () =
  let home = "let home () = Sys.getenv \"HOME\"" in
  List.iter
    (fun path ->
      Alcotest.(check (list int)) path [ 1 ]
        (lines_of "ambient-effect" (analyze [ file path home ])))
    [ "lib/scenarios/report.ml"; "lib/analysis/finding.ml" ]

let test_ambient_effect_exporter () =
  let write = "let write path = open_out path" in
  let hits path rule = lines_of rule (analyze [ file path write ]) in
  Alcotest.(check (list int)) "chrome_trace writes the file it is asked for"
    [] (hits "lib/telemetry/chrome_trace.ml" "ambient-effect");
  Alcotest.(check (list int)) "the same call in the recorder" [ 1 ]
    (hits "lib/telemetry/recorder.ml" "ambient-effect");
  Alcotest.(check (list int)) "the exemption is ambient-effect's alone" [ 1 ]
    (lines_of "wall-clock"
       (analyze
          [
            file "lib/telemetry/chrome_trace.ml"
              "let stamp () = Unix.gettimeofday ()";
          ]))

let allow_of source =
  match F.parse_allow source with
  | Ok allow -> allow
  | Error line -> Alcotest.failf "parse_allow failed: %s" line

let test_allowlist_mutable_global () =
  let config =
    A.Driver.default_config
      ~allow:
        (allow_of
           "telemetry/metrics.ml:mutable-global\n\
            lib/telemetry/gone.ml:mutable-global\n")
      ()
  in
  let findings, stale =
    A.Driver.analyze ~config ~callers:[]
      [ file "lib/telemetry/metrics.ml" "let dead = ref 0" ]
  in
  Alcotest.(check int) "suppressed by path suffix" 0 (List.length findings);
  Alcotest.(check (list string)) "the entry that matches nothing is stale"
    [ "lib/telemetry/gone.ml" ]
    (List.map (fun (e : F.entry) -> e.suffix) stale)

let test_stale_allow_entries () =
  (* util.ml names the effect; entry.ml only calls it, and util.ml holds
     no mutable global. *)
  let allow =
    allow_of
      "# header\n\
       util.ml:ambient-effect\n\
       entry.ml:ambient-effect\n\n\
       util.ml:mutable-global\n"
  in
  let config = A.Driver.default_config ~allow () in
  let findings, stale = A.Driver.analyze ~config ~callers:[] effect_files in
  Alcotest.(check int) "effect suppressed" 0 (List.length findings);
  Alcotest.(check (list (pair int string)))
    "stale entries, by line"
    [ (3, "entry.ml:ambient-effect"); (5, "util.ml:mutable-global") ]
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
        (lines_of "mutable-global" (analyze [ file path shared_body ])))
    [ "lib/telemetry/s.ml"; "bin/s.ml" ]

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
        (lines_of "mutable-global" (analyze [ file path source ])))
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

(* {2 Parse errors, rendering, allowlist parsing} *)

let test_parse_error () =
  match analyze [ file "lib/raft/broken.ml" "let = (" ] with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" f.F.rule
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_render () =
  let f = F.v ~path:"lib/x.ml" ~line:3 ~rule:"mutable-global" "msg" in
  Alcotest.(check string) "render" "lib/x.ml:3: [mutable-global] msg"
    (F.render f)

let test_parse_allow () =
  let finding ?(path = "lib/x.ml") rule = F.v ~path ~line:1 ~rule "" in
  (match allow_of "# comment\n\nlib/x.ml:ambient-effect\n" with
  | [ e ] ->
      Alcotest.(check int) "line" 3 e.F.lineno;
      Alcotest.(check bool) "suffix match" true
        (F.suppresses e (finding "ambient-effect"));
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
    (lines_of "stdlib-exit" (analyze [ file "lib/kvsm/x.ml" source ]));
  Alcotest.(check (list int)) "bin/ may exit" []
    (lines_of "stdlib-exit" (analyze [ file "bin/x.ml" source ]))

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
    (lines_of "poly-compare" (analyze [ file "lib/kvsm/x.ml" source ]))

let test_compare_boxed () =
  let source =
    "let a x y = x <> Some y\n\
     let b x y = Stdlib.(=) (x, y) (1, 2)\n\
     let c x = x >= `Tag 3\n\
     let d x y = Int.max x y + max x y\n\
     let e x = x = None\n\
     let f x y = x == Some y\n\
     let g (x : int) y = x < y\n\
     let h ( = ) x y = x = Some y\n\
     let i max x = max x 0\n"
  in
  Alcotest.(check (list int)) "boxed operands and untyped min/max fire"
    [ 1; 2; 3; 4 ]
    (lines_of "poly-compare" (analyze [ file "lib/kvsm/x.ml" source ]))

let test_hot_and_binding () =
  let fs =
    analyze
      [
        file "lib/netsim/h.ml"
          "let cold xs = List.map succ xs\n\
           and warm xs =\n\
          \  List.map succ xs\n\
           [@@hot]\n";
      ]
  in
  Alcotest.(check (list int)) "only the marked and-binding" [ 3 ]
    (lines_of "hot-alloc" fs)

let test_hot_unparenthesized_lambda () =
  let fs =
    analyze
      [
        file "lib/netsim/h.ml"
          "let[@hot] each f xs =\n\
          \  List.iter f xs;\n\
          \  List.iter ignore @@ fun x -> f x\n";
      ]
  in
  Alcotest.(check (list int)) "lambda after @@" [ 3 ] (lines_of "hot-alloc" fs)

let test_hot_own_parameters () =
  let fs =
    analyze
      [
        file "lib/netsim/h.ml"
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
    (lines_of "mutable-global" (analyze [ file "lib/raft/g.ml" source ]));
  Alcotest.(check (list int)) "outside lib/raft" [ 1 ]
    (lines_of "mutable-global" (analyze [ file "lib/stats/g.ml" source ]))

(* {2 unset-optional} *)

let knob_mli = "val make : ?size:int -> unit -> int\nval pick : ?seed:int -> unit -> int\n"

let knob_ml =
  "let make ?(size = 1) () = size\n\
   let pick ?(seed = 0) () = seed\n\
   let own () = make ~size:2 ()\n"

let test_unset_optional () =
  let unset callers =
    lines_of "unset-optional"
      (fst
         (A.Driver.analyze ~callers
            [ file "lib/kvsm/k.mli" knob_mli; file "lib/kvsm/k.ml" knob_ml ]))
  in
  Alcotest.(check (list int)) "no caller sets either" [ 1; 2 ] (unset []);
  Alcotest.(check (list int)) "a caller-only file sets ?seed" [ 1 ]
    (unset [ file "test/t.ml" "module K = Kvsm.K\nlet x = K.pick ~seed:3 ()" ]);
  Alcotest.(check (list int)) "forwarding an option counts" [ 2 ]
    (unset [ file "bench/b.ml" "let f size = Kvsm.K.make ?size ()" ])

let test_callers_are_not_checked () =
  let findings, _ =
    A.Driver.analyze
      ~callers:
        [
          file "bench/b.mli" "val f : ?x:int -> unit -> float";
          file "bench/b.ml" "let f ?x () = ignore x; Unix.gettimeofday ()";
          file "lib/raft/caller.ml" "let counter = ref 0";
        ]
      []
  in
  Alcotest.(check int) "caller-only files raise nothing" 0
    (List.length findings)

let tests =
  [
    Alcotest.test_case "callgraph-build" `Quick test_callgraph_build;
    Alcotest.test_case "callgraph-resolution" `Quick test_callgraph_resolution;
    Alcotest.test_case "callgraph-aliases" `Quick test_callgraph_aliases;
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
  ]
