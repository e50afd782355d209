(* Unit tests for the static checker (lib/analysis): call graph
   construction and resolution, interprocedural effect taint,
   cross-domain shared-state detection, parse-error surfacing, the
   allowlist and its stale-entry gate, and the cases where lib/'s
   source discipline is exact on the AST.  Catch-all arms over a
   variant are the compiler's fragile-match error: the fragile-match
   cases type-check snippets in-process under it, and the
   test/match_fixtures rule pins the compiler's exact messages. *)

module A = Analysis
module F = Analysis.Finding
module Cg = Analysis.Callgraph

let file path content = { A.Driver.path; content }
let analyze ?config files = fst (A.Driver.analyze ?config ~callers:[] files)
let with_rule rule fs = List.filter (fun (f : F.t) -> f.rule = rule) fs

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

(* {2 Effect taint} *)

(* The wrappers live OUTSIDE the entry directories, so the only way to
   reach the sink is the two-hop chain from the lib/raft entry point. *)
let taint_files =
  [
    file "lib/raft/entry.ml" "let run () = Stats.Util.step ()";
    file "lib/stats/util.ml"
      "let step () = clock ()\nlet clock () = Unix.gettimeofday ()";
  ]

let test_taint_two_hops () =
  match with_rule "effect-taint" (analyze taint_files) with
  | [ f ] ->
      Alcotest.(check string) "points at the effectful file" "lib/stats/util.ml"
        f.F.path;
      Alcotest.(check int) "line of the sink" 2 f.F.line;
      (* the full chain through both wrappers must be in the message *)
      List.iter
        (fun part ->
          Alcotest.(check bool) ("chain mentions " ^ part) true
            (contains f.F.message part))
        [ "run"; "step"; "clock"; "Unix.gettimeofday" ]
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_requires_entry_reachability () =
  (* Same sink, but in a module no entry point reaches: clean. *)
  let fs =
    analyze [ file "lib/telemetry/t.ml" "let now () = Unix.gettimeofday ()" ]
  in
  Alcotest.(check int) "no findings" 0 (List.length (with_rule "effect-taint" fs))

let test_taint_forensics_entry () =
  (* The forensics modules are taint roots themselves: an ambient
     effect reachable from one fires without any lib/raft caller... *)
  let fs =
    analyze
      [ file "lib/telemetry/cause.ml" "let stamp () = Unix.gettimeofday ()" ]
  in
  Alcotest.(check int) "cause is an entry dir" 1
    (List.length (with_rule "effect-taint" fs));
  let fs =
    analyze
      [ file "lib/telemetry/recorder.ml" "let jitter () = Random.float 1." ]
  in
  Alcotest.(check int) "recorder is an entry dir" 1
    (List.length (with_rule "effect-taint" fs));
  (* ...but the exporters are not: chrome_trace writing a file when
     asked stays legitimate. *)
  let fs =
    analyze
      [
        file "lib/telemetry/chrome_trace.ml"
          "let write path = open_out path";
      ]
  in
  Alcotest.(check int) "chrome_trace stays exempt" 0
    (List.length (with_rule "effect-taint" fs))

let allow_of source =
  match F.parse_allow source with
  | Ok allow -> allow
  | Error line -> Alcotest.failf "parse_allow failed: %s" line

let test_taint_allowlist () =
  let config =
    A.Driver.default_config ~allow:(allow_of "util.ml:effect-taint") ()
  in
  let fs = with_rule "effect-taint" (analyze ~config taint_files) in
  Alcotest.(check int) "suppressed" 0 (List.length fs)

let test_stale_allow_entries () =
  (* util.ml holds the sink, so its entry cuts the taint; entry.ml only
     calls a wrapper and the shared-state entry matches nothing. *)
  let allow =
    allow_of
      "# header\n\
       util.ml:effect-taint\n\
       entry.ml:effect-taint\n\n\
       util.ml:shared-state\n"
  in
  let config = A.Driver.default_config ~allow () in
  let findings, stale = A.Driver.analyze ~config ~callers:[] taint_files in
  Alcotest.(check int) "taint suppressed" 0
    (List.length (with_rule "effect-taint" findings));
  Alcotest.(check (list (pair int string)))
    "stale entries, by line"
    [ (3, "entry.ml:effect-taint"); (5, "util.ml:shared-state") ]
    (List.map
       (fun (e : F.entry) -> (e.lineno, e.suffix ^ ":" ^ e.rule_id))
       stale)

(* {2 Shared state} *)

let shared_body =
  "let tbl = Hashtbl.create 4\n\
   type c = { mutable n : int }\n\
   let cell = { n = 0 }\n\
   let work x = Hashtbl.length tbl + cell.n + x\n"

let test_shared_state_fires () =
  let fs =
    analyze
      [ file "lib/raft/s.ml" (shared_body ^ "let run p xs = Pool.map p work xs") ]
  in
  let lines =
    with_rule "shared-state" fs |> List.map (fun (f : F.t) -> f.line)
  in
  Alcotest.(check (list int)) "hashtbl and mutable record flagged" [ 1; 3 ] lines

let test_shared_state_needs_spawn () =
  (* Identical mutable state, but nothing hands the module to a pool. *)
  let fs = analyze [ file "lib/raft/s.ml" shared_body ] in
  Alcotest.(check int) "clean without a spawn site" 0
    (List.length (with_rule "shared-state" fs))

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
  let f = F.v ~path:"lib/x.ml" ~line:3 ~rule:"effect-taint" "msg" in
  Alcotest.(check string) "render" "lib/x.ml:3: [effect-taint] msg" (F.render f)

let test_parse_allow () =
  (match allow_of "# comment\n\nlib/x.ml:effect-taint\n" with
  | [ e ] ->
      Alcotest.(check int) "line" 3 e.F.lineno;
      let finding rule = F.v ~path:"lib/x.ml" ~line:1 ~rule "" in
      Alcotest.(check bool) "suffix match" true
        (F.suppresses e (finding "effect-taint"));
      Alcotest.(check bool) "rule must match" false
        (F.suppresses e (finding "shared-state"))
  | entries -> Alcotest.failf "expected one entry, got %d" (List.length entries));
  match F.parse_allow "garbage-without-colon" with
  | Ok _ -> Alcotest.fail "malformed entry accepted"
  | Error _ -> ()

(* {2 Source discipline (lib/ only)} *)

let lines_of rule fs = with_rule rule fs |> List.map (fun (f : F.t) -> f.line)

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
  Alcotest.(check (list int)) "outside lib/raft" []
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
    Alcotest.test_case "taint-two-hops" `Quick test_taint_two_hops;
    Alcotest.test_case "taint-needs-entry" `Quick
      test_taint_requires_entry_reachability;
    Alcotest.test_case "taint-forensics-entry" `Quick
      test_taint_forensics_entry;
    Alcotest.test_case "taint-allowlist" `Quick test_taint_allowlist;
    Alcotest.test_case "stale-allow-entries" `Quick test_stale_allow_entries;
    Alcotest.test_case "shared-state-fires" `Quick test_shared_state_fires;
    Alcotest.test_case "shared-state-needs-spawn" `Quick
      test_shared_state_needs_spawn;
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
