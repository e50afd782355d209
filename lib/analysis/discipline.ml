(* The source discipline of lib/ and bin/: per-file rules that need no
   call graph.  Each hazard has one rule, checked at the site that
   names it, so a wrapper cannot hide it and no reachability question
   decides whether it counts.

   - Identifier bans ([wall-clock], [global-rng], [ambient-effect],
     [obj-magic], [poly-compare], [stdlib-exit], [raw-fabric-send]):
     one pass over every [Pexp_ident], checked against a table of
     (rule, doc, path scope, predicate).  [poly-compare] also fires on
     [=], [<>], [<], [>], [<=], [>=] applied to a constructor with a
     payload or a tuple literal ([x <> Some y]).  Record fields, labels and
     binding names are not identifiers, and an unqualified identifier
     bound by an enclosing pattern is a local, not the stdlib value it
     shadows — so a field, pun or parameter named [exit] never fires.
   - [mutable-global]: a module-level binding whose right-hand side
     allocates mutable state.  Campaign domains share every module's
     top-level state, so per-run state belongs in the values a run
     creates ([Server.t], the engine, the cluster).
   - [hot-alloc]: a binding marked [[@hot]]/[[@@hot]] (the append,
     heartbeat and delivery hot paths) whose body, below its own
     parameters, calls an allocating list/array combinator, formats
     ([Printf]/[Format] build closures and buffers per call), or holds a
     lambda (a closure allocation per call unless hoisted).

   [mutable-global] applies to lib/ and bin/; every other rule to lib/
   only, since bin/ legitimately prints, reads its environment and
   exits. *)

let in_lib path = Source.contains path "lib/"
let in_bin path = Source.contains path "bin/"
let in_raft path = Source.contains path "lib/raft/"
let anywhere _ = true

type ident_rule = {
  id : string;
  doc : string;
  scope : string -> bool;  (* within lib/, does it apply to this path? *)
  bans : string list -> bool;  (* on the flattened identifier *)
}

let named names parts = List.mem (String.concat "." parts) names

let effect category parts =
  Option.equal String.equal (Effects.classify parts) (Some category)

(* Simulation results must be a function of the seed and the arguments,
   so lib/ takes what it needs as parameters and returns data.  The one
   exemption is the exporter that writes the file it is asked for. *)
let ambient_effect = "ambient-effect"

let ambient parts =
  match Effects.classify parts with
  | Some ("ambient Sys" | "ambient Unix" | "ambient I/O") -> true
  | Some _ | None -> false

(* Without flambda, [Stdlib.min]/[max] on ints are an out-of-line
   polymorphic compare; so is [=] or [<>] against a freshly built
   constructor or tuple, which allocates the operand as well. *)
let poly_compare = "poly-compare"

let poly_compare_doc =
  "polymorphic compare/hash/min/max (use Int/Float/String.compare, \
   Int.min/max, or a typed comparison)"

let boxed_compare_doc =
  "polymorphic comparison against a constructor with a payload or a tuple \
   literal (allocates the operand, then calls compare_val; match instead)"

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* A constructor with a payload, or a tuple, built in place. *)
let boxed_operand (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_construct (_, Some _)
  | Parsetree.Pexp_variant (_, Some _)
  | Parsetree.Pexp_tuple _ ->
      true
  | _ -> false

let ident_rules =
  [
    {
      id = "wall-clock";
      doc = "wall-clock read (the DES virtual clock is the only clock)";
      scope = anywhere;
      bans = effect "wall clock";
    };
    {
      id = "global-rng";
      doc = "global Random state (use seeded Stats.Rng streams)";
      scope = anywhere;
      bans = effect "global Random";
    };
    {
      id = ambient_effect;
      doc =
        "ambient system access or I/O in lib/ (take a formatter, path or \
         value as an argument, or return data; only telemetry/chrome_trace.ml \
         writes the file it is asked for)";
      scope =
        (fun path ->
          not (Filename.check_suffix path "lib/telemetry/chrome_trace.ml"));
      bans = ambient;
    };
    {
      id = "obj-magic";
      doc = "Obj.magic defeats the type system";
      scope = anywhere;
      bans = named [ "Obj.magic" ];
    };
    {
      id = poly_compare;
      doc = poly_compare_doc;
      scope = anywhere;
      bans =
        named
          [
            "compare"; "Stdlib.compare"; "Hashtbl.hash"; "min"; "max";
            "Stdlib.min"; "Stdlib.max";
          ];
    };
    {
      id = "stdlib-exit";
      doc =
        "exit from lib/ (raise or return a result; only bin/ may end the \
         process)";
      scope = anywhere;
      bans = named [ "exit"; "Stdlib.exit" ];
    };
    {
      id = "raw-fabric-send";
      doc =
        "direct Fabric.send from lib/raft (every RPC leaves through \
         Replication.transmit so bulk appends cannot bypass the \
         lane/backpressure policy)";
      scope =
        (fun path ->
          in_raft path && not (Source.contains path "/replication."));
      bans = named [ "Fabric.send"; "Netsim.Fabric.send" ];
    };
  ]

let mutable_global = "mutable-global"

let mutable_global_doc =
  "top-level mutable value (campaign domains would share it; keep it in \
   the state a run creates, or allowlist it with the reason it is safe)"

let hot_alloc = "hot-alloc"

let hot_alloc_why =
  "hot-path functions may not call allocating list/array combinators, \
   Printf/Format, or contain lambda literals"

let hot_alloc_doc = "allocation inside a [@hot] binding (" ^ hot_alloc_why ^ ")"

let rules =
  List.map (fun r -> (r.id, r.doc)) ident_rules
  @ [ (mutable_global, mutable_global_doc); (hot_alloc, hot_alloc_doc) ]

(* {1 Identifier bans} *)

let ident_findings path str rules =
  let acc = ref [] in
  let locals = ref [] in
  let within pats f =
    let saved = !locals in
    locals := List.concat_map Callgraph.pattern_names pats @ saved;
    f ();
    locals := saved
  in
  let case self (c : Parsetree.case) =
    within [ c.pc_lhs ] (fun () -> self.Ast_iterator.case self c)
  in
  let boxed_compares =
    List.exists (fun r -> String.equal r.id poly_compare) rules
  in
  let report (e : Parsetree.expression) rule what doc =
    acc :=
      Finding.v ~path ~line:(Source.line_of_loc e.pexp_loc) ~rule
        (Printf.sprintf "%s: %s" what doc)
      :: !acc
  in
  let quoted parts = "`" ^ String.concat "." parts ^ "`" in
  let expr self (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_ident lid -> (
        match Source.flatten_longident lid.Asttypes.txt with
        | Some [ name ] when List.mem name !locals -> ()
        | Some parts ->
            List.iter
              (fun r ->
                if r.bans parts then
                  let what =
                    match Effects.classify parts with
                    | Some category when String.equal r.id ambient_effect ->
                        Printf.sprintf "%s (%s)" (quoted parts) category
                    | Some _ | None -> quoted parts
                  in
                  report e r.id what r.doc)
              rules
        | None -> ())
    | Parsetree.Pexp_apply
        ( ({ pexp_desc = Parsetree.Pexp_ident lid; _ } as op),
          [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) ->
        (match Source.flatten_longident lid.Asttypes.txt with
        | Some ([ name ] | [ "Stdlib"; name ] as parts)
          when boxed_compares
               && List.mem name comparison_ops
               && (not (List.mem name !locals))
               && (boxed_operand a || boxed_operand b) ->
            report op poly_compare (quoted parts) boxed_compare_doc
        | Some _ | None -> ());
        Ast_iterator.default_iterator.expr self e
    | Parsetree.Pexp_fun (_, default, pat, body) ->
        Option.iter (self.Ast_iterator.expr self) default;
        within [ pat ] (fun () -> self.Ast_iterator.expr self body)
    | Parsetree.Pexp_function cases -> List.iter (case self) cases
    | Parsetree.Pexp_match (scrutinee, cases)
    | Parsetree.Pexp_try (scrutinee, cases) ->
        self.Ast_iterator.expr self scrutinee;
        List.iter (case self) cases
    | Parsetree.Pexp_let (rec_flag, vbs, body) ->
        let pats =
          List.map (fun (vb : Parsetree.value_binding) -> vb.pvb_pat) vbs
        in
        let rhs () =
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              self.Ast_iterator.expr self vb.pvb_expr)
            vbs
        in
        (match rec_flag with
        | Asttypes.Recursive -> within pats rhs
        | Asttypes.Nonrecursive -> rhs ());
        within pats (fun () -> self.Ast_iterator.expr self body)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

(* {1 hot-alloc} *)

let hot_banned parts =
  match parts with
  | ("Printf" | "Format") :: _ :: _ -> true
  | _ ->
      named
        [
          "List.map"; "List.mapi"; "List.rev_map"; "List.concat_map";
          "List.filter_map"; "List.filter"; "List.append"; "List.concat";
          "Array.append"; "Array.concat"; "Array.of_list"; "Array.to_list";
        ]
        parts

(* What in a hot body allocates, if anything. *)
let allocation (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
      Some "a lambda literal"
  | Parsetree.Pexp_ident lid -> (
      match Source.flatten_longident lid.Asttypes.txt with
      | Some parts when hot_banned parts ->
          Some ("`" ^ String.concat "." parts ^ "`")
      | Some _ | None -> None)
  | _ -> None

let hot_findings path str =
  let acc = ref [] in
  let scan name =
    let expr self (e : Parsetree.expression) =
      Option.iter
        (fun what ->
          acc :=
            Finding.v ~path ~line:(Source.line_of_loc e.pexp_loc)
              ~rule:hot_alloc
              (Printf.sprintf "%s in [@hot] binding `%s`: %s" what name
                 hot_alloc_why)
            :: !acc)
        (allocation e);
      Ast_iterator.default_iterator.expr self e
    in
    { Ast_iterator.default_iterator with expr }
  in
  (* The binding's own parameter chain is the function being defined,
     not an allocation inside it. *)
  let rec body it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_fun (_, _, _, e)
    | Parsetree.Pexp_newtype (_, e)
    | Parsetree.Pexp_constraint (e, _) ->
        body it e
    | Parsetree.Pexp_function cases ->
        List.iter (it.Ast_iterator.case it) cases
    | _ -> it.Ast_iterator.expr it e
  in
  let value_binding self (vb : Parsetree.value_binding) =
    if
      List.exists
        (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt "hot")
        vb.pvb_attributes
    then begin
      let name = String.concat ", " (Callgraph.pattern_names vb.pvb_pat) in
      body (scan name) vb.pvb_expr
    end;
    Ast_iterator.default_iterator.value_binding self vb
  in
  let it = { Ast_iterator.default_iterator with value_binding } in
  it.structure it str;
  !acc

(* {1 Driver entry} *)

let findings (sources : Source.t list) =
  let mutable_bindings = Shared_state.mutable_bindings sources in
  let globals (s : Source.t) =
    List.map
      (fun (b : Shared_state.binding) ->
        Finding.v ~path:s.path ~line:b.bline ~rule:mutable_global
          (Printf.sprintf "`%s` (%s): %s" b.bname b.bshape mutable_global_doc))
      (mutable_bindings s)
  in
  List.concat_map
    (fun (s : Source.t) ->
      match s.kind with
      | Source.Impl str when in_lib s.path ->
          ident_findings s.path str
            (List.filter (fun r -> r.scope s.path) ident_rules)
          @ globals s @ hot_findings s.path str
      | Source.Impl _ when in_bin s.path -> globals s
      | Source.Impl _ | Source.Intf _ | Source.Broken _ -> [])
    sources
