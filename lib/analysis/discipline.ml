(* The source discipline of lib/ and bin/ that the compiler does not
   enforce: per-file rules that need no call graph.  Each hazard has one
   rule, checked at the site that names it, so a wrapper cannot hide it
   and no reachability question decides whether it counts.  (The
   identifier bans — wall clock, global Random, ambient Sys/Unix/I/O,
   Obj.magic, polymorphic compare/hash/min/max, exit, raw Fabric.send —
   are alerts of lib/prelude, errors in every lib/ build.)

   - [poly-compare]: [=], [<>], [<], [>], [<=], [>=] applied to a
     constructor with a payload or a tuple literal ([x <> Some y]).
     Without flambda that allocates the operand, then calls compare_val.
     An operator bound by an enclosing pattern is a local, not the
     polymorphic one, and never fires.
   - [mutable-global]: a module-level binding whose right-hand side
     allocates mutable state.  Campaign domains share every module's
     top-level state, so per-run state belongs in the values a run
     creates ([Server.t], the engine, the cluster).
   - [hot-alloc]: a binding marked [[@hot]]/[[@@hot]] (the append,
     heartbeat and delivery hot paths) whose body, below its own
     parameters, calls an allocating list/array combinator, formats
     ([Printf]/[Format] build closures and buffers per call), or holds a
     lambda (a closure allocation per call unless hoisted).

   [mutable-global] applies to lib/ and bin/; the other two to lib/
   only. *)

let in_lib path = Source.contains path "lib/"
let in_bin path = Source.contains path "bin/"
let named names parts = List.mem (String.concat "." parts) names
let poly_compare = "poly-compare"

let poly_compare_doc =
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
  [
    (poly_compare, poly_compare_doc);
    (mutable_global, mutable_global_doc);
    (hot_alloc, hot_alloc_doc);
  ]

(* {1 poly-compare} *)

let compare_findings path str =
  let acc = ref [] in
  let locals = ref [] in
  let within pats f =
    let saved = !locals in
    locals := List.concat_map Source.pattern_names pats @ saved;
    f ();
    locals := saved
  in
  let case self (c : Parsetree.case) =
    within [ c.pc_lhs ] (fun () -> self.Ast_iterator.case self c)
  in
  let expr self (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_apply
        ( ({ pexp_desc = Parsetree.Pexp_ident lid; _ } as op),
          [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) ->
        (match Source.flatten_longident lid.Asttypes.txt with
        | Some ([ name ] | [ "Stdlib"; name ] as parts)
          when List.mem name comparison_ops
               && (not (List.mem name !locals))
               && (boxed_operand a || boxed_operand b) ->
            acc :=
              Finding.v ~path ~line:(Source.line_of_loc op.pexp_loc)
                ~rule:poly_compare
                (Printf.sprintf "`%s`: %s" (String.concat "." parts)
                   poly_compare_doc)
              :: !acc
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
      let name = String.concat ", " (Source.pattern_names vb.pvb_pat) in
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
          compare_findings s.path str @ globals s @ hot_findings s.path str
      | Source.Impl _ when in_bin s.path -> globals s
      | Source.Impl _ | Source.Intf _ -> [])
    sources
