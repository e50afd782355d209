(* The source discipline of lib/ and bin/ that the compiler does not
   enforce: per-file rules that need no call graph, read from the typed
   tree of each compiled implementation.  Each hazard has one rule,
   checked at the site that names it, so a wrapper cannot hide it and no
   reachability question decides whether it counts.  (The identifier
   bans — wall clock, global Random, ambient Sys/Unix/I/O, Obj.magic,
   polymorphic compare/hash/min/max, exit, raw Fabric.send — are alerts
   of lib/prelude, errors in every lib/ build.)

   - [poly-compare]: Stdlib's comparison primitives ([=], [<>], [<],
     [>], [<=], [>=]) applied to a constructor with a payload or a tuple
     literal ([x <> Some y]).  Without flambda that allocates the
     operand, then calls compare_val.  A locally bound operator is no
     primitive and never fires.
   - [mutable-global]: a module-level binding whose right-hand side
     allocates mutable state.  Campaign domains share every module's
     top-level state, so per-run state belongs in the values a run
     creates ([Server.t], the engine, the cluster).
   - [hot-alloc]: a binding marked [[@hot]]/[[@@hot]] (the append,
     heartbeat and delivery hot paths) whose body, below its own
     parameters, calls an allocating list/array combinator, formats
     ([Printf]/[Format] build closures and buffers per call), or holds a
     lambda (a closure allocation per call unless hoisted).

   An identifier counts by the declaration the compiler resolved it to,
   so [module H = Hashtbl] hides nothing and a local [List] is not
   Stdlib's.  [mutable-global] applies to lib/ and bin/; the other two
   to lib/ only. *)

let in_lib path = Finding.contains path "lib/"
let in_bin path = Finding.contains path "bin/"
let poly_compare = "poly-compare"

let poly_compare_doc =
  "polymorphic comparison against a constructor with a payload or a tuple \
   literal (allocates the operand, then calls compare_val; match instead)"

let comparison_prims =
  [
    "%equal"; "%notequal"; "%lessthan"; "%greaterthan"; "%lessequal";
    "%greaterequal";
  ]

(* A constructor with a payload, or a tuple, built in place. *)
let boxed_operand (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (_, _, _ :: _)
  | Typedtree.Texp_variant (_, Some _)
  | Typedtree.Texp_tuple _ ->
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

(* The value an identifier resolved to, named by the module that
   declares it: ["Hashtbl.create"] through any alias, Stdlib's own
   values bare (["ref"]). *)
let declared p (vd : Types.value_description) =
  match
    Filename.(remove_extension (basename vd.val_loc.loc_start.pos_fname))
  with
  | "stdlib" -> Path.last p
  | file -> String.capitalize_ascii file ^ "." ^ Path.last p

let names (pat : Typedtree.pattern) =
  List.map Ident.name (Typedtree.pat_bound_idents pat)

let attribute name (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Typedtree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* {1 mutable-global} *)

let mutable_ctors =
  [
    "ref"; "Hashtbl.create"; "Hashtbl.of_seq"; "Hashtbl.copy";
    "Hashtbl.rebuild"; "Queue.create"; "Queue.copy"; "Queue.of_seq";
    "Stack.create"; "Stack.of_seq"; "Buffer.create"; "Bytes.create";
    "Bytes.make"; "Bytes.init"; "Bytes.of_string"; "Bytes.copy"; "Bytes.sub";
    "Array.make"; "Array.init"; "Array.create_float"; "Array.make_matrix";
    "Array.of_list"; "Array.copy"; "Array.append"; "Array.concat"; "Array.sub";
    "Array.map"; "Array.mapi"; "Atomic.make"; "Weak.create"; "Mutex.create";
    "Condition.create"; "Semaphore.make";
  ]

(* The shape of a right-hand side that allocates mutable state at
   module initialization.  Functions are skipped: a function returning
   a fresh ref is fine.  A record counts when its type, as the compiler
   resolved it, has a mutable field. *)
let rec mutable_shape (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply
      ({ exp_desc = Typedtree.Texp_ident (p, _, vd); _ }, _) ->
      let ctor = declared p vd in
      if List.mem ctor mutable_ctors then Some ctor else None
  | Typedtree.Texp_array _ -> Some "array literal"
  | Typedtree.Texp_record { fields; _ } ->
      Array.find_map
        (fun ((l : Types.label_description), _) ->
          match l.lbl_mut with
          | Asttypes.Mutable ->
              Some ("record with mutable field `" ^ l.lbl_name ^ "`")
          | Asttypes.Immutable -> None)
        fields
  | Typedtree.Texp_tuple es | Typedtree.Texp_construct (_, _, es) ->
      List.find_map mutable_shape es
  | Typedtree.Texp_open (_, e)
  | Typedtree.Texp_letmodule (_, _, _, _, e)
  | Typedtree.Texp_sequence (_, e)
  | Typedtree.Texp_let (_, _, e) ->
      mutable_shape e
  | Typedtree.Texp_ifthenelse (_, a, b) -> (
      match mutable_shape a with
      | Some s -> Some s
      | None -> Option.bind b mutable_shape)
  | _ -> None

let rec globals path prefix (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.concat_map
            (fun (vb : Typedtree.value_binding) ->
              match mutable_shape vb.vb_expr with
              | None -> []
              | Some shape ->
                  List.map
                    (fun n ->
                      Finding.v ~path ~line:(Finding.line vb.vb_loc)
                        ~rule:mutable_global
                        (Printf.sprintf "`%s` (%s): %s" (prefix ^ n) shape
                           mutable_global_doc))
                    (match names vb.vb_pat with [] -> [ "_" ] | ns -> ns))
            vbs
      | Typedtree.Tstr_module
          {
            mb_name = { txt = Some m; _ };
            mb_expr = { mod_desc = Typedtree.Tmod_structure str; _ };
            _;
          } ->
          globals path (prefix ^ m ^ ".") str
      | _ -> [])
    str.str_items

(* {1 poly-compare and hot-alloc} *)

let hot_banned name =
  String.starts_with ~prefix:"Printf." name
  || String.starts_with ~prefix:"Format." name
  || List.mem name
       [
         "List.map"; "List.mapi"; "List.rev_map"; "List.concat_map";
         "List.filter_map"; "List.filter"; "List.append"; "List.concat";
         "Array.append"; "Array.concat"; "Array.of_list"; "Array.to_list";
       ]

(* What in a hot body allocates, if anything. *)
let allocation (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_function _ -> Some "a lambda literal"
  | Typedtree.Texp_ident (p, _, vd) ->
      let name = declared p vd in
      if hot_banned name then Some ("`" ^ name ^ "`") else None
  | _ -> None

let lib_findings path str =
  let acc = ref [] in
  let add ~rule loc message =
    acc := Finding.v ~path ~line:(Finding.line loc) ~rule message :: !acc
  in
  let scan name =
    let expr self (e : Typedtree.expression) =
      Option.iter
        (fun what ->
          add ~rule:hot_alloc e.exp_loc
            (Printf.sprintf "%s in [@hot] binding `%s`: %s" what name
               hot_alloc_why))
        (allocation e);
      Tast_iterator.default_iterator.expr self e
    in
    { Tast_iterator.default_iterator with expr }
  in
  (* The binding's own parameter chain is the function being defined,
     not an allocation inside it: one single-case function per
     parameter, an optional parameter's default bound by a [let] the
     compiler marks [#default]. *)
  let rec body it (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ }
      ->
        body it c_rhs
    | Typedtree.Texp_function { cases; _ } ->
        List.iter (it.Tast_iterator.case it) cases
    | Typedtree.Texp_let (_, _, inner)
      when attribute "#default" e.exp_attributes ->
        body it inner
    | _ -> it.Tast_iterator.expr it e
  in
  let value_binding self (vb : Typedtree.value_binding) =
    if attribute "hot" vb.vb_attributes then
      body (scan (String.concat ", " (names vb.vb_pat))) vb.vb_expr;
    Tast_iterator.default_iterator.value_binding self vb
  in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_apply
        ( ({
             exp_desc =
               Typedtree.Texp_ident
                 (p, _, { val_kind = Types.Val_prim prim; _ });
             _;
           } as op),
          [ (Asttypes.Nolabel, Some a); (Asttypes.Nolabel, Some b) ] )
      when List.mem prim.prim_name comparison_prims
           && (boxed_operand a || boxed_operand b) ->
        add ~rule:poly_compare op.exp_loc
          (Printf.sprintf "`%s`: %s" (Path.last p) poly_compare_doc)
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding } in
  it.structure it str;
  !acc

(* {1 Driver entry} *)

let findings units =
  List.concat_map
    (fun (u : Cmt_format.cmt_infos) ->
      match (u.cmt_annots, Index.source u) with
      | Cmt_format.Implementation str, Some path when in_lib path ->
          lib_findings path str @ globals path "" str
      | Cmt_format.Implementation str, Some path when in_bin path ->
          globals path "" str
      | _ -> [])
    units
