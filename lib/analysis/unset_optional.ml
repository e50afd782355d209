(* [unset-optional]: an optional parameter that nothing sets.

   Every [?label] on a [val] of a lib/ interface must be passed, as
   [~label] or [?label], by at least one application outside the
   module's own [.ml].  One that only the module itself passes, or that
   nobody passes, is a knob with one value: a constant behind an
   option.  Applications are resolved through {!Callgraph.resolve}, so
   module aliases such as [module Gm = Multiraft.Group_manager] count. *)

let rule = "unset-optional"

let doc =
  "optional parameter of a lib/ interface value that no caller outside its \
   own module passes (a knob nothing sets; make it a constant)"

(* (.ml path, value name, label) of every labelled argument an
   application passes to a value of another file. *)
let passed cg (sources : Source.t list) =
  let seen = Hashtbl.create 512 in
  let expr (s : Source.t) self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident lid; _ }, args)
      -> (
        match
          Option.bind
            (Source.flatten_longident lid.Asttypes.txt)
            (Callgraph.resolve cg ~path:s.path ~lib:s.library)
        with
        | Some v when not (String.equal v.vpath s.path) ->
            List.iter
              (function
                | Asttypes.(Labelled l | Optional l), _ ->
                    Hashtbl.replace seen (v.vpath, v.vname, l) ()
                | Asttypes.Nolabel, _ -> ())
              args
        | Some _ | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  List.iter
    (fun (s : Source.t) ->
      let it = { Ast_iterator.default_iterator with expr = expr s } in
      match s.kind with
      | Source.Impl str -> it.structure it str
      | Source.Intf _ | Source.Broken _ -> ())
    sources;
  seen

let findings cg ~scanned ~callers =
  let seen = passed cg callers in
  (* The optional labels of one [val]'s arrow chain that nobody passes. *)
  let unset (s : Source.t) impl name =
    let rec go (t : Parsetree.core_type) =
      match t.ptyp_desc with
      | Parsetree.Ptyp_arrow (Asttypes.Optional label, _, rest)
        when not (Hashtbl.mem seen (impl, name, label)) ->
          Finding.v ~path:s.path ~line:(Source.line_of_loc t.ptyp_loc) ~rule
            (Printf.sprintf "`?%s` of `%s.%s`: %s" label s.modname name doc)
          :: go rest
      | Parsetree.Ptyp_arrow (_, _, rest) | Parsetree.Ptyp_poly (_, rest) ->
          go rest
      | _ -> []
    in
    go
  in
  let rec items s impl prefix sg =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Parsetree.Psig_value vd ->
            unset s impl (prefix ^ vd.pval_name.txt) vd.pval_type
        | Parsetree.Psig_module
            {
              pmd_name = { txt = Some m; _ };
              pmd_type = { pmty_desc = Parsetree.Pmty_signature sg; _ };
              _;
            } ->
            items s impl (prefix ^ m ^ ".") sg
        | _ -> [])
      sg
  in
  List.concat_map
    (fun (s : Source.t) ->
      match s.kind with
      | Source.Intf sg when Source.contains s.path "lib/" ->
          items s (Filename.remove_extension s.path ^ ".ml") "" sg
      | Source.Intf _ | Source.Impl _ | Source.Broken _ -> [])
    scanned
