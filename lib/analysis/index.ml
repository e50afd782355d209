(* The typed reference index behind the interface rules: the compiler
   has already resolved every identifier, so a reference is keyed by the
   location and name of the declaration it resolved to, and a [val] of
   an interface is referenced when its own key was seen. *)

type decl = {
  path : string;
  name : string;
  desc : Typedtree.value_description;
}

type t = {
  decls : decl list;
  refs : (string, unit) Hashtbl.t;  (* declaration keys *)
  labels : (string, unit) Hashtbl.t;  (* declaration key ^ "~" ^ label *)
}

(* Several ppx-generated [val]s share their type's location; the name
   tells them apart. *)
let key (loc : Location.t) name =
  Printf.sprintf "%s:%d:%s" loc.loc_start.pos_fname loc.loc_start.pos_cnum name

let source (u : Cmt_format.cmt_infos) =
  Option.map
    (fun file ->
      let base = Filename.remove_extension file in
      if Filename.check_suffix base ".pp" then
        Filename.remove_extension base ^ Filename.extension file
      else file)
    u.cmt_sourcefile

(* Every value of a signature, nested modules included: what a functor
   argument, an [include] or a pack hands over whole.  An alias inside
   it ([module X = A]) hands over nothing until a use goes through it. *)
let rec use_signature refs (sg : Types.signature) =
  List.iter
    (function
      | Types.Sig_value (id, vd, _) ->
          Hashtbl.replace refs (key vd.val_loc (Ident.name id)) ()
      | Types.Sig_module (_, _, md, _, _) -> use_module_type refs md.md_type
      | _ -> ())
    sg

and use_module_type refs = function
  | Types.Mty_signature sg -> use_signature refs sg
  | Types.Mty_ident _ | Types.Mty_alias _ | Types.Mty_functor _ -> ()

(* A pack's module comes wrapped in its package type; the values handed
   over are the module's own. *)
let rec use_module refs (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Typedtree.Tmod_constraint (inner, _, _, _) -> use_module refs inner
  | _ -> use_module_type refs m.mod_type

let record t (str : Typedtree.structure) =
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, vd) ->
        Hashtbl.replace t.refs (key vd.val_loc (Path.last p)) ()
    | Typedtree.Texp_pack m -> use_module t.refs m
    | _ -> ());
    (match e.exp_desc with
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, vd); _ }, args) ->
        let k = key vd.val_loc (Path.last p) in
        List.iter
          (function
            (* an optional argument left out is filled in by the
               compiler, at no location of the source *)
            | (Asttypes.Labelled l | Asttypes.Optional l), Some a
              when not a.Typedtree.exp_loc.loc_ghost ->
                Hashtbl.replace t.labels (k ^ "~" ^ l) ()
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let module_expr self (m : Typedtree.module_expr) =
    (match m.mod_desc with
    | Typedtree.Tmod_apply (_, arg, _) -> use_module t.refs arg
    | _ -> ());
    Tast_iterator.default_iterator.module_expr self m
  in
  let structure_item self (item : Typedtree.structure_item) =
    (match item.str_desc with
    | Typedtree.Tstr_include incl -> use_signature t.refs incl.incl_type
    | _ -> ());
    Tast_iterator.default_iterator.structure_item self item
  in
  let it =
    { Tast_iterator.default_iterator with expr; module_expr; structure_item }
  in
  it.structure it str

let rec values path prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_value desc ->
          [ { path; name = prefix ^ desc.val_name.txt; desc } ]
      | Typedtree.Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
            _;
          } ->
          values path (prefix ^ m ^ ".") sg
      | _ -> [])
    sg.sig_items

let build ~callers units =
  let decls =
    List.concat_map
      (fun (u : Cmt_format.cmt_infos) ->
        match (u.cmt_annots, source u) with
        | Cmt_format.Interface sg, Some path -> values path "" sg
        | _ -> [])
      units
  in
  let t = { decls; refs = Hashtbl.create 4096; labels = Hashtbl.create 1024 } in
  List.iter
    (fun (u : Cmt_format.cmt_infos) ->
      match u.cmt_annots with
      | Cmt_format.Implementation str -> record t str
      | _ -> ())
    (units @ callers);
  t

let decls t = t.decls
let decl_key d = key d.desc.val_val.val_loc d.desc.val_name.txt
let referenced t d = Hashtbl.mem t.refs (decl_key d)
let passed t d label = Hashtbl.mem t.labels (decl_key d ^ "~" ^ label)
