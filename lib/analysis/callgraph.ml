(* A per-module value-level call graph over the whole source tree,
   which [unset-optional] resolves applications against.

   Nodes are top-level value bindings (nested modules contribute
   dot-prefixed names, module-initialization code is pooled into a
   per-file "(init)" node); edges come from every identifier a binding's
   body references, resolved against the tree:

   - [helper]              -> a value of the same file
   - [Rng.float]           -> module [Rng] of the same library, else the
                              unique library that has a module [Rng]
   - [Stats.Rng.float]     -> module [Rng] of library [Stats] (the
                              wrapper name disambiguates, e.g. the two
                              [Config] modules in core and raft)
   - [Node_id.Set.add]     -> nested value ["Set.add"] of [node_id.ml]
   - [Gm.create]           -> [Multiraft.Group_manager.create] when the
                              file says [module Gm = Multiraft.Group_manager];
                              a library wrapper's aliases count too
                              ([Scenarios.Multiraft] -> [Multiraft_scenario])

   Unresolvable references (locals, parameters, stdlib, external
   libraries) simply contribute no edge: the graph over-approximates
   locally (a local binding shadowing a top-level name still counts as a
   reference to the top-level) and under-approximates globally (calls
   through higher-order parameters are invisible), which is the usual
   static-call-graph trade-off. *)

type value = {
  vpath : string;  (* file the binding lives in *)
  vlib : string;  (* wrapper module name of its library, "" if none *)
  vmod : string;  (* module name, e.g. "Server" *)
  vname : string;  (* "f", "Sub.g", or "(init)" *)
  vline : int;
  vrefs : (string list * int) list;  (* flattened idents in the body *)
}

type t = {
  by_key : (string, value) Hashtbl.t;  (* vpath ^ "#" ^ vname *)
  module_file : (string, string) Hashtbl.t;  (* "Lib.Mod" -> .ml path *)
  mod_paths : (string, string list) Hashtbl.t;  (* "Mod" -> .ml paths *)
  libraries : (string, unit) Hashtbl.t;  (* known wrapper names *)
  aliases : (string, string list) Hashtbl.t;
      (* path ^ "#" ^ M -> target of [module M = A.B] in that file *)
}

let key ~path ~name = path ^ "#" ^ name

let display v =
  let lib = if v.vlib = "" || v.vlib = v.vmod then "" else v.vlib ^ "." in
  lib ^ v.vmod ^ "." ^ v.vname

(* {1 AST collection} *)

let collect_idents run =
  let acc = ref [] in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Parsetree.Pexp_ident lid -> (
        match Source.flatten_longident lid.Asttypes.txt with
        | Some parts -> acc := (parts, Source.line_of_loc e.pexp_loc) :: !acc
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  run it;
  List.rev !acc

let idents_of_expr e = collect_idents (fun it -> it.Ast_iterator.expr it e)

let idents_of_module_expr m =
  collect_idents (fun it -> it.Ast_iterator.module_expr it m)

let pattern_names pat =
  let acc = ref [] in
  let pat_it self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Parsetree.Ppat_var name | Parsetree.Ppat_alias (_, name) ->
        acc := name.Asttypes.txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with pat = pat_it } in
  it.Ast_iterator.pat it pat;
  List.rev !acc

(* {1 Graph construction} *)

let init_name = "(init)"

type builder = {
  bby_key : (string, value) Hashtbl.t;
  baliases : (string, string list) Hashtbl.t;
}

let add_value b ~path ~lib ~modname ~name ~line refs =
  let k = key ~path ~name in
  match Hashtbl.find_opt b.bby_key k with
  | Some existing ->
      (* several [let () = ...] blocks pool into one (init) node *)
      Hashtbl.replace b.bby_key k
        { existing with vrefs = existing.vrefs @ refs }
  | None ->
      Hashtbl.replace b.bby_key k
        {
          vpath = path;
          vlib = lib;
          vmod = modname;
          vname = name;
          vline = line;
          vrefs = refs;
        }

let rec structure_values b ~path ~lib ~modname ~prefix items =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      let line = Source.line_of_loc item.pstr_loc in
      match item.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let names = pattern_names vb.pvb_pat in
              let refs = idents_of_expr vb.pvb_expr in
              let line = Source.line_of_loc vb.pvb_loc in
              match names with
              | [] ->
                  add_value b ~path ~lib ~modname ~name:(prefix ^ init_name)
                    ~line refs
              | names ->
                  List.iter
                    (fun n ->
                      add_value b ~path ~lib ~modname ~name:(prefix ^ n) ~line
                        refs)
                    names)
            vbs
      | Parsetree.Pstr_eval (e, _) ->
          add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
            (idents_of_expr e)
      | Parsetree.Pstr_module mb -> bind_module b ~path ~lib ~modname ~prefix mb
      | Parsetree.Pstr_recmodule mbs ->
          List.iter (bind_module b ~path ~lib ~modname ~prefix) mbs
      | Parsetree.Pstr_include incl ->
          add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
            (idents_of_module_expr incl.pincl_mod)
      | _ -> ())
    items

and bind_module b ~path ~lib ~modname ~prefix (mb : Parsetree.module_binding) =
  let line = Source.line_of_loc mb.pmb_loc in
  match mb.pmb_name.Asttypes.txt with
  | Some m -> (
      match mb.pmb_expr.pmod_desc with
      | Parsetree.Pmod_structure items ->
          structure_values b ~path ~lib ~modname ~prefix:(prefix ^ m ^ ".")
            items
      | Parsetree.Pmod_ident target ->
          Option.iter
            (Hashtbl.replace b.baliases (key ~path ~name:(prefix ^ m)))
            (Source.flatten_longident target.Asttypes.txt);
          add_value b ~path ~lib ~modname ~name:(prefix ^ m) ~line []
      | _ ->
          (* functor / constrained module: one opaque node *)
          add_value b ~path ~lib ~modname ~name:(prefix ^ m) ~line
            (idents_of_module_expr mb.pmb_expr))
  | None ->
      add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
        (idents_of_module_expr mb.pmb_expr)

let build (sources : Source.t list) =
  let b = { bby_key = Hashtbl.create 256; baliases = Hashtbl.create 64 } in
  let module_file = Hashtbl.create 64 in
  let mod_paths = Hashtbl.create 64 in
  let libraries = Hashtbl.create 16 in
  List.iter
    (fun (s : Source.t) ->
      match s.kind with
      | Source.Impl items ->
          if s.library <> "" then Hashtbl.replace libraries s.library ();
          Hashtbl.replace module_file (s.library ^ "." ^ s.modname) s.path;
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt mod_paths s.modname)
          in
          Hashtbl.replace mod_paths s.modname (prev @ [ s.path ]);
          structure_values b ~path:s.path ~lib:s.library ~modname:s.modname
            ~prefix:"" items
      | Source.Intf _ | Source.Broken _ -> ())
    sources;
  {
    by_key = b.bby_key;
    module_file;
    mod_paths;
    libraries;
    aliases = b.baliases;
  }

(* {1 Resolution} *)

let lookup t ~path ~name = Hashtbl.find_opt t.by_key (key ~path ~name)

let alias t ~path m = Hashtbl.find_opt t.aliases (key ~path ~name:m)

let rec resolve t ~path ~lib parts =
  let parts =
    match parts with
    | m :: (_ :: _ as rest) -> (
        match alias t ~path m with
        | Some target -> target @ rest
        | None -> parts)
    | _ -> parts
  in
  match parts with
  | [] -> None
  | [ n ] -> lookup t ~path ~name:n
  | _ -> (
      let rec split = function
        | [ v ] -> ([], v)
        | m :: rest ->
            let ms, v = split rest in
            (m :: ms, v)
        | [] -> assert false
      in
      let mpath, v = split parts in
      let in_file file rest = lookup t ~path:file ~name:(String.concat "." (rest @ [ v ])) in
      match mpath with
      | l :: m :: rest when Hashtbl.mem t.libraries l -> (
          match
            ( Hashtbl.find_opt t.module_file (l ^ "." ^ m),
              Hashtbl.find_opt t.module_file (l ^ "." ^ l) )
          with
          | Some file, _ -> in_file file rest
          | None, Some wrapper when Option.is_some (alias t ~path:wrapper m) ->
              resolve t ~path:wrapper ~lib:l (m :: rest @ [ v ])
          | None, _ -> None)
      | m :: rest -> (
          match Hashtbl.find_opt t.module_file (lib ^ "." ^ m) with
          | Some file -> in_file file rest
          | None -> (
              match Hashtbl.find_opt t.mod_paths m with
              | Some [ file ] -> in_file file rest
              | Some _ | None -> None))
      | [] -> None)

let callees t v =
  List.filter_map
    (fun (parts, line) ->
      match resolve t ~path:v.vpath ~lib:v.vlib parts with
      | Some callee -> Some (callee, line)
      | None -> None)
    v.vrefs
