(* Module-level mutable state: the classifier behind Discipline's
   [mutable-global] rule.

   Campaign shards run on separate OCaml 5 domains and must share no
   mutable state: every shard owns its engine, cluster and PRNG
   streams.  A top-level mutable value (ref, array, hash table, queue,
   buffer, atomic, record with a mutable field) is process-global, so
   any domain that runs code of its module shares it.  Rather than
   guess which modules a domain reaches, lib/ and bin/ define none;
   the few sanctioned ones are allowlisted with their reason. *)

let mutable_ctor parts =
  match parts with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> true
  | [ "Hashtbl"; ("create" | "of_seq" | "copy" | "rebuild") ] -> true
  | [ "Queue"; ("create" | "copy" | "of_seq") ] -> true
  | [ "Stack"; ("create" | "of_seq") ] -> true
  | [ "Buffer"; "create" ] -> true
  | [ "Bytes"; ("create" | "make" | "init" | "of_string" | "copy" | "sub") ]
    ->
      true
  | [
      "Array";
      ( "make" | "init" | "create_float" | "make_matrix" | "of_list" | "copy"
      | "append" | "concat" | "sub" | "map" | "mapi" );
    ] ->
      true
  | [ "Atomic"; "make" ] -> true
  | [ "Weak"; "create" ] -> true
  | [ "Mutex"; "create" ] | [ "Condition"; "create" ] -> true
  | [ "Semaphore"; ("Counting" | "Binary"); "make" ] -> true
  | _ -> false

(* The shape of a right-hand side that allocates mutable state at
   module initialization.  Functions are skipped: a function returning
   a fresh ref is fine.  [field_mutable] answers "is this record-field
   reference a mutable field?" with module-scoped lookup, so a field
   name that is mutable in some unrelated type does not taint every
   record literal in the tree. *)
let rec mutable_shape ~field_mutable (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident lid; _ }, _) -> (
      match Source.flatten_longident lid.Asttypes.txt with
      | Some parts when mutable_ctor parts ->
          Some (String.concat "." parts)
      | Some _ | None -> None)
  | Parsetree.Pexp_array _ -> Some "array literal"
  | Parsetree.Pexp_record (fields, _) ->
      List.find_map
        (fun ((lid : Longident.t Asttypes.loc), _) ->
          match Source.flatten_longident lid.Asttypes.txt with
          | Some parts when field_mutable parts -> (
              match List.rev parts with
              | f :: _ -> Some ("record with mutable field `" ^ f ^ "`")
              | [] -> None)
          | Some _ | None -> None)
        fields
  | Parsetree.Pexp_tuple es ->
      List.find_map (mutable_shape ~field_mutable) es
  | Parsetree.Pexp_construct (_, Some e)
  | Parsetree.Pexp_constraint (e, _)
  | Parsetree.Pexp_coerce (e, _, _)
  | Parsetree.Pexp_open (_, e)
  | Parsetree.Pexp_letmodule (_, _, e)
  | Parsetree.Pexp_sequence (_, e)
  | Parsetree.Pexp_let (_, _, e) ->
      mutable_shape ~field_mutable e
  | Parsetree.Pexp_ifthenelse (_, a, b) -> (
      match mutable_shape ~field_mutable a with
      | Some s -> Some s
      | None -> Option.bind b (mutable_shape ~field_mutable))
  | _ -> None

(* Mutable record fields (top-level and inline constructor records),
   keyed by the file-level module that declares them — ["Lib.Mod"].
   Implementations and interfaces of the same module merge. *)
type field_table = {
  ft_by_module : (string, string list) Hashtbl.t;  (* "Lib.Mod" -> fields *)
  ft_by_name : (string, string list) Hashtbl.t;  (* "Mod" -> keys *)
  ft_libs : (string, unit) Hashtbl.t;
}

let field_table (sources : Source.t list) =
  let t =
    {
      ft_by_module = Hashtbl.create 64;
      ft_by_name = Hashtbl.create 64;
      ft_libs = Hashtbl.create 16;
    }
  in
  let fields = ref [] in
  let label (ld : Parsetree.label_declaration) =
    match ld.pld_mutable with
    | Asttypes.Mutable -> fields := ld.pld_name.Asttypes.txt :: !fields
    | Asttypes.Immutable -> ()
  in
  let type_declaration self (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Parsetree.Ptype_record labels -> List.iter label labels
    | Parsetree.Ptype_variant ctors ->
        List.iter
          (fun (c : Parsetree.constructor_declaration) ->
            match c.pcd_args with
            | Parsetree.Pcstr_record labels -> List.iter label labels
            | Parsetree.Pcstr_tuple _ -> ())
          ctors
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration self td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  List.iter
    (fun (s : Source.t) ->
      fields := [];
      (match s.kind with
      | Source.Impl str -> it.Ast_iterator.structure it str
      | Source.Intf sg -> it.Ast_iterator.signature it sg);
      if !fields <> [] then begin
        let key = s.library ^ "." ^ s.modname in
        if s.library <> "" then Hashtbl.replace t.ft_libs s.library ();
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt t.ft_by_module key)
        in
        Hashtbl.replace t.ft_by_module key
          (List.sort_uniq String.compare (prev @ !fields));
        let keys =
          Option.value ~default:[] (Hashtbl.find_opt t.ft_by_name s.modname)
        in
        if not (List.mem key keys) then
          Hashtbl.replace t.ft_by_name s.modname (keys @ [ key ])
      end)
    sources;
  t

(* Module-scoped field lookup: an unqualified field is looked up in the
   current module; [M.f] in module [M] of the same library, else the
   unique module named [M]; [Lib.M.f] in module [M] of library [Lib]. *)
let field_mutable table ~lib ~modname parts =
  match List.rev parts with
  | [] -> false
  | f :: revmod ->
      let keys =
        match List.rev revmod with
        | [] -> [ lib ^ "." ^ modname ]
        | l :: m :: _ when Hashtbl.mem table.ft_libs l -> [ l ^ "." ^ m ]
        | m :: _ ->
            if Hashtbl.mem table.ft_by_module (lib ^ "." ^ m) then
              [ lib ^ "." ^ m ]
            else
              Option.value ~default:[]
                (Hashtbl.find_opt table.ft_by_name m)
      in
      List.exists
        (fun k ->
          match Hashtbl.find_opt table.ft_by_module k with
          | Some fs -> List.mem f fs
          | None -> false)
        keys

type binding = {
  bname : string;
  bline : int;
  bshape : string;  (* e.g. "Hashtbl.create" *)
}

let rec mutable_bindings_of_structure ~field_mutable ~prefix items acc =
  List.fold_left
    (fun acc (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc (vb : Parsetree.value_binding) ->
              match mutable_shape ~field_mutable vb.pvb_expr with
              | None -> acc
              | Some shape ->
                  let names =
                    match Source.pattern_names vb.pvb_pat with
                    | [] -> [ "_" ]
                    | ns -> ns
                  in
                  List.fold_left
                    (fun acc n ->
                      {
                        bname = prefix ^ n;
                        bline = Source.line_of_loc vb.pvb_loc;
                        bshape = shape;
                      }
                      :: acc)
                    acc names)
            acc vbs
      | Parsetree.Pstr_module
          {
            pmb_name = { Asttypes.txt = Some m; _ };
            pmb_expr = { pmod_desc = Parsetree.Pmod_structure items; _ };
            _;
          } ->
          mutable_bindings_of_structure ~field_mutable
            ~prefix:(prefix ^ m ^ ".") items acc
      | _ -> acc)
    acc items

let mutable_bindings sources =
  let table = field_table sources in
  fun (s : Source.t) ->
    match s.kind with
    | Source.Impl str ->
        List.rev
          (mutable_bindings_of_structure
             ~field_mutable:
               (field_mutable table ~lib:s.library ~modname:s.modname)
             ~prefix:"" str [])
    | Source.Intf _ -> []
