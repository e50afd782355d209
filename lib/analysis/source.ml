(* One parsed source file.  Parsing uses the vendored compiler frontend
   ([compiler-libs.common]); a file that fails to parse is an error of
   the run, never skipped. *)

type kind = Impl of Parsetree.structure | Intf of Parsetree.signature

type t = {
  path : string;  (* as given, e.g. "lib/raft/rpc.ml" *)
  library : string;  (* wrapper module of the owning library, "" if none *)
  modname : string;  (* capitalized basename, e.g. "Rpc" *)
  kind : kind;
}

let modname_of_path path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let error_location exn =
  match exn with
  | Syntaxerr.Error err -> Some (Syntaxerr.location_of_error err)
  | Lexer.Error (_, loc) -> Some loc
  | _ -> None

let parse ~library ~path content =
  let lexbuf = Lexing.from_string content in
  Location.init lexbuf path;
  match
    if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | kind -> Ok { path; library; modname = modname_of_path path; kind }
  | exception exn ->
      let line =
        match error_location exn with
        | Some loc -> loc.Location.loc_start.Lexing.pos_lnum
        | None -> 1
      in
      let error =
        match exn with
        | Syntaxerr.Error _ -> "syntax error"
        | Lexer.Error _ -> "lexing error"
        | exn -> Printexc.to_string exn
      in
      Error (Printf.sprintf "%s:%d: %s" path line error)

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let contains path sub =
  let n = String.length path and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub path i m) sub || go (i + 1))
  in
  go 0

(* [Longident.flatten] raises on [Lapply]; the analyzer treats those
   (functor applications in paths) as unresolvable instead. *)
let rec flatten_longident (lid : Longident.t) =
  match lid with
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (p, s) ->
      Option.map (fun ps -> ps @ [ s ]) (flatten_longident p)
  | Longident.Lapply _ -> None

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
