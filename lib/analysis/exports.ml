(* [unused-export] and [unset-optional]: an export nothing outside its
   module uses, and an optional parameter nothing outside it sets (a
   knob with one value: a constant behind an option). *)

let unused_export = "unused-export"

let unused_export_doc =
  "value of a lib/ interface that nothing outside its own module \
   references (delete it from the .mli, and its code if the module does \
   not use it)"

let unset_optional = "unset-optional"

let unset_optional_doc =
  "optional parameter of a lib/ interface value that no caller outside its \
   own module passes (a knob nothing sets; make it a constant)"

let rules =
  [ (unused_export, unused_export_doc); (unset_optional, unset_optional_doc) ]

let findings index =
  let check (d : Index.decl) =
    let modname =
      String.capitalize_ascii Filename.(remove_extension (basename d.path))
    in
    let unset =
      let rec go (t : Typedtree.core_type) =
        match t.ctyp_desc with
        | Typedtree.Ttyp_arrow (Asttypes.Optional label, _, rest)
          when not (Index.passed index d label) ->
            Finding.v ~path:d.path ~line:(Finding.line t.ctyp_loc)
              ~rule:unset_optional
              (Printf.sprintf "`?%s` of `%s.%s`: %s" label modname d.name
                 unset_optional_doc)
            :: go rest
        | Typedtree.Ttyp_arrow (_, _, rest) | Typedtree.Ttyp_poly (_, rest) ->
            go rest
        | _ -> []
      in
      go d.desc.val_desc
    in
    if Finding.contains d.path "lib/prelude/" || Index.referenced index d then
      unset
    else
      Finding.v ~path:d.path ~line:(Finding.line d.desc.val_loc)
        ~rule:unused_export
        (Printf.sprintf "`%s.%s`: %s" modname d.name unused_export_doc)
      :: unset
  in
  List.concat_map
    (fun (d : Index.decl) ->
      if Finding.contains d.path "lib/" then check d else [])
    (Index.decls index)
