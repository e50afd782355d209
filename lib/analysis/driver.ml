(* The analyzer driver: run the rule passes over the compiled units,
   apply the allowlist, and return sorted findings plus the allowlist
   entries that suppressed nothing.  Caller-only units (tests, benches,
   examples) are read for the references the interface rules count and
   are never themselves checked.  Pure — the caller (bin/analyze.ml,
   tests) owns loading, printing and process exit. *)

let rules = Exports.rules @ Discipline.rules

let analyze ?(allow = []) ~callers units =
  let raw =
    Discipline.findings units @ Exports.findings (Index.build ~callers units)
  in
  let findings =
    raw
    |> List.filter (fun f ->
           not (List.exists (fun e -> Finding.suppresses e f) allow))
    |> List.sort_uniq Finding.compare
  in
  let stale =
    List.filter (fun e -> not (List.exists (Finding.suppresses e) raw)) allow
  in
  (findings, stale)

let uncompiled units sources =
  let compiled = List.filter_map Index.source units in
  List.filter
    (fun path -> not (List.exists (String.equal path) compiled))
    sources

let stale units sources =
  List.filter
    (fun (u : Cmt_format.cmt_infos) ->
      match (u.cmt_sourcefile, u.cmt_source_digest) with
      | Some file, Some recorded ->
          List.exists
            (fun (path, digest) ->
              String.equal path file && not (Digest.equal digest recorded))
            sources
      | _ -> false)
    units
