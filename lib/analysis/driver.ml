(* The analyzer driver: parse every file, index the compiled units, run
   the rule passes, apply the allowlist, and return sorted findings plus
   the allowlist entries that suppressed nothing.  Caller-only units
   (tests, benches, examples) are read for the references the interface
   rules count and are never themselves checked.  Pure — the caller
   (bin/analyze.ml, tests) owns loading, printing and process exit. *)

type file = { path : string; content : string }

(* directory prefix -> wrapper module name *)
let libraries =
  [
    ("lib/core", "Dynatune");
    ("lib/cluster", "Harness");
    ("lib/des", "Des");
    ("lib/netsim", "Netsim");
    ("lib/raft", "Raft");
    ("lib/kvsm", "Kvsm");
    ("lib/stats", "Stats");
    ("lib/check", "Check");
    ("lib/parallel", "Parallel");
    ("lib/multiraft", "Multiraft");
    ("lib/scenarios", "Scenarios");
    ("lib/telemetry", "Telemetry");
    ("lib/analysis", "Analysis");
  ]

let rules = Exports.rules @ Discipline.rules

let library_of path =
  match
    List.find_opt (fun (dir, _) -> Source.contains path (dir ^ "/")) libraries
  with
  | Some (_, wrapper) -> wrapper
  | None -> ""

let analyze ?(allow = []) ~callers ~units files =
  let parsed =
    List.map
      (fun f -> Source.parse ~library:(library_of f.path) ~path:f.path f.content)
      files
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) parsed with
  | Some e -> Error e
  | None ->
      let sources = List.filter_map Result.to_option parsed in
      let raw =
        Discipline.findings sources
        @ Exports.findings (Index.build ~callers units)
      in
      let findings =
        raw
        |> List.filter (fun f ->
               not (List.exists (fun e -> Finding.suppresses e f) allow))
        |> List.sort_uniq Finding.compare
      in
      let stale =
        List.filter
          (fun e -> not (List.exists (Finding.suppresses e) raw))
          allow
      in
      Ok (findings, stale)
