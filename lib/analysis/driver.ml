(* The analyzer driver: parse every file, run the rule passes, apply
   the allowlist, and return sorted findings plus the allowlist entries
   that suppressed nothing.  Caller-only files (tests, benches,
   examples) are read for the call sites [unset-optional] counts and
   are never themselves checked.  Pure — the caller (bin/analyze.ml,
   tests) owns printing and process exit. *)

type file = { path : string; content : string }

type config = {
  entry_dirs : string list;
      (* directories whose values are taint entry points *)
  libraries : (string * string) list;
      (* directory prefix -> wrapper module name *)
  allow : Finding.allow;
}

let default_libraries =
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

(* The forensics layer (cause allocation, recorder sampling) rides the
   hot paths it observes, so its entry points are taint roots like the
   DES/raft ones (the ring itself lives in lib/raft).  File-level
   prefixes, not the whole directory: the exporters (chrome_trace)
   legitimately write files when asked. *)
let default_entry_dirs =
  [
    "lib/des/";
    "lib/raft/";
    "lib/parallel/";
    "lib/multiraft/";
    "lib/telemetry/cause";
    "lib/telemetry/recorder";
  ]

let default_config ?(allow = []) () =
  { entry_dirs = default_entry_dirs; libraries = default_libraries; allow }

let rules =
  [
    ("parse-error", "the file does not parse, so nothing in it can be checked");
    ( "effect-taint",
      "call path from a DES/raft/parallel/forensics entry point to a banned \
       ambient effect (wall clock, global Random, Sys, I/O), through any \
       number of wrappers" );
    ( "shared-state",
      "top-level mutable value in a module reachable from closures handed \
       to Parallel.Pool/Campaign or Domain.spawn (campaign domains would \
       share it)" );
    ( "protocol-wildcard",
      "catch-all arm in a match over [@@protocol] variant constructors \
       (growing the protocol would be silently swallowed)" );
    (Unset_optional.rule, Unset_optional.doc);
  ]
  @ Discipline.rules

let library_of config path =
  match
    List.find_opt
      (fun (dir, _) -> Source.contains path (dir ^ "/"))
      config.libraries
  with
  | Some (_, wrapper) -> wrapper
  | None -> ""

let parse_findings (s : Source.t) =
  match s.kind with
  | Source.Broken { line; error } ->
      [ Finding.v ~path:s.path ~line ~rule:"parse-error" error ]
  | Source.Impl _ | Source.Intf _ -> []

let analyze ?config ~callers files =
  let config =
    match config with Some c -> c | None -> default_config ()
  in
  let parse =
    List.map (fun f ->
        Source.parse ~library:(library_of config f.path) ~path:f.path
          f.content)
  in
  let sources = parse files in
  let everything = sources @ parse callers in
  let cg = Callgraph.build sources in
  let raw =
    List.concat_map parse_findings sources
    @ Effects.findings ~entry_dirs:config.entry_dirs cg
    @ Shared_state.findings cg sources
    @ Exhaustive.findings sources
    @ Discipline.findings sources
    (* A graph of its own: caller modules must not change how the other
       rules resolve lib/ and bin/ names. *)
    @ Unset_optional.findings
        (Callgraph.build everything)
        ~scanned:sources ~callers:everything
  in
  let findings =
    raw
    |> List.filter (fun f ->
           not (List.exists (fun e -> Finding.suppresses e f) config.allow))
    |> List.sort_uniq Finding.compare
  in
  let stale =
    List.filter
      (fun e -> not (List.exists (Finding.suppresses e) raw))
      config.allow
  in
  (findings, stale)
