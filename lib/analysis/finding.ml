(* A structured finding from the analyzer, plus the allowlist that
   suppresses sanctioned hits ([lint.allow]): one [path-suffix:rule-id]
   per line, [#] comments and blanks ignored; a finding is suppressed
   when its path ends with the suffix at a path-component boundary and
   the rule id matches.  An empty suffix or rule id is malformed: it
   would silently excuse a rule everywhere, or nothing. *)

type t = {
  path : string;  (** path of the file the finding points at *)
  line : int;  (** 1-based line of the offending construct *)
  rule : string;  (** rule id, e.g. ["mutable-global"] *)
  message : string;  (** human-readable explanation *)
}

let v ~path ~line ~rule message = { path; line; rule; message }
let line (loc : Location.t) = loc.loc_start.pos_lnum

let contains path sub =
  let n = String.length path and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub path i m) sub || go (i + 1))
  in
  go 0

let render t = Printf.sprintf "%s:%d: [%s] %s" t.path t.line t.rule t.message

let compare a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.message b.message

(* {1 Allowlist} *)

type entry = { suffix : string; rule_id : string; lineno : int }
type allow = entry list

let parse_allow source =
  String.split_on_char '\n' source
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.fold_left
       (fun acc (lineno, l) ->
         match (acc, String.rindex_opt l ':') with
         | Error e, _ -> Error e
         | Ok _, None -> Error l
         | Ok _, Some c when c = 0 || c = String.length l - 1 -> Error l
         | Ok entries, Some c ->
             let rule_id = String.sub l (c + 1) (String.length l - c - 1) in
             Ok ({ suffix = String.sub l 0 c; rule_id; lineno } :: entries))
       (Ok [])
  |> Result.map List.rev

let suppresses e f =
  String.equal e.rule_id f.rule
  && (String.equal f.path e.suffix
     || Filename.check_suffix f.path ("/" ^ e.suffix))
