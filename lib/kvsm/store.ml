(* A value is held by reference: [len] bytes of [src] from [off].  A Put
   applied from the log points into the committed payload itself — the
   log retains that string anyway, and every replica shares it
   physically — so applying a Put copies only its key.  A value is
   materialised when it is read. *)
type slot = { mutable src : string; mutable off : int; mutable len : int }

type t = { table : (string, slot) Hashtbl.t; mutable applied : int }

type result =
  | Value of string option
  | Written
  | Deleted of bool
  | Swapped of bool
  | Invalid of string

let create () = { table = Hashtbl.create 256; applied = 0 }
let size t = Hashtbl.length t.table

let value_of slot =
  if slot.off = 0 && slot.len = String.length slot.src then slot.src
  else String.sub slot.src slot.off slot.len

let find t key = Option.map value_of (Hashtbl.find_opt t.table key)

(* Bind [key] to [len] bytes of [src] from [off], updating the key's
   slot in place when it has one. *)
let bind t key src off len =
  match Hashtbl.find t.table key with
  | slot ->
      slot.src <- src;
      slot.off <- off;
      slot.len <- len
  | exception Not_found -> Hashtbl.add t.table key { src; off; len }

let bind_value t key value = bind t key value 0 (String.length value)

let apply_command t command =
  t.applied <- t.applied + 1;
  match command with
  | Command.Put { key; value } ->
      bind_value t key value;
      Written
  | Command.Get key -> Value (find t key)
  | Command.Delete key ->
      let existed = Hashtbl.mem t.table key in
      if existed then Hashtbl.remove t.table key;
      Deleted existed
  | Command.Cas { key; expect; value } ->
      if Option.equal String.equal (find t key) expect then begin
        bind_value t key value;
        Swapped true
      end
      else Swapped false

let[@hot] apply_entry t (entry : Raft.Log.entry) =
  match entry.command with
  | Raft.Log.Noop | Raft.Log.Config _ -> None
  | Raft.Log.Data { payload; _ } -> (
      let key_end = Command.put_key_end payload in
      if key_end >= 0 then begin
        let key_start = Command.field_start payload 1 in
        let value_start = Command.field_start payload key_end in
        t.applied <- t.applied + 1;
        bind t
          (String.sub payload key_start (key_end - key_start))
          payload value_start
          (String.length payload - value_start);
        Some Written
      end
      else
        match Command.of_payload payload with
        | Ok command -> Some (apply_command t command)
        | Error msg ->
            t.applied <- t.applied + 1;
            Some (Invalid msg))

let applied_count t = t.applied

(* Bindings in key order; keys are unique, so the value tie-break only
   makes the comparator total. *)
let sorted_bindings t =
  let by_binding (k1, v1) (k2, v2) =
    match String.compare k1 k2 with 0 -> String.compare v1 v2 | c -> c
  in
  List.sort by_binding
    (Hashtbl.fold (fun k slot acc -> (k, value_of slot) :: acc) t.table [])

(* Snapshot format: "<applied>\n" then each binding as two
   length-prefixed fields "<len>:<bytes>". *)
let serialize t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (string_of_int t.applied);
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      let field s =
        Buffer.add_string buf (string_of_int (String.length s));
        Buffer.add_char buf ':';
        Buffer.add_string buf s
      in
      field k;
      field v)
    (sorted_bindings t);
  Buffer.contents buf

let of_serialized s =
  match String.index_opt s '\n' with
  | None -> Error "missing applied-count header"
  | Some nl -> (
      match int_of_string_opt (String.sub s 0 nl) with
      | None -> Error "malformed applied count"
      | Some applied ->
          let t = { table = Hashtbl.create 256; applied } in
          let parse_field pos =
            match String.index_from_opt s pos ':' with
            | None -> Error "missing length delimiter"
            | Some colon -> (
                match int_of_string_opt (String.sub s pos (colon - pos)) with
                | Some len when len >= 0 && colon + 1 + len <= String.length s
                  ->
                    Ok (String.sub s (colon + 1) len, colon + 1 + len)
                | Some _ | None -> Error "malformed field length")
          in
          let rec load pos =
            if pos = String.length s then Ok t
            else
              match parse_field pos with
              | Error e -> Error e
              | Ok (key, pos) -> (
                  match parse_field pos with
                  | Error e -> Error e
                  | Ok (value, pos) ->
                      bind_value t key value;
                      load pos)
          in
          load (nl + 1))

let state_digest t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf v;
      Buffer.add_char buf '\x01')
    (sorted_bindings t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
