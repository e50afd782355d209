(* A value is held by reference: [len] bytes of [src] from [off].  A Put
   applied from the log points into the committed payload itself — the
   log retains that string anyway, and every replica shares it
   physically — so applying a Put copies at most its key, and only when
   the key is new.  A value is materialised when it is read. *)
type slot = { mutable src : string; mutable off : int; mutable len : int }

(* Keys are hashed and compared as strings, with no polymorphic
   [caml_hash]/[compare_val] call. *)
module Keys = Hashtbl.Make (String)

(* [probes] holds one reusable buffer per key length applied so far.  A
   committed Put's key is blitted into the buffer of its length and
   looked up through [Bytes.unsafe_to_string]; the table never retains
   the buffer (a new key is inserted as a fresh copy), so a key already
   present is found and rebound without allocating.  [span] receives
   [Command.scan_put]'s offsets. *)
type t = {
  table : slot Keys.t;
  span : Command.put_span;
  mutable probes : Bytes.t list;
  mutable applied : int;
}

type result =
  | Value of string option
  | Written
  | Deleted of bool
  | Swapped of bool
  | Invalid of string

let of_applied applied =
  {
    table = Keys.create 256;
    span = Command.put_span ();
    probes = [];
    applied;
  }

let create () = of_applied 0
let size t = Keys.length t.table

let value_of slot =
  if slot.off = 0 && slot.len = String.length slot.src then slot.src
  else String.sub slot.src slot.off slot.len

let find t key = Option.map value_of (Keys.find_opt t.table key)

let rebind slot src off len =
  slot.src <- src;
  slot.off <- off;
  slot.len <- len

let bind_value t key value =
  let len = String.length value in
  match Keys.find t.table key with
  | slot -> rebind slot value 0 len
  | exception Not_found -> Keys.add t.table key { src = value; off = 0; len }

(* The first buffer of length [len] in the list; [Bytes.empty], whose
   length is 0, when there is none. *)
let rec probe_of_length len = function
  | [] -> Bytes.empty
  | probe :: rest ->
      if Bytes.length probe = len then probe else probe_of_length len rest

let probe t len =
  let probe = probe_of_length len t.probes in
  if Bytes.length probe = len then probe
  else begin
    let probe = Bytes.create len in
    t.probes <- probe :: t.probes;
    probe
  end

(* Bind the key [t.span] locates in [payload] to the value it locates,
   updating the key's slot in place when it has one. *)
let bind_put t payload =
  let { Command.key_start; key_end; value_start } = t.span in
  let key_len = key_end - key_start in
  let probe = probe t key_len in
  Bytes.blit_string payload key_start probe 0 key_len;
  let off = value_start and len = String.length payload - value_start in
  match Keys.find t.table (Bytes.unsafe_to_string probe) with
  | slot -> rebind slot payload off len
  | exception Not_found ->
      Keys.add t.table
        (String.sub payload key_start key_len)
        { src = payload; off; len }

let apply_command t command =
  t.applied <- t.applied + 1;
  match command with
  | Command.Put { key; value } ->
      bind_value t key value;
      Written
  | Command.Get key -> Value (find t key)
  | Command.Delete key ->
      let existed = Keys.mem t.table key in
      if existed then Keys.remove t.table key;
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
      if Command.scan_put t.span payload then begin
        t.applied <- t.applied + 1;
        bind_put t payload;
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
    (Keys.fold (fun k slot acc -> (k, value_of slot) :: acc) t.table [])

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
          let t = of_applied applied in
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
