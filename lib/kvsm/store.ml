(* Each key is bound to the last Put payload applied to it, encoded as
   [Command.to_payload] writes it: "P<len>:<key><len>:<value>".  The
   table's slot holds that payload alone, so the store keeps no bytes of
   its own per key: a Put applied from the log binds the committed
   payload itself, which the log retains anyway and every replica
   shares physically.  Rebinding a key overwrites its slot, so a
   superseded payload is not pinned.  A value is materialised when it
   is read. *)

(* A bound payload's key header is plain decimal, with no sign, prefix,
   underscore or leading zero, so two payloads bind the same key exactly
   when their bytes agree from the header to the key's end.  Hashing and
   equality read those bytes in place, eight at a time where they can,
   and nothing past them. *)
module Payload = struct
  type t = string

  (* The offset just past the key whose header starts at [i]. *)
  let rec key_end_from s i len =
    match String.unsafe_get s i with
    | ':' -> i + 1 + len
    | c -> key_end_from s (i + 1) ((len * 10) + Char.code c - 48)

  let key_end s = key_end_from s 1 0

  let rec same_bytes a b i stop =
    i = stop
    || Char.equal (String.unsafe_get a i) (String.unsafe_get b i)
       && same_bytes a b (i + 1) stop

  let rec same_words a b i stop =
    if i + 8 <= stop then
      Int64.equal (String.get_int64_ne a i) (String.get_int64_ne b i)
      && same_words a b (i + 8) stop
    else same_bytes a b i stop

  (* The headers byte by byte, summing [a]'s key length; once they agree
     up to the colon, the keys have one length and end at one offset. *)
  let rec same_header a b i len =
    let c = String.unsafe_get a i in
    Char.equal c (String.unsafe_get b i)
    &&
    if Char.equal c ':' then same_words a b (i + 1) (i + 1 + len)
    else same_header a b (i + 1) ((len * 10) + Char.code c - 48)

  let equal a b = same_header a b 1 0

  (* Multiplicative mixing, a word at a time, then a fold that brings
     every byte's bits down to the low ones the table indexes by. *)
  let m = 0x1E3779B97F4A7C15

  let rec tail s i stop w =
    if i = stop then w
    else tail s (i + 1) stop ((w lsl 8) lor Char.code (String.unsafe_get s i))

  let rec mix s i stop h =
    if i + 8 <= stop then
      mix s (i + 8) stop ((h lxor Int64.to_int (String.get_int64_ne s i)) * m)
    else (h lxor tail s i stop 0) * m

  let hash s =
    let h = mix s 1 (key_end s) 0 in
    let h = (h lxor (h lsr 32)) * m in
    h lxor (h lsr 29)
end

(* The table is one array of payloads, open-addressed with linear
   probing over a power-of-two length: a key lives at its hash's slot or
   past it, with no empty slot between.  [empty] marks a free slot; it
   is compared with [==] and is no payload, which always starts with
   'P'.  The table doubles once more than half its slots are bound: a
   fuller table leaves keys far from their home slot, and every slot a
   lookup passes costs a read of another key's payload (DESIGN.md
   15.5).  A deletion shifts the rest of its cluster back, so no slot
   is ever a tombstone.

   [probe] holds "P<len>:<key>" of the last key looked up by its raw
   bytes; whatever follows the key is stale and never read, and the
   table never retains the buffer.  [span] receives
   [Command.scan_put]'s offsets. *)
type t = {
  mutable slots : string array;
  mutable bound : int;
  span : Command.put_span;
  mutable probe : Bytes.t;
  mutable applied : int;
}

type result =
  | Value of string option
  | Written
  | Deleted of bool
  | Swapped of bool
  | Invalid of string

let empty = "empty slot"
let initial_slots = 16

let of_applied applied =
  {
    slots = Array.make initial_slots empty;
    bound = 0;
    span = Command.put_span ();
    probe = Bytes.empty;
    applied;
  }

let create () = of_applied 0
let size t = t.bound

(* The slot of [key] (a bound payload or a probe): the one holding its
   binding, or the free slot that ends its cluster. *)
let rec slot_from slots mask key i =
  let s = slots.(i) in
  if s == empty || Payload.equal s key then i
  else slot_from slots mask key ((i + 1) land mask)

let slot slots key =
  let mask = Array.length slots - 1 in
  slot_from slots mask key (Payload.hash key land mask)

let grow t =
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter (fun p -> if p != empty then slots.(slot slots p) <- p) old;
  t.slots <- slots

let bind t payload =
  let i = slot t.slots payload in
  let fresh = t.slots.(i) == empty in
  t.slots.(i) <- payload;
  if fresh then begin
    t.bound <- t.bound + 1;
    if 2 * t.bound > Array.length t.slots then grow t
  end

(* Backward-shift deletion: [hole] was just freed.  Each later payload
   of its cluster whose home slot is at or before the hole (cyclically)
   moves into it, and the hole moves to where that payload stood. *)
let rec close_hole slots mask hole i =
  let s = slots.(i) in
  if s == empty then slots.(hole) <- empty
  else if (i - (Payload.hash s land mask)) land mask >= (i - hole) land mask
  then begin
    slots.(hole) <- s;
    close_hole slots mask i ((i + 1) land mask)
  end
  else close_hole slots mask hole ((i + 1) land mask)

let remove t key =
  let slots = t.slots in
  let i = slot slots key in
  let found = slots.(i) != empty in
  if found then begin
    t.bound <- t.bound - 1;
    let mask = Array.length slots - 1 in
    close_hole slots mask i ((i + 1) land mask)
  end;
  found

let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

let rec write_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then write_digits b (i - 1) (n / 10)

(* [key] as a bound payload's prefix, in [t.probe]. *)
let probe t key =
  let len = String.length key in
  let width = decimal_width len in
  let stop = width + 2 + len in
  if Bytes.length t.probe < stop then t.probe <- Bytes.create stop;
  let b = t.probe in
  Bytes.unsafe_set b 0 'P';
  write_digits b width len;
  Bytes.unsafe_set b (width + 1) ':';
  Bytes.unsafe_blit_string key 0 b (width + 2) len;
  Bytes.unsafe_to_string b

let key_of payload =
  let start = String.index payload ':' + 1 in
  String.sub payload start (Payload.key_end payload - start)

let value_of payload =
  let start = String.index_from payload (Payload.key_end payload) ':' + 1 in
  String.sub payload start (String.length payload - start)

let find t key =
  let payload = t.slots.(slot t.slots (probe t key)) in
  if payload == empty then None else Some (value_of payload)

let bind_value t key value =
  bind t (Command.to_payload (Command.Put { key; value }))

(* Whether the header before [key_start] is [len] in plain decimal. *)
let rec digits_from s i stop =
  i = stop
  ||
  match String.unsafe_get s i with
  | '0' .. '9' -> digits_from s (i + 1) stop
  | _ -> false

let plain_header s ~key_start len =
  key_start - 2 = decimal_width len && digits_from s 1 (key_start - 1)

(* Bind the Put [t.span] locates in [payload]: the payload itself when
   its key header is plain decimal, else a re-encoding of its key and
   value ([Command.scan_put] also reads a sign, a leading zero, a base
   prefix or an underscore there). *)
let bind_put t payload =
  let { Command.key_start; key_end; value_start } = t.span in
  let len = key_end - key_start in
  if plain_header payload ~key_start len then bind t payload
  else
    bind_value t
      (String.sub payload key_start len)
      (String.sub payload value_start (String.length payload - value_start))

let apply_command t command =
  t.applied <- t.applied + 1;
  match command with
  | Command.Put _ ->
      bind t (Command.to_payload command);
      Written
  | Command.Get key -> Value (find t key)
  | Command.Delete key ->
      Deleted (remove t (probe t key))
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
    (Array.fold_left
       (fun acc payload ->
         if payload == empty then acc
         else (key_of payload, value_of payload) :: acc)
       [] t.slots)
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
