(* Chrome trace-event JSON writer (the format Perfetto and
   chrome://tracing load).  Events are appended to an in-memory buffer
   and serialized once at the end; timestamps are virtual DES time
   converted to the format's microsecond unit.

   The one lib/ module that touches the file system: [write] opens the
   file it is asked for, so ambient I/O is allowed for this file alone
   (the prelude's other bans still hold). *)

[@@@alert "-ambient_effect"]

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = { buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }
let event_count t = t.count

(* Multi-byte UTF-8 passes through verbatim (JSON is UTF-8), but only
   when well-formed: a stray 0x80..0xFF byte — a Latin-1 span name, a
   truncated sequence — would make the whole file invalid JSON, so
   malformed bytes are replaced with U+FFFD.  The validation follows the
   Unicode table: no overlongs, no surrogates, nothing above U+10FFFF. *)
let utf8_seq_len s i =
  let n = String.length s in
  let cont j lo hi =
    j < n
    &&
    let c = Char.code s.[j] in
    c >= lo && c <= hi
  in
  match Char.code s.[i] with
  | c when c < 0x80 -> 1
  | c when c >= 0xC2 && c <= 0xDF -> if cont (i + 1) 0x80 0xBF then 2 else 0
  | 0xE0 -> if cont (i + 1) 0xA0 0xBF && cont (i + 2) 0x80 0xBF then 3 else 0
  | c when c >= 0xE1 && c <= 0xEC ->
      if cont (i + 1) 0x80 0xBF && cont (i + 2) 0x80 0xBF then 3 else 0
  | 0xED ->
      (* 0xED 0xA0.. would encode a UTF-16 surrogate *)
      if cont (i + 1) 0x80 0x9F && cont (i + 2) 0x80 0xBF then 3 else 0
  | c when c >= 0xEE && c <= 0xEF ->
      if cont (i + 1) 0x80 0xBF && cont (i + 2) 0x80 0xBF then 3 else 0
  | 0xF0 ->
      if cont (i + 1) 0x90 0xBF && cont (i + 2) 0x80 0xBF && cont (i + 3) 0x80 0xBF
      then 4
      else 0
  | c when c >= 0xF1 && c <= 0xF3 ->
      if cont (i + 1) 0x80 0xBF && cont (i + 2) 0x80 0xBF && cont (i + 3) 0x80 0xBF
      then 4
      else 0
  | 0xF4 ->
      if cont (i + 1) 0x80 0x8F && cont (i + 2) 0x80 0xBF && cont (i + 3) 0x80 0xBF
      then 4
      else 0
  | _ -> 0 (* 0x80..0xC1, 0xF5..0xFF: never a lead byte *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '"' ->
        Buffer.add_string b "\\\"";
        incr i
    | '\\' ->
        Buffer.add_string b "\\\\";
        incr i
    | '\n' ->
        Buffer.add_string b "\\n";
        incr i
    | '\t' ->
        Buffer.add_string b "\\t";
        incr i
    | '\r' ->
        Buffer.add_string b "\\r";
        incr i
    | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c));
        incr i
    | c when Char.code c < 0x80 ->
        Buffer.add_char b c;
        incr i
    | _ -> (
        match utf8_seq_len s !i with
        | 0 ->
            Buffer.add_string b "\\ufffd";
            incr i
        | len ->
            Buffer.add_string b (String.sub s !i len);
            i := !i + len))
  done;
  Buffer.contents b

let arg_to_json = function
  | Int n -> string_of_int n
  | Float x ->
      if Float.is_nan x || Float.abs x = Float.infinity then "null"
      else Printf.sprintf "%.6g" x
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let add_args buf args =
  match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ", \"args\": {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf "\"";
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          Buffer.add_string buf (arg_to_json v))
        args;
      Buffer.add_string buf "}"

(* The trace-event format counts in microseconds; DES time is integer
   nanoseconds, so %.3f keeps exact virtual time with no rounding. *)
let ts_us at = Printf.sprintf "%.3f" (Des.Time.to_us_f at)

(* [fields] are extra top-level members, already rendered as JSON (the
   instant scope ["s"] lives beside [ph], not inside [args]). *)
let emit t ~ph ~name ~pid ~tid ?at ?(fields = []) ?(args = []) () =
  if t.count > 0 then Buffer.add_string t.buf ",";
  Buffer.add_string t.buf "\n  {\"ph\": \"";
  Buffer.add_string t.buf ph;
  Buffer.add_string t.buf "\", \"name\": \"";
  Buffer.add_string t.buf (escape name);
  Buffer.add_string t.buf "\", \"pid\": ";
  Buffer.add_string t.buf (string_of_int pid);
  Buffer.add_string t.buf ", \"tid\": ";
  Buffer.add_string t.buf (string_of_int tid);
  (match at with
  | None -> ()
  | Some at ->
      Buffer.add_string t.buf ", \"ts\": ";
      Buffer.add_string t.buf (ts_us at));
  List.iter
    (fun (k, v) ->
      Buffer.add_string t.buf ", \"";
      Buffer.add_string t.buf k;
      Buffer.add_string t.buf "\": ";
      Buffer.add_string t.buf v)
    fields;
  add_args t.buf args;
  Buffer.add_string t.buf "}";
  t.count <- t.count + 1

let duration_begin t ~name ~pid ~tid ~at ?(args = []) () =
  emit t ~ph:"B" ~name ~pid ~tid ~at ~args ()

let duration_end t ~name ~pid ~tid ~at () =
  emit t ~ph:"E" ~name ~pid ~tid ~at ~args:[] ()

let instant t ~name ~pid ~tid ~at ?(args = []) () =
  emit t ~ph:"i" ~name ~pid ~tid ~at ~fields:[ ("s", "\"t\"") ] ~args ()

let counter t ~name ~pid ~tid ~at ~values () =
  emit t ~ph:"C" ~name ~pid ~tid ~at
    ~args:(List.map (fun (k, v) -> (k, Float v)) values)
    ()

let thread_name t ~pid ~tid name =
  emit t ~ph:"M" ~name:"thread_name" ~pid ~tid ~args:[ ("name", Str name) ] ()

let process_name t ~pid name =
  emit t ~ph:"M" ~name:"process_name" ~pid ~tid:0
    ~args:[ ("name", Str name) ]
    ()

let to_string t =
  let b = Buffer.create (Buffer.length t.buf + 64) in
  Buffer.add_string b "{\"traceEvents\": [";
  Buffer.add_buffer b t.buf;
  if t.count > 0 then Buffer.add_string b "\n";
  Buffer.add_string b "], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
