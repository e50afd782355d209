type t =
  | Put of { key : string; value : string }
  | Get of string
  | Delete of string
  | Cas of { key : string; expect : string option; value : string }

let equal a b =
  match (a, b) with
  | Put a, Put b -> a.key = b.key && a.value = b.value
  | Get a, Get b -> a = b
  | Delete a, Delete b -> a = b
  | Cas a, Cas b -> a.key = b.key
      && Option.equal String.equal a.expect b.expect
      && a.value = b.value
  | (Put _ | Get _ | Delete _ | Cas _), _ -> false

let pp ppf = function
  | Put { key; value } -> Format.fprintf ppf "PUT %s=%s" key value
  | Get key -> Format.fprintf ppf "GET %s" key
  | Delete key -> Format.fprintf ppf "DEL %s" key
  | Cas { key; expect; value } ->
      Format.fprintf ppf "CAS %s:%s->%s" key
        (Option.value ~default:"<absent>" expect)
        value

(* Encoding: TAG fields..., each field as <len>:<bytes>.

   Every payload is written into one exact-size string: the length
   headers are sized first, then written digit by digit, so encoding
   allocates nothing but its result.  The helpers are top-level
   functions, not local closures, for the same reason. *)

(* Characters of [string_of_int n]. *)
let rec decimal_width_from n w =
  if n > -10 && n < 10 then w else decimal_width_from (n / 10) (w + 1)

let decimal_width n = decimal_width_from n (if n < 0 then 2 else 1)

(* Digits of [n], least significant at [i], moving left.  [abs] of a
   remainder is a digit even for [min_int]. *)
let rec write_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + abs (n mod 10)));
  if n / 10 <> 0 then write_digits b (i - 1) (n / 10)

(* Write [string_of_int n] at [pos]; the offset just past it. *)
let write_decimal b pos n =
  let width = decimal_width n in
  if n < 0 then Bytes.unsafe_set b pos '-';
  write_digits b (pos + width - 1) n;
  pos + width

let header_width len = decimal_width len + 1

let write_header b pos len =
  let pos = write_decimal b pos len in
  Bytes.unsafe_set b pos ':';
  pos + 1

let field_width s = header_width (String.length s) + String.length s

let write_field b pos s =
  let pos = write_header b pos (String.length s) in
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let encode1 tag a =
  let b = Bytes.create (1 + field_width a) in
  Bytes.unsafe_set b 0 tag;
  ignore (write_field b 1 a : int);
  Bytes.unsafe_to_string b

let encode2 tag a c =
  let b = Bytes.create (1 + field_width a + field_width c) in
  Bytes.unsafe_set b 0 tag;
  ignore (write_field b (write_field b 1 a) c : int);
  Bytes.unsafe_to_string b

let encode3 tag a c d =
  let b = Bytes.create (1 + field_width a + field_width c + field_width d) in
  Bytes.unsafe_set b 0 tag;
  ignore (write_field b (write_field b (write_field b 1 a) c) d : int);
  Bytes.unsafe_to_string b

let to_payload = function
  | Put { key; value } -> encode2 'P' key value
  | Get key -> encode1 'G' key
  | Delete key -> encode1 'D' key
  | Cas { key; expect = Some e; value } -> encode3 'C' key e value
  | Cas { key; expect = None; value } -> encode2 'N' key value

(* The key "c<client_id>-k<slot>" is written in place between the two
   headers, so neither it nor its digits ever exist as strings. *)
let[@hot] client_put_payload ~client_id ~slot ~value =
  let key_len = decimal_width client_id + decimal_width slot + 3 in
  let value_len = String.length value in
  let b =
    Bytes.create
      (1 + header_width key_len + key_len + header_width value_len + value_len)
  in
  Bytes.unsafe_set b 0 'P';
  let pos = write_header b 1 key_len in
  Bytes.unsafe_set b pos 'c';
  let pos = write_decimal b (pos + 1) client_id in
  Bytes.unsafe_set b pos '-';
  Bytes.unsafe_set b (pos + 1) 'k';
  let pos = write_decimal b (pos + 2) slot in
  let pos = write_header b pos value_len in
  Bytes.unsafe_blit_string value 0 b pos value_len;
  Bytes.unsafe_to_string b

(* Decoding reads the headers where they stand.  The scanners return an
   offset (>= 0) or one of these negative error codes, so scanning
   allocates nothing, whatever the outcome. *)

let e_delimiter = -1
let e_length = -2
let e_range = -3
let e_empty = -4
let e_tag = -5
let e_trailing = -6

let rec colon_from s i =
  if i >= String.length s then -1
  else if String.unsafe_get s i = ':' then i
  else colon_from s (i + 1)

(* The value of the ASCII digit run [s.[i .. stop-1]], or -1. *)
let rec digits_value s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        digits_value s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* The length written in [s.[pos .. colon-1]], or [e_length]/[e_range].
   A run of at most 18 digits (every header the encoder writes, and too
   short to overflow) is summed in place.  Anything else — a sign, a
   base prefix, underscores, a longer run — takes the
   [int_of_string_opt] path, so the format accepts exactly what it
   always has. *)
let header_value s pos colon =
  let n = colon - pos in
  let fast = if n >= 1 && n <= 18 then digits_value s pos colon 0 else -1 in
  if fast >= 0 then fast
  else
    match int_of_string_opt (String.sub s pos n) with
    | Some len when len >= 0 -> len
    | Some _ -> e_range
    | None -> e_length

(* The offset just past the field whose header starts at [pos]. *)
let field_end s pos =
  let colon = colon_from s pos in
  if colon < 0 then e_delimiter
  else
    let len = header_value s pos colon in
    if len < 0 then len
    else if len > String.length s - colon - 1 then e_range
    else colon + 1 + len

let field_start s pos = colon_from s pos + 1

let arity = function 'P' | 'N' -> 2 | 'G' | 'D' -> 1 | 'C' -> 3 | _ -> 0

let rec fields_end s pos k =
  if k = 0 || pos < 0 then pos else fields_end s (field_end s pos) (k - 1)

(* 0 for a well-formed payload, else the first malformation's code. *)
let check s =
  if String.length s = 0 then e_empty
  else
    let k = arity (String.unsafe_get s 0) in
    if k = 0 then e_tag
    else
      let stop = fields_end s 1 k in
      if stop < 0 then stop
      else if stop <> String.length s then e_trailing
      else 0

let error_text s code =
  if code = e_empty then "empty payload"
  else if code = e_tag then Printf.sprintf "unknown tag %C" s.[0]
  else if code = e_delimiter then "missing length delimiter"
  else if code = e_length then "malformed length"
  else if code = e_range then "length out of range"
  else "trailing bytes"

(* A copy of the field whose header starts at [pos] and which ends at
   [stop]. *)
let field s pos stop =
  let start = field_start s pos in
  String.sub s start (stop - start)

let[@hot] of_payload s =
  let code = check s in
  if code < 0 then Error (error_text s code)
  else
    let n = String.length s in
    let key_end = field_end s 1 in
    let key = field s 1 key_end in
    match String.unsafe_get s 0 with
    | 'P' -> Ok (Put { key; value = field s key_end n })
    | 'G' -> Ok (Get key)
    | 'D' -> Ok (Delete key)
    | 'N' -> Ok (Cas { key; expect = None; value = field s key_end n })
    | _ ->
        (* 'C': [check] admits no other tag *)
        let expect_end = field_end s key_end in
        Ok
          (Cas
             {
               key;
               expect = Some (field s key_end expect_end);
               value = field s expect_end n;
             })

let payload_key s =
  let code = check s in
  if code < 0 then Error (error_text s code) else Ok (field s 1 (field_end s 1))

type put_span = {
  mutable key_start : int;
  mutable key_end : int;
  mutable value_start : int;
}

let put_span () = { key_start = 0; key_end = 0; value_start = 0 }

(* [check] and the two [field_end]s of a Put, fused: each header is read
   once, and the offsets [of_payload] would slice at are kept.  The
   value's header must end the payload exactly, which is [check]'s
   range and trailing-bytes tests together. *)
let[@hot] scan_put span s =
  let n = String.length s in
  n > 0
  && String.unsafe_get s 0 = 'P'
  &&
  let key_colon = colon_from s 1 in
  key_colon >= 0
  &&
  let key_len = header_value s 1 key_colon in
  key_len >= 0
  && key_len <= n - key_colon - 1
  &&
  let key_end = key_colon + 1 + key_len in
  let value_colon = colon_from s key_end in
  value_colon >= 0
  && header_value s key_end value_colon = n - value_colon - 1
  && begin
       span.key_start <- key_colon + 1;
       span.key_end <- key_end;
       span.value_start <- value_colon + 1;
       true
     end
