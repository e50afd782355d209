type t = int
type span = int

let zero = 0
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let of_ms_f x = int_of_float (Float.round (x *. 1e6))
let of_sec_f x = int_of_float (Float.round (x *. 1e9))
let to_ms_f x = float_of_int x /. 1e6
let to_sec_f x = float_of_int x /. 1e9
let to_us_f x = float_of_int x /. 1e3
let add t s = t + s
let diff a b = a - b
let scale s k = int_of_float (Float.round (float_of_int s *. k))
let min_span = Int.min
let max_span = Int.max

let clamp (s : span) ~lo ~hi =
  if s < lo then lo else if s > hi then hi else s

let pp ppf t = Format.fprintf ppf "%.3fs" (to_sec_f t)
(* One format for both millisecond printers: probe text rendered with
   either is hashed into trace digests. *)
let ms_format : (float -> unit, 'b, unit) format = "%.1fms"
let pp_ms ppf s = Format.fprintf ppf ms_format (to_ms_f s)
let add_ms_to_buffer b s = Printf.bprintf b ms_format (to_ms_f s)
