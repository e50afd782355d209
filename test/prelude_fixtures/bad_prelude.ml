(* Prelude fixture: every identifier lib/prelude bans, each in every
   spelling that reaches it, compiled under lib/'s flags.  The build
   must fail with exactly the alerts bad_prelude.expected lists. *)

(* wall_clock (Sys also fires ambient_effect) *)
let cpu_seconds () = (Sys.time (), Stdlib.Sys.time ())

(* global_rng *)
let roll () = (Random.int 6, Stdlib.Random.int 6)
let seed () = Random.self_init ()

(* ambient_effect: all of Sys (word_size too), Unix, the channel
   modules, the standard channels and what prints to or reads them *)
let home () = (Sys.getenv "HOME", Stdlib.Sys.argv, Sys.word_size)

module U = Unix
module Su = Stdlib.Unix

let slurp ic = (In_channel.input_all ic, Stdlib.In_channel.input_all ic)
let spill oc = (Out_channel.flush oc, Stdlib.Out_channel.flush oc)
let channels = (stdin, stdout, stderr, Stdlib.stdin, Stdlib.stdout, Stdlib.stderr)
let chars = (print_char, Stdlib.print_char, prerr_char, Stdlib.prerr_char)
let strings = (print_string, Stdlib.print_string, prerr_string, Stdlib.prerr_string)
let bytes = (print_bytes, Stdlib.print_bytes, prerr_bytes, Stdlib.prerr_bytes)
let ints = (print_int, Stdlib.print_int, prerr_int, Stdlib.prerr_int)
let floats = (print_float, Stdlib.print_float, prerr_float, Stdlib.prerr_float)
let lines = (print_endline, Stdlib.print_endline, prerr_endline, Stdlib.prerr_endline)
let nls = (print_newline, Stdlib.print_newline, prerr_newline, Stdlib.prerr_newline)
let reads = (read_line, Stdlib.read_line, read_int, Stdlib.read_int)
let reads_opt = (read_int_opt, Stdlib.read_int_opt, read_float_opt, Stdlib.read_float_opt)
let read_floats = (read_float, Stdlib.read_float)
let opens_in = (open_in, Stdlib.open_in, open_in_bin, Stdlib.open_in_bin)
let opens_out = (open_out, Stdlib.open_out, open_out_bin, Stdlib.open_out_bin)
let show x = Printf.printf "%d\n" x; Stdlib.Printf.printf "%d\n" x
let complain msg = Printf.eprintf "%s\n" msg; Stdlib.Printf.eprintf "%s\n" msg
let render x = Format.printf "%d@." x; Stdlib.Format.printf "%d@." x
let warn msg = Format.eprintf "%s@." msg; Stdlib.Format.eprintf "%s@." msg
let ppfs = (Format.std_formatter, Stdlib.Format.std_formatter)
let err_ppfs = (Format.err_formatter, Stdlib.Format.err_formatter)

(* obj_magic *)
let cast x = (Obj.magic x, Stdlib.Obj.magic x)

(* poly_compare *)
let cmp a b = (compare a b, Stdlib.compare a b)
let order xs = List.sort compare xs
let bucket x = (Hashtbl.hash x, Stdlib.Hashtbl.hash x)
let larger a b = (max a b, Stdlib.max a b)
let smaller a b = (min a b, Stdlib.min a b)
let sum_max x y = Int.max x y + max x y

(* stdlib_exit *)
let bail () = exit 1
let die code = Stdlib.exit code

(* raw_fabric_send, direct and through a module alias *)
let ship fabric kind ~src ~dst msg =
  Netsim.Fabric.send fabric kind ~cause:0 ~src ~dst msg

module Fabric = Netsim.Fabric

let ship_aliased fabric kind ~src ~dst msg =
  Fabric.send fabric kind ~cause:0 ~src ~dst msg
