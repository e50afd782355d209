(** The initial scope of every lib/ library but this one: [Stdlib], with
    an alert on each identifier lib/ may not name.  lib/dune opens it
    ([-open Prelude]) and makes the alerts errors, so the compiler
    resolves every use, bare ([compare]) or qualified
    ([Stdlib.compare]), and a local that shadows a banned name stays
    legal.  Every figure must be a function of the seed and the
    arguments, and each alert's text says what to do instead.

    A site that must name a banned identifier lifts that one alert where
    it does: [(f [@alert "-name"])] for one use, [[@@@alert "-name"]]
    for a file.  [raw_fabric_send] is declared on [Netsim.Fabric.send]
    itself. *)

module Stdlib : sig
  include module type of struct include Stdlib end

  external compare : 'a -> 'a -> int = "%compare"
  [@@alert poly_compare "out-of-line compare_val: use a typed compare"]

  val min : 'a -> 'a -> 'a
  [@@alert poly_compare "out-of-line compare_val: use Int.min/Float.min"]

  val max : 'a -> 'a -> 'a
  [@@alert poly_compare "out-of-line compare_val: use Int.max/Float.max"]

  val exit : int -> 'a
  [@@alert stdlib_exit "only bin/ may end the process: raise or return"]

  (* Ambient I/O: results depend only on a run's arguments, and
     campaign shards never interleave output. *)
  val stdin : in_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val stdout : out_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val stderr : out_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_char : char -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_string : string -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_bytes : bytes -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_int : int -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_float : float -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_endline : string -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val print_newline : unit -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_char : char -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_string : string -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_bytes : bytes -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_int : int -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_float : float -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_endline : string -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val prerr_newline : unit -> unit
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val read_line : unit -> string
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val read_int : unit -> int
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val read_int_opt : unit -> int option
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val read_float : unit -> float
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val read_float_opt : unit -> float option
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val open_in : string -> in_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val open_in_bin : string -> in_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val open_out : string -> out_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
  val open_out_bin : string -> out_channel
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]

  module Printf : sig
    include module type of struct include Stdlib.Printf end

    val printf : ('a, out_channel, unit) format -> 'a
    [@@alert ambient_effect "ambient I/O: fprintf to a given channel"]

    val eprintf : ('a, out_channel, unit) format -> 'a
    [@@alert ambient_effect "ambient I/O: fprintf to a given channel"]
  end

  module Format : sig
    include module type of struct include Stdlib.Format end

    val printf : ('a, formatter, unit) format -> 'a
    [@@alert ambient_effect "ambient I/O: fprintf to a given formatter"]

    val eprintf : ('a, formatter, unit) format -> 'a
    [@@alert ambient_effect "ambient I/O: fprintf to a given formatter"]

    val std_formatter : formatter
    [@@alert ambient_effect "ambient I/O: take a formatter as an argument"]

    val err_formatter : formatter
    [@@alert ambient_effect "ambient I/O: take a formatter as an argument"]
  end

  module Hashtbl : sig
    include module type of struct include Stdlib.Hashtbl end

    val hash : 'a -> int
    [@@alert poly_compare "hash order is not stable: hash the typed key"]
  end

  module Obj : sig
    include module type of struct include Stdlib.Obj end

    external magic : 'a -> 'b = "%identity"
    [@@alert obj_magic "Obj.magic defeats the type system"]
  end

  module Random : module type of struct include Stdlib.Random end
  [@@alert global_rng "global, unseeded state: use a seeded Stats.Rng"]

  module Sys : sig
    include module type of struct include Stdlib.Sys end

    external time : unit -> (float[@unboxed])
      = "caml_sys_time" "caml_sys_time_unboxed"
    [@@noalloc]
    [@@alert wall_clock "a host clock: Des.Time is lib/'s only clock"]
  end
  [@@alert ambient_effect "ambient system state: take it as an argument"]

  (* Not linked into lib/; the empty stand-in keeps [Unix.*] out even if
     a library links it later.  Its clocks are [ambient_effect] too. *)
  module Unix : sig end
  [@@alert ambient_effect "ambient system state: take it as an argument"]

  module In_channel : module type of struct include Stdlib.In_channel end
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]

  module Out_channel : module type of struct include Stdlib.Out_channel end
  [@@alert ambient_effect "ambient I/O: pass a channel in or return data"]
end

include module type of struct include Stdlib end
