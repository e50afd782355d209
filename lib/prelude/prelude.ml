(* Stdlib itself: prelude.mli adds the alerts.  [Unix] is not linked
   into lib/, so its stand-in is empty. *)

module Stdlib = struct
  include Stdlib
  module Unix = struct end
end

include Stdlib
