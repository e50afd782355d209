(* Prelude fixture: a file-level exemption lifts its one alert and no
   other.  Like telemetry/chrome_trace.ml, this file may open the file
   it is asked for; reading the clock still fails with wall_clock. *)

[@@@alert "-ambient_effect"]

let write path = open_out path
let stamp () = Sys.time ()
