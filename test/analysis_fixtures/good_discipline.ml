(* Analyzer self-test fixture: near-misses of lib/'s source discipline
   that must NOT fire. *)

(* Physical equality, and a comparison with a constant constructor, are
   not polymorphic compares on a built value. *)
let same_box a b = a == Some b
let unset x = x = None

(* Functions returning fresh mutable state are not mutable globals... *)
let fresh_counter () = ref 0
let fresh_table () : (string, int) Hashtbl.t = Hashtbl.create 16

(* ...and neither is a local one. *)
let bump () =
  let local = ref 0 in
  incr local;
  !local

(* ...nor is immutable top-level data. *)
let digits = [ 3; 1; 4 ]

(* A [@hot] binding that keeps the allocation discipline: loops and
   in-place updates, no combinators, no formatting, no lambdas... *)
let[@hot] sum_ready arr =
  let total = ref 0 in
  for i = 0 to Array.length arr - 1 do
    total := !total + Array.unsafe_get arr i
  done;
  !total

(* ...the postfix [@@hot] spelling also marks the binding... *)
let add_one x = x + 1 [@@hot]

(* ...its own parameters, [function] cases included, are not lambdas... *)
let[@hot] sign = function 0 -> `Zero | n when n < 0 -> `Negative | _ -> `Positive

(* ...and an unmarked neighbour may use the combinators freely. *)
let labels xs = List.map string_of_int xs
