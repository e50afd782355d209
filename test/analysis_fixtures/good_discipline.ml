(* Analyzer self-test fixture: near-misses of lib/'s source discipline
   that must NOT fire. *)

let exit_code_of_result = function Ok _ -> 0 | Error _ -> 1
let compare_ints (a : int) b = Int.compare a b

(* A comparator parameter named [compare] is a local, not the
   polymorphic one. *)
let sort_with compare xs = List.sort compare xs

(* Typed min/max, physical equality, and a comparison with a constant
   constructor are not polymorphic compares on a built value. *)
let larger (a : int) b = Int.max a b
let larger_f a b = Float.max a b
let same_box a b = a == Some b
let unset x = x = None
let first_of max xs = List.fold_left max 0 xs

(* A function returning a fresh ref is not a mutable global... *)
let fresh_counter () = ref 0

(* ...and neither is a local one. *)
let bump () =
  let local = ref 0 in
  incr local;
  !local

(* Building a string is not printing it, and writing to a formatter the
   caller passed in is how lib/ code is supposed to render. *)
let render x = Printf.sprintf "%d" x
let pp ppf x = Format.fprintf ppf "%d" x
let pp_name ppf = Format.pp_print_string ppf "name"

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

(* Routing through the replication seam is the sanctioned way to reach
   the fabric, and other Fabric entry points (Fabric.send is banned from
   lib/raft, but only that one) stay available. *)
let transmit = Replication.transmit
let queue_depth fabric ~src ~dst = Netsim.Fabric.pending fabric ~src ~dst
