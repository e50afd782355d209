(* Prelude fixture: near-misses of lib/prelude's bans that must compile
   under lib/'s flags.  A name the prelude bans is legal wherever it is
   not the Stdlib value: a record field, a label, a pattern-bound local. *)

(* Fields, puns, labels, optional arguments, bindings and annotations
   named [exit] *)
type outcome = { mutable exit : int; label : string }

let mk code = { exit = code; label = "run" }
let merge o = { o with exit = 0 }
let pun exit = { exit; label = "pun" }
let update o = o.exit <- o.exit + 1
let with_label ~exit:code () = code + 1
let optional ?exit:(code = 0) () = code
let annotated (exit : int) = { label = "annot"; exit }
let relabel ~exit = mk exit
let multi_line () = { exit = 1; label = "multi" }
let field o = o.exit
let labelled ~exit = exit + 1
let optional_pun ?(exit = 0) () = exit
let call f exit = f ~exit
let matched = function { exit; _ } -> exit
let local () = let exit = 2 in exit
let exit_code_of_result = function Ok _ -> 0 | Error _ -> 1
let rec loop n = if n = 0 then mk 0 else loop (n - 1)
and exit () = { exit = 9; label = "shadow" }
let rec loop2 n = n and exit = 3

(* Typed comparisons, and [compare]/[max] bound locally *)
let compare_ints (a : int) b = Int.compare a b
let sorted xs = List.sort Int.compare xs
let sort_with compare xs = List.sort compare xs
let sort_floats xs = let compare = Float.compare in List.sort compare xs
let applied = function compare -> compare 1 2
let larger (a : int) b = Int.max a b
let larger_f a b = Float.max a b
let first_of max xs = List.fold_left max 0 xs
let clamp max x = max x 0
let unset x = x = None

(* Building a string is not printing it; a formatter or channel the
   caller passes in is how lib/ renders *)
let render x = Printf.sprintf "%d" x
let pp ppf x = Format.fprintf ppf "%d" x
let pp_name ppf = Format.pp_print_string ppf "name"
let emit stdout s = output_string stdout s
let gettimeofday = 3

(* The rest of a shadowed module stays available *)
module Int_table = Hashtbl.Make (Int)

let fresh_table () : (string, int) Hashtbl.t = Hashtbl.create 16
let boxed = Obj.repr 3
let queue_depth fabric ~src ~dst = Netsim.Fabric.pending fabric ~src ~dst

(* A site-local exemption names the alert it lifts *)
let legacy a b = (compare [@alert "-poly_compare"]) a b
