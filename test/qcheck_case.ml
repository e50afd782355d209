(* The one way a qcheck property becomes an Alcotest case.  Under
   `dune runtest` every property draws from one fixed seed, so Tier-1 is
   repeatable.  `dune build @qcheck-random` sets QCHECK_RANDOM: test_main
   then runs only the properties, from a fresh seed (or QCHECK_SEED's),
   which qcheck prints so a failure can be replayed. *)

let random = Option.is_some (Sys.getenv_opt "QCHECK_RANDOM")
let cases = ref []

let to_alcotest t =
  let rand = if random then None else Some (Random.State.make [| 51 |]) in
  let case = QCheck_alcotest.to_alcotest ?rand t in
  cases := case :: !cases;
  case

let registered () = List.rev !cases
