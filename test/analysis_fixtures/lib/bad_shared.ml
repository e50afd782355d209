(* Analyzer self-test fixture for [mutable-global]: module-level
   mutable values of every shape — a hash table, a ref, a record with a
   mutable field, an array.  Nothing here hands work to another domain:
   every domain that runs a module shares its top-level state, so each
   one is flagged where it is defined. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 16
let hits = ref 0

type cell = { mutable count : int; tag : string }

let shared_cell = { count = 0; tag = "shared" }
let scratch = Array.make 8 0

let work shard =
  Hashtbl.length table + !hits + shared_cell.count + scratch.(0) + shard
