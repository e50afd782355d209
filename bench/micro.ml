(* Wall time per call of every loop [selfcheck --perf] gates
   (Bench_loops.loops), timed on the very closure its words/op budget
   prices.  Words/op are not reprinted here: that gate prints them.

   Each row runs [warmup] calls, then [repeats] timed runs of [iters]
   calls each.  The table prints the fastest run and the median run in
   ns per call; no fit, so the gap between the two columns is the
   host's drift over the row. *)

let warmup = 1_000
let repeats = 31
let iters = 10_000

(* ns per call of each timed run of [f], fastest first. *)
let ns_per_call f =
  for _ = 1 to warmup do
    f ()
  done;
  let runs =
    Array.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)
  in
  Array.sort Float.compare runs;
  runs

let run ppf =
  Format.fprintf ppf "  %d runs of %d calls per row, after %d warm-up calls@."
    repeats iters warmup;
  Format.fprintf ppf "  %-44s %10s %10s@." "operation" "min ns" "median ns";
  List.iter
    (fun { Bench_loops.name; make; _ } ->
      let runs = ns_per_call (make ()) in
      Format.fprintf ppf "  %-44s %10.1f %10.1f@." name runs.(0)
        runs.(repeats / 2))
    Bench_loops.loops
