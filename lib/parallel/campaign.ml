type shard = { index : int; shards : int; seed : int64; quota : int }

(* The shard count of every campaign of more than one trial.  It is a
   constant, not the worker count, so a campaign's result does not depend
   on the host. *)
let max_shards = 4

let plan ~seed ~total =
  let count = Int.max 1 (Int.min max_shards total) in
  if count = 1 then [ { index = 0; shards = 1; seed; quota = total } ]
  else begin
    let base = total / count and extra = total mod count in
    List.init count (fun index ->
        {
          index;
          shards = count;
          seed = Stats.Rng.derive seed index;
          (* First [extra] shards carry one more trial so quotas sum to
             [total]. *)
          quota = (base + if index < extra then 1 else 0);
        })
  end

(* Each slot is written by the one worker that claimed its index and read
   only after every worker is done, so the slots need no lock.  One
   worker is the calling domain itself, with no domain spawned. *)
let all ~jobs thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match thunks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let workers = Int.min jobs n in
  if workers <= 1 then work ()
  else List.iter Domain.join (List.init workers (fun _ -> Domain.spawn work));
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)

let sharded ~jobs ~seed ~total ~f =
  all ~jobs (List.map (fun s () -> f s) (plan ~seed ~total))
